"""External solver execution under resource limits.

Solvers are described by a descriptor (id, argv prefix, advertised formats
and tasks) and invoked with the competition flag contract:
``<cmd> -f <file> -fo <format> -p <task> [-a <arg>]``.  Each job runs as its
own process group with an address-space cap installed in the child; the
parent kills the group at the wall-time limit.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .limits import ResourceLimits
from .records import JobRecord, append_record, json_shape, read_json


@dataclass(frozen=True)
class SolverSpec:
    """External solver descriptor: executable argv prefix plus capabilities."""

    solver_id: str
    command: Tuple[str, ...]
    formats: Tuple[str, ...] = ("apx", "tgf")
    tasks: Tuple[str, ...] = ("*",)

    def supports_task(self, task_name: str) -> bool:
        return "*" in self.tasks or task_name in self.tasks

    def supports_format(self, fmt: str) -> bool:
        return fmt in self.formats

    @staticmethod
    def from_dict(data: dict) -> "SolverSpec":
        """Build a descriptor from its JSON object; ``command``, ``formats``
        and ``tasks`` must be lists of strings, never a bare string, which
        ``tuple`` would split into characters."""
        return SolverSpec(
            solver_id=data["id"],
            command=_strings("command", data["command"]),
            formats=_strings("formats", data.get("formats", ("apx", "tgf"))),
            tasks=_strings("tasks", data.get("tasks", ("*",))),
        )


def _strings(key: str, value) -> Tuple[str, ...]:
    if not (isinstance(value, (list, tuple))
            and all(isinstance(v, str) for v in value)):
        raise TypeError(f"{key!r} is not a list of strings: {value!r}")
    return tuple(value)


def load_roster(path) -> List[SolverSpec]:
    """Read a roster file: a JSON list of solver descriptors.  A file that
    is not one is a FormatError naming it."""
    entries = read_json(path)
    with json_shape(path, "a list of solver descriptors"):
        return [SolverSpec.from_dict(d) for d in entries]


def _limited_argv(argv: List[str], memory_bytes: int) -> List[str]:
    """Wrap a command so the child installs its own address-space cap.

    A tiny ``sh`` shim applies ``ulimit -v`` and execs the solver; this stays
    fork-safe under the thread pool (``preexec_fn`` is not) and the wall-time
    kill still covers platforms whose shell lacks the flag.
    """
    kib = max(1, memory_bytes // 1024)
    return ["/bin/sh", "-c",
            f'ulimit -v {kib} 2>/dev/null; exec "$@"', "sh"] + argv


@dataclass
class JobSpec:
    solver: SolverSpec
    task_name: str
    instance_id: str
    instance_path: str
    fmt: str
    query: Optional[str] = None
    limits: Optional[ResourceLimits] = None


def run_job(job: JobSpec) -> JobRecord:
    """Run one solver on one instance; output is captured unjudged."""
    solver = job.solver
    limits = job.limits or ResourceLimits.for_task(job.task_name)
    record = JobRecord(solver=solver.solver_id, task=job.task_name,
                       instance=job.instance_id, query=job.query)
    if not solver.supports_task(job.task_name):
        record.status = "error"
        record.diagnostic = f"solver does not advertise task {job.task_name}"
        return record
    argv = list(solver.command) + ["-f", job.instance_path, "-fo", job.fmt,
                                   "-p", job.task_name]
    if job.query is not None:
        argv += ["-a", job.query]
    if shutil.which(argv[0]) is None:
        record.status = "error"
        record.diagnostic = f"spawn failed: no executable {argv[0]!r}"
        return record
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(_limited_argv(argv, limits.memory_bytes),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL,
                                start_new_session=True)
    except OSError as exc:
        record.status = "error"
        record.diagnostic = f"spawn failed: {exc}"
        record.elapsed = time.perf_counter() - start
        return record
    try:
        out, _ = proc.communicate(timeout=limits.wall_seconds)
        record.exit_status = proc.returncode
        record.raw = out.decode("utf-8", errors="replace")
        if proc.returncode != 0:
            record.status = "error"
            record.diagnostic = f"exit status {proc.returncode}"
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            proc.kill()
        proc.communicate()
        record.status = "timeout"
        record.diagnostic = f"wall-time limit of {limits.wall_seconds}s reached"
    record.elapsed = time.perf_counter() - start
    return record


def run_jobs(jobs: Sequence[JobSpec], parallelism: int = 1,
             log_path=None) -> List[JobRecord]:
    """Run jobs on a bounded worker pool.

    Records are appended to ``log_path`` as jobs finish (append-only,
    crash-safe) and the returned list is sorted by (solver, task, instance,
    query) so downstream aggregation never depends on completion order.
    """
    records: List[JobRecord] = []
    with ThreadPoolExecutor(max_workers=max(1, parallelism)) as pool:
        for record in pool.map(run_job, jobs):
            if log_path is not None:
                append_record(log_path, record)
            records.append(record)
    records.sort(key=lambda r: (r.solver, r.task, r.instance, r.query or ""))
    return records
