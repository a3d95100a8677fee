"""Workload ``cli``: sequential ICCMA solver-mode calls.

Each call is ``python -m afkit -f <file> -fo <apx|tgf> -p <task> [-a <arg>]``
with the checkout's ``src`` on the path (no console script is installed),
timed from spawn to exit.  Tiny frameworks from every preset family make
start-up dominate; AdmBuster frameworks of 10^4 to 5*10^4 arguments make
parsing dominate.  The tasks need almost no search: SE-GR, DC-CO, DS-CO,
EE-ST, and EE-PR on AdmBuster.

Why this workload: interpreter start, imports, ``formats``, the ``core``
constructor and ``solutions`` do the work.  An engine-search change should
leave it flat.

Each distinct call is checked afterwards: its stdout must equal
``write_solution(solve_optimized(...))`` computed in-process from the same
file, and it must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchlib import SRC, ROOT, Pass, instance_digest, preset_instance

NAME = "cli"

TINY_FAMILIES = ("admbuster", "sembuster", "grounded", "scc", "stable",
                 "erdos", "watts", "barabasi")
TINY_SIZE = {"sembuster": 3}   # 9 arguments; the other families use n=10
TINY_TASKS = ("SE-GR", "DC-CO", "DS-CO", "EE-ST")
# AdmBuster size -> tasks; acyclic, so parsing and the grounded fixed point
# carry these calls.  They are a third of the sequence and all of one size,
# so the 90th percentile falls inside their cluster, and the median inside
# the tiny calls', rather than on the gap between the two.
LARGE = ((30000, ("SE-GR", "DC-CO", "DS-CO", "EE-ST", "EE-PR", "SE-GR",
                  "DC-CO", "DS-CO")),)
CALL_CAP = 60.0      # wall seconds per call, enforced by killing the child


@dataclass
class Call:
    op: str
    family: str
    path: Path
    fmt: str
    task: str
    query: Optional[str]

    def argv(self) -> List[str]:
        argv = [sys.executable, "-m", "afkit", "-f", str(self.path),
                "-fo", self.fmt, "-p", self.task]
        if self.query is not None:
            argv += ["-a", self.query]
        return argv


@dataclass
class State:
    calls: List[Call]
    digest: str


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def setup(seed: int, tracer, workdir: Path, tiny=TINY_FAMILIES,
          large=LARGE) -> State:
    from afkit.formats import write_apx, write_tgf
    from afkit.generators import gen_admbuster
    from afkit.rng import SeededRng

    rng = SeededRng(seed).split(NAME)
    files = workdir / "instances"
    files.mkdir(parents=True, exist_ok=True)
    named = []   # (name, af, fmt, tasks)
    for i, family in enumerate(tiny):
        n = TINY_SIZE.get(family, 10)
        with tracer.span(f"generators.{family}", op=f"{family}/{n}"):
            af = preset_instance(family, n, rng.split(f"{family}/{n}"))
        # Two of the four tasks per framework, alternating formats.
        named.append((f"{family}/{n}", af, "tgf" if i % 2 else "apx",
                      TINY_TASKS[i % 2::2]))
    for n, tasks in large:
        with tracer.span("generators.admbuster", op=f"admbuster/{n}"):
            af = gen_admbuster(n)
        named.append((f"admbuster/{n}", af, "apx", tasks))
    calls, texts = [], []
    for name, af, fmt, tasks in named:
        writer = write_tgf if fmt == "tgf" else write_apx
        with tracer.span(f"formats.write_{fmt}", op=name):
            text = writer(af)
        path = files / (name.replace("/", "_") + "." + fmt)
        path.write_text(text, encoding="utf-8")
        texts.append((name, text))
        for k, task in enumerate(tasks):
            query = None
            if task.startswith(("DC-", "DS-")):
                query = rng.split(f"query/{name}/{task}/{k}").choice(af.args)
            calls.append(Call(f"{name}/{task}/{k}", name.split("/")[0], path,
                              fmt, task, query))
    return State(calls, instance_digest(texts))


def run_pass(state: State, tracer, index: int) -> Pass:
    env = child_env()
    walls: List[float] = []
    results: Dict[str, Tuple[str, int, str]] = {}
    start = time.perf_counter()
    for call in state.calls:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(call.argv(), env=env, cwd=ROOT,
                                  capture_output=True, timeout=CALL_CAP)
            status = "ok" if proc.returncode == 0 else "error"
            out, code = proc.stdout.decode("utf-8", errors="replace"), proc.returncode
        except subprocess.TimeoutExpired:
            status, out, code = "cap", "", -9
        wall = time.perf_counter() - t0
        tracer.record("cli.call", t0, t0 + wall, op=call.op)
        walls.append(min(wall, CALL_CAP))
        results[call.op] = (status, code, out)
    total = time.perf_counter() - start
    return Pass(wall=total, items=len(state.calls), solve_times=walls,
                cell_times=list(walls), call_times=list(walls),
                rate=len(state.calls) / total, extra={"results": results})


def expected_answers(state: State, tracer) -> Dict[str, str]:
    """Each call's answer computed in-process, layer by layer."""
    from afkit.core import ArgumentationFramework, grounded_extension
    from afkit.engine import solve_optimized
    from afkit.formats import parse_framework
    from afkit.solutions import write_solution
    from afkit.tasks import parse_task

    frameworks: Dict[Path, object] = {}
    expected = {}
    for call in state.calls:
        if call.path not in frameworks:
            text = call.path.read_text(encoding="utf-8")
            with tracer.span(f"formats.parse_{call.fmt}", op=call.op):
                parsed = parse_framework(text, call.fmt)
            tracer.count("formats.args", len(parsed))
            with tracer.span("core.build", op=call.op):
                af = ArgumentationFramework(parsed.args, parsed.attacks)
            with tracer.span("core.grounded", op=call.op):
                grounded_extension(af)
            frameworks[call.path] = af
        af = frameworks[call.path]
        task = parse_task(call.task, call.query)
        with tracer.span(f"engine.{call.task}", op=call.op):
            answer = solve_optimized(task, af)
        tracer.count(f"engine.{call.task}.solved")
        tracer.count(f"engine.{call.family}.solved")
        with tracer.span("solutions.write", op=call.op):
            expected[call.op] = write_solution(task, answer)
    return expected


def check(state: State, passes: List[Pass], tracer, recorded) -> None:
    from afkit.harness.scoring import score
    from afkit.solutions import parse_solution
    from afkit.tasks import parse_task

    expected = expected_answers(state, tracer)
    for p in passes:
        p.failed, correct = [], 0
        for call in state.calls:
            status, code, out = p.extra["results"][call.op]
            with tracer.span("solutions.parse", op=call.op):
                parsed = parse_solution(parse_task(call.task, call.query), out)
            if status != "ok":
                p.failed.append(f"{call.op}: exit status {code}")
            elif out.strip() != expected[call.op] or not parsed.parsed:
                p.failed.append(f"{call.op}: stdout differs from the in-process answer")
            else:
                correct += 1
        p.score = score(correct, len(p.failed))


PROBES = (("cli.bare_python", ["-c", "pass"]),
          ("cli.import", ["-c", "import afkit.cli"]),
          ("cli.cold_start", ["-m", "afkit", "--problems"]))


def startup_probes(tracer, repeats: int = 5) -> Dict[str, float]:
    """Median spawn-to-exit seconds of bare Python, of importing the CLI
    module, and of the smallest solver-mode call."""
    env = child_env()
    out = {}
    for name, args in PROBES:
        walls = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable] + args, env=env, cwd=ROOT,
                           capture_output=True, check=True, timeout=CALL_CAP)
            walls.append(time.perf_counter() - t0)
            tracer.record(name, t0, t0 + walls[-1], op=name)
        out[f"{name}_s"] = sorted(walls)[len(walls) // 2]
    return out
