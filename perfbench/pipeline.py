"""Workload ``pipeline``: one competition round through the public harness.

A round generates a pool from preset configs (watts and barabasi included,
whose cycle enrichment is networkx-bound) and writes it as APX; selects one
framework per family with ``select_benchmarks`` and assigns query
arguments; runs ``run_jobs`` over afkit's optimized solver, its
oracle-backed solver and the acceptance suite's corrupted solver, one job
at a time; judges every cell with a ``ReferenceBundle`` and
``verify_cascade``; and emits the report.  The pool sits on both sides of
the oracle's 20-argument cap, and the tasks include SE-SST and SE-STG,
whose verification is unbudgeted.

Why this workload: ``generators``, process spawning in ``harness.runner``,
``harness.judge``, ``oracle`` and ``verify`` do the work.  The engine serves
only as the budgeted judging reference, unlike in ``ladder``.

Each judged cell runs in a forked child under a wall cap, so a slow
verification becomes an unjudged cell, never a hang.  The gate: afkit's
solvers are judged correct on every judged job and the corrupted solver
incorrect on every one.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from benchlib import (ROOT, SRC, Pass, instance_digest, preset_instance,
                      quantile, run_capped)

NAME = "pipeline"

# Size parameter per family: the small pool is within the oracle's reach
# (14 arguments), the large pool above its 20-argument cap.  Selection takes
# one framework per family, so the seed varies the configurations and
# queries but not which families a round holds; that keeps rounds of
# different seeds comparable.  Erdos stays out of the large pool: its preset
# densities reach 1.0, and at 22 arguments most draws exhaust the judging
# reference's budget, which would leave D3 cells without a reference.
SMALL = {"watts": 14, "barabasi": 14}
LARGE = {"grounded": 26, "scc": 26, "sembuster": 7}
CANDIDATES = 2          # frameworks per random family in the pool
TASKS = ("EE-PR", "SE-PR", "DC-ST", "SE-SST", "SE-STG", "D3")
CORRUPTED_TASKS = ("DC-ST", "SE-SST", "D3")
PACKAGE_SOLVERS = ("afkit-optimized", "afkit-oracle")
# One solver job at a time: with two on the machine's two vCPUs, plus this
# process, job times measured the scheduler as much as the solvers.
JOBS_AT_ONCE = 1
JOB_CAP = 30.0          # wall seconds per solver job (the runner kills it)
JOB_MEMORY = 2 * 1024 ** 3
JUDGE_CAP = 5.0         # wall seconds per judged cell
REF_BUDGET = 200_000    # engine node budget of the judging reference


@dataclass
class State:
    plan: List[Tuple[str, str, int, int]]     # (pool, family, n, candidate)
    seed: int
    workdir: Path
    digest: str
    corrupted: str = ""                       # path of the corrupted solver


def corrupted_solver(workdir: Path) -> str:
    """Write the acceptance suite's corrupted solver into ``workdir``."""
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.append(tests)
    from test_acceptance import _write_corrupted_wrapper
    return _write_corrupted_wrapper(workdir)


def _roster(state: State):
    from afkit.harness import SolverSpec

    return {
        "afkit-optimized": SolverSpec("afkit-optimized",
                                      (sys.executable, "-m", "afkit")),
        "afkit-oracle": SolverSpec("afkit-oracle",
                                   (sys.executable, "-m", "afkit", "oracle")),
        "corrupted": SolverSpec("corrupted", (sys.executable, state.corrupted),
                                tasks=CORRUPTED_TASKS),
    }


def _generate(state: State, tracer):
    from afkit.rng import SeededRng

    rng = SeededRng(state.seed).split(NAME)
    out = {}
    for pool, family, n, k in state.plan:
        name = f"{pool}_{family}_{n}_{k}"
        with tracer.span(f"generators.{family}", op=name):
            out[name] = (pool, family, preset_instance(
                family, n, rng.split(f"{family}/{n}/{k}")))
    return out


def setup(seed: int, tracer, workdir: Path, small=SMALL, large=LARGE) -> State:
    from afkit.formats import write_apx

    # run_jobs starts solvers with this process's environment.
    if str(SRC) not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    plan = [(pool, f, n, k)
            for pool, sizes in (("small", small), ("large", large))
            for f, n in sizes.items()
            for k in range(1 if f in ("admbuster", "sembuster") else CANDIDATES)]
    state = State(plan, seed, workdir, "", corrupted_solver(workdir))
    texts = []
    for name, (_, _, af) in _generate(state, tracer).items():
        with tracer.span("formats.write_apx", op=name):
            texts.append((name, write_apx(af)))
    state.digest = instance_digest(texts)
    return state


def traced_bundle(af, tracer, op):
    """A ReferenceBundle whose reference solves and verifications are timed.

    The reference solver goes in through the public ``solver`` argument and
    does what the default one does: the oracle within its size cap, the
    budgeted engine above it.  ``is_extension`` is timed by subclassing.
    """
    from afkit import engine, oracle
    from afkit.errors import OracleSizeError
    from afkit.harness import ReferenceBundle

    def reference(task, framework):
        with tracer.span("harness.judge.reference", op=op):
            try:
                with tracer.span("oracle.solve", op=op):
                    return oracle.solve(task, framework)
            except OracleSizeError:
                pass
            with tracer.span(f"engine.{task.name()}", op=op):
                answer = engine.solve_optimized(task, framework,
                                                budget=REF_BUDGET)
            tracer.count(f"engine.{task.name()}.solved")
            return answer

    class Bundle(ReferenceBundle):
        def is_extension(self, sem, members):
            tracer.count("verify.calls")
            with tracer.span(f"verify.{sem}", op=op):
                return super().is_extension(sem, members)

    return Bundle(af, solver=reference, budget=REF_BUDGET)


def _judge_cell(af, task, records, tracer, op):
    from afkit.harness import verify_cascade
    from afkit.solutions import parse_solution

    bundle = traced_bundle(af, tracer, op)
    with tracer.span("solutions.parse", op=op):
        solutions = [parse_solution(task, r.raw if r.status == "ok" else "")
                     for r in records]
    verdicts = []
    for sol in solutions:
        with tracer.span("harness.judge", op=op):
            j = verify_cascade(task, bundle, sol, solutions)
        verdicts.append((j.verdict, j.unchecked))
    return verdicts, bundle.answer_for(task) is None


def run_pass(state: State, tracer, index: int) -> Pass:
    from afkit.formats import load_framework, write_apx
    from afkit.harness import (HardnessCategory, ReferenceBundle, ResourceLimits,
                               assign_query_arguments, emit_report,
                               select_benchmarks)
    from afkit.harness.runner import JobSpec, run_jobs
    from afkit.rng import SeededRng
    from afkit.tasks import parse_task

    rng = SeededRng(state.seed).split(f"{NAME}/round")
    round_dir = state.workdir / f"round{index}"
    round_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()

    pool = _generate(state, tracer)
    paths = {}
    for name, (_, _, af) in pool.items():
        with tracer.span("formats.write_apx", op=name):
            text = write_apx(af)
        paths[name] = round_dir / f"{name}.apx"
        paths[name].write_text(text, encoding="utf-8")

    with tracer.span("harness.select", op=f"round{index}"):
        domains = {}
        for name, (_, family, _) in pool.items():
            domains.setdefault(family, []).append(name)
        chosen = [name for _, name in
                  select_benchmarks(domains, len(domains), rng.split("pick"))]
        bundles = {name: ReferenceBundle(pool[name][2], budget=REF_BUDGET)
                   for name in chosen}
        by_af = {id(pool[name][2]): name for name in chosen}

        def answer_fn(task_name, af, query):
            ans = bundles[by_af[id(af)]].answer_for(parse_task(task_name, query))
            return None if ans is None else ans.value

        assignments, _ = assign_query_arguments(
            [(name, pool[name][2], HardnessCategory.EASY) for name in chosen],
            TASKS, answer_fn, rng.split("queries"))
    queries = {a.instance: a.queries for a in assignments}

    roster = _roster(state)
    limits = ResourceLimits(JOB_CAP, JOB_MEMORY)
    jobs = []
    for name in chosen:
        small = pool[name][0] == "small"
        for task in TASKS:
            for solver in roster.values():
                if solver.solver_id == "afkit-oracle" and not small:
                    continue
                if not solver.supports_task(task):
                    continue
                for q in (queries[name] if task.startswith(("DC-", "DS-")) else [None]):
                    jobs.append(JobSpec(solver, task, name, str(paths[name]),
                                        "apx", query=q, limits=limits))
    t_run = time.perf_counter()
    with tracer.span("harness.runner", op=f"round{index}"):
        records = run_jobs(jobs, parallelism=JOBS_AT_ONCE)
    run_wall = time.perf_counter() - t_run
    tracer.count("harness.runner.errors",
                 sum(1 for r in records if r.status != "ok"))

    frameworks = {}
    for name in chosen:
        with tracer.span("formats.parse_apx", op=name):
            frameworks[name] = load_framework(paths[name], "apx")
        tracer.count("formats.args", len(frameworks[name]))
    cells: Dict[Tuple[str, str, str], list] = {}
    for r in records:
        cells.setdefault((r.task, r.instance, r.query or ""), []).append(r)
    for (task_name, instance, query), cell in sorted(cells.items()):
        op = f"{instance}/{task_name}/{query}"
        task = parse_task(task_name, query or None)
        res = run_capped(lambda: _judge_cell(frameworks[instance], task, cell,
                                             tracer, op),
                         JUDGE_CAP, tracer)
        tracer.count("harness.judge.cells")
        if res.status != "ok":
            # Left unjudged (verdict None): a capped or crashed judge is
            # data, recorded in the unchecked count.
            tracer.count("harness.judge.unchecked", len(cell))
            continue
        verdicts, no_reference = res.value
        tracer.count("harness.judge.no_reference", int(no_reference))
        for r, (verdict, unchecked) in zip(cell, verdicts):
            r.judged(verdict, unchecked)
            tracer.count("harness.judge.unchecked", int(unchecked))

    with tracer.span("harness.report", op=f"round{index}"):
        emit_report(records, round_dir / "report")
    wall = time.perf_counter() - start
    # A cell here is one job, as in ``cli``: the judged-cell times mix
    # oracle-referenced and engine-referenced cells in proportions that
    # put their median on the gap between the two.
    elapsed = [r.elapsed for r in records]
    return Pass(wall=wall, items=len(records),
                solve_times=[min(t, JOB_CAP) for t in elapsed],
                cell_times=elapsed, call_times=list(elapsed),
                rate=len(jobs) / run_wall,
                extra={"records": records})


def check(state: State, passes: List[Pass], tracer, recorded) -> None:
    """afkit's solvers must be judged correct and the corrupted solver
    incorrect; a job left unjudged by a capped judge counts for neither."""
    from afkit.harness.scoring import score

    for p in passes:
        p.failed, correct = [], 0
        for r in p.extra["records"]:
            job = f"{r.solver}:{r.instance}/{r.task}/{r.query or ''}"
            if r.solver in PACKAGE_SOLVERS and r.status != "ok":
                p.failed.append(f"{job}: {r.status} ({r.diagnostic})")
            elif r.verdict is None:
                continue
            elif r.solver in PACKAGE_SOLVERS:
                if r.verdict == "correct":
                    correct += 1
                else:
                    p.failed.append(f"{job}: judged {r.verdict}")
            elif r.verdict != "incorrect":
                p.failed.append(f"{job}: corrupted answer judged {r.verdict}")
        p.score = score(correct, len(p.failed))


def layers(passes: List[Pass]) -> Dict[str, float]:
    elapsed = [r.elapsed for p in passes for r in p.extra["records"]]
    return {"harness.runner.job_s_p50": quantile(elapsed, 0.5),
            "harness.runner.job_s_p90": quantile(elapsed, 0.9)}
