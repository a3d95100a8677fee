"""Workload ``ladder``: the engine solves a fixed ladder of cells in-process.

A cell is one preset family at one size with one task.  Each family climbs
three rungs: a framework small enough for the exhaustive oracle, then two
larger ones.  One engine worker, a forked child holding every framework,
solves the cells one at a time under the public node budget; the parent
gives each cell its own wall cap and kills the worker when a cell passes
it, then forks a fresh worker for the next cell.  So a cell ends as ``ok``,
``budget``, ``cap`` or ``error`` and never hangs the run.

Why this workload: the engine and the grounded fixed point in ``core`` do
almost all the work, while ``formats``, ``cli`` and ``harness`` do none.
Instances are generated during set-up, so ``generators`` shows up only in
``setup_s``.

Answers are checked after the measured passes: cells within the oracle's
reach against ``oracle.solve``; larger ones with ``verify`` and with
consistency between the tasks of one framework.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# afkit is imported at module level so forked workers inherit the loaded
# modules instead of importing them again after every cap kill.
from afkit import oracle
from afkit.core import (ArgumentationFramework, grounded_extension,
                        is_admissible, range_of)
from afkit.engine import solve_optimized
from afkit.errors import BudgetExceededError
from afkit.formats import write_apx
from afkit.harness.scoring import score
from afkit.rng import SeededRng
from afkit.solutions import parse_solution, write_solution
from afkit.tasks import Semantics, parse_task
from afkit.verify import verify
from benchlib import (Pass, Worker, instance_digest, preset_instance,
                      run_capped, text_digest)

NAME = "ladder"

FAMILIES = ("admbuster", "sembuster", "grounded", "scc", "stable", "erdos",
            "watts", "barabasi")
# Size parameter per rung.  Rung 0 has 12 arguments (SemBuster n=4 makes
# 3 blocks of 4), so the oracle can check it.  The upper rungs keep the
# known slow cells in: EE-STG on acyclic frameworks, SE-ID on AdmBuster
# 8000 and the SemBuster, scc, stable and watts frontier.
SIZES: Dict[str, Tuple[int, ...]] = {
    "admbuster": (12, 1000, 8000),
    "sembuster": (4, 20, 60),
    "grounded": (12, 200, 1000),
    "scc": (12, 100, 300),
    "stable": (12, 100, 200),
    "erdos": (12, 60, 100),
    "watts": (12, 100, 300),
    "barabasi": (12, 60, 200),
}
# The frameworks are the same for every run, so the ladder's score stays a
# fixed yardstick; the run's seed picks the query arguments of the DC and DS
# cells.
LADDER_SEED = 2019
TASKS = ("EE-CO", "EE-PR", "EE-ST", "EE-SST", "EE-STG", "SE-ID", "DC-PR",
         "DS-PR", "DS-ST", "D3")
BUDGET = 20_000      # engine node budget per cell
CAP = 1.0            # wall seconds per cell, enforced by killing the worker
# Wall seconds per cell check.  The slowest, verifying each stage extension
# of erdos/60 where no stable one exists, takes about 9 s.
CHECK_CAP = 20.0
ORACLE_ARGS = 12     # frameworks up to this size are checked by the oracle
LOCAL_ARGS = 16      # DC/DS query ancestries up to this size, likewise


@dataclass
class Cell:
    op: str              # "<family>/<n>/<task>"
    family: str
    n: int
    task: str
    query: Optional[str]


@dataclass
class State:
    frameworks: Dict[Tuple[str, int], object]
    cells: List[Cell]
    digest: str
    answers: Dict[str, str] = field(default_factory=dict)
    unchecked: int = 0


def setup(seed: int, tracer, workdir, sizes=SIZES) -> State:
    rng = SeededRng(seed).split(NAME)
    fixed = SeededRng(LADDER_SEED).split(NAME)
    frameworks = {}
    texts = []
    for family in FAMILIES:
        for n in sizes[family]:
            with tracer.span(f"generators.{family}", op=f"{family}/{n}"):
                af = preset_instance(family, n, fixed.split(f"{family}/{n}"))
            frameworks[(family, n)] = af
            with tracer.span("formats.write_apx", op=f"{family}/{n}"):
                texts.append((f"{family}/{n}", write_apx(af)))
    cells = []
    for family in FAMILIES:
        for n in sizes[family]:
            af = frameworks[(family, n)]
            for task in TASKS:
                query = None
                if task.startswith(("DC-", "DS-")):
                    query = rng.split(f"query/{family}/{n}/{task}").choice(af.args)
                cells.append(Cell(f"{family}/{n}/{task}", family, n, task, query))
    return State(frameworks, cells, instance_digest(texts))


def _solve_cell(af, cell: Cell, tracer):
    task = parse_task(cell.task, cell.query)
    start = time.perf_counter()
    try:
        with tracer.span(f"engine.{cell.task}", op=cell.op):
            answer = solve_optimized(task, af, budget=BUDGET)
    except BudgetExceededError:
        return "budget", None, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    with tracer.span("solutions.write", op=cell.op):
        text = write_solution(task, answer)
    tracer.count(f"engine.{cell.task}.solved")
    tracer.count(f"engine.{cell.family}.solved")
    return "ok", text, elapsed


def run_pass(state: State, tracer, index: int) -> Pass:
    statuses: Dict[str, str] = {}
    texts: Dict[str, str] = {}
    solve_times, call_times, rss = [], [], [0]
    worker = Worker(lambda i: _solve_cell(
        state.frameworks[(state.cells[i].family, state.cells[i].n)],
        state.cells[i], tracer), tracer)
    start = time.perf_counter()
    try:
        for i, cell in enumerate(state.cells):
            t0 = time.perf_counter()
            res = worker.call(i, CAP)
            tracer.count("engine.cells")
            if res.status == "ok":
                status, text, seconds = res.value
                if text is not None:
                    texts[cell.op] = text
                rss.append(res.maxrss_kb)
            elif res.status == "cap":
                status, seconds = "cap", CAP
                tracer.count("engine.capped")
                tracer.record(f"engine.{cell.task}", t0, t0 + res.wall, op=cell.op)
            else:
                status, seconds = "error", min(res.wall, CAP)
            statuses[cell.op] = status
            solve_times.append(min(seconds, CAP))
            call_times.append(res.wall)
    finally:
        worker.close()
    wall = time.perf_counter() - start
    # Peak RSS counts cells that ended on their own: a capped cell's memory
    # depends on how far it got before the kill.
    return Pass(wall=wall, items=len(state.cells), solve_times=solve_times,
                cell_times=list(solve_times), call_times=call_times,
                rate=len(state.cells) / wall, peak_rss_mb=max(rss) / 1024,
                extra={"status": statuses, "texts": texts})


# ---------------------------------------------------------------------------
# Checks

def _same(a, b) -> bool:
    return set(a) == set(b)


def ancestry(af, query: str):
    """The sub-framework of ``query`` and every argument with a path of
    attacks to it.  Preferred semantics is directional, so whether the
    query is credulously or skeptically accepted under PR is decided on
    this sub-framework alone."""
    members, todo = {query}, [query]
    while todo:
        for b in af.attackers_of(todo.pop()):
            if b not in members:
                members.add(b)
                todo.append(b)
    return ArgumentationFramework(
        sorted(members), [(a, b) for a, b in af.attacks if b in members])


def largest_admissible_subset(af, members):
    """Drop members left undefended until none is; on a conflict-free
    set this leaves its largest admissible subset."""
    kept = set(members)
    while True:
        hit = {b for c in kept for b in af.targets_of(c)}
        defended = {a for a in kept if all(b in hit for b in af.attackers_of(a))}
        if defended == kept:
            return frozenset(kept)
        kept = defended


def check_cell(af, cell: Cell, texts: Dict[str, str], cells_by_task,
               tracer) -> str:
    """Check one solved cell; returns ``ok``, ``unchecked`` or a reason.

    ``texts`` holds the answers of every solved cell of the same framework,
    keyed by op; ``cells_by_task`` maps task names to those cells.
    """
    def answer(task_name: str):
        other = cells_by_task.get(task_name)
        if other is None or other.op not in texts:
            return None
        with tracer.span("solutions.parse", op=cell.op):
            return parse_solution(parse_task(task_name, other.query),
                                  texts[other.op]).answer

    def verified(sem, extensions) -> bool:
        for ext in extensions:
            tracer.count("verify.calls")
            with tracer.span(f"verify.{sem}", op=cell.op):
                if not verify(sem, af, ext):
                    return False
        return True

    task = parse_task(cell.task, cell.query)
    own = answer(cell.task)
    if own is None:
        return "answer does not parse"
    if len(af) <= ORACLE_ARGS:
        with tracer.span("oracle.solve", op=cell.op):
            expected = write_solution(task, oracle.solve(task, af))
        return "ok" if expected == texts[cell.op] else "differs from the oracle"

    pr, st, co = answer("EE-PR"), answer("EE-ST"), answer("EE-CO")
    name, q = cell.task, cell.query
    checked = False
    if name.startswith("EE-"):
        sem = Semantics(name[3:])
        if name in ("EE-SST", "EE-STG") and st is not None and st.extensions:
            # Stable extensions exist, so SST and STG equal ST (compared
            # below), and checking stability is far cheaper than checking
            # range-maximality.
            sem = Semantics.ST
        if not verified(sem, own.extensions):
            return f"verify rejects an {sem} extension"
        checked = True
    if name == "EE-PR" and co is not None:
        maximal = [c for c in co.extensions if not any(c < o for o in co.extensions)]
        if not _same(own.extensions, maximal):
            return "not the maximal sets of EE-CO"
    if name == "EE-ST" and pr is not None:
        full = [p for p in pr.extensions if len(range_of(af, p)) == len(af)]
        if not _same(own.extensions, full):
            return "not the full-range sets of EE-PR"
    if name == "EE-SST" and pr is not None:
        ranges = {p: range_of(af, p) for p in pr.extensions}
        widest = [p for p in pr.extensions
                  if not any(ranges[p] < r for r in ranges.values())]
        if not _same(own.extensions, widest):
            return "not the range-maximal sets of EE-PR"
    if name in ("EE-SST", "EE-STG") and st is not None and st.extensions:
        if not _same(own.extensions, st.extensions):
            return "differs from EE-ST although stable extensions exist"
    if name == "SE-ID":
        with tracer.span("core.grounded", op=cell.op):
            grounded = grounded_extension(af)
        ext = own.extension
        if ext is None or not is_admissible(af, ext) or not grounded <= ext:
            return "not an admissible superset of the grounded extension"
        if pr is not None and pr.extensions:
            ideal = largest_admissible_subset(af, frozenset.intersection(*pr.extensions))
            if ext != ideal:
                return "not the largest admissible set inside every preferred extension"
            checked = True
    if name == "DC-PR" and pr is not None:
        if own.value != any(q in e for e in pr.extensions):
            return "disagrees with EE-PR"
        checked = True
    if name == "DS-PR" and pr is not None:
        if own.value != all(q in e for e in pr.extensions):
            return "disagrees with EE-PR"
        checked = True
    if name in ("DC-PR", "DS-PR") and pr is None:
        local = ancestry(af, q)
        if len(local) <= LOCAL_ARGS:
            with tracer.span("oracle.solve", op=cell.op):
                expected = oracle.solve(task, local).value
            if own.value != expected:
                return "differs from the oracle on the query's ancestry"
            checked = True
    if name == "DS-ST" and st is not None:
        if own.value != all(q in e for e in st.extensions):
            return "disagrees with EE-ST"
        checked = True
    if name == "D3":
        with tracer.span("core.grounded", op=cell.op):
            grounded = grounded_extension(af)
        if list(own.grounded) != [grounded]:
            return "grounded part is not the grounded extension"
        if not (verified(Semantics.ST, own.stable)
                and verified(Semantics.PR, own.preferred)):
            return "verify rejects a stable or preferred extension"
        if st is not None and not _same(own.stable, st.extensions):
            return "stable part differs from EE-ST"
        if pr is not None and not _same(own.preferred, pr.extensions):
            return "preferred part differs from EE-PR"
        checked = True
    return "ok" if checked else "unchecked"


def check(state: State, passes: List[Pass], tracer, recorded) -> None:
    """Judge every pass, filling in its score and failures.

    The first pass's answers are checked; a later pass must reproduce them
    byte for byte.  ``recorded`` holds the answer digests of an earlier run
    with this seed, when there is one: a solved cell whose digest moved is a
    failure.  A cell that no check covers, or whose check hits its cap, is
    unchecked: data, not a failure, but worth no points either.
    """
    first = passes[0].extra
    by_framework: Dict[Tuple[str, int], Dict[str, Cell]] = {}
    for cell in state.cells:
        by_framework.setdefault((cell.family, cell.n), {})[cell.task] = cell
    verdicts: Dict[str, str] = {}
    for cell in state.cells:
        if first["status"][cell.op] != "ok":
            continue
        af = state.frameworks[(cell.family, cell.n)]
        same_af = by_framework[(cell.family, cell.n)]
        res = run_capped(
            lambda: check_cell(af, cell, first["texts"], same_af, tracer),
            CHECK_CAP, tracer)
        if res.status == "ok":
            verdicts[cell.op] = res.value
        elif res.status == "cap":
            verdicts[cell.op] = "unchecked"
        else:
            verdicts[cell.op] = f"check crashed: {res.value}"
    state.answers = {op: text_digest(t) for op, t in first["texts"].items()}
    for op, digest in (recorded or {}).get("answers", {}).items():
        if state.answers.get(op, digest) != digest:
            verdicts[op] = "answer digest differs from the recorded run"
    state.unchecked = sum(1 for v in verdicts.values() if v == "unchecked")
    tracer.count("ladder.unchecked", state.unchecked)
    for p in passes:
        p.failed, solved = [], 0
        for cell in state.cells:
            status = p.extra["status"][cell.op]
            if status == "error":
                p.failed.append(f"{cell.op}: crashed")
            elif status != "ok":
                continue
            elif p.extra["texts"][cell.op] != first["texts"].get(
                    cell.op, p.extra["texts"][cell.op]):
                p.failed.append(f"{cell.op}: answer differs from the first pass")
            elif verdicts.get(cell.op) == "ok":
                solved += 1
            elif verdicts.get(cell.op, "unchecked") != "unchecked":
                p.failed.append(f"{cell.op}: {verdicts[cell.op]}")
        p.score = score(solved, len(p.failed))
