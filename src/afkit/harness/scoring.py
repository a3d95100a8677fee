"""Scoring and ranking.

A solver's task score is the sum of per-instance points (1 correct, -5
incorrect, 0 otherwise).  Rankings sort by score descending; ties break by
the cumulative time spent on correctly solved instances, ascending.  A tie on
both score and time keeps solver-id order and is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .records import CORRECT, INCORRECT, POINTS, JobRecord


def score(correct: int, wrong: int) -> int:
    return correct * POINTS[CORRECT] + wrong * POINTS[INCORRECT]


@dataclass(frozen=True)
class SolverCounts:
    """Aggregate counts for one solver on one task or track."""
    solver: str
    correct: int
    wrong: int
    time: float = 0.0
    timeouts: int = 0
    other: int = 0
    usc: int = 0
    usc_unchecked: int = 0

    @property
    def points(self) -> int:
        return score(self.correct, self.wrong)


@dataclass(frozen=True)
class RankedRow:
    rank: int
    counts: SolverCounts
    tied: bool = False  # equal score and time as a neighbour


def rank_counts(counts: Iterable[SolverCounts]) -> List[RankedRow]:
    """Order aggregate rows by (score desc, correct-time asc, solver id)."""
    ordered = sorted(counts, key=lambda c: (-c.points, c.time, c.solver))
    rows: List[RankedRow] = []
    for i, c in enumerate(ordered):
        tied = any(0 <= j < len(ordered) and j != i
                   and ordered[j].points == c.points and ordered[j].time == c.time
                   for j in (i - 1, i + 1))
        rows.append(RankedRow(rank=i + 1, counts=c, tied=tied))
    return rows


def aggregate(records: Sequence[JobRecord],
              tasks: Iterable[str] | None = None) -> List[SolverCounts]:
    """Fold judged records into per-solver counts (optionally one task set).

    Correct time sums the elapsed seconds of correct answers only.  USC
    counts (task, instance) cells solved correctly by exactly one solver,
    with a sub-count for unchecked ones.
    """
    wanted = set(tasks) if tasks is not None else None
    chosen = [r for r in records if wanted is None or r.task in wanted]
    solvers = sorted({r.solver for r in chosen})
    cell_correct: Dict[Tuple[str, str, str], List[JobRecord]] = {}
    for r in chosen:
        if r.verdict == CORRECT:
            cell_correct.setdefault((r.task, r.instance, r.query or ""), []).append(r)
    usc: Dict[str, int] = {s: 0 for s in solvers}
    usc_unchecked: Dict[str, int] = {s: 0 for s in solvers}
    for cell in cell_correct.values():
        if len(cell) == 1:
            usc[cell[0].solver] += 1
            if cell[0].unchecked:
                usc_unchecked[cell[0].solver] += 1
    out = []
    for s in solvers:
        mine = [r for r in chosen if r.solver == s]
        correct = sum(1 for r in mine if r.verdict == CORRECT)
        wrong = sum(1 for r in mine if r.verdict == INCORRECT)
        timeouts = sum(1 for r in mine if r.status == "timeout")
        other = sum(1 for r in mine
                    if r.verdict not in (CORRECT, INCORRECT)
                    and r.status != "timeout")
        time = sum(r.elapsed for r in mine if r.verdict == CORRECT)
        out.append(SolverCounts(solver=s, correct=correct, wrong=wrong,
                                time=time, timeouts=timeouts, other=other,
                                usc=usc[s], usc_unchecked=usc_unchecked[s]))
    return out


def rank(records: Sequence[JobRecord],
         tasks: Iterable[str] | None = None) -> List[RankedRow]:
    """Rank solvers over judged records, optionally restricted to a task set."""
    return rank_counts(aggregate(records, tasks))
