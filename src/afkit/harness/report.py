"""Result reporting: ranking tables, cactus-plot series, and the
stable-extension existence analysis."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core import ArgumentationFramework
from ..errors import BudgetExceededError
from .classify import HardnessCategory
from .records import JobRecord
from .scoring import RankedRow, SolverCounts, aggregate, rank_counts

_COLUMNS = ("rank", "solver", "points", "time", "correct", "wrong",
            "timeouts", "other", "usc", "usc_unchecked", "tied")
# A counts CSV carries no timeouts, other answers or USC tallies.
_COUNT_COLUMNS = ("rank", "solver", "points", "time", "correct", "wrong",
                  "tied")


def _rows_as_dicts(rows: Sequence[RankedRow],
                   columns: Sequence[str] = _COLUMNS) -> List[dict]:
    out = []
    for row in rows:
        c = row.counts
        full = {"rank": row.rank, "solver": c.solver, "points": c.points,
                "time": round(c.time, 2), "correct": c.correct,
                "wrong": c.wrong, "timeouts": c.timeouts, "other": c.other,
                "usc": c.usc, "usc_unchecked": c.usc_unchecked,
                "tied": row.tied}
        out.append({k: full[k] for k in columns})
    return out


def _write_summary(rows: List[dict], out: Path, columns: Sequence[str]) -> None:
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    (out / "summary.json").write_text(json.dumps(rows, indent=2) + "\n",
                                      encoding="utf-8")


def cactus_series(records: Sequence[JobRecord]) -> Dict[str, List[Tuple[int, float]]]:
    """Per solver: (solved-instance index, cumulative time of correct solves),
    times sorted ascending so the series is monotone."""
    series: Dict[str, List[Tuple[int, float]]] = {}
    for solver in sorted({r.solver for r in records}):
        times = sorted(r.elapsed for r in records
                       if r.solver == solver and r.verdict == "correct")
        acc = 0.0
        points = []
        for i, t in enumerate(times, start=1):
            acc += t
            points.append((i, round(acc, 6)))
        series[solver] = points
    return series


def emit_report(records: Sequence[JobRecord], out_dir,
                tasks: Iterable[str] | None = None) -> List[dict]:
    """Write summary.csv / summary.json / cactus.csv; returns the table rows."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = _rows_as_dicts(rank_counts(aggregate(records, tasks)))
    _write_summary(rows, out, _COLUMNS)
    series = cactus_series(records)
    with open(out / "cactus.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solver", "solved", "cumulative_time"])
        for solver, points in series.items():
            for solved, acc in points:
                writer.writerow([solver, solved, acc])
    return rows


def emit_counts_report(counts: Iterable[SolverCounts], out_dir) -> List[dict]:
    """Rank precomputed per-solver counts; writes summary.csv and
    summary.json and returns the table rows."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = _rows_as_dicts(rank_counts(counts), _COUNT_COLUMNS)
    _write_summary(rows, out, _COUNT_COLUMNS)
    return rows


def stable_existence_report(
        instances: Sequence[Tuple[str, ArgumentationFramework, HardnessCategory]],
        has_stable: Optional[Callable[[ArgumentationFramework], bool]] = None,
) -> Dict[str, Dict[str, int]]:
    """Tally stable-extension existence per hardness category.

    ``has_stable`` may raise BudgetExceededError; those land in the
    ``unknown`` column.  Row totals always equal the number of instances."""
    if has_stable is None:
        from ..engine import solve_optimized
        from ..tasks import parse_task

        def has_stable(af, _task=parse_task("SE-ST")):
            return solve_optimized(_task, af, budget=200000).extension is not None

    rows: Dict[str, Dict[str, int]] = {}
    for _, af, category in instances:
        row = rows.setdefault(str(category),
                              {"nonempty": 0, "empty": 0, "unknown": 0})
        try:
            row["nonempty" if has_stable(af) else "empty"] += 1
        except BudgetExceededError:
            row["unknown"] += 1
    return rows
