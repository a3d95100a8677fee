"""Benchmark and query-argument selection.

Task groups bundle tasks of comparable difficulty; groups A, B, and C each
get a dedicated 350-instance benchmark set drawn per hardness category, while
D and E reuse group A's set.  Within a category the draw is a round-robin
over domains: every domain with instances left contributes one uniformly
random pick per round, and the final partial round chooses its domains
uniformly at random.

Query arguments for the acceptance tasks: very easy instances are dropped,
too hard instances get two queries, everything else one, which keeps the
per-task instance count at 350.  Draws are random but rebalanced toward a
configurable minimum fraction of yes- and no-instances per decision task.
The DC-ID queries use a dedicated strategy biased toward arguments in every
preferred extension but outside the grounded one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import ArgumentationFramework, grounded_extension
from ..engine import preferred_extensions, _Budget
from ..errors import BudgetExceededError, InsufficientPoolError
from ..rng import SeededRng
from .classify import HardnessCategory

# Task groups with their member tasks and (for A, B, C) the representative
# classification task.  D and E reuse group A's benchmark set.
GROUPS: Dict[str, dict] = {
    "A": {"tasks": ("DS-PR", "EE-PR", "EE-CO"), "representative": "EE-PR",
          "benchmark_group": "A"},
    "B": {"tasks": ("DC-ST", "DS-ST", "EE-ST", "SE-ST", "DC-PR", "SE-PR", "DC-CO"),
          "representative": "EE-ST", "benchmark_group": "B"},
    "C": {"tasks": ("DS-CO", "SE-CO", "DC-GR", "SE-GR"),
          "representative": "SE-GR", "benchmark_group": "C"},
    "D": {"tasks": ("DC-ID", "SE-ID"), "representative": None,
          "benchmark_group": "A"},
    "E": {"tasks": ("DC-SST", "DS-SST", "EE-SST", "SE-SST",
                    "DC-STG", "DS-STG", "EE-STG", "SE-STG"),
          "representative": None, "benchmark_group": "A"},
}


@dataclass(frozen=True)
class SelectionQuota:
    """Instances per hardness category for one task group (350 total)."""
    very_easy: int = 50
    easy: int = 50
    medium: int = 100
    hard: int = 100
    too_hard: int = 50

    @staticmethod
    def for_group(group: str) -> "SelectionQuota":
        # Group C has no too-hard instances; hard takes their share.
        if group == "C":
            return SelectionQuota(hard=150, too_hard=0)
        return SelectionQuota()

    def count_for(self, category: HardnessCategory) -> int:
        return getattr(self, category.value)

    def total(self) -> int:
        return (self.very_easy + self.easy + self.medium
                + self.hard + self.too_hard)


def select_benchmarks(pools: Dict[str, Sequence[str]], n: int,
                      rng: SeededRng) -> List[Tuple[str, str]]:
    """Pick ``n`` instances round-robin across domains.

    Full rounds take one uniform pick from every non-empty domain (domains in
    sorted name order); the final partial round first picks which domains
    contribute, uniformly at random.
    """
    remaining = {d: list(items) for d, items in pools.items()}
    total = sum(len(v) for v in remaining.values())
    if total < n:
        raise InsufficientPoolError(f"pools hold {total} instances, need {n}")
    chosen: List[Tuple[str, str]] = []
    while len(chosen) < n:
        nonempty = sorted(d for d, items in remaining.items() if items)
        need = n - len(chosen)
        if len(nonempty) > need:
            nonempty = sorted(rng.sample(nonempty, need))
        for d in nonempty:
            items = remaining[d]
            pick = items.pop(rng.randbelow(len(items)))
            chosen.append((d, pick))
    return chosen


def select_by_quota(pools_by_category: Dict[HardnessCategory, Dict[str, Sequence[str]]],
                    quota: SelectionQuota, rng: SeededRng
                    ) -> Dict[HardnessCategory, List[Tuple[str, str]]]:
    """Apply a quota category by category (each with its own split stream)."""
    out: Dict[HardnessCategory, List[Tuple[str, str]]] = {}
    for category in (HardnessCategory.VERY_EASY, HardnessCategory.EASY,
                     HardnessCategory.MEDIUM, HardnessCategory.HARD,
                     HardnessCategory.TOO_HARD):
        count = quota.count_for(category)
        pools = pools_by_category.get(category, {})
        if count == 0:
            out[category] = []
            continue
        out[category] = select_benchmarks(pools, count,
                                          rng.split(f"category-{category}"))
    return out


def query_count_for(category: HardnessCategory) -> int:
    """Queries per instance: very easy dropped, too hard doubled, else one."""
    if category == HardnessCategory.VERY_EASY:
        return 0
    if category == HardnessCategory.TOO_HARD:
        return 2
    return 1


def select_arguments(af: ArgumentationFramework, category: HardnessCategory,
                     rng: SeededRng) -> List[str]:
    """Random distinct query arguments for one selected instance."""
    k = min(query_count_for(category), len(af))
    return rng.sample(list(af.args), k)


def select_ideal_argument(af: ArgumentationFramework, rng: SeededRng,
                          budget: Optional[int] = None) -> str:
    """Query-argument strategy for credulous ideal reasoning.

    With probability 0.9, pick from the preferred intersection minus the
    grounded extension when that set is non-empty (those are the queries the
    easy implications cannot settle); otherwise with probability 0.6 from the
    grounded extension when non-empty; otherwise from the arguments outside
    the preferred intersection.  Raises BudgetExceededError when preferred
    enumeration blows the budget; callers fall back to a uniform pick.
    """
    grounded = grounded_extension(af)
    prefs = preferred_extensions(af, _Budget(budget))
    inter = set(prefs[0]) if prefs else set()
    for p in prefs[1:]:
        inter &= p
    alpha = rng.random()
    beta = rng.random()
    interesting = sorted(inter - grounded)
    if interesting and alpha < 0.9:
        return rng.choice(interesting)
    if grounded and beta < 0.6:
        return rng.choice(sorted(grounded))
    outside = sorted(set(af.args) - inter)
    if outside:
        return rng.choice(outside)
    return rng.choice(sorted(af.args))  # whole framework accepted everywhere


def assign_ideal_queries(instances: Sequence[Tuple[str, ArgumentationFramework, HardnessCategory]],
                         rng: SeededRng, budget: Optional[int] = None
                         ) -> Dict[str, List[str]]:
    """Distinct credulous-ideal query arguments per instance (group D).

    Each instance gets ``query_count_for`` its category.  Easy and medium
    instances draw with ``select_ideal_argument``, falling back to a uniform
    pick when preferred enumeration exceeds ``budget``; the other categories
    draw uniformly.
    """
    out: Dict[str, List[str]] = {}
    for name, af, category in instances:
        count = min(query_count_for(category), len(af))
        picks: List[str] = []
        while len(picks) < count:
            arg = None
            if category in (HardnessCategory.EASY, HardnessCategory.MEDIUM):
                try:
                    arg = select_ideal_argument(af, rng, budget=budget)
                except BudgetExceededError:
                    pass
            if arg is None:
                arg = rng.choice(list(af.args))
            if arg not in picks:
                picks.append(arg)
        out[name] = picks
    return out


@dataclass
class QueryAssignment:
    """Query arguments for one selected instance."""
    instance: str
    category: HardnessCategory
    queries: List[str]


def assign_query_arguments(instances: Sequence[Tuple[str, ArgumentationFramework, HardnessCategory]],
                           tasks: Sequence[str],
                           answer_fn: Callable[[str, ArgumentationFramework, str], Optional[bool]],
                           rng: SeededRng,
                           min_yes_fraction: float = 0.2,
                           min_no_fraction: float = 0.2,
                           max_rounds: int = 200) -> Tuple[List[QueryAssignment], Dict[str, dict]]:
    """Draw query arguments, then rebalance toward per-task yes/no minimums.

    ``answer_fn(task_name, af, query)`` adjudicates one query (None when the
    adjudicator cannot answer within budget).  Rebalancing redraws one
    instance's queries at a time and keeps the redraw only when the total
    deficit across decision tasks shrinks.  Remaining deficits are reported,
    not fatal: some corpora simply lack enough yes (or no) instances.
    """
    decision_tasks = [t for t in tasks if t.startswith(("DC-", "DS-"))]
    draws = rng.split("initial")
    assignments = [QueryAssignment(name, cat, select_arguments(af, cat, draws))
                   for name, af, cat in instances]
    frameworks = {name: af for name, af, _ in instances}

    def tallies() -> Dict[str, dict]:
        out = {}
        for t in decision_tasks:
            yes = no = unknown = total = 0
            for a in assignments:
                for q in a.queries:
                    total += 1
                    ans = answer_fn(t, frameworks[a.instance], q)
                    if ans is None:
                        unknown += 1
                    elif ans:
                        yes += 1
                    else:
                        no += 1
            need_yes = int(min_yes_fraction * total + 0.999999)
            need_no = int(min_no_fraction * total + 0.999999)
            out[t] = {"yes": yes, "no": no, "unknown": unknown, "total": total,
                      "need_yes": need_yes, "need_no": need_no,
                      "deficit": max(0, need_yes - yes) + max(0, need_no - no)}
        return out

    def total_deficit(t: Dict[str, dict]) -> int:
        return sum(row["deficit"] for row in t.values())

    stats = tallies()
    redraw = rng.split("rebalance")
    candidates = [a for a in assignments if a.queries]
    for _ in range(max_rounds):
        if not decision_tasks or total_deficit(stats) == 0 or not candidates:
            break
        target = candidates[redraw.randbelow(len(candidates))]
        old = list(target.queries)
        target.queries = select_arguments(frameworks[target.instance],
                                          target.category, redraw)
        new_stats = tallies()
        if total_deficit(new_stats) < total_deficit(stats):
            stats = new_stats
        else:
            target.queries = old
    return assignments, stats
