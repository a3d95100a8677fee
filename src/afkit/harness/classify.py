"""Empirical hardness classification from reference-solver timings.

Three reference solvers run each instance at twice the competition timeout.
The instance lands in the topmost category whose condition holds:

    very easy   all three finish in under 6 seconds
    easy        all three finish in under 60 seconds
    medium      all three finish in under 600 seconds
    hard        at least one finishes within 1200 seconds
    too hard    nobody finishes within 1200 seconds

An instance with two or more crashed reference runs is not classified.  A
single crash counts as "never finished" and so rules out the all-under
categories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import StrEnum
from typing import Sequence


class HardnessCategory(StrEnum):
    VERY_EASY = "very_easy"
    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"
    TOO_HARD = "too_hard"
    NOT_CLASSIFIED = "not_classified"


@dataclass(frozen=True)
class RefRun:
    """One reference solver's result: elapsed seconds, and whether it crashed
    (nonzero exit or unparsable output at twice the timeout)."""
    elapsed: float
    crashed: bool = False


def classify_hardness(runs: Sequence[RefRun]) -> HardnessCategory:
    """Classify one instance from exactly three reference runs."""
    if len(runs) != 3:
        raise ValueError(f"hardness classification needs 3 runs, got {len(runs)}")
    if sum(1 for r in runs if r.crashed) >= 2:
        return HardnessCategory.NOT_CLASSIFIED
    times = [math.inf if r.crashed else r.elapsed for r in runs]
    if all(t < 6.0 for t in times):
        return HardnessCategory.VERY_EASY
    if all(t < 60.0 for t in times):
        return HardnessCategory.EASY
    if all(t < 600.0 for t in times):
        return HardnessCategory.MEDIUM
    if any(t <= 1200.0 for t in times):
        return HardnessCategory.HARD
    return HardnessCategory.TOO_HARD
