"""Answer judging.

A result earns 1 point when correct, -5 when incorrect, and 0 otherwise
(empty output, timeout, unparsable text, or an enumeration that lists some
but not all extensions).

With a reference answer available, judging is exact.  Without one, the
cascade applies: single extensions are verified directly; enumerations have
every claimed set verified (any bad set is an incorrect answer); remaining
doubt falls to a majority vote across all participants, and an unverifiable
answer nobody contradicts is accepted as correct-unchecked and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import engine, oracle
from ..core import ArgumentationFramework
from ..errors import BudgetExceededError, OracleSizeError, UnknownArgumentError
from ..solutions import SolutionText, write_solution
from ..tasks import (AllExtensions, Answer, OneExtension, Semantics, TaskSpec,
                     Triathlon, YesNo)
from ..verify import verify
from .records import CORRECT, INCORRECT, POINTS, ZERO


@dataclass(frozen=True)
class Judgement:
    verdict: str
    points: int
    unchecked: bool = False

    @staticmethod
    def of(verdict: str, unchecked: bool = False) -> "Judgement":
        return Judgement(verdict, POINTS[verdict], unchecked)


class ReferenceBundle:
    """Reference answers for one instance, computed lazily and cached.

    The default backend uses the exhaustive oracle within its size cap and
    the search engine above it; a budget turns unsolvable instances into
    "no reference" rather than a hang.
    """

    def __init__(self, af: ArgumentationFramework,
                 solver: Optional[Callable[[TaskSpec, ArgumentationFramework], Answer]] = None,
                 budget: Optional[int] = None):
        self.af = af
        self.budget = budget
        self._solver = solver
        self._cache: Dict[str, Optional[Answer]] = {}

    def _solve(self, task: TaskSpec) -> Answer:
        if self._solver is not None:
            return self._solver(task, self.af)
        try:
            return oracle.solve(task, self.af)
        except OracleSizeError:
            return engine.solve_optimized(task, self.af, budget=self.budget)

    def answer_for(self, task: TaskSpec) -> Optional[Answer]:
        """The reference answer, or None when it cannot be computed."""
        key = task.name() + ("?" + task.query if task.query else "")
        if key not in self._cache:
            try:
                self._cache[key] = self._solve(task)
            except BudgetExceededError:
                self._cache[key] = None
        return self._cache[key]

    def is_extension(self, sem: Semantics, members) -> Optional[bool]:
        """Direct verification; None when it cannot be decided."""
        try:
            return verify(sem, self.af, members)
        except UnknownArgumentError:
            return False
        except BudgetExceededError:
            return None


def judge(task: TaskSpec, solution: SolutionText,
          reference: ReferenceBundle) -> Judgement:
    """Judge one answer against a reference bundle."""
    if solution.answer is None:
        return Judgement.of(ZERO)
    answer = solution.answer
    if task.problem in ("DC", "DS"):
        truth = reference.answer_for(task)
        if truth is None:
            return Judgement.of(ZERO)
        assert isinstance(truth, YesNo)
        return Judgement.of(CORRECT if answer == truth else INCORRECT)
    if task.problem == "SE":
        return _judge_se(task, answer, reference)
    if task.problem == "EE":
        ref = reference.answer_for(task)
        if ref is None:
            return Judgement.of(ZERO)
        assert isinstance(ref, AllExtensions)
        return Judgement.of(_judge_enumeration(answer.extensions, ref.extensions))
    # D3: the subset rule applies to each of the three enumerations.
    ref = reference.answer_for(task)
    if ref is None:
        return Judgement.of(ZERO)
    assert isinstance(ref, Triathlon)
    verdicts = [
        _judge_enumeration(answer.grounded, ref.grounded),
        _judge_enumeration(answer.stable, ref.stable),
        _judge_enumeration(answer.preferred, ref.preferred),
    ]
    if INCORRECT in verdicts:
        return Judgement.of(INCORRECT)
    if all(v == CORRECT for v in verdicts):
        return Judgement.of(CORRECT)
    return Judgement.of(ZERO)


def _judge_se(task: TaskSpec, answer: OneExtension,
              reference: ReferenceBundle) -> Judgement:
    sem = task.semantics
    if answer.extension is None:
        # NO is correct exactly when no extension exists.
        ref = reference.answer_for(task)
        if ref is None:
            return Judgement.of(ZERO)
        assert isinstance(ref, OneExtension)
        return Judgement.of(CORRECT if ref.extension is None else INCORRECT)
    ok = reference.is_extension(sem, answer.extension)
    if ok is None:
        return Judgement.of(ZERO)
    return Judgement.of(CORRECT if ok else INCORRECT)


def _judge_enumeration(claimed: Tuple, ref: Tuple) -> str:
    claimed_set, ref_set = set(claimed), set(ref)
    if claimed_set == ref_set:
        return CORRECT
    if claimed_set - ref_set:
        return INCORRECT  # contains a non-extension
    return ZERO  # only real extensions, but not all of them


# ---------------------------------------------------------------------------
# Judging without a precomputed reference

def _canonical_key(task: TaskSpec, answer: Answer) -> str:
    return write_solution(task, answer)


def _majority(task: TaskSpec, answers: Sequence[Answer]) -> Optional[Answer]:
    """Plurality answer with a strict lead over the runner-up.

    At least two solvers must agree: a single answer is no majority, so a
    lone unverifiable answer falls through to correct-unchecked.
    """
    buckets: Dict[str, List[Answer]] = {}
    for a in answers:
        buckets.setdefault(_canonical_key(task, a), []).append(a)
    ranked = sorted(buckets.values(), key=len, reverse=True)
    if not ranked or len(ranked[0]) < 2:
        return None
    if len(ranked) > 1 and len(ranked[0]) == len(ranked[1]):
        return None
    return ranked[0][0]


def verify_cascade(task: TaskSpec, reference: ReferenceBundle,
                   solution: SolutionText,
                   all_solutions: Sequence[SolutionText]) -> Judgement:
    """Judge when no precomputed reference is guaranteed.

    Order: reference answer if the engine solved the instance; direct
    verification of claimed extensions for SE/EE; majority vote across all
    participants; a unique unverifiable answer is correct-unchecked.
    """
    if solution.answer is None:
        return Judgement.of(ZERO)
    answer = solution.answer

    has_reference = reference.answer_for(task) is not None
    if has_reference:
        return judge(task, solution, reference)

    if task.problem == "SE" and answer.extension is not None:
        ok = reference.is_extension(task.semantics, answer.extension)
        if ok is not None:
            return Judgement.of(CORRECT if ok else INCORRECT)
    if task.problem == "EE":
        checks = [reference.is_extension(task.semantics, e)
                  for e in answer.extensions]
        if any(c is False for c in checks):
            return Judgement.of(INCORRECT)
        # All members verified (or unverifiable): completeness still unknown.

    peers = [s.answer for s in all_solutions if s.answer is not None]
    majority = _majority(task, peers)
    if majority is not None:
        if _canonical_key(task, answer) == _canonical_key(task, majority):
            return Judgement.of(CORRECT)
        if task.problem == "EE" and isinstance(majority, AllExtensions):
            verdict = _judge_enumeration(answer.extensions, majority.extensions)
            return Judgement.of(verdict)
        return Judgement.of(INCORRECT)

    # Nothing to compare against: accept, flagged as unchecked.
    return Judgement.of(CORRECT, unchecked=True)
