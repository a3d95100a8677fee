"""Answer judging.

A result earns 1 point when correct, -5 when incorrect, and 0 otherwise
(empty output, timeout, unparsable text, or an enumeration that lists some
but not all extensions).

``verify_cascade`` decides every verdict, applying these rules in order
until one decides:

1. An unparsable answer scores 0.
2. A claimed single extension (SE) is verified directly, since any
   extension is a correct answer.  The ideal extension is unique, so an ID
   claim is compared with the SE-ID reference instead.
3. Any other answer is compared with the reference answer when one can be
   computed: DC, DS and an SE ``NO`` by equality, EE by the subset rule
   (some but not all extensions scores 0, a non-extension -5), D3 by the
   subset rule on each of its three enumerations.
4. Without a reference, an EE answer has its claimed sets verified one by
   one; the first rejected set makes it incorrect.
5. A majority vote across the cell's answers decides what is left.
6. An answer nobody contradicts is accepted as correct and flagged
   unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import engine, oracle
from ..core import ArgumentationFramework
from ..errors import BudgetExceededError, OracleSizeError
from ..solutions import SolutionText, write_solution
from ..tasks import Answer, Semantics, TaskSpec
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

    This is the one way the harness reaches a solver.  The default backend
    uses the exhaustive oracle within its size cap, scanning once per
    semantics and reading every task's answer off that scan, and the search
    engine above it, once per task; a budget turns unsolvable instances
    into "no reference" rather than a hang.
    """

    def __init__(self, af: ArgumentationFramework,
                 solver: Optional[Callable[[TaskSpec, ArgumentationFramework], Answer]] = None,
                 budget: Optional[int] = None):
        self.af = af
        self.budget = budget
        self._solver = solver
        self._cache: Dict[TaskSpec, Optional[Answer]] = {}
        self._scans: Dict[Semantics, tuple] = {}

    def _scan(self, sem: Semantics) -> tuple:
        if sem not in self._scans:
            self._scans[sem] = oracle.oracle_enumerate(sem, self.af)
        return self._scans[sem]

    def _solve(self, task: TaskSpec) -> Answer:
        if self._solver is not None:
            return self._solver(task, self.af)
        try:
            return oracle.answer_from(task, self.af, self._scan)
        except OracleSizeError:
            return engine.solve_optimized(task, self.af, budget=self.budget)

    def answer_for(self, task: TaskSpec) -> Optional[Answer]:
        """The reference answer, or None when it cannot be computed."""
        if task not in self._cache:
            try:
                self._cache[task] = self._solve(task)
            except BudgetExceededError:
                self._cache[task] = None
        return self._cache[task]

    def is_extension(self, sem: Semantics, members) -> Optional[bool]:
        """Whether ``members`` is a ``sem``-extension; None when it cannot
        be decided.  The ideal extension is unique, so an ID claim is
        compared with the reference SE-ID answer, under the bundle's budget;
        the other semantics are verified directly."""
        s = frozenset(members)
        if not all(a in self.af for a in s):
            return False
        if sem == Semantics.ID:
            ideal = self.answer_for(TaskSpec("SE", Semantics.ID))
            return None if ideal is None else ideal.extension == s
        return verify(sem, self.af, s)


def _against(task: TaskSpec, answer: Answer, truth: Answer) -> str:
    """The verdict on ``answer`` given the true answer: DC, DS and an SE
    ``NO`` by equality, EE by the subset rule, D3 by the subset rule on each
    of its three enumerations."""
    if task.problem == "EE":
        return _judge_enumeration(answer.extensions, truth.extensions)
    if task.problem == "D3":
        verdicts = {
            _judge_enumeration(answer.grounded, truth.grounded),
            _judge_enumeration(answer.stable, truth.stable),
            _judge_enumeration(answer.preferred, truth.preferred),
        }
        if INCORRECT in verdicts:
            return INCORRECT
        return CORRECT if verdicts == {CORRECT} else ZERO
    return CORRECT if answer == truth else INCORRECT


def _judge_enumeration(claimed: Tuple, ref: Tuple) -> str:
    claimed_set, ref_set = set(claimed), set(ref)
    if claimed_set == ref_set:
        return CORRECT
    if claimed_set - ref_set:
        return INCORRECT  # contains a non-extension
    return ZERO  # only real extensions, but not all of them


def _majority(task: TaskSpec, answers: Sequence[Answer]) -> Optional[Answer]:
    """Plurality answer with a strict lead over the runner-up.

    At least two solvers must agree: a single answer is no majority, so a
    lone unverifiable answer falls through to correct-unchecked.
    """
    buckets: Dict[str, List[Answer]] = {}
    for a in answers:
        buckets.setdefault(write_solution(task, a), []).append(a)
    ranked = sorted(buckets.values(), key=len, reverse=True)
    if not ranked or len(ranked[0]) < 2:
        return None
    if len(ranked) > 1 and len(ranked[0]) == len(ranked[1]):
        return None
    return ranked[0][0]


def verify_cascade(task: TaskSpec, reference: ReferenceBundle,
                   solution: SolutionText,
                   all_solutions: Sequence[SolutionText]) -> Judgement:
    """Judge one answer of a cell whose answers are ``all_solutions``.

    The rules apply in the order of the module docstring; the first that
    decides gives the verdict.
    """
    answer = solution.answer
    if answer is None:
        return Judgement.of(ZERO)
    if task.problem == "SE" and answer.extension is not None:
        ok = reference.is_extension(task.semantics, answer.extension)
        if ok is not None:
            return Judgement.of(CORRECT if ok else INCORRECT)
    else:
        truth = reference.answer_for(task)
        if truth is not None:
            return Judgement.of(_against(task, answer, truth))
        if task.problem == "EE" and any(
                reference.is_extension(task.semantics, e) is False
                for e in answer.extensions):
            return Judgement.of(INCORRECT)

    peers = [s.answer for s in all_solutions if s.answer is not None]
    majority = _majority(task, peers)
    if majority is None:
        # Nothing to compare against: accept, flagged as unchecked.
        return Judgement.of(CORRECT, unchecked=True)
    if task.problem == "EE":
        return Judgement.of(_judge_enumeration(answer.extensions,
                                               majority.extensions))
    same = write_solution(task, answer) == write_solution(task, majority)
    return Judgement.of(CORRECT if same else INCORRECT)
