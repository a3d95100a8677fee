"""Task catalog: reasoning problems, semantics, and answer shapes.

A task is a reasoning problem (DC, DS, SE, EE) paired with a semantics, plus
the standalone triathlon task D3.  The single-status semantics GR and ID only
admit DC and SE, which yields 24 semantics tasks; D3 makes 25.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, Optional, Tuple

from .errors import MalformedTaskError

Extension = FrozenSet[str]


class Semantics(str, Enum):
    CO = "CO"
    PR = "PR"
    ST = "ST"
    SST = "SST"
    STG = "STG"
    GR = "GR"
    ID = "ID"

    def __str__(self) -> str:  # wire form, e.g. "EE-PR"
        return self.value


SINGLE_STATUS = frozenset({Semantics.GR, Semantics.ID})

PROBLEMS = ("DC", "DS", "SE", "EE")
DECISION_PROBLEMS = frozenset({"DC", "DS"})


@dataclass(frozen=True)
class TaskSpec:
    """One reasoning task, optionally bound to a query argument.

    ``semantics`` is None exactly for D3.  DC/DS require ``query``; the other
    problems forbid it.
    """

    problem: str
    semantics: Optional[Semantics] = None
    query: Optional[str] = None

    def __post_init__(self):
        if self.problem == "D3":
            if self.semantics is not None:
                raise MalformedTaskError("D3 carries no semantics")
            if self.query is not None:
                raise MalformedTaskError("D3 takes no query argument")
            return
        if self.problem not in PROBLEMS:
            raise MalformedTaskError(f"unknown problem {self.problem!r}")
        if self.semantics is None:
            raise MalformedTaskError(f"{self.problem} needs a semantics")
        if self.semantics in SINGLE_STATUS and self.problem in ("DS", "EE"):
            raise MalformedTaskError(
                f"{self.problem}-{self.semantics} is not a task: "
                f"single-status semantics only admit DC and SE")
        if self.problem in DECISION_PROBLEMS:
            if self.query is None:
                raise MalformedTaskError(f"{self.name()} needs a query argument")
        elif self.query is not None:
            raise MalformedTaskError(f"{self.name()} takes no query argument")

    def name(self) -> str:
        if self.problem == "D3":
            return "D3"
        return f"{self.problem}-{self.semantics}"


def parse_task(name: str, query: Optional[str] = None) -> TaskSpec:
    """Parse a wire-form task name such as ``EE-PR`` or ``D3``."""
    name = name.strip()
    if name == "D3":
        return TaskSpec("D3", None, query)
    if "-" not in name:
        raise MalformedTaskError(f"malformed task name {name!r}")
    problem, _, sem = name.partition("-")
    try:
        semantics = Semantics(sem)
    except ValueError:
        raise MalformedTaskError(
            f"unsupported task {name!r}: unknown semantics {sem!r}") from None
    return TaskSpec(problem, semantics, query)


def all_task_names() -> Tuple[str, ...]:
    """The 24 semantics tasks in catalog order, followed by D3."""
    names = []
    for sem in Semantics:
        problems = ("DC", "SE") if sem in SINGLE_STATUS else PROBLEMS
        for p in problems:
            names.append(f"{p}-{sem}")
    names.append("D3")
    return tuple(names)


# ---------------------------------------------------------------------------
# Answers

def sorted_members(ext: Extension) -> Tuple[str, ...]:
    return tuple(sorted(ext))


def canonical_extensions(extensions) -> Tuple[Extension, ...]:
    """Dedupe and order extensions by their sorted member lists."""
    unique = {frozenset(e) for e in extensions}
    return tuple(sorted(unique, key=sorted_members))


@dataclass(frozen=True)
class YesNo:
    """Answer to a DC or DS task."""
    value: bool


@dataclass(frozen=True)
class OneExtension:
    """Answer to an SE task; ``extension`` is None when no extension exists."""
    extension: Optional[Extension]


@dataclass(frozen=True)
class AllExtensions:
    """Answer to an EE task, in canonical order."""
    extensions: Tuple[Extension, ...]

    @staticmethod
    def of(extensions) -> "AllExtensions":
        return AllExtensions(canonical_extensions(extensions))


@dataclass(frozen=True)
class Triathlon:
    """Answer to D3: grounded, stable, then preferred enumerations."""
    grounded: Tuple[Extension, ...]
    stable: Tuple[Extension, ...]
    preferred: Tuple[Extension, ...]

    @staticmethod
    def of(grounded, stable, preferred) -> "Triathlon":
        return Triathlon(canonical_extensions(grounded),
                         canonical_extensions(stable),
                         canonical_extensions(preferred))


Answer = YesNo | OneExtension | AllExtensions | Triathlon


def answer_matches_task(task: TaskSpec, answer: Answer) -> bool:
    if task.problem in DECISION_PROBLEMS:
        return isinstance(answer, YesNo)
    if task.problem == "SE":
        return isinstance(answer, OneExtension)
    if task.problem == "EE":
        return isinstance(answer, AllExtensions)
    return isinstance(answer, Triathlon)
