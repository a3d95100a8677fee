"""Task catalog: reasoning problems, semantics, and answer shapes.

A task is a reasoning problem (DC, DS, SE, EE) paired with a semantics, plus
the standalone triathlon task D3.  The single-status semantics GR and ID only
admit DC and SE, which yields 24 semantics tasks; D3 makes 25.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import StrEnum

from .errors import MalformedTaskError

Extension = frozenset[str]


class FrozenValue:
    """Base of the immutable value types: the task spec, the four answer
    shapes and ``solutions.SolutionText``.

    A subclass names its fields in ``__slots__`` and passes their values,
    in that order, to this ``__init__``, which sets each once.  Two values
    are equal when they have the same type and equal fields, hash by their
    fields and print as ``Type(field=value, ...)``.  Fields cannot be
    assigned or deleted; copies and pickles rebuild a value through its
    constructor.  These types are plain classes rather than frozen
    dataclasses because every solver-mode call imports them, and
    ``dataclasses`` loads ``inspect``, ``ast`` and ``dis``.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class Semantics(StrEnum):  # str() is the wire form, e.g. "PR" in "EE-PR"
    CO = "CO"
    PR = "PR"
    ST = "ST"
    SST = "SST"
    STG = "STG"
    GR = "GR"
    ID = "ID"


SINGLE_STATUS = frozenset({Semantics.GR, Semantics.ID})

PROBLEMS = ("DC", "DS", "SE", "EE")
DECISION_PROBLEMS = frozenset({"DC", "DS"})


class TaskSpec(FrozenValue):
    """One reasoning task, optionally bound to a query argument.

    ``semantics`` is None exactly for D3.  DC/DS require ``query``; the other
    problems forbid it.
    """

    __slots__ = ("problem", "semantics", "query")

    def __init__(self, problem: str, semantics: Semantics | None = None,
                 query: str | None = None):
        super().__init__(problem, semantics, query)
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


def parse_task(name: str, query: str | None = None) -> TaskSpec:
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


def all_task_names() -> tuple[str, ...]:
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

def sorted_members(ext: Extension) -> tuple[str, ...]:
    return tuple(sorted(ext))


def canonical_extensions(extensions) -> tuple[Extension, ...]:
    """Dedupe and order extensions by their sorted member lists."""
    unique = {frozenset(e) for e in extensions}
    return tuple(sorted(unique, key=sorted_members))


class YesNo(FrozenValue):
    """Answer to a DC or DS task."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        super().__init__(value)


class OneExtension(FrozenValue):
    """Answer to an SE task; ``extension`` is None when no extension exists."""

    __slots__ = ("extension",)

    def __init__(self, extension: Extension | None):
        super().__init__(extension)


class AllExtensions(FrozenValue):
    """Answer to an EE task, canonical by construction: the constructor
    dedupes the extensions and orders them by their sorted member lists, so
    the same sets in any order make equal answers that print alike."""

    __slots__ = ("extensions",)

    def __init__(self, extensions: Iterable[Extension]):
        super().__init__(canonical_extensions(extensions))


class Triathlon(FrozenValue):
    """Answer to D3: grounded, stable, then preferred enumerations, each
    canonical by construction as in ``AllExtensions``."""

    __slots__ = ("grounded", "stable", "preferred")

    def __init__(self, grounded: Iterable[Extension],
                 stable: Iterable[Extension],
                 preferred: Iterable[Extension]):
        super().__init__(canonical_extensions(grounded),
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
