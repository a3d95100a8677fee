r"""Competition answer texts: writing and tolerant parsing.

Decision answers are ``YES`` / ``NO``.  A single extension prints as a sorted
bracketed id list like ``[a,b,c]`` (``NO`` when none exists, ``[]`` for the
empty extension).  Enumerations print every extension inside one outer
bracket pair, in the order the answer values hold: ``AllExtensions`` and
``Triathlon`` are canonical by construction, extensions deduped and ordered
by their sorted member lists.  D3 prints the grounded, stable, and preferred
enumerations on three lines, in that order.

The grammar, with whitespace (``\s``) allowed between any two tokens and
around the whole text::

    id          = [A-Za-z0-9_]+        (formats.ID_PATTERN)
    list        = "[" [ id { "," id } ] "]"
    enumeration = "[" [ list { "," list } ] "]"
    DC, DS      = "YES" | "NO"
    SE          = "NO" | list
    EE          = enumeration
    D3          = enumeration enumeration enumeration

Nesting stops at depth two, so the grammar is regular: each shape is one
pattern, matched with ``fullmatch``, and ``findall`` then reads the lists and
their ids.  Parsing never raises: text that does not match the task's shape
comes back with answer ``None``, which the judge maps to the zero-point
outcome.
"""

from __future__ import annotations

import re

from .errors import FormatError
from .formats import ID_PATTERN
from .tasks import (DECISION_PROBLEMS, AllExtensions, Answer, FrozenValue,
                    OneExtension, TaskSpec, Triathlon, YesNo,
                    answer_matches_task, sorted_members)

_S = r"\s*"
# The repeats are possessive: they keep no state to backtrack into, so
# matching a long answer does not take memory per id; no text of this
# grammar needs a repeat to give an iteration back.
_LIST = rf"\[{_S}(?:{ID_PATTERN}{_S}(?:,{_S}{ID_PATTERN}{_S})*+)?\]"
# An enumeration; its group is the text between the outer brackets.
_ENUM = rf"\[{_S}((?:{_LIST}{_S}(?:,{_S}{_LIST}{_S})*+)?)\]"
_VERDICT = rf"{_S}(YES|NO){_S}"
# Each shape compiles on first use, through re's own cache: a solver-mode
# call writes one answer and parses none, so it does not pay for compiling.
_SHAPE = {
    "DC": _VERDICT,
    "DS": _VERDICT,
    "SE": rf"{_S}(?:(NO)|{_LIST}){_S}",
    "EE": rf"{_S}{_ENUM}{_S}",
    "D3": rf"{_S}{_ENUM}{_S}{_ENUM}{_S}{_ENUM}{_S}",
}
_ID_RE = re.compile(ID_PATTERN)
_LIST_BODY_RE = re.compile(r"\[([^\]]*)\]")


def _fmt_extension(ext) -> str:
    return "[" + ",".join(sorted_members(ext)) + "]"


def _fmt_enumeration(extensions) -> str:
    return "[" + ",".join(_fmt_extension(e) for e in extensions) + "]"


def write_solution(task: TaskSpec, answer: Answer) -> str:
    """Render an answer in the competition output format."""
    if not answer_matches_task(task, answer):
        raise FormatError(f"answer shape {type(answer).__name__} does not fit "
                          f"task {task.name()}")
    if isinstance(answer, YesNo):
        return "YES" if answer.value else "NO"
    if isinstance(answer, OneExtension):
        if answer.extension is None:
            return "NO"
        return _fmt_extension(answer.extension)
    if isinstance(answer, AllExtensions):
        return _fmt_enumeration(answer.extensions)
    return "\n".join(_fmt_enumeration(e)
                     for e in (answer.grounded, answer.stable, answer.preferred))


class SolutionText(FrozenValue):
    """Raw solver output plus its parse: ``answer`` is None when unparsable."""

    __slots__ = ("raw", "answer")

    def __init__(self, raw: str, answer: Answer | None):
        super().__init__(raw, answer)

    @property
    def parsed(self) -> bool:
        return self.answer is not None


def parse_solution(task: TaskSpec, text: str) -> SolutionText:
    """Parse solver output for ``task``; failures yield an in-band marker."""
    return SolutionText(raw=text, answer=_parse_solution(task, text))


def _extensions(lists: str) -> list[frozenset[str]]:
    """The extensions of an enumeration, from the text inside its brackets."""
    return [frozenset(_ID_RE.findall(members))
            for members in _LIST_BODY_RE.findall(lists)]


def _parse_solution(task: TaskSpec, text: str) -> Answer | None:
    m = re.fullmatch(_SHAPE[task.problem], text)
    if m is None:
        return None
    if task.problem in DECISION_PROBLEMS:
        return YesNo(m[1] == "YES")
    if task.problem == "SE":
        return OneExtension(None if m[1] else frozenset(_ID_RE.findall(text)))
    enumerations = map(_extensions, m.groups())
    if task.problem == "EE":
        return AllExtensions(*enumerations)
    return Triathlon(*enumerations)
