"""Competition answer texts: writing and tolerant parsing.

Decision answers are ``YES`` / ``NO``.  A single extension prints as a sorted
bracketed id list like ``[a,b,c]`` (``NO`` when none exists, ``[]`` for the
empty extension).  Enumerations print every extension inside one outer
bracket pair, extensions ordered by their sorted member lists.  D3 prints the
grounded, stable, and preferred enumerations on three lines, in that order.

Parsing is whitespace-insensitive and never raises: anything that does not
match the task's required shape comes back as a parse failure marker, which
the judge maps to the zero-point outcome.
"""

from __future__ import annotations

import re

from .errors import FormatError
from .tasks import (AllExtensions, Answer, FrozenValue, OneExtension, TaskSpec,
                    Triathlon, YesNo, answer_matches_task,
                    canonical_extensions, sorted_members)

_TOKEN_RE = re.compile(r"\[|\]|,|[A-Za-z0-9_]+")


def _fmt_extension(ext) -> str:
    return "[" + ",".join(sorted_members(ext)) + "]"


def _fmt_enumeration(extensions) -> str:
    parts = [_fmt_extension(e) for e in canonical_extensions(extensions)]
    return "[" + ",".join(parts) + "]"


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


class _Tokens:
    def __init__(self, text: str):
        self.items = _TOKEN_RE.findall(text)
        # Anything outside brackets, commas, ids, and whitespace poisons the text.
        if re.sub(r"\s+", "", _TOKEN_RE.sub("", text)):
            raise ValueError("stray characters")
        self.pos = 0

    def peek(self) -> str | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.take() != tok:
            raise ValueError(f"expected {tok!r}")

    def done(self) -> bool:
        return self.pos >= len(self.items)


def _parse_id_list(toks: _Tokens) -> tuple[str, ...]:
    toks.expect("[")
    members: list[str] = []
    if toks.peek() == "]":
        toks.take()
        return tuple(members)
    while True:
        tok = toks.take()
        if tok in "[],":
            raise ValueError("expected an argument id")
        members.append(tok)
        nxt = toks.take()
        if nxt == "]":
            return tuple(members)
        if nxt != ",":
            raise ValueError("expected ',' or ']'")


def _parse_enumeration(toks: _Tokens) -> tuple[tuple[str, ...], ...]:
    toks.expect("[")
    sets: list[tuple[str, ...]] = []
    if toks.peek() == "]":
        toks.take()
        return tuple(sets)
    while True:
        sets.append(_parse_id_list(toks))
        nxt = toks.take()
        if nxt == "]":
            return tuple(sets)
        if nxt != ",":
            raise ValueError("expected ',' or ']'")


def parse_solution(task: TaskSpec, text: str) -> SolutionText:
    """Parse solver output for ``task``; failures yield an in-band marker."""
    try:
        answer = _parse_solution(task, text)
    except Exception:
        answer = None
    return SolutionText(raw=text, answer=answer)


def _parse_solution(task: TaskSpec, text: str) -> Answer:
    stripped = text.strip()
    if task.problem in ("DC", "DS"):
        if stripped == "YES":
            return YesNo(True)
        if stripped == "NO":
            return YesNo(False)
        raise ValueError("expected YES or NO")
    if task.problem == "SE":
        if stripped == "NO":
            return OneExtension(None)
        toks = _Tokens(text)
        members = _parse_id_list(toks)
        if not toks.done():
            raise ValueError("trailing tokens")
        return OneExtension(frozenset(members))
    if task.problem == "EE":
        toks = _Tokens(text)
        sets = _parse_enumeration(toks)
        if not toks.done():
            raise ValueError("trailing tokens")
        return AllExtensions.of(frozenset(s) for s in sets)
    # D3: three enumerations in grounded, stable, preferred order.
    toks = _Tokens(text)
    parts = [_parse_enumeration(toks) for _ in range(3)]
    if not toks.done():
        raise ValueError("trailing tokens")
    gr, st, pr = parts
    return Triathlon.of((frozenset(s) for s in gr),
                        (frozenset(s) for s in st),
                        (frozenset(s) for s in pr))
