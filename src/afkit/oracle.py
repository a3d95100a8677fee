"""Exhaustive ground-truth enumeration over all argument subsets.

This is the reference backend.  ``oracle_table`` makes one pass over the
full power set of arguments, testing conflict-freeness once per subset and
the other defining conditions directly on the conflict-free ones.  It keeps
the complete and the maximal conflict-free sets and reads all seven
semantics off them: one scan per framework, whatever its tasks.  It is
exact and independent of the optimized search engine: it takes only the
framework type and ``bits`` from ``core``, builds per-argument attacker and
target bitmasks from the index adjacency lists once per scan, and keeps its
subset predicates to itself, so that a fault in a helper cannot make the
engine agree with its reference.  It is capped at 20 arguments
(``SIZE_CAP``) so a mistaken call cannot scan 2^1000 subsets.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from functools import reduce
from operator import and_, or_

from .core import ArgumentationFramework, bits
from .errors import OracleSizeError
from .tasks import (AllExtensions, Answer, OneExtension, Semantics, TaskSpec,
                    Triathlon, YesNo, canonical_extensions, sorted_members)

SIZE_CAP = 20


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _masks(af: ArgumentationFramework) -> tuple[list[int], list[int]]:
    """Per argument, the mask of its attackers and the mask of its targets;
    raises OracleSizeError when ``af`` has more than ``SIZE_CAP``
    arguments."""
    if len(af) > SIZE_CAP:
        raise OracleSizeError(
            f"{len(af)} arguments exceed the oracle size cap of {SIZE_CAP}")
    return ([_mask(v) for v in af.attacker_indices()],
            [_mask(v) for v in af.target_indices()])


def _attacked(tm: list[int], mask: int) -> int:
    attacked = 0
    for i in bits(mask):
        attacked |= tm[i]
    return attacked


def _conflict_free(am: list[int], tm: list[int], mask: int) -> bool:
    for i in bits(mask):
        if tm[i] & mask:
            return False
    return True


def _defended(am: list[int], tm: list[int], mask: int) -> int:
    """The mask of the arguments whose every attacker ``mask`` attacks."""
    attacked = _attacked(tm, mask)
    out = 0
    for i, a in enumerate(am):
        if a & ~attacked == 0:
            out |= 1 << i
    return out


# The three predicates below take a conflict-free ``mask``.

def _maximal_conflict_free(am: list[int], tm: list[int], mask: int) -> bool:
    # Maximal iff no outside argument can be added conflict-free.
    for i in range(len(am)):
        if (not (mask >> i) & 1 and tm[i] & (mask | 1 << i) == 0
                and am[i] & mask == 0):
            return False
    return True


def _admissible(am: list[int], tm: list[int], mask: int) -> bool:
    return mask & ~_defended(am, tm, mask) == 0


def _complete(am: list[int], tm: list[int], mask: int) -> bool:
    return _defended(am, tm, mask) == mask


def _conflict_free_masks(am: list[int], tm: list[int]) -> Iterator[int]:
    return (m for m in range(1 << len(am)) if _conflict_free(am, tm, m))


def _maximal(candidates: list[int], keys: list[int]) -> list[int]:
    """The candidates whose key no other key strictly contains.  Keys come
    widest first, so each is compared with the kept ones only."""
    kept: list[int] = []
    out = []
    for r, m in sorted(zip(keys, candidates), key=lambda p: p[0].bit_count(),
                       reverse=True):
        if not any(r != o and r & o == r for o in kept):
            kept.append(r)
            out.append(m)
    return out


def oracle_table(af: ArgumentationFramework) -> dict[Semantics, tuple]:
    """The exact extension set of ``af`` under every semantics, in canonical
    order, from one pass over its subsets."""
    am, tm = _masks(af)
    full = (1 << len(af)) - 1
    completes, maximal_cf = [], []
    for m in _conflict_free_masks(am, tm):
        if _maximal_conflict_free(am, tm, m):
            maximal_cf.append(m)
        if _complete(am, tm, m):
            completes.append(m)

    preferred = _maximal(completes, completes)
    # The scan ascends and a subset's mask is the smaller, so the least
    # complete set, inside every other one, comes first.
    grounded = completes[0]
    if any(m & grounded != grounded for m in completes):
        raise AssertionError("grounded extension must be unique")
    base = reduce(and_, preferred, full)
    # Admissible subsets of the preferred intersection are conflict-free
    # and closed under union, so their union is the unique maximal one; it
    # is complete, so it is also the union of the complete sets inside.
    ideal = reduce(or_, (m for m in completes if m & ~base == 0), 0)
    if not (_conflict_free(am, tm, ideal) and _admissible(am, tm, ideal)):
        raise AssertionError("ideal candidate must be admissible")
    ranges = [m | _attacked(tm, m) for m in completes]
    # Any conflict-free set extends to a maximal one with a range at least
    # as wide, and growing a conflict-free set strictly grows its range, so
    # the range-maximal conflict-free sets are the range-maximal ones among
    # the maximal conflict-free sets.
    stage = _maximal(maximal_cf, [m | _attacked(tm, m) for m in maximal_cf])
    masks = {
        Semantics.CO: completes,
        Semantics.PR: preferred,
        Semantics.ST: [m for m, r in zip(completes, ranges) if r == full],
        Semantics.GR: [grounded],
        Semantics.SST: _maximal(completes, ranges),
        Semantics.STG: stage,
        Semantics.ID: [ideal],
    }
    return {sem: canonical_extensions(af.names_of(bits(m)) for m in found)
            for sem, found in masks.items()}


def oracle_enumerate(sem: Semantics, af: ArgumentationFramework) -> tuple:
    """Exact extension set of ``af`` under ``sem``, in canonical order."""
    return oracle_table(af)[Semantics(sem)]


def solve(task: TaskSpec, af: ArgumentationFramework) -> Answer:
    """Reference task solver, backed entirely by exhaustive enumeration."""
    return answer_from(task, af, oracle_table(af))


def answer_from(task: TaskSpec, af: ArgumentationFramework,
                table: Mapping[Semantics, tuple]) -> Answer:
    """The answer to ``task`` read off ``table``, the canonical extension
    tuples of ``af`` per semantics that ``oracle_table`` returns, so that a
    caller can scan ``af`` once for many tasks.

    DC holds iff the query is in some extension, DS iff it is in all of them
    (vacuously yes for ST when no stable extension exists).  SE returns the
    extension whose sorted member list is lexicographically least, or the
    distinguished "no extension" value.
    """
    if task.problem == "D3":
        return Triathlon(table[Semantics.GR], table[Semantics.ST],
                         table[Semantics.PR])
    found = table[task.semantics]
    if task.problem == "EE":
        return AllExtensions(found)
    if task.problem == "SE":
        if not found:
            return OneExtension(None)
        return OneExtension(min(found, key=sorted_members))
    query = task.query
    af.index_of(query)  # unknown-argument check
    if task.problem == "DC":
        return YesNo(any(query in ext for ext in found))
    if task.problem == "DS":
        return YesNo(all(query in ext for ext in found))
    raise AssertionError(f"unhandled problem {task.problem}")  # pragma: no cover


def conflict_free_sets(af: ArgumentationFramework) -> tuple:
    """All conflict-free sets, in canonical order (exhaustive scan)."""
    am, tm = _masks(af)
    masks = _conflict_free_masks(am, tm)
    return canonical_extensions(af.names_of(bits(m)) for m in masks)


def admissible_sets(af: ArgumentationFramework) -> tuple:
    """All admissible sets, in canonical order (exhaustive scan)."""
    am, tm = _masks(af)
    masks = [m for m in _conflict_free_masks(am, tm)
             if _admissible(am, tm, m)]
    return canonical_extensions(af.names_of(bits(m)) for m in masks)


__all__ = ["SIZE_CAP", "oracle_table", "oracle_enumerate", "solve",
           "answer_from", "conflict_free_sets", "admissible_sets"]
