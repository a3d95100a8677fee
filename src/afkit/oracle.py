"""Exhaustive ground-truth enumeration over all argument subsets.

This is the reference backend: every semantics is evaluated by scanning the
full power set of arguments and applying the defining conditions directly.
It is exact and independent of the optimized search engine: it takes only
the framework type and ``bits`` from ``core``, builds per-argument attacker
and target bitmasks from the index adjacency lists once per call, and keeps
its subset predicates to itself, so that a fault in a helper cannot make
the engine agree with its reference.  It is capped (default 20 arguments)
so a mistaken call cannot scan 2^1000 subsets.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from .core import ArgumentationFramework, bits
from .errors import OracleSizeError
from .tasks import (AllExtensions, Answer, OneExtension, Semantics, TaskSpec,
                    Triathlon, YesNo, canonical_extensions, sorted_members)

DEFAULT_SIZE_CAP = 20


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _masks(af: ArgumentationFramework, size_cap: int
           ) -> Tuple[List[int], List[int]]:
    """Per argument, the mask of its attackers and the mask of its targets;
    raises OracleSizeError when ``af`` has more than ``size_cap``
    arguments."""
    if len(af) > size_cap:
        raise OracleSizeError(
            f"{len(af)} arguments exceed the oracle size cap of {size_cap}")
    return ([_mask(v) for v in af.attacker_indices()],
            [_mask(v) for v in af.target_indices()])


def _attacked(tm: List[int], mask: int) -> int:
    attacked = 0
    for i in bits(mask):
        attacked |= tm[i]
    return attacked


def _conflict_free(am: List[int], tm: List[int], mask: int) -> bool:
    for i in bits(mask):
        if tm[i] & mask:
            return False
    return True


def _admissible(am: List[int], tm: List[int], mask: int) -> bool:
    if not _conflict_free(am, tm, mask):
        return False
    attacked = _attacked(tm, mask)
    for i in bits(mask):
        if am[i] & ~attacked:
            return False
    return True


def _complete(am: List[int], tm: List[int], mask: int) -> bool:
    if not _admissible(am, tm, mask):
        return False
    attacked = _attacked(tm, mask)
    for i in range(len(am)):
        if not (mask >> i) & 1 and am[i] & ~attacked == 0:
            return False
    return True


def _scan(am: List[int], tm: List[int], predicate) -> List[int]:
    return [m for m in range(1 << len(am)) if predicate(am, tm, m)]


def _range_maximal(candidates: List[int], keys: List[int]) -> List[int]:
    """The candidates whose key has no proper superset among ``keys``."""
    out = []
    for i, m in enumerate(candidates):
        r = keys[i]
        if not any(r != o and r & o == r for o in keys):
            out.append(m)
    return out


def _maximal_conflict_free(am: List[int], tm: List[int]) -> List[int]:
    n = len(am)
    out = []
    for m in range(1 << n):
        if not _conflict_free(am, tm, m):
            continue
        # Maximal iff no outside argument can be added conflict-free.
        maximal = True
        for i in range(n):
            if (m >> i) & 1:
                continue
            if tm[i] & (m | (1 << i)) == 0 and am[i] & m == 0:
                maximal = False
                break
        if maximal:
            out.append(m)
    return out


def oracle_enumerate(sem: Semantics, af: ArgumentationFramework,
                     size_cap: int = DEFAULT_SIZE_CAP) -> Tuple:
    """Exact extension set of ``af`` under ``sem``, in canonical order."""
    am, tm = _masks(af, size_cap)
    sem = Semantics(sem)
    full = (1 << len(af)) - 1

    if sem == Semantics.STG:
        # Any conflict-free set extends to a maximal one whose range contains
        # its own, so range-maximality over maximal conflict-free sets decides
        # range-maximality over all conflict-free sets; and a range-maximal
        # set is itself maximal (growing a conflict-free set strictly grows
        # its range).  The scan below still visits every subset.
        candidates = _maximal_conflict_free(am, tm)
        ranges = [m | _attacked(tm, m) for m in candidates]
        masks = _range_maximal(candidates, ranges)
        return canonical_extensions(af.names_of(bits(m)) for m in masks)
    completes = _scan(am, tm, _complete)
    if sem == Semantics.CO:
        masks = completes
    elif sem == Semantics.PR:
        masks = _range_maximal(completes, completes)
    elif sem == Semantics.ST:
        masks = [m for m in completes if m | _attacked(tm, m) == full]
    elif sem == Semantics.GR:
        masks = [m for m in completes
                 if not any(m != o and m & o == o for o in completes)]
        if len(masks) != 1:
            raise AssertionError("grounded extension must be unique")
    elif sem == Semantics.SST:
        ranges = [m | _attacked(tm, m) for m in completes]
        masks = _range_maximal(completes, ranges)
    elif sem == Semantics.ID:
        base = full
        for m in _range_maximal(completes, completes):
            base &= m
        # Admissible subsets of the preferred intersection are conflict-free
        # and closed under union, so their union is the unique maximal one.
        union = 0
        for m in range(1 << len(af)):
            if m & ~base == 0 and _admissible(am, tm, m):
                union |= m
        if not _admissible(am, tm, union):
            raise AssertionError("ideal candidate must be admissible")
        masks = [union]
    else:  # pragma: no cover
        raise ValueError(f"unhandled semantics {sem}")

    return canonical_extensions(af.names_of(bits(m)) for m in masks)


def solve(task: TaskSpec, af: ArgumentationFramework,
          size_cap: int = DEFAULT_SIZE_CAP) -> Answer:
    """Reference task solver, backed entirely by exhaustive enumeration.

    DC holds iff the query is in some extension, DS iff it is in all of them
    (vacuously yes for ST when no stable extension exists).  SE returns the
    extension whose sorted member list is lexicographically least, or the
    distinguished "no extension" value.
    """
    if task.problem == "D3":
        return Triathlon.of(oracle_enumerate(Semantics.GR, af, size_cap),
                            oracle_enumerate(Semantics.ST, af, size_cap),
                            oracle_enumerate(Semantics.PR, af, size_cap))
    extensions = oracle_enumerate(task.semantics, af, size_cap)
    if task.problem == "EE":
        return AllExtensions(extensions)
    if task.problem == "SE":
        if not extensions:
            return OneExtension(None)
        return OneExtension(min(extensions, key=sorted_members))
    query = task.query
    af.index_of(query)  # unknown-argument check
    if task.problem == "DC":
        return YesNo(any(query in ext for ext in extensions))
    if task.problem == "DS":
        return YesNo(all(query in ext for ext in extensions))
    raise AssertionError(f"unhandled problem {task.problem}")  # pragma: no cover


def conflict_free_sets(af: ArgumentationFramework,
                       size_cap: int = DEFAULT_SIZE_CAP) -> Tuple:
    """All conflict-free sets, in canonical order (exhaustive scan)."""
    masks = _scan(*_masks(af, size_cap), _conflict_free)
    return canonical_extensions(af.names_of(bits(m)) for m in masks)


def admissible_sets(af: ArgumentationFramework,
                    size_cap: int = DEFAULT_SIZE_CAP) -> Tuple:
    """All admissible sets, in canonical order (exhaustive scan)."""
    masks = _scan(*_masks(af, size_cap), _admissible)
    return canonical_extensions(af.names_of(bits(m)) for m in masks)


__all__ = ["DEFAULT_SIZE_CAP", "oracle_enumerate", "solve",
           "conflict_free_sets", "admissible_sets"]
