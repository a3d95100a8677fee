"""Extension verification for every semantics.

Verification of the comparison-class semantics (preferred, semi-stable,
stage, grounded, ideal) needs the relevant comparison class; cheap sufficient
checks run first (a complete set with full range is stable, hence preferred
and semi-stable), then the engine enumerates only what is still needed.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from . import engine
from .core import (ArgumentationFramework, attacked_mask, grounded_extension,
                   has_full_range, is_complete, is_conflict_free, range_of)
from .tasks import Semantics


def verify(sem: Semantics, af: ArgumentationFramework,
           members: Iterable[str]) -> bool:
    """Decide whether ``members`` is a ``sem``-extension of ``af``.

    Raises UnknownArgumentError when ``members`` mentions ids outside the
    framework.
    """
    sem = Semantics(sem)
    s: FrozenSet[str] = frozenset(members)
    af.member_indices(s)  # unknown-argument check up front

    if sem == Semantics.CO:
        return is_complete(af, s)
    if sem == Semantics.ST:
        return is_complete(af, s) and has_full_range(af, s)
    if sem == Semantics.GR:
        return s == grounded_extension(af)
    if sem == Semantics.ID:
        return s == engine.ideal_extension(af)

    if sem == Semantics.PR:
        if not is_complete(af, s):
            return False
        if has_full_range(af, s):
            return True  # stable, hence maximal
        return not _exists_complete_strictly_above(af, s)

    if sem == Semantics.SST:
        if not is_complete(af, s):
            return False
        if has_full_range(af, s):
            return True  # stable, hence range-maximal
        r = range_of(af, s)
        return not any(range_of(af, c) > r
                       for c in engine.complete_extensions(af))

    # STG
    if not is_conflict_free(af, s):
        return False
    if has_full_range(af, s):
        return True
    r = af.mask_of(s)
    r |= attacked_mask(af, r)
    # Ranges of conflict-free sets are dominated by ranges of maximal ones.
    for c in engine._maximal_conflict_free_masks(af, engine._Budget(None)):
        rc = c | attacked_mask(af, c)
        if rc != r and rc & r == r:
            return False
    return True


def _exists_complete_strictly_above(af: ArgumentationFramework,
                                    s: FrozenSet[str]) -> bool:
    found = []

    def sink(ext):
        if ext != s:
            found.append(ext)
            return False
        return True

    search = engine._LabellingSearch(af, engine._Budget(None))
    search.run(sink, [(af.index_of(a), engine.IN) for a in sorted(s)])
    return bool(found)
