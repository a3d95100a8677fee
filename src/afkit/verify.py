"""Extension verification for every semantics.

Verification of the comparison-class semantics (preferred, semi-stable,
stage, grounded, ideal) needs the relevant comparison class.  Cheap checks
run first: the set must be complete (conflict-free for stage), and a
complete set with full range is stable, hence preferred and semi-stable.
Only then does ``engine.dominated`` search for a candidate that strictly
beats the set, and it stops at the first one it finds, so a set that is
not an extension is usually refuted early; grounded and ideal are compared
with the one extension.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import engine
from .core import (ArgumentationFramework, grounded_extension, has_full_range,
                   is_complete, is_conflict_free)
from .tasks import Semantics


def verify(sem: Semantics, af: ArgumentationFramework,
           members: Iterable[str]) -> bool:
    """Decide whether ``members`` is a ``sem``-extension of ``af``.

    Raises UnknownArgumentError when ``members`` mentions ids outside the
    framework.
    """
    sem = Semantics(sem)
    s: frozenset[str] = frozenset(members)
    af.member_indices(s)  # unknown-argument check up front

    if sem == Semantics.CO:
        return is_complete(af, s)
    if sem == Semantics.ST:
        return is_complete(af, s) and has_full_range(af, s)
    if sem == Semantics.GR:
        return s == grounded_extension(af)
    if sem == Semantics.ID:
        return engine.enumerate_extensions(sem, af) == (s,)
    admissible = is_conflict_free if sem == Semantics.STG else is_complete
    if not admissible(af, s):
        return False
    if has_full_range(af, s):
        return True  # stable, hence maximal by set and by range
    return not engine.dominated(sem, af, s)
