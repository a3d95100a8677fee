"""Argumentation framework data model and semantics-level predicates.

An argumentation framework is a finite directed graph: a set of named
arguments and a set of attack pairs.  This module holds the framework type
and the polynomial-time building blocks every semantics is defined from:
conflict-freeness, defense, range, admissibility, completeness, and the
grounded fixed point.

All types are immutable values; every function here is pure and safe to call
concurrently.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Set, Tuple

from .errors import UnknownArgumentError

ArgumentId = str
Extension = FrozenSet[str]


class ArgumentationFramework:
    """Immutable attack graph over named arguments.

    Arguments keep their construction order (used for deterministic output);
    attacks are an unordered set of ``(attacker, target)`` pairs.  Self-attacks
    are allowed.  Duplicate argument ids collapse to their first occurrence.
    """

    __slots__ = ("_args", "_attacks", "_index", "_attackers", "_targets",
                 "_attacker_masks", "_target_masks")

    def __init__(self, args: Iterable[ArgumentId],
                 attacks: Iterable[Tuple[ArgumentId, ArgumentId]] = ()):
        self._args: Tuple[str, ...] = tuple(dict.fromkeys(args))
        index = self._index = {a: i for i, a in enumerate(self._args)}
        n = len(self._args)
        attack_set = frozenset(attacks)
        # Sort the attacks once, as index pairs packed into ints
        # (source * n + target); filling both adjacency lists in that order
        # leaves each of them sorted.  The lists take their ints from
        # ``ids``, the index's own objects, rather than fresh ones from
        # divmod, so the adjacency tuples add no int objects.
        try:
            codes = [index[src] * n + index[dst] for src, dst in attack_set]
        except KeyError:
            src, dst = next((s, d) for s, d in attack_set
                            if s not in index or d not in index)
            raise UnknownArgumentError(
                f"attack ({src},{dst}) mentions an undeclared argument") from None
        codes.sort()
        self._attacks: FrozenSet[Tuple[str, str]] = attack_set
        ids = list(index.values())
        attackers: list[list[int]] = [[] for _ in range(n)]
        targets: list[list[int]] = [[] for _ in range(n)]
        for code in codes:
            s, d = divmod(code, n)
            targets[s].append(ids[d])
            attackers[d].append(ids[s])
        del codes   # its memory serves the tuples below
        self._attackers = tuple(map(tuple, attackers))
        self._targets = tuple(map(tuple, targets))
        # Bitmask views are built on demand: they are what the exhaustive
        # oracle wants, but at generator scale (10^6 arguments) per-argument
        # masks would dominate memory.
        self._attacker_masks = None
        self._target_masks = None

    @property
    def args(self) -> Tuple[str, ...]:
        return self._args

    @property
    def attacks(self) -> FrozenSet[Tuple[str, str]]:
        return self._attacks

    def __len__(self) -> int:
        return len(self._args)

    def __contains__(self, arg: str) -> bool:
        return arg in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArgumentationFramework):
            return NotImplemented
        return self._args == other._args and self._attacks == other._attacks

    def __hash__(self) -> int:
        return hash((self._args, self._attacks))

    def __repr__(self) -> str:
        return (f"ArgumentationFramework({len(self._args)} args, "
                f"{len(self._attacks)} attacks)")

    def index_of(self, arg: str) -> int:
        try:
            return self._index[arg]
        except KeyError:
            raise UnknownArgumentError(f"unknown argument {arg!r}") from None

    def attackers_of(self, arg: str) -> Tuple[str, ...]:
        return tuple(self._args[i] for i in self._attackers[self.index_of(arg)])

    def targets_of(self, arg: str) -> Tuple[str, ...]:
        return tuple(self._args[i] for i in self._targets[self.index_of(arg)])

    # Index-level views used by the search engine and the oracle.
    def attacker_indices(self) -> Tuple[Tuple[int, ...], ...]:
        return self._attackers

    def target_indices(self) -> Tuple[Tuple[int, ...], ...]:
        return self._targets

    def attacker_masks(self) -> Tuple[int, ...]:
        if self._attacker_masks is None:
            self._attacker_masks = tuple(_mask(v) for v in self._attackers)
        return self._attacker_masks

    def target_masks(self) -> Tuple[int, ...]:
        if self._target_masks is None:
            self._target_masks = tuple(_mask(v) for v in self._targets)
        return self._target_masks

    def member_indices(self, members: Iterable[str]) -> Set[int]:
        return {self.index_of(a) for a in members}

    def mask_of(self, members: Iterable[str]) -> int:
        m = 0
        for a in members:
            m |= 1 << self.index_of(a)
        return m

    def set_of(self, mask: int) -> Extension:
        return frozenset(self._args[i] for i in bits(mask))

    def names_of(self, indices: Iterable[int]) -> Extension:
        return frozenset(self._args[i] for i in indices)


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Set-level predicates (adjacency-list based; fine at any framework size)

def _attacked_indices(af: ArgumentationFramework, idx: Set[int]) -> Set[int]:
    targets = af.target_indices()
    attacked: Set[int] = set()
    for i in idx:
        attacked.update(targets[i])
    return attacked


def is_conflict_free(af: ArgumentationFramework, members: Iterable[str]) -> bool:
    """True iff no attack of ``af`` has both endpoints in ``members``."""
    idx = af.member_indices(members)
    targets = af.target_indices()
    for i in idx:
        for t in targets[i]:
            if t in idx:
                return False
    return True


def defends(af: ArgumentationFramework, members: Iterable[str],
            arg: ArgumentId) -> bool:
    """True iff every attacker of ``arg`` is attacked by some member."""
    idx = af.member_indices(members)
    target = af.index_of(arg)
    attacked = _attacked_indices(af, idx)
    return all(z in attacked for z in af.attacker_indices()[target])


def range_of(af: ArgumentationFramework, members: Iterable[str]) -> Extension:
    """The members plus every argument attacked by a member."""
    idx = af.member_indices(members)
    return af.names_of(idx | _attacked_indices(af, idx))


def is_admissible(af: ArgumentationFramework, members: Iterable[str]) -> bool:
    """Conflict-free and self-defending."""
    idx = af.member_indices(members)
    targets = af.target_indices()
    for i in idx:
        for t in targets[i]:
            if t in idx:
                return False
    attacked = _attacked_indices(af, idx)
    attackers = af.attacker_indices()
    return all(z in attacked for i in idx for z in attackers[i])


def is_complete(af: ArgumentationFramework, members: Iterable[str]) -> bool:
    """Admissible, and every argument the set defends already belongs to it."""
    idx = af.member_indices(members)
    if not is_admissible(af, af.names_of(idx)):
        return False
    attacked = _attacked_indices(af, idx)
    attackers = af.attacker_indices()
    for i in range(len(af)):
        if i in idx:
            continue
        if all(z in attacked for z in attackers[i]):
            return False
    return True


def has_full_range(af: ArgumentationFramework, members: Iterable[str]) -> bool:
    idx = af.member_indices(members)
    return len(idx | _attacked_indices(af, idx)) == len(af)


def grounded_extension(af: ArgumentationFramework) -> Extension:
    """Least fixed point of the defense operator, starting from the empty set.

    Worklist implementation, linear in arguments plus attacks: an argument
    turns IN once all of its attackers are OUT; its targets turn OUT.
    """
    n = len(af)
    attackers = af.attacker_indices()
    targets = af.target_indices()
    UNKNOWN, IN, OUT = 0, 1, 2
    state = [UNKNOWN] * n
    pending = [len(attackers[i]) for i in range(n)]
    queue = [i for i in range(n) if pending[i] == 0]
    in_set = []
    while queue:
        i = queue.pop()
        if state[i] != UNKNOWN:
            continue
        state[i] = IN
        in_set.append(i)
        for y in targets[i]:
            if state[y] != UNKNOWN:
                continue
            state[y] = OUT
            for z in targets[y]:
                pending[z] -= 1
                if pending[z] == 0 and state[z] == UNKNOWN:
                    queue.append(z)
    return af.names_of(in_set)


# Mask-level predicate helpers shared with the exhaustive oracle.

def attacked_mask(af: ArgumentationFramework, mask: int) -> int:
    attacked = 0
    tm = af.target_masks()
    for i in bits(mask):
        attacked |= tm[i]
    return attacked


def conflict_free_mask(af: ArgumentationFramework, mask: int) -> bool:
    tm = af.target_masks()
    for i in bits(mask):
        if tm[i] & mask:
            return False
    return True


def admissible_mask(af: ArgumentationFramework, mask: int) -> bool:
    if not conflict_free_mask(af, mask):
        return False
    attacked = attacked_mask(af, mask)
    am = af.attacker_masks()
    for i in bits(mask):
        if am[i] & ~attacked:
            return False
    return True


def complete_mask(af: ArgumentationFramework, mask: int) -> bool:
    if not admissible_mask(af, mask):
        return False
    attacked = attacked_mask(af, mask)
    am = af.attacker_masks()
    for i in range(len(af)):
        if not (mask >> i) & 1 and am[i] & ~attacked == 0:
            return False
    return True
