"""Argumentation framework data model and semantics-level predicates.

An argumentation framework is a finite directed graph: a set of named
arguments and a set of attack pairs.  This module holds the framework type
and the polynomial-time building blocks every semantics is defined from:
conflict-freeness, defense, range, admissibility, completeness, the
grounded fixed point, and the strongly connected components of an attack
graph.

A framework holds its argument names and its attacks as index adjacency
lists, and nothing else.  The code that scans argument subsets as bitmasks,
the exhaustive oracle and the engine's stage semantics, builds the masks it
needs from those lists itself, so that the two share no mask code.

All types are immutable values; every function here is pure and safe to call
concurrently.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

from .errors import UnknownArgumentError

ArgumentId = str
Extension = FrozenSet[str]


class ArgumentationFramework:
    """Immutable attack graph over named arguments.

    Arguments keep their construction order (used for deterministic output);
    attacks are an unordered set of ``(attacker, target)`` pairs.  Self-attacks
    are allowed.  Duplicate argument ids collapse to their first occurrence.
    """

    __slots__ = ("_args", "_attacks", "_index", "_attackers", "_targets")

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

    def member_indices(self, members: Iterable[str]) -> Set[int]:
        return {self.index_of(a) for a in members}

    def names_of(self, indices: Iterable[int]) -> Extension:
        return frozenset(self._args[i] for i in indices)


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


def _defended(af: ArgumentationFramework, attacked: Set[int],
              candidates: Iterable[int]) -> Set[int]:
    """The candidates all of whose attackers are in ``attacked``."""
    attackers = af.attacker_indices()
    return {i for i in candidates if all(z in attacked for z in attackers[i])}


def is_conflict_free(af: ArgumentationFramework, members: Iterable[str]) -> bool:
    """True iff no attack of ``af`` has both endpoints in ``members``."""
    idx = af.member_indices(members)
    return idx.isdisjoint(_attacked_indices(af, idx))


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
    attacked = _attacked_indices(af, idx)
    return idx.isdisjoint(attacked) and _defended(af, attacked, idx) == idx


def is_complete(af: ArgumentationFramework, members: Iterable[str]) -> bool:
    """Conflict-free, and the arguments the set defends are exactly its
    members."""
    idx = af.member_indices(members)
    attacked = _attacked_indices(af, idx)
    return (idx.isdisjoint(attacked)
            and _defended(af, attacked, range(len(af))) == idx)


def has_full_range(af: ArgumentationFramework, members: Iterable[str]) -> bool:
    idx = af.member_indices(members)
    return len(idx | _attacked_indices(af, idx)) == len(af)


def grounded_extension(af: ArgumentationFramework) -> Extension:
    """Least fixed point of the defense operator, from the empty set."""
    return af.names_of(grounded_indices(af.attacker_indices(),
                                        af.target_indices()))


def grounded_indices(attackers: Sequence[Sequence[int]],
                     targets: Sequence[Sequence[int]]) -> List[int]:
    """The grounded extension of the framework on ``0..len(targets)-1``
    whose argument i has the attackers ``attackers[i]`` and the targets
    ``targets[i]``, as indices.

    Worklist implementation, linear in arguments plus attacks: an argument
    turns IN once all of its attackers are OUT; its targets turn OUT.
    """
    n = len(targets)
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
    return in_set


def strongly_connected_components(succ: Sequence[Sequence[int]]
                                  ) -> List[List[int]]:
    """Strongly connected components of the digraph on ``0..len(succ)-1``
    whose node ``i`` has an edge to each index in ``succ[i]``.

    Takes the shape of ``ArgumentationFramework.target_indices()``.  Tarjan's
    algorithm (1972), linear in nodes plus edges, driven by an explicit stack
    of successor iterators so that path depth is bounded by memory rather
    than by the recursion limit.  Components come out in reverse topological
    order: no edge leads from a component to one listed after it.
    """
    n = len(succ)
    index = [-1] * n    # discovery number; -1 while unvisited
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                # Every successor of v is done: close v.
                work.pop()
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
                # Not a component root, so not the DFS root: v has a parent.
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return components

