"""Optimized task engine: labelling-style backtracking search.

Complete extensions are enumerated as three-valued labellings (IN / OUT /
UNDEC).  A labelling is complete when every argument meets its condition:

* IN: every attacker is OUT;
* OUT: some attacker is IN;
* UNDEC: no attacker is IN and not every attacker is OUT.

The search keeps per-argument counts of IN, OUT and UNDEC attackers and
propagates each assignment through them.  ``assign`` rejects an assignment
that breaks a condition as soon as the counts decide it: IN next to an IN
or UNDEC attacker, an IN attacker next to anything but OUT, UNDEC next to
an IN attacker or with every attacker OUT, and OUT once its attackers are
all labelled and none is IN.  Arguments whose attackers are all OUT are
forced IN, and the neighbours of IN arguments are forced OUT.  So at a leaf,
where every argument is labelled, each condition has been checked at the
moment its last input was labelled, and the leaf is reported without
re-scanning the framework.  The grounded fixed point is computed first and
frozen into every search.

Both searches, the labelling search and the maximal conflict-free search,
are generators: they yield each answer as they reach it, and the consumer
decides when to stop by how much it draws.  Enumeration draws everything,
a decision draws at most one answer.

``_extensions`` is the one place where a semantics meets its algorithm.
Grounded is the fixed point itself; stable labellings are searched with
UNDEC disabled; stage extensions are the range-maximal maximal conflict-free
sets, enumerated and filtered as bitmasks.  Complete extensions come from
the labelling search and preferred are their set-maximal members; both
semi-stable (the range-maximal preferred) and ideal (the intersection of the
preferred, shrunk to a fixed point of the defense check) are derived from
that one preferred list.  D3 is grounded, stable and preferred under one
budget.  Only the decision shortcuts bypass it: DC-CO, DC-PR, DC-ST and
DS-ST draw at most one answer from a search with the query's label forced,
and DS-CO is grounded membership.  ``dominated`` is the comparison that
``verify`` needs for PR, SST and STG; it stops at the first candidate that
beats the set.

Answers match the enumeration-backed reference solver exactly, including the
canonical tie-break for SE (lexicographically least sorted member list).
"""

from __future__ import annotations

from itertools import compress
from typing import FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .core import (ArgumentationFramework, attacked_mask, bits,
                   grounded_extension, range_of)
from .errors import BudgetExceededError
from .tasks import (AllExtensions, Answer, OneExtension, Semantics, TaskSpec,
                    Triathlon, YesNo, canonical_extensions, sorted_members)

Extension = FrozenSet[str]

FREE, IN, OUT, UNDEC = 0, 1, 2, 3


class _Budget:
    """Optional node-expansion budget shared across the phases of one solve."""

    __slots__ = ("remaining",)

    def __init__(self, limit: Optional[int]):
        self.remaining = limit

    def tick(self, amount: int = 1) -> None:
        if self.remaining is None:
            return
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceededError("node-expansion budget exhausted")


class _LabellingSearch:
    """Backtracking search over complete (or stable) labellings of one AF."""

    def __init__(self, af: ArgumentationFramework, budget: _Budget):
        self.af = af
        self.n = len(af)
        self.attackers = af.attacker_indices()
        self.targets = af.target_indices()
        self.att_total = [len(a) for a in self.attackers]
        self.lab = [FREE] * self.n
        self.att_in = [0] * self.n
        self.att_out = [0] * self.n
        self.att_undec = [0] * self.n
        # Attacker counters indexed by label, so a label picks its counter.
        self.counters = (None, self.att_in, self.att_out, self.att_undec)
        self.trail: List[int] = []
        self.budget = budget

    def assign(self, pairs: Iterable[Tuple[int, int]]) -> bool:
        """Apply assignments plus propagation; False on conflict.

        Every committed assignment lands on the trail; callers snapshot the
        trail length beforehand and undo back to it.  An OUT argument is a
        dead end once it has no IN attacker and no free one, that is, when
        its OUT and UNDEC attackers are all of them.
        """
        queue = list(pairs)
        lab, trail, counters = self.lab, self.trail, self.counters
        att_in, att_out, att_undec = self.att_in, self.att_out, self.att_undec
        att_total, attackers, targets = (self.att_total, self.attackers,
                                         self.targets)
        while queue:
            i, want = queue.pop()
            cur = lab[i]
            if cur != FREE:
                if cur == want:
                    continue
                return False
            if want == IN:
                if att_in[i] or att_undec[i]:
                    return False
            elif want == OUT:
                if not att_in[i] and att_out[i] + att_undec[i] == att_total[i]:
                    return False
            elif att_in[i] or att_out[i] == att_total[i]:  # UNDEC
                return False
            lab[i] = want
            trail.append(i)
            ts = targets[i]
            # Counters first, checks second: undo_to always decrements the
            # full target list, so increments must never stop halfway.
            counter = counters[want]
            for y in ts:
                counter[y] += 1
            if want == IN:
                for z in attackers[i]:
                    if lab[z] == FREE:
                        queue.append((z, OUT))
                    elif lab[z] != OUT:
                        return False
                for y in ts:
                    if lab[y] == FREE:
                        queue.append((y, OUT))
                    elif lab[y] != OUT:
                        return False
            elif want == OUT:
                for y in ts:
                    if att_out[y] == att_total[y]:
                        if lab[y] == FREE:
                            queue.append((y, IN))
                        elif lab[y] != IN:
                            return False
                    elif (lab[y] == OUT and not att_in[y]
                          and att_out[y] + att_undec[y] == att_total[y]):
                        return False
            else:  # UNDEC
                for y in ts:
                    if lab[y] == IN:
                        return False
                    if (lab[y] == OUT and not att_in[y]
                            and att_out[y] + att_undec[y] == att_total[y]):
                        return False
        return True

    def undo_to(self, mark: int) -> None:
        lab, trail, counters, targets = (self.lab, self.trail, self.counters,
                                         self.targets)
        while len(trail) > mark:
            i = trail.pop()
            counter = counters[lab[i]]
            lab[i] = FREE
            for y in targets[i]:
                counter[y] -= 1

    def _first_free(self, start: int) -> int:
        lab = self.lab
        for i in range(start, self.n):
            if lab[i] == FREE:
                return i
        return -1

    def in_set(self) -> Extension:
        return frozenset(compress(self.af.args, map(IN.__eq__, self.lab)))

    def solutions(self, forced: Iterable[Tuple[int, int]] = (),
                  allow_undec: bool = True) -> Iterator[Extension]:
        """Yield the IN set of each labelling, in search order.

        The grounded labelling is installed first: its IN set is part of every
        complete labelling, so conflicts with ``forced`` prune immediately.
        Every leaf is a labelling: ``assign`` keeps the labelling conditions
        as an invariant, so a leaf needs no second check.  While suspended at
        a yield, ``lab`` holds the leaf's labelling; the consumer ends the
        search by drawing no further.
        """
        seed = [(self.af.index_of(a), IN) for a in grounded_extension(self.af)]
        if not self.assign(list(forced) + seed):
            return
        labels = (IN, OUT, UNDEC) if allow_undec else (IN, OUT)
        first = self._first_free(0)
        if first < 0:
            yield self.in_set()
            return
        assign, undo_to, first_free = self.assign, self.undo_to, self._first_free
        tick, trail, n_labels = self.budget.tick, self.trail, len(labels)
        # Iterative DFS: frame = [variable, next label index, trail mark].
        frames: List[List[int]] = [[first, 0, len(trail)]]
        while frames:
            frame = frames[-1]
            var, li, mark = frame
            undo_to(mark)
            if li == n_labels:
                frames.pop()
                continue
            frame[1] = li + 1
            tick()
            if not assign(((var, labels[li]),)):
                continue
            nxt = first_free(var + 1)
            if nxt < 0:
                yield self.in_set()
                continue
            frames.append([nxt, 0, len(trail)])


def _labellings(af: ArgumentationFramework, budget: _Budget,
                forced: Iterable[Tuple[str, int]] = (),
                allow_undec: bool = True) -> Iterator[Extension]:
    """The IN sets of the complete (stable unless ``allow_undec``)
    labellings of ``af`` that give each named argument its ``forced``
    label, searched lazily."""
    return _LabellingSearch(af, budget).solutions(
        [(af.index_of(a), label) for a, label in forced], allow_undec)


def _maximal_sets(sets: List[Extension]) -> List[Extension]:
    return [s for s in sets
            if not any(s is not o and s < o for o in sets)]


def _extensions(sem: Semantics, af: ArgumentationFramework,
                budget: _Budget) -> List[Extension]:
    """The ``sem``-extensions of ``af``, unordered: the one place a
    semantics is mapped to its algorithm."""
    if sem == Semantics.GR:
        return [grounded_extension(af)]
    if sem == Semantics.ST:
        return list(_labellings(af, budget, allow_undec=False))
    if sem == Semantics.STG:
        candidates = list(_maximal_conflict_free_masks(af, budget))
        ranges = [c | attacked_mask(af, c) for c in candidates]
        widest = _maximal_masks(set(ranges))
        return [af.set_of(c) for c, r in zip(candidates, ranges)
                if r in widest]
    complete = list(_labellings(af, budget))
    if sem == Semantics.CO:
        return complete
    preferred = _maximal_sets(complete)
    if sem == Semantics.PR:
        return preferred
    if sem == Semantics.SST:
        # Semi-stable extensions are preferred: growing a complete set
        # strictly grows its range, so a range-maximal complete set is
        # set-maximal too.
        ranges = [range_of(af, p) for p in preferred]
        return [p for p, r in zip(preferred, ranges)
                if not any(r is not o and r < o for o in ranges)]
    return [_ideal(af, preferred)]


def _maximal_masks(masks: Set[int]) -> Set[int]:
    """The masks with no strict superset among the distinct ``masks``.

    Taken largest first, a mask with a strict superset has one among the
    maximal masks already kept.  ``holders[b]`` marks, by position in
    ``kept``, the kept masks holding bit ``b``, so the kept supersets of a
    mask are the AND of its bits' holders.
    """
    holders = [0] * max(masks, default=0).bit_length()
    kept: List[int] = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        supersets = (1 << len(kept)) - 1
        for b in bits(m):
            supersets &= holders[b]
            if not supersets:
                break
        if supersets:
            continue
        position = 1 << len(kept)
        kept.append(m)
        for b in bits(m):
            holders[b] |= position
    return set(kept)


def _maximal_conflict_free_masks(af: ArgumentationFramework,
                                 budget: _Budget) -> Iterator[int]:
    """Yield the maximal conflict-free sets, as masks: maximal independent
    sets of the conflict graph over the non-self-attacking arguments
    (Bron-Kerbosch with pivoting on the implicit complement graph)."""
    n = len(af)
    am = af.attacker_masks()
    tm = af.target_masks()
    universe = 0
    for i in range(n):
        if not (tm[i] >> i) & 1:
            universe |= 1 << i
    conflict = [0] * n
    for i in bits(universe):
        conflict[i] = (am[i] | tm[i]) & universe & ~(1 << i)
    full = (1 << n) - 1

    stack = [(0, universe, 0)]
    while stack:
        r, p, x = stack.pop()
        budget.tick()
        if p == 0 and x == 0:
            yield r
            continue
        # The pivot leaves the most of P unexpanded: it is the first
        # argument, in index order, with the fewest conflicts inside P.  No
        # argument has fewer than none, so finding one ends the scan.
        pivot, fewest = -1, n + 1
        for u in bits(p | x):
            c = (p & conflict[u]).bit_count()
            if c < fewest:
                pivot, fewest = u, c
                if not c:
                    break
        for v in bits(p & (conflict[pivot] | 1 << pivot)):
            nv = full & ~conflict[v] & ~(1 << v)
            stack.append((r | (1 << v), p & nv, x & nv))
            p &= ~(1 << v)
            x |= 1 << v


def _ideal(af: ArgumentationFramework,
           preferred: List[Extension]) -> Extension:
    base = set.intersection(*(af.member_indices(p) for p in preferred))
    attackers, targets = af.attacker_indices(), af.target_indices()
    # The intersection of the preferred extensions is conflict-free, and its
    # admissible subsets are closed under union, so shrinking to the defended
    # core yields the unique maximal admissible subset.
    while True:
        attacked = set()
        for i in base:
            attacked.update(targets[i])
        kept = {i for i in base if all(z in attacked for z in attackers[i])}
        if len(kept) == len(base):
            return af.names_of(base)
        base = kept


def enumerate_extensions(sem: Semantics, af: ArgumentationFramework,
                         budget: Optional[int] = None) -> Tuple[Extension, ...]:
    """All extensions of ``af`` under ``sem``, canonically ordered."""
    return canonical_extensions(_extensions(Semantics(sem), af,
                                            _Budget(budget)))


def solve_optimized(task: TaskSpec, af: ArgumentationFramework,
                    budget: Optional[int] = None) -> Answer:
    """Solve any catalog task with the search engine.

    Same answer contract as the enumeration-backed reference solver; raises
    BudgetExceededError when the optional node budget runs out.  For D3 the
    one budget spans the grounded, stable and preferred enumerations.
    """
    b = _Budget(budget)
    if task.problem == "D3":
        return Triathlon.of(_extensions(Semantics.GR, af, b),
                            _extensions(Semantics.ST, af, b),
                            _extensions(Semantics.PR, af, b))
    sem, query = task.semantics, task.query
    if query is not None:
        af.index_of(query)

    if task.problem == "DC":
        if sem in (Semantics.CO, Semantics.PR, Semantics.ST):
            # Credulous acceptance under PR coincides with CO: any admissible
            # set extends to a preferred, hence complete, one.
            found = _labellings(af, b, [(query, IN)],
                                allow_undec=sem != Semantics.ST)
            return YesNo(next(found, None) is not None)
        return YesNo(any(query in e for e in _extensions(sem, af, b)))
    if task.problem == "DS":
        if sem == Semantics.CO:
            # Skeptical acceptance under CO coincides with membership in the
            # grounded extension, the least complete one.
            return YesNo(query in grounded_extension(af))
        if sem == Semantics.ST:
            # Vacuously yes when no stable extension exists.
            found = _labellings(af, b, [(query, OUT)], allow_undec=False)
            return YesNo(next(found, None) is None)
        return YesNo(all(query in e for e in _extensions(sem, af, b)))
    if task.problem == "SE":
        extensions = _extensions(sem, af, b)
        if not extensions:
            return OneExtension(None)
        return OneExtension(min(extensions, key=sorted_members))
    return AllExtensions.of(_extensions(sem, af, b))


def dominated(sem: Semantics, af: ArgumentationFramework,
              s: Extension) -> bool:
    """Whether some candidate strictly beats the set ``s`` under ``sem``:
    for PR a complete extension strictly containing ``s``, for SST a
    complete extension with a strictly wider range, and for STG a maximal
    conflict-free set with a strictly wider range.  ``s`` is taken to be
    complete (PR, SST) or conflict-free (STG).  The search stops at the
    first such witness; it is not budgeted.
    """
    sem, budget = Semantics(sem), _Budget(None)
    if sem == Semantics.PR:
        # Every complete extension holding ``s`` other than ``s`` itself
        # strictly contains it.
        return any(c != s for c in _labellings(
            af, budget, [(a, IN) for a in sorted(s)]))
    if sem == Semantics.SST:
        r = range_of(af, s)
        return any(range_of(af, c) > r for c in _labellings(af, budget))
    if sem == Semantics.STG:
        # Ranges of conflict-free sets are dominated by ranges of maximal
        # ones.
        r = af.mask_of(s)
        r |= attacked_mask(af, r)
        ranges = (c | attacked_mask(af, c)
                  for c in _maximal_conflict_free_masks(af, budget))
        return any(rc != r and rc & r == r for rc in ranges)
    raise ValueError(f"no dominance check for {sem}")


__all__ = ["enumerate_extensions", "solve_optimized", "dominated"]
