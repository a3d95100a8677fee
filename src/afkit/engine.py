"""Optimized task engine: one backtracking search over index-level state.

The search is goal-directed (the argument game of Nofal, Atkinson & Dunne,
AIJ 2014).  It grows a conflict-free set S from the grounded extension,
which every complete set holds, and branches on which argument joins S
next: later siblings exclude the earlier candidates, so the branches are
disjoint and no set is reached twice.  Each branch tried ticks one node
budget.  Three modes differ only in what must hold at a leaf and which
arguments are branched on before it:

* admissible: while some attacker of S is not attacked by S, the branches
  are the candidates to attack it, for the attacker with the fewest.  It
  decides whether an admissible set holds S and lies inside none of a list
  of avoided sets.  Preferred extensions are enumerated on it in one
  resumable walk, as PrefSAT does (Cerutti et al. 2014): at each admissible
  S inside none of the extensions found so far, grow S to a maximal one,
  avoid that, and go on from S.
* stable, by covering: while some argument outside S is not attacked by S,
  the branches are that argument and its attackers, for the argument with
  the fewest candidates.  A conflict-free set that attacks every argument
  outside it is stable (Caminada 2006), so a leaf needs no defence check.
* complete, by closing: at each admissible S it joins, without a tick,
  every argument S defends, and fails if one of them is excluded.  S is
  then complete and is yielded; the branches over the free arguments lead
  on to its strict supersets.

Every search is a generator: it yields each answer as it reaches it, and
the consumer decides when to stop by how much it draws.  Enumeration draws
everything, a decision draws at most one answer.  Every search runs on the
grounded reduct, the u arguments the grounded extension leaves undecided,
and keeps its sets as u-bit masks (bit-parallel, as in San Segundo et al.,
Computers & OR 2011): a trail entry is a few u-bit ints per step, and the
arguments the grounded extension decides cost nothing past the reduct.

``_extensions`` is the one place where a semantics meets its algorithm.
Grounded is the fixed point itself; complete comes from the closing
search.  Preferred and stable semantics are SCC-recursive (Baroni,
Giacomin & Guida, AIJ 2005): one driver builds both lists component by
component over the reduct, each component walked as a small framework, its
members an IN argument attacks dropped and those an undecided one attacks
given a self-attack.  As stable semantics is not directional, a component
with no stable extension under the picks above it ends that branch.  Ideal
(the intersection, shrunk to a fixed point of the defense check) and D3's
stable part (full range) come from the preferred list.  Semi-stable and
stage are the stable extensions whenever there are any.  Otherwise one
filter keeps the candidates whose range no other one's strictly contains:
the preferred extensions for semi-stable, the maximal conflict-free sets,
masks over the whole framework, that Bron-Kerbosch enumerates for stage.
The decision shortcuts walk the whole reduct and draw at most one answer:
DC-CO and DC-PR are one admissible search seeded with the query, DS-PR
stops at the first preferred extension without it, DC-ST seeds the
covering search with it and DS-ST excludes it; DS-CO is grounded
membership.  ``dominated`` is the comparison that ``verify`` needs for PR,
SST and STG; it stops at the first candidate that beats the set.

Answers match the enumeration-backed reference solver exactly, including the
canonical tie-break for SE (lexicographically least sorted member list).
"""

from __future__ import annotations

from bisect import insort
from functools import partial, reduce
from itertools import chain
from operator import and_
from collections.abc import Iterable, Iterator, Sequence

from .core import (ArgumentationFramework, bits, grounded_extension,
                   grounded_indices, strongly_connected_components)
from .errors import BudgetExceededError
from .tasks import (AllExtensions, Answer, OneExtension, Semantics, TaskSpec,
                    Triathlon, YesNo, canonical_extensions, sorted_members)

Extension = frozenset[str]


class _Budget:
    """Optional node-expansion budget shared across the phases of one solve."""

    __slots__ = ("remaining",)

    def __init__(self, limit: int | None):
        self.remaining = limit

    def tick(self) -> None:
        if self.remaining is None:
            return
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceededError("node-expansion budget exhausted")


def _reduct(attackers: Sequence[Sequence[int]],
            targets: Sequence[Sequence[int]]) -> tuple:
    """The grounded reduct of the framework whose argument i has the
    attackers ``attackers[i]`` and the targets ``targets[i]``: the grounded
    indices; ``decided``, mapping each argument the grounded extension
    decides to True (IN) or False (OUT); the undecided ``rest`` in index
    order; and ``succ[k]`` and ``pred[k]``, the positions in ``rest`` of the
    targets and the attackers of ``rest[k]``.  An undecided argument attacks nothing IN, and its OUT
    attackers are attacked by the grounded extension, so undecided sets are
    admissible, complete or stable beside it exactly when in the reduct."""
    grounded = grounded_indices(attackers, targets)
    decided = dict.fromkeys(chain.from_iterable(
        map(targets.__getitem__, grounded)), False)
    decided.update(dict.fromkeys(grounded, True))
    rest = [i for i in range(len(targets)) if i not in decided]
    pos = {i: k for k, i in enumerate(rest)}
    succ = [[pos[y] for y in targets[i] if y in pos] for i in rest]
    pred = [[pos[z] for z in attackers[i] if z in pos] for i in rest]
    return grounded, decided, rest, succ, pred


def _indices(reduct: tuple, m: int) -> list[int]:
    """The framework indices of the grounded extension and of the undecided
    arguments at the set bits of the reduct mask ``m``."""
    grounded, _, rest, _, _ = reduct
    return [*grounded, *map(rest.__getitem__, bits(m))]


class _AdmissibleSearch:
    """Goal-directed search over the conflict-free supersets of the
    grounded extension, on the grounded ``reduct`` of ``_reduct``.  S is the
    grounded extension and a set of undecided arguments; every mask has one
    bit per undecided argument, at its position in ``rest``.

    The state is five masks: S, what S attacks, what attacks S, the
    excluded arguments (self-attackers from the start), and the avoided
    sets S escapes (below).  An argument is *blocked*, unable to join S, when
    it is in one of the first four, *uncovered* when it is neither in S nor
    attacked by S, and *open* when it is uncovered and attacks S.  ``join``
    and ``bar`` (exclude) push the state they replace onto the trail, and
    ``undo_to`` restores a trail mark in one step: for u undecided
    arguments, 2u adjacency masks and five u-bit ints per step.  ``seed``,
    ``exclude``, ``avoid``, ``member`` and the walks' lists speak framework
    indices."""

    def __init__(self, reduct: tuple, budget: _Budget):
        self.reduct = reduct
        _, _, rest, succ, pred = reduct
        self.pos = {i: j for j, i in enumerate(rest)}
        self.targets = list(map(_mask, succ))
        self.attackers = list(map(_mask, pred))
        self.universe = (1 << len(rest)) - 1
        loops = _mask(j for j, ys in enumerate(succ) if j in ys)
        self.state = (0, 0, 0, loops, 0)
        self.trail: list[tuple] = []
        self.budget = budget
        # The sets a result must not lie inside, as masks.  Bit k of
        # ``missing[j]`` is set when argument j is outside the k-th of them,
        # and the state's last mask is the OR over the members of S: S lies
        # inside the k-th set iff its bit k is clear.
        self.avoided: list[int] = []
        self.missing = [0] * len(rest)

    def join(self, j: int) -> None:
        """Add the unblocked argument at position ``j`` to S."""
        s, hit, hits, out, escaped = state = self.state
        self.trail.append(state)
        self.state = (s | 1 << j, hit | self.targets[j],
                      hits | self.attackers[j], out, escaped | self.missing[j])

    def bar(self, j: int) -> None:
        """Exclude the argument at position ``j`` from S."""
        s, hit, hits, out, escaped = state = self.state
        self.trail.append(state)
        self.state = (s, hit, hits, out | 1 << j, escaped)

    def undo_to(self, mark: int) -> None:
        if len(self.trail) > mark:
            self.state = self.trail[mark]
            del self.trail[mark:]

    def members(self) -> list[int]:
        return _indices(self.reduct, self.state[0])

    @property
    def member(self) -> bytearray:
        """Per framework index, 1 for a member of S."""
        flags = bytearray(len(self.reduct[1]) + len(self.pos))
        for i in self.members():
            flags[i] = 1
        return flags

    def seed(self, indices: Iterable[int]) -> bool:
        """Add the framework arguments ``indices`` to S; False, with S
        part-grown, when one cannot join."""
        for i in indices:
            j = self.pos.get(i)
            if j is None:
                if not self.reduct[1][i]:
                    return False
            elif not self.state[0] >> j & 1:
                if (self.state[1] | self.state[2] | self.state[3]) >> j & 1:
                    return False
                self.join(j)
        return True

    def exclude(self, i: int) -> None:
        """Keep the framework argument ``i`` out of S (a decided one is)."""
        j = self.pos.get(i)
        if j is not None:
            self.bar(j)

    def avoid(self, indices: Iterable[int]) -> None:
        """From now on, accept no set inside the framework arguments
        ``indices``, which must hold every current member."""
        pos = self.pos
        self._avoid(_mask(pos[i] for i in indices if i in pos))

    def _avoid(self, inside: int) -> None:
        bit = 1 << len(self.avoided)
        self.avoided.append(inside)
        missing = self.missing
        for j in bits(self.universe & ~inside):
            missing[j] |= bit

    def _choices(self, covering: bool) -> list[int] | None:
        """The arguments to branch on: for the open (``covering``: uncovered)
        b with the fewest candidates, the lowest on a tie, the unblocked ones
        among b's attackers, in order, then b; else the unblocked arguments
        outside the first avoided set holding S.  None when there is no such
        b and S is inside no avoided set; [] when S cannot be completed."""
        s, hit, hits, out, escaped = self.state
        free = self.universe & ~(s | hit | hits | out)
        pool = self.universe & ~(s | hit) if covering else hits & ~hit
        attackers = self.attackers
        best, fewest = -1, len(attackers) + 2
        for b in bits(pool):
            c = ((attackers[b] | 1 << b) & free).bit_count()
            if c < fewest:
                if not c:
                    return []
                best, fewest = b, c
        if best >= 0:
            choices = list(bits(attackers[best] & free))
            if free >> best & 1:
                choices.append(best)
            return choices
        k = (~escaped & (escaped + 1)).bit_length() - 1
        if k == len(self.avoided):
            return None
        return list(bits(free & ~self.avoided[k]))

    def _walk(self, covering: bool = False,
              closing: bool = False) -> Iterator[int]:
        """Walk S's supersets depth first, suspended at each one accepted,
        which it yields as a mask.

        Every admissible T holding S attacks each open argument b, so it
        holds an unblocked attacker of b; a stable T holds b or one of its
        attackers for each uncovered b; and T escapes an avoided set holding
        S through an unblocked argument outside it.  Branch k takes the k-th
        such argument and excludes those before it, so the branches are
        disjoint and cover every T.  Each branch ticks the budget.  S is
        accepted when ``_choices`` is None; a closing walk first requires
        ``_close`` to succeed, then branches over the free arguments.  While
        suspended, S is the set accepted; the consumer restores S before it
        resumes, and may avoid a set holding S, which the walk then escapes.
        When the walk ends, S and the exclusions are as they were."""
        trail, tick = self.trail, self.budget.tick
        mark = len(trail)
        # Iterative DFS: frame = [choices, next choice, trail mark].
        frames: list[list] = []
        choices = self._choices(covering)
        while True:
            if choices is None and (not closing or self._close()):
                yield self.state[0]
                s, hit, hits, out, _ = self.state
                # Still None unless the consumer avoided a set holding S.
                choices = (list(bits(self.universe & ~(s | hit | hits | out)))
                           if closing else self._choices(covering) or [])
            if choices:
                frames.append([choices, 0, len(trail)])
            while frames:
                frame = frames[-1]
                choices, k, at = frame
                self.undo_to(at)
                if k < len(choices):
                    break
                frames.pop()
            else:
                self.undo_to(mark)
                return
            if k:
                self.bar(choices[k - 1])
                frame[2] = len(trail)
            frame[1] = k + 1
            tick()
            self.join(choices[k])
            choices = self._choices(covering)

    def admissible(self) -> bool:
        """Grow S to an admissible set inside no avoided set.  On failure S
        is as it was.  On success the exclusions made on the way stay: each
        names an earlier sibling whose branch failed, which therefore no
        admissible superset of S inside no avoided set can hold."""
        for _ in self._walk():
            return True
        return False

    def stable(self) -> Iterator[list[int]]:
        """Yield each stable extension holding S once, as indices."""
        return map(partial(_indices, self.reduct), self._walk(covering=True))

    def complete(self) -> Iterator[list[int]]:
        """Yield each complete extension holding S once, as indices."""
        return map(partial(_indices, self.reduct), self._walk(closing=True))

    def _close(self) -> bool:
        """Join every argument the admissible S defends, without a tick; S
        stays admissible (Dung's fundamental lemma).  False when S defends an
        excluded argument, which no complete superset of S can then avoid.
        Only the targets of what S newly attacks can be newly defended."""
        attackers, targets, missing = self.attackers, self.targets, self.missing
        s, hit, hits, out, escaped = self.state
        todo = self.universe & ~(s | hit)
        while todo:
            new = _mask(a for a in bits(todo) if not attackers[a] & ~hit)
            if not new:
                break
            if new & out:
                return False
            self.trail.append(self.state)
            grown = 0
            for a in bits(new):
                grown |= targets[a]
                hits |= attackers[a]
                escaped |= missing[a]
            s |= new
            todo = 0
            for y in bits(grown & ~hit):
                todo |= targets[y]
            hit |= grown
            todo &= ~(s | hit)
            self.state = (s, hit, hits, out, escaped)
        return True

    def _maximise(self) -> None:
        """Grow the admissible S to a preferred extension: after the
        closure, try each argument still free once, in index order, with a
        tick.  One that joins no admissible set holding S stays out for
        good: S only grows, so it never could."""
        trail, tick = self.trail, self.budget.tick
        self._close()
        for a in bits(self.universe):
            s, hit, hits, out, _ = self.state
            if (s | hit | hits | out) >> a & 1:
                continue
            tick()
            mark = len(trail)
            self.join(a)
            if self.admissible():
                self._close()
            else:
                self.undo_to(mark)
                self.bar(a)

    def preferred(self) -> Iterator[list[int]]:
        """Yield the preferred extensions holding S, as framework index
        lists: at each S accepted, grow S to a preferred extension, undo
        back to S, avoid the extension and go on from S.  Avoided sets only
        grow, so an exclusion made when a sibling failed stays valid."""
        trail = self.trail
        for _ in self._walk():
            mark = len(trail)
            self._maximise()
            found = self.state[0]
            self.undo_to(mark)
            self._avoid(found)
            yield _indices(self.reduct, found)


def _search(af: ArgumentationFramework, budget: _Budget) -> _AdmissibleSearch:
    return _AdmissibleSearch(
        _reduct(af.attacker_indices(), af.target_indices()), budget)


def _scc_recursive(reduct: tuple, budget: _Budget, walk) -> list[int]:
    """The extensions that ``walk``, ``_AdmissibleSearch.preferred`` or
    ``.stable``, yields, found SCC by SCC over the grounded ``reduct``, each
    as the mask of its undecided members.

    A depth-first walk over the components, ancestors first, picks at each
    an extension of the component conditioned on the picks above it.  Two
    masks, ORed over the picks so far, hold what an IN pick attacks and
    what an undecided one attacks; a member is dropped, self-attacked or
    free as it is in the first, only the second, or neither, and each
    component caches its extensions by those masks on its members.  A
    branch ticks where there is more than one extension; a component with
    none ends the branch."""
    succ = reduct[3]
    targets = list(map(_mask, succ))
    comps = [sorted(comp)
             for comp in reversed(strongly_connected_components(succ))]
    cms = list(map(_mask, comps))
    caches: list[dict] = [{} for _ in comps]

    def options(c: int, hit: int, undec: int) -> list:
        # Per extension: its mask, and the masks of what its members and
        # the component's undecided members attack.
        cm = cms[c]
        key = (hit & cm, undec & cm & ~hit)
        found = caches[c].get(key)
        if found is None:
            # The conditioned component, by local index: position in keep.
            keep = [j for j in comps[c] if not hit >> j & 1]
            local = {j: k for k, j in enumerate(keep)}
            tgts = [[local[y] for y in succ[j] if y in local] for j in keep]
            atts: list[list[int]] = [[] for _ in keep]
            for k, ys in enumerate(tgts):
                if undec >> keep[k] & 1 and k not in ys:
                    insort(ys, k)
                for y in ys:
                    atts[y].append(k)
            found = caches[c][key] = []
            search = _AdmissibleSearch(_reduct(atts, tgts), budget)
            for members in walk(search):
                e = _mask(keep[k] for k in members)
                r = _range(targets, e)
                found.append((e, r, _range(targets, cm & ~hit & ~r)))
        return found

    # ``stack`` holds, per component picked but the last, its options, the
    # pick, and the three masks as they were above it.
    tick, leaves, last = budget.tick, [], len(comps) - 1
    if last < 0:
        return [0]
    stack: list[tuple] = []
    hit = undec = s = 0
    found, k = options(0, 0, 0), 0
    while True:
        if len(stack) == last:
            for e, _, _ in found:
                if len(found) > 1:
                    tick()
                leaves.append(s | e)
        elif k < len(found):
            if len(found) > 1:
                tick()
            stack.append((found, k, hit, undec, s))
            e, r, u = found[k]
            hit, undec, s = hit | r, undec | u, s | e
            found, k = options(len(stack), hit, undec), 0
            continue
        if not stack:
            return leaves
        found, k, hit, undec, s = stack.pop()
        k += 1


def _reach(targets: Sequence[Sequence[int]], s: Iterable[int]) -> set[int]:
    """The range of the index set ``s``: its members and what they attack."""
    return set(s).union(*map(targets.__getitem__, s))


def _extensions(sem: Semantics, af: ArgumentationFramework,
                budget: _Budget) -> list[Extension]:
    """The ``sem``-extensions of ``af``, unordered: the one place a
    semantics is mapped to its algorithm.  The searches keep what they find
    as masks over the grounded reduct, named only once they end."""
    if sem == Semantics.GR:
        return [grounded_extension(af)]
    reduct = _reduct(af.attacker_indices(), af.target_indices())
    named = lambda m: af.names_of(_indices(reduct, m))  # noqa: E731
    if sem in (Semantics.ST, Semantics.SST, Semantics.STG):
        stable = _scc_recursive(reduct, budget, _AdmissibleSearch.stable)
        # When stable extensions exist they are exactly the semi-stable and
        # the stage ones (Caminada 2006).
        if sem == Semantics.ST or stable:
            return list(map(named, stable))
    if sem == Semantics.CO:
        search = _AdmissibleSearch(reduct, budget)
        return list(map(named, list(search._walk(closing=True))))
    if sem == Semantics.STG:
        # Stage extensions need not hold the grounded extension, so their
        # candidates are masks over the whole framework.
        candidates = list(_maximal_conflict_free_sets(af, budget))
        tm = list(map(_mask, af.target_indices()))
        named = lambda c: af.names_of(bits(c))  # noqa: E731
    else:
        leaves = _scc_recursive(reduct, budget, _AdmissibleSearch.preferred)
        if sem == Semantics.ID:
            return [_ideal(af, [_indices(reduct, m) for m in leaves])]
        if sem == Semantics.PR:
            return list(map(named, leaves))
        # Semi-stable extensions are preferred: growing a complete set
        # strictly grows its range, so a range-maximal complete set is
        # set-maximal too.  Every range holds the decided arguments, so the
        # ranges compare on the reduct alone.
        candidates, tm = leaves, list(map(_mask, reduct[3]))
    ranges = [_range(tm, c) for c in candidates]
    widest = _maximal_masks(set(ranges))
    return [named(c) for c, r in zip(candidates, ranges) if r in widest]


def _mask(indices: Iterable[int]) -> int:
    """The bitmask of ``indices``: every mask built from index lists."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _range(tm: list[int], m: int) -> int:
    r = m
    for i in bits(m):
        r |= tm[i]
    return r


def _maximal_masks(masks: set[int]) -> set[int]:
    """The masks with no strict superset among the distinct ``masks``.

    Taken largest first, a mask with a strict superset has one among the
    maximal masks already kept.  ``holders[b]`` marks, by position in
    ``kept``, the kept masks holding bit ``b``, so the kept supersets of a
    mask are the AND of its bits' holders.
    """
    holders = [0] * max(masks, default=0).bit_length()
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        ones = [b for b, c in enumerate(bin(m)[:1:-1]) if c == "1"]
        if reduce(and_, map(holders.__getitem__, ones), (1 << len(kept)) - 1):
            continue
        position = 1 << len(kept)
        kept.append(m)
        for b in ones:
            holders[b] |= position
    return set(kept)


def _maximal_conflict_free_sets(af: ArgumentationFramework,
                                budget: _Budget) -> Iterator[int]:
    """Yield the maximal conflict-free sets, as masks: maximal independent
    sets of the conflict graph on the non-self-attacking arguments, where P
    and X stay (Bron-Kerbosch with pivoting on the implicit complement)."""
    targets = af.target_indices()
    universe = _mask(i for i, ts in enumerate(targets) if i not in ts)
    conflict = list(map(_mask, map(chain, af.attacker_indices(), targets)))

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
        pivot, fewest = -1, len(targets) + 1
        for u in bits(p | x):
            c = (p & conflict[u]).bit_count()
            if c < fewest:
                pivot, fewest = u, c
                if not c:
                    break
        for v in bits(p & (conflict[pivot] | 1 << pivot)):
            nv = universe & ~conflict[v] & ~(1 << v)
            stack.append((r | (1 << v), p & nv, x & nv))
            p &= ~(1 << v)
            x |= 1 << v


def _ideal(af: ArgumentationFramework, leaves: list) -> Extension:
    """The ideal extension, from the preferred leaves of ``_scc_recursive``."""
    base = set(leaves[0]).intersection(*leaves)
    attackers, targets = af.attacker_indices(), af.target_indices()
    # The intersection of the preferred extensions is conflict-free, and its
    # admissible subsets are closed under union, so shrinking to the defended
    # core yields the unique maximal admissible subset.
    while True:
        attacked = set().union(*map(targets.__getitem__, base))
        kept = {i for i in base if all(z in attacked for z in attackers[i])}
        if len(kept) == len(base):
            return af.names_of(base)
        base = kept


def enumerate_extensions(sem: Semantics, af: ArgumentationFramework,
                         budget: int | None = None) -> tuple[Extension, ...]:
    """All extensions of ``af`` under ``sem``, canonically ordered."""
    return canonical_extensions(_extensions(Semantics(sem), af,
                                            _Budget(budget)))


def solve_optimized(task: TaskSpec, af: ArgumentationFramework,
                    budget: int | None = None) -> Answer:
    """Solve any catalog task with the search engine.

    Same answer contract as the enumeration-backed reference solver; raises
    BudgetExceededError when the optional node budget runs out.  D3's
    stable extensions are its preferred ones with full range.
    """
    b = _Budget(budget)
    if task.problem == "D3":
        # Full range in the framework is full range in the reduct.
        reduct = _reduct(af.attacker_indices(), af.target_indices())
        tm, everything = list(map(_mask, reduct[3])), (1 << len(reduct[2])) - 1
        full = {af.names_of(_indices(reduct, m)): _range(tm, m) == everything
                for m in _scc_recursive(reduct, b, _AdmissibleSearch.preferred)}
        return Triathlon([grounded_extension(af)],
                         [p for p, f in full.items() if f], full)
    sem, query = task.semantics, task.query
    q = None if query is None else af.index_of(query)

    if task.problem == "DC":
        if sem in (Semantics.CO, Semantics.PR, Semantics.ST):
            # Credulous acceptance under CO and PR is membership in some
            # admissible set, which extends to a preferred, hence complete,
            # one; every complete set holds the grounded extension.  Under
            # ST the covering search is seeded with the query.
            search = _search(af, b)
            return YesNo(search.seed([q]) and (
                next(search.stable(), None) is not None
                if sem == Semantics.ST else search.admissible()))
        return YesNo(any(query in e for e in _extensions(sem, af, b)))
    if task.problem == "DS":
        if sem == Semantics.CO:
            # Skeptical acceptance under CO coincides with membership in the
            # grounded extension, the least complete one.
            return YesNo(query in grounded_extension(af))
        if sem == Semantics.ST:
            # Yes when the query is grounded, and vacuously yes when no
            # stable extension exists.
            search = _search(af, b)
            if search.member[q]:
                return YesNo(True)
            search.exclude(q)
            return YesNo(next(search.stable(), None) is None)
        if sem == Semantics.PR:
            # Stops at the first preferred extension without the query.
            return YesNo(all(q in e for e in _search(af, b).preferred()))
        return YesNo(all(query in e for e in _extensions(sem, af, b)))
    if task.problem == "SE":
        return OneExtension(min(_extensions(sem, af, b), key=sorted_members,
                                default=None))
    return AllExtensions(_extensions(sem, af, b))


# The last framework whose maximal conflict-free sets ``dominated`` drew to
# the end, with its target masks and the widest of their ranges.
_stage_ranges: tuple = (None, [], set())


def dominated(sem: Semantics, af: ArgumentationFramework,
              s: Extension) -> bool:
    """Whether some candidate strictly beats the set ``s`` under ``sem``:
    for PR an admissible set strictly containing ``s``, for SST a preferred
    extension with a strictly wider range, and for STG a maximal
    conflict-free set with a strictly wider range.  ``s`` is taken to be
    complete (PR, SST) or conflict-free (STG).  The search stops at the
    first such witness; it is not budgeted.  For STG a search that ends
    without one leaves the framework's widest ranges, which answer later
    calls on the same framework.
    """
    sem, budget = Semantics(sem), _Budget(None)
    if sem == Semantics.PR:
        search = _search(af, budget)
        members = af.member_indices(s)
        search.avoid(members)
        return search.seed(members) and search.admissible()
    if sem == Semantics.SST:
        # A complete extension lies inside a preferred one whose range is
        # at least as wide, so the preferred ones are the candidates.
        r = _reach(af.target_indices(), af.member_indices(s))
        return any(_reach(af.target_indices(), p) > r
                   for p in _search(af, budget).preferred())
    if sem == Semantics.STG:
        # Ranges of conflict-free sets are dominated by ranges of maximal
        # ones.  An enumeration that finds no witness has seen them all, so
        # later sets of the same framework are looked up in its widest.
        global _stage_ranges
        seen, tm, widest = _stage_ranges
        if seen is af:
            return _range(tm, _mask(af.member_indices(s))) not in widest
        tm = list(map(_mask, af.target_indices()))
        r, ranges = _range(tm, _mask(af.member_indices(s))), set()
        for c in _maximal_conflict_free_sets(af, budget):
            rc = _range(tm, c)
            if rc != r and rc & r == r:
                return True
            ranges.add(rc)
        _stage_ranges = (af, tm, _maximal_masks(ranges))
        return False
    raise ValueError(f"no dominance check for {sem}")


__all__ = ["enumerate_extensions", "solve_optimized", "dominated"]
