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
everything, a decision draws at most one answer.  The search builds no
per-argument bitmasks.

``_extensions`` is the one place where a semantics meets its algorithm.
Grounded is the fixed point itself; complete comes from the closing
search.  Preferred and stable semantics are SCC-recursive (Baroni,
Giacomin & Guida, AIJ 2005): one driver builds both lists component by
component over what the grounded extension leaves undecided, each
component walked as a small framework, its members an IN argument attacks
dropped and those an undecided one attacks given a self-attack.  Stable
extensions leave nothing undecided; as stable semantics is not
directional, a component with no stable extension under the picks above
it ends that branch.  Ideal (the intersection, shrunk to a fixed point of
the defense check) and D3's stable part (full range) come from the
preferred list.  Semi-stable and stage are the stable extensions whenever
there are any.  Otherwise one filter on bitmasks keeps the candidates
whose range no other one's strictly contains: the preferred extensions for
semi-stable, the maximal conflict-free sets that Bron-Kerbosch enumerates
for stage.  The decision shortcuts walk the whole framework and draw at
most one answer: DC-CO and DC-PR are one admissible search from the
grounded extension and the query, DS-PR stops at the first preferred
extension without the query, DC-ST seeds the covering search with the
query and DS-ST excludes it; DS-CO is grounded membership.  ``dominated``
is the comparison that ``verify`` needs for PR, SST and STG; it stops at
the first candidate that beats the set.

Answers match the enumeration-backed reference solver exactly, including the
canonical tie-break for SE (lexicographically least sorted member list).
"""

from __future__ import annotations

from bisect import insort
from functools import reduce
from itertools import chain, filterfalse
from operator import and_, itemgetter
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


class _AdmissibleSearch:
    """Goal-directed search over the conflict-free supersets of the
    grounded extension of the framework whose argument i has the attackers
    ``attackers[i]`` and the targets ``targets[i]``.

    The set S under construction is conflict-free.  Per argument it keeps
    the number of members it attacks and the number that attack it, so an
    argument is *uncovered*, outside S and not attacked by S, exactly when
    it is no member and the second count is zero, and *open*, an uncovered
    attacker of S, when the first count is positive too.  The open
    arguments are kept as a set, and so are the uncovered ones once a
    covering walk starts.  ``blocked`` counts the reasons an argument
    cannot join S: it is a member, attacks or is attacked by a member,
    attacks itself, or is excluded.  Joins and exclusions go on one trail
    (an exclusion as ``~i``) and are undone back to a mark.
    """

    def __init__(self, attackers: Sequence[Sequence[int]],
                 targets: Sequence[Sequence[int]], budget: _Budget):
        n = self.n = len(targets)
        self.attackers, self.targets = attackers, targets
        self.tgt_in = [0] * n     # members each argument attacks
        self.att_in = [0] * n     # members attacking each argument
        self.blocked = [int(i in ts) for i, ts in enumerate(self.targets)]
        self.member = bytearray(n)
        self.open: set[int] = set()
        self.uncovered: set[int] | None = None
        self.trail: list[int] = []
        self.budget = budget
        # The sets a result must not lie inside.  Bit k of ``missing[i]`` is
        # set when argument i is outside the k-th of them, and ``escaped``
        # holds, per member on the trail, the OR over the members so far:
        # S lies inside the k-th set iff bit k of ``escaped[-1]`` is clear.
        self.avoided: list[set[int]] = []
        self.missing = [0] * n
        self.escaped = [0]
        for i in grounded_indices(attackers, targets):
            self.join(i)

    def join(self, i: int) -> None:
        """Add the unblocked argument ``i`` to S."""
        att_in, tgt_in, blocked, open_, uncovered = (
            self.att_in, self.tgt_in, self.blocked, self.open, self.uncovered)
        self.member[i] = 1
        blocked[i] += 1
        self.trail.append(i)
        self.escaped.append(self.escaped[-1] | self.missing[i])
        ts = self.targets[i]
        if uncovered is not None:
            uncovered.discard(i)
            uncovered.difference_update(ts)
        for y in ts:
            att_in[y] += 1
            blocked[y] += 1
            if att_in[y] == 1 and tgt_in[y]:
                open_.discard(y)
        for z in self.attackers[i]:
            tgt_in[z] += 1
            blocked[z] += 1
            if tgt_in[z] == 1 and not att_in[z]:
                open_.add(z)

    def exclude(self, i: int) -> None:
        self.blocked[i] += 1
        self.trail.append(~i)

    def undo_to(self, mark: int) -> None:
        att_in, tgt_in, blocked, open_, uncovered, trail = (
            self.att_in, self.tgt_in, self.blocked, self.open, self.uncovered,
            self.trail)
        while len(trail) > mark:
            i = trail.pop()
            if i < 0:
                blocked[~i] -= 1
                continue
            for z in self.attackers[i]:
                tgt_in[z] -= 1
                blocked[z] -= 1
                if not tgt_in[z] and not att_in[z]:
                    open_.discard(z)
            ts = self.targets[i]
            for y in ts:
                att_in[y] -= 1
                blocked[y] -= 1
                if not att_in[y] and tgt_in[y]:
                    open_.add(y)
            if uncovered is not None:
                uncovered.update(filterfalse(att_in.__getitem__, ts))
                uncovered.add(i)
            self.member[i] = 0
            blocked[i] -= 1
            self.escaped.pop()

    def members(self) -> list[int]:
        return [i for i in self.trail if i >= 0]

    def seed(self, indices: Iterable[int]) -> bool:
        """Add ``indices`` to S; False, with S part-grown, when one cannot
        join."""
        for i in indices:
            if self.member[i]:
                continue
            if self.blocked[i]:
                return False
            self.join(i)
        return True

    def avoid(self, indices: Iterable[int]) -> None:
        """From now on, accept no set inside ``indices``, which must hold
        every current member."""
        inside = set(indices)
        bit = 1 << len(self.avoided)
        self.avoided.append(inside)
        missing = self.missing
        for i in range(self.n):
            if i not in inside:
                missing[i] |= bit

    def _choices(self, pool: set[int]) -> list[int] | None:
        """The arguments to branch on: for the argument b of ``pool`` (the
        open or the uncovered ones) with the fewest candidates, the lowest
        index on a tie, the unblocked ones among b and its attackers; else
        the unblocked arguments outside the first avoided set holding S.
        None when ``pool`` is empty and S is inside no avoided set; an
        empty list when S cannot be completed."""
        blocked, attackers = self.blocked, self.attackers
        best: list[int] | None = None
        best_b = -1
        for b in pool:
            cands = [c for c in attackers[b] if not blocked[c]]
            if not blocked[b]:
                cands.append(b)
            if not cands:
                return cands
            if (best is None or len(cands) < len(best)
                    or (len(cands) == len(best) and b < best_b)):
                best, best_b = cands, b
        if best is not None:
            return best
        escaped = self.escaped[-1]
        k = (~escaped & (escaped + 1)).bit_length() - 1
        if k == len(self.avoided):
            return None
        inside = self.avoided[k]
        return [x for x in range(self.n) if not blocked[x] and x not in inside]

    def _walk(self, pool: set[int], closing: bool = False) -> Iterator[None]:
        """Walk S's supersets depth first, suspended at each one accepted.

        Every admissible T holding S attacks each open argument b, so it
        holds an unblocked attacker of b; a stable T holds b or one of its
        attackers for each uncovered b; and T escapes an avoided set
        holding S through an unblocked argument outside it.  Branch k takes
        the k-th such argument and excludes those before it, so the
        branches are disjoint and together cover every T.  Each branch
        tried ticks the budget.  S is accepted when ``_choices(pool)`` is
        None.  A closing walk first joins what S defends, accepts S only
        if ``_close`` succeeds, and then branches over the free arguments
        towards S's strict supersets.  While suspended, S is the set
        accepted; the consumer restores S before it resumes, and may avoid
        a set holding S, which the walk then escapes.  When the walk ends,
        S and the exclusions are as they were.
        """
        trail, tick, blocked = self.trail, self.budget.tick, self.blocked
        mark = len(trail)
        # Iterative DFS: frame = [choices, next choice, trail mark].
        frames: list[list] = []
        choices = self._choices(pool)
        while True:
            if choices is None and (not closing or self._close()):
                yield
                # Still None unless the consumer avoided a set holding S.
                choices = ([a for a in range(self.n) if not blocked[a]]
                           if closing else self._choices(pool) or [])
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
                self.exclude(choices[k - 1])
                frame[2] = len(trail)
            frame[1] = k + 1
            tick()
            self.join(choices[k])
            choices = self._choices(pool)

    def admissible(self) -> bool:
        """Grow S to an admissible set inside no avoided set.

        On failure S is as it was.  On success S is the set found, and the
        exclusions made on the way stay: each names an earlier sibling
        whose branch failed, which therefore no admissible superset of S
        inside no avoided set can hold.
        """
        for _ in self._walk(self.open):
            return True
        return False

    def stable(self) -> Iterator[list[int]]:
        """Yield each stable extension holding S once, as a member list."""
        att_in, member = self.att_in, self.member
        self.uncovered = {i for i in range(self.n)
                          if not member[i] and not att_in[i]}
        return (self.members() for _ in self._walk(self.uncovered))

    def complete(self) -> Iterator[list[int]]:
        """Yield each complete extension holding S once, as a member list."""
        return (self.members() for _ in self._walk(self.open, closing=True))

    def _close(self) -> bool:
        """Join every argument the admissible S defends; S stays admissible
        (Dung's fundamental lemma), and no node is counted.  False when S
        defends an excluded argument, which no complete superset of S can
        then avoid.

        An argument S defends is neither attacked by S nor attacks it, nor
        itself, so a blocked one is excluded."""
        att_in, blocked, member, attackers, targets = (
            self.att_in, self.blocked, self.member, self.attackers,
            self.targets)
        todo = [a for a in range(self.n) if not att_in[a] and not member[a]]
        while todo:
            a = todo.pop()
            if (member[a] or att_in[a]
                    or not all(map(att_in.__getitem__, attackers[a]))):
                continue
            if blocked[a]:
                return False
            self.join(a)
            # A newly attacked argument's targets may be defended now.
            for y in targets[a]:
                if att_in[y] == 1:
                    todo.extend(targets[y])
        return True

    def _maximise(self) -> None:
        """Grow the admissible S to a preferred extension.

        After the closure, each argument still free is tried once, in index
        order, and ticks the budget.  One that joins no admissible set
        holding S stays out for good: S only grows, so it never could.
        """
        blocked, trail, tick = self.blocked, self.trail, self.budget.tick
        self._close()
        for a in range(self.n):
            if blocked[a]:
                continue
            tick()
            mark = len(trail)
            self.join(a)
            if self.admissible():
                self._close()
            else:
                self.undo_to(mark)
                self.exclude(a)

    def preferred(self) -> Iterator[list[int]]:
        """Yield the preferred extensions holding S, as member lists: at
        each S accepted, grow S to a preferred extension, undo back to S,
        avoid the extension and go on from S.  Avoided sets only grow, so
        an exclusion made when a sibling failed stays valid."""
        trail = self.trail
        for _ in self._walk(self.open):
            mark = len(trail)
            self._maximise()
            members = self.members()
            self.undo_to(mark)
            self.avoid(members)
            yield members


def _search(af: ArgumentationFramework, budget: _Budget) -> _AdmissibleSearch:
    return _AdmissibleSearch(af.attacker_indices(), af.target_indices(), budget)


def _scc_recursive(af: ArgumentationFramework, budget: _Budget, walk
                   ) -> list[list[int]]:
    """The extensions that ``walk``, ``_AdmissibleSearch.preferred`` or
    ``.stable``, yields, found SCC by SCC: each lists the grounded
    extension's indices and then its members in each component.

    A depth-first walk over the components, ancestors first, picks at each
    an extension of the component conditioned on the picks above it.
    ``count[i]`` counts argument i's IN attackers so far and
    ``count[n + i]`` its undecided ones; ``status[i]`` is then 0 (dropped),
    1 (self-attacked) or 2 (free), and a component's extensions are cached
    by its members' statuses.  A branch ticks the budget where there is
    more than one extension; a component with none ends the branch.
    """
    n, targets = len(af), af.target_indices()
    grounded = set(grounded_indices(af.attacker_indices(), targets))
    decided = _reach(targets, grounded)
    rest = [i for i in range(n) if i not in decided]
    pos = {i: k for k, i in enumerate(rest)}
    succ = [[pos[y] for y in targets[i] if y in pos] for i in rest]
    comps = [sorted(rest[k] for k in comp)
             for comp in reversed(strongly_connected_components(succ))]
    at = {i: c for c, comp in enumerate(comps) for i in comp}
    keys = [itemgetter(*comp) for comp in comps]
    caches: list[dict] = [{} for _ in comps]
    count, status = [0] * (2 * n), bytearray(b"\2") * n

    def options(c: int) -> list:
        # Per extension: its members, then the ``count`` entries it raises.
        key = keys[c](status)
        found = caches[c].get(key)
        if found is None:
            # The conditioned component, by local index: position in keep.
            keep = [i for i in comps[c] if status[i]]
            local = {i: j for j, i in enumerate(keep)}
            tgts = [[local[y] for y in targets[i] if y in local] for i in keep]
            atts: list[list[int]] = [[] for _ in keep]
            for j, ys in enumerate(tgts):
                if status[keep[j]] == 1 and j not in ys:
                    insort(ys, j)
                for y in ys:
                    atts[y].append(j)
            later = [[y for y in targets[i] if at.get(y, c) > c] for i in keep]
            found = caches[c][key] = []
            for members in walk(_AdmissibleSearch(atts, tgts, budget)):
                out = _reach(tgts, members)
                found.append((tuple(keep[j] for j in sorted(members)), [
                    y for j in members for y in later[j]] + [
                    n + y for j, ys in enumerate(later) if j not in out
                    for y in ys]))
        return found

    def shift(raises: list, d: int) -> None:
        for y in raises:
            count[y] += d
            i = y % n
            status[i] = 0 if count[i] else 1 if count[n + i] else 2

    # ``stack`` holds (options, pick) per component picked but the last.
    tick, leaves, last = budget.tick, [], len(comps) - 1
    chosen, stack = [tuple(sorted(grounded))], []
    if last < 0:
        return [list(grounded)]
    found, k = options(0), 0
    while True:
        if len(stack) == last:
            for members, _ in found:
                if len(found) > 1:
                    tick()
                leaves.append(list(chain(*chosen, members)))
        elif k < len(found):
            if len(found) > 1:
                tick()
            stack.append((found, k))
            chosen.append(found[k][0])
            shift(found[k][1], 1)
            found, k = options(len(stack)), 0
            continue
        if not stack:
            return leaves
        found, k = stack.pop()
        chosen.pop()
        shift(found[k][1], -1)
        k += 1


def _reach(targets: Sequence[Sequence[int]], s: Iterable[int]) -> set[int]:
    """The range of the index set ``s``: its members and what they attack."""
    return set(s).union(*map(targets.__getitem__, s))


def _extensions(sem: Semantics, af: ArgumentationFramework,
                budget: _Budget) -> list[Extension]:
    """The ``sem``-extensions of ``af``, unordered: the one place a
    semantics is mapped to its algorithm."""
    if sem == Semantics.GR:
        return [grounded_extension(af)]
    if sem in (Semantics.ST, Semantics.SST, Semantics.STG):
        stable = list(map(af.names_of, _scc_recursive(
            af, budget, _AdmissibleSearch.stable)))
        # When stable extensions exist they are exactly the semi-stable and
        # the stage ones (Caminada 2006).
        if sem == Semantics.ST or stable:
            return stable
    if sem == Semantics.CO:
        return [af.names_of(m) for m in _search(af, budget).complete()]
    if sem == Semantics.STG:
        candidates = list(_maximal_conflict_free_sets(af, budget))
    else:
        leaves = _scc_recursive(af, budget, _AdmissibleSearch.preferred)
        if sem == Semantics.ID:
            return [_ideal(af, leaves)]
        if sem == Semantics.PR:
            return list(map(af.names_of, leaves))
        # Semi-stable extensions are preferred: growing a complete set
        # strictly grows its range, so a range-maximal complete set is
        # set-maximal too.
        candidates = list(map(_mask, leaves))
    tm = list(map(_mask, af.target_indices()))
    ranges = [_range(tm, c) for c in candidates]
    widest = _maximal_masks(set(ranges))
    return [af.names_of(bits(c)) for c, r in zip(candidates, ranges)
            if r in widest]


def _mask(indices: Iterable[int]) -> int:
    """The bitmask of ``indices``; only semi-stable and stage build masks."""
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
    universe = sum(1 << i for i, ts in enumerate(targets) if i not in ts)
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
        full = {af.names_of(p): len(_reach(af.target_indices(), p)) == len(af)
                for p in _scc_recursive(af, b, _AdmissibleSearch.preferred)}
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
