"""Reference search for complete and stable labellings, kept beside the
engine as an independent check on it.

The engine answers complete and stable semantics by closing and covering on
its admissible search.  This is a different algorithm: a backtracking
search over three-valued labellings (IN / OUT / UNDEC).  A labelling is
complete when every argument meets its condition:

* IN: every attacker is OUT;
* OUT: some attacker is IN;
* UNDEC: no attacker is IN and not every attacker is OUT.

It keeps per-argument counts of IN, OUT and UNDEC attackers and propagates
each assignment through them.  ``assign`` rejects an assignment that breaks
a condition as soon as the counts decide it: IN next to an IN or UNDEC
attacker, an IN attacker next to anything but OUT, UNDEC next to an IN
attacker or with every attacker OUT, and OUT once its attackers are all
labelled and none is IN.  Arguments whose attackers are all OUT are forced
IN, and the neighbours of IN arguments are forced OUT.  So at a leaf, where
every argument is labelled, each condition has been checked at the moment
its last input was labelled, and the leaf is reported without re-scanning
the framework.  The grounded fixed point is computed first and frozen into
every search.  Each branch tried ticks the engine's node budget, so its
trees are pinned beside the engine's in ``test_engine_tree``.

Unlike the brute-force oracle it reaches frameworks of a hundred arguments,
so the tests compare the engine with it on the pinned bench frameworks.
"""

from itertools import compress
from typing import Iterable, Iterator, List, Tuple

from afkit.core import ArgumentationFramework, grounded_extension
from afkit.engine import Extension, _Budget

FREE, IN, OUT, UNDEC = 0, 1, 2, 3


class LabellingSearch:
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


def labellings(af: ArgumentationFramework, budget: _Budget,
               forced: Iterable[Tuple[str, int]] = (),
               allow_undec: bool = True) -> Iterator[Extension]:
    """The IN sets of the complete (stable unless ``allow_undec``)
    labellings of ``af`` that give each named argument its ``forced``
    label, searched lazily."""
    return LabellingSearch(af, budget).solutions(
        [(af.index_of(a), label) for a, label in forced], allow_undec)
