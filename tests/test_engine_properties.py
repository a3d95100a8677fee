"""Property tests of the engine's search on structured frameworks.

The frameworks are built from the shapes that drive the search into its
corners: self-attackers, odd and even cycles, mutual-attack pairs, and
chains of such SCCs, plus a few stray attacks.

* The covering search, seeded with an argument or excluding it, yields
  exactly the oracle's stable extensions that hold or omit it, and the
  closing search exactly the oracle's complete extensions, each once.
* The admissible search finds an admissible superset of a conflict-free
  seed, inside none of the sets it avoids, exactly when the oracle has one.
* Every task built on the search, and those that collapse to stable
  semantics, agree with the oracle; so do the tasks that need the whole
  preferred or stable list, which is built SCC by SCC, on chains of SCCs
  behind a part the grounded extension decides.
* Renaming and reordering the arguments changes no answer of any task.
* The range-maximality filter that semi-stable and stage share keeps
  exactly the masks no other mask strictly contains.
* Every labelling the reference labelling search of ``labelling.py``
  reports satisfies the three labelling conditions.  That search never
  re-checks a leaf: ``assign`` keeps the conditions as an invariant, and
  this test is where they are checked.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afkit import engine, oracle
from afkit.core import (ArgumentationFramework, has_full_range,
                        is_admissible, is_complete, is_conflict_free)
from afkit.tasks import (AllExtensions, OneExtension, Semantics, Triathlon,
                         YesNo, all_task_names, parse_task, sorted_members)

from labelling import IN, OUT, UNDEC, LabellingSearch

LABELS = (IN, OUT, UNDEC)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@st.composite
def structured_afs(draw, max_args=9):
    """Blocks of self-attackers, cycles and mutual pairs, chained by
    attacks from each block into the next, in a drawn argument order."""
    names, attacks, blocks = [], [], []
    shapes = draw(st.lists(st.sampled_from(
        ["self", "odd3", "odd5", "pair", "even4", "free"]),
        min_size=1, max_size=4))
    for shape in shapes:
        size = {"self": 1, "odd3": 3, "odd5": 5, "pair": 2, "even4": 4,
                "free": 1}[shape]
        if len(names) + size > max_args:
            break
        block = [f"a{len(names) + k}" for k in range(size)]
        names += block
        if shape != "free":
            attacks += [(a, block[(k + 1) % size]) for k, a in enumerate(block)]
        if blocks:
            prev = blocks[-1]
            for _ in range(draw(st.integers(1, 2))):
                attacks.append((draw(st.sampled_from(prev)),
                                draw(st.sampled_from(block))))
        blocks.append(block)
    stray = st.tuples(st.sampled_from(names), st.sampled_from(names))
    attacks += draw(st.lists(stray, max_size=3))
    return ArgumentationFramework(draw(st.permutations(names)), attacks)


@st.composite
def queried_afs(draw):
    """A framework and one of its arguments."""
    af = draw(structured_afs())
    return af, draw(st.sampled_from(af.args))


def _once(found, expected):
    """Whether ``found`` lists each extension of ``expected`` exactly once."""
    return (len(found) == len(set(found))
            and sorted(map(sorted, found)) == sorted(map(sorted, expected)))


def _search(af):
    return engine._search(af, engine._Budget(None))


def _named(af, yielded):
    """The member index lists a search yields, as extensions; each list
    names every member once."""
    found = []
    for members in yielded:
        assert len(members) == len(set(members)), sorted(members)
        found.append(af.names_of(members))
    return found


@SETTINGS
@given(queried_afs())
def test_covering_and_closing_searches_yield_the_oracle_extensions(case):
    af, q = case
    i = af.index_of(q)
    stable = oracle.oracle_enumerate(Semantics.ST, af)
    seeded = _search(af)
    found = _named(af, seeded.stable()) if seeded.seed([i]) else []
    assert _once(found, [e for e in stable if q in e]), sorted(af.attacks)
    # A grounded query is in every stable extension, so none omits it.
    excluding = _search(af)
    found = []
    if not excluding.member[i]:
        excluding.exclude(i)
        found = _named(af, excluding.stable())
    assert _once(found, [e for e in stable if q not in e]), sorted(af.attacks)
    assert _once(_named(af, _search(af).complete()),
                 oracle.oracle_enumerate(Semantics.CO, af)), sorted(af.attacks)


# ---------------------------------------------------------------------------
# The admissible search and the tasks built on it

@st.composite
def admissible_searches(draw):
    """A framework, a conflict-free seed set, and complete extensions for
    the search to avoid (each holds the grounded extension, as ``avoid``
    requires)."""
    af = draw(structured_afs())
    seed = set()
    for a in draw(st.lists(st.sampled_from(af.args), unique=True,
                           max_size=2)):
        if is_conflict_free(af, seed | {a}):
            seed.add(a)
    complete = oracle.oracle_enumerate(Semantics.CO, af)
    avoided = draw(st.lists(st.sampled_from(complete), unique=True,
                            max_size=3))
    return af, frozenset(seed), avoided


@SETTINGS
@given(admissible_searches())
def test_admissible_search_is_sound_and_complete(case):
    # The drawn seed is tried as it is and with each argument added.
    af, seed, avoided = case
    admissible = oracle.admissible_sets(af)
    for extra in [frozenset()] + [frozenset([a]) for a in af.args]:
        goal = seed | extra
        if not is_conflict_free(af, goal):
            continue
        search = _search(af)
        for ext in avoided:
            search.avoid(af.member_indices(ext))
        found = (search.seed(af.member_indices(goal))
                 and search.admissible())
        expected = [t for t in admissible
                    if goal <= t and not any(t <= e for e in avoided)]
        assert found == bool(expected), (sorted(goal), sorted(af.attacks))
        if found:
            got = af.names_of(search.members())
            assert is_admissible(af, got) and goal <= got
            assert not any(got <= e for e in avoided)


def _matches_oracle(af, tasks):
    """Every listed task agrees with the answer derived from the oracle's
    table of ``af``, built once."""
    exts = oracle.oracle_table(af)
    for name in tasks:
        sem = Semantics(name[3:]) if name != "D3" else None
        if name.startswith(("DC", "DS")):
            for q in af.args:
                want = (any if name.startswith("DC") else all)(
                    q in e for e in exts[sem])
                got = engine.solve_optimized(parse_task(name, q), af)
                assert got == YesNo(want), (name, q, sorted(af.attacks))
            continue
        got = engine.solve_optimized(parse_task(name), af)
        if name == "D3":
            want = Triathlon(exts[Semantics.GR], exts[Semantics.ST],
                             exts[Semantics.PR])
        elif name.startswith("EE"):
            want = AllExtensions(exts[sem])
        else:
            want = OneExtension(min(exts[sem], key=sorted_members)
                                if exts[sem] else None)
        assert got == want, (name, sorted(af.attacks))
    return exts


@SETTINGS
@given(structured_afs())
def test_admissible_search_tasks_match_the_oracle(af):
    exts = _matches_oracle(
        af, ("EE-CO", "SE-CO", "DC-CO", "DS-CO", "EE-PR", "SE-PR", "DC-PR",
             "DS-PR", "EE-ST", "SE-ST", "DC-ST", "DS-ST", "EE-SST", "SE-SST",
             "DC-SST", "DS-SST", "SE-ID", "DC-ID", "D3"))
    for ext in exts[Semantics.CO]:
        for sem in (Semantics.PR, Semantics.SST):
            assert engine.dominated(sem, af, ext) == (ext not in exts[sem]), \
                (sem, sorted(ext), sorted(af.attacks))


@st.composite
def scc_chains(draw):
    """A structured framework behind a part the grounded extension
    decides: unattacked arguments attacking into it, one argument they
    attack that attacks into it too, and a tail attacked by one drawn
    argument only, which is undecided when that one is."""
    af = draw(structured_afs(max_args=7))
    args, attacks = list(af.args), set(af.attacks)
    into = st.sampled_from(args)
    heads = [f"g{k}" for k in range(draw(st.integers(0, 2)))]
    attacks |= {(g, draw(into)) for g in heads}
    if heads:
        attacks |= {(heads[0], "d"), ("d", draw(into))}
    attacks.add((draw(into), "u"))
    names = args + heads + ["u"] + (["d"] if heads else [])
    return ArgumentationFramework(draw(st.permutations(names)), attacks)


@SETTINGS
@given(scc_chains())
def test_preferred_tasks_solved_scc_by_scc_match_the_oracle(af):
    # The preferred and the stable lists are built component by component:
    # members an IN argument attacks are dropped, those an undecided one
    # attacks cannot join, a component with no stable extension under the
    # picks above it ends the branch, and the grounded extension may leave
    # nothing to decide.
    exts = _matches_oracle(
        af, ("EE-PR", "SE-PR", "DS-PR", "SE-ID", "DC-ID", "EE-SST", "SE-SST",
             "D3", "EE-ST", "SE-ST", "DC-ST", "DS-ST", "EE-STG", "SE-STG",
             "DC-STG", "DS-STG"))
    for ext in exts[Semantics.CO]:
        assert engine.dominated(Semantics.SST, af, ext) == (
            ext not in exts[Semantics.SST]), (sorted(ext), sorted(af.attacks))


@st.composite
def stable_afs(draw):
    """Structured frameworks with at least one stable extension: each
    argument may get an unattacked attacker of its own, which breaks the
    odd cycles and self-attackers that would leave no stable extension."""
    af = draw(structured_afs(max_args=6))
    killers = [(f"k{i}", a) for i, a in enumerate(af.args)
               if draw(st.booleans())]
    out = ArgumentationFramework(list(af.args) + [k for k, _ in killers],
                                 set(af.attacks) | set(killers))
    assume(oracle.oracle_enumerate(Semantics.ST, out))
    return out


@SETTINGS
@given(stable_afs())
def test_stable_collapse_matches_the_oracle(af):
    _matches_oracle(af, ("EE-ST", "SE-ST", "DC-ST", "DS-ST", "EE-SST",
                         "SE-SST", "DC-SST", "DS-SST", "EE-STG", "SE-STG",
                         "DC-STG", "DS-STG", "D3"))


# ---------------------------------------------------------------------------
# Metamorphic: renaming and reordering arguments

@st.composite
def renamed_afs(draw):
    """A framework and a copy with its arguments listed in reverse order
    and renamed by a drawn bijection, so name order changes too."""
    af = draw(structured_afs(max_args=7))
    fresh = draw(st.permutations([f"r{k}" for k in range(len(af))]))
    rename = dict(zip(af.args, fresh))
    copy = ArgumentationFramework(
        [rename[a] for a in reversed(af.args)],
        [(rename[a], rename[b]) for a, b in af.attacks])
    return af, copy, rename


def _back(ext, inverse):
    return frozenset(inverse[a] for a in ext)


def _back_all(exts, inverse):
    return sorted(sorted(_back(e, inverse)) for e in exts)


def _as_sorted(exts):
    return sorted(sorted(e) for e in exts)


@SETTINGS
@given(renamed_afs())
def test_answers_survive_renaming_and_reordering(case):
    af, copy, rename = case
    inverse = {new: old for old, new in rename.items()}
    for name in all_task_names():
        if name.startswith(("DC", "DS")):
            for q in af.args:
                got = engine.solve_optimized(parse_task(name, rename[q]), copy)
                want = engine.solve_optimized(parse_task(name, q), af)
                assert isinstance(got, YesNo)
                assert got == want, (name, q, sorted(af.attacks))
            continue
        got = engine.solve_optimized(parse_task(name), copy)
        want = engine.solve_optimized(parse_task(name), af)
        if isinstance(got, AllExtensions):
            assert _back_all(got.extensions, inverse) == \
                _as_sorted(want.extensions), (name, sorted(af.attacks))
        elif isinstance(got, Triathlon):
            for part in ("grounded", "stable", "preferred"):
                assert _back_all(getattr(got, part), inverse) == \
                    _as_sorted(getattr(want, part)), (part, sorted(af.attacks))
        else:
            assert isinstance(got, OneExtension)
            # SE breaks ties by argument name, so a renamed framework may
            # pick another extension: it must still be one of them.
            sem = name[3:]
            if sem in ("GR", "ID"):
                assert _back(got.extension, inverse) == want.extension
                continue
            all_exts = engine.solve_optimized(parse_task(f"EE-{sem}"), af)
            if got.extension is None:
                assert all_exts.extensions == ()
            else:
                assert _back(got.extension, inverse) in all_exts.extensions, \
                    (name, sorted(af.attacks))


# ---------------------------------------------------------------------------
# The reference labelling search

@st.composite
def searches(draw):
    """A framework, labels forced on some of its arguments, and whether
    UNDEC is allowed.  The stable search is only ever forced IN or OUT."""
    af = draw(structured_afs())
    allow_undec = draw(st.booleans())
    labels = LABELS if allow_undec else (IN, OUT)
    chosen = draw(st.lists(st.sampled_from(af.args), unique=True,
                           max_size=3))
    forced = {a: draw(st.sampled_from(labels)) for a in chosen}
    return af, forced, allow_undec


def labelling_conditions_hold(lab, attackers) -> bool:
    """IN: every attacker OUT.  OUT: some attacker IN.  UNDEC: no attacker
    IN and not every attacker OUT."""
    for i, label in enumerate(lab):
        around = [lab[z] for z in attackers[i]]
        if label == IN:
            ok = all(a == OUT for a in around)
        elif label == OUT:
            ok = IN in around
        elif label == UNDEC:
            ok = IN not in around and UNDEC in around
        else:
            ok = False  # a leaf leaves no argument unlabelled
        if not ok:
            return False
    return True


def _fits(af, ext, forced) -> bool:
    """Whether the labelling of extension ``ext`` agrees with ``forced``."""
    attacked = {b for a, b in af.attacks if a in ext}
    return all(label == (IN if a in ext else OUT if a in attacked else UNDEC)
               for a, label in forced.items())


@SETTINGS
@given(searches())
def test_every_reported_leaf_is_a_labelling(case):
    af, forced, allow_undec = case
    search = LabellingSearch(af, engine._Budget(None))
    reported = []
    # The generator is suspended at each leaf, so ``search.lab`` holds the
    # labelling of the extension it just yielded.
    for ext in search.solutions([(af.index_of(a), label)
                                 for a, label in forced.items()], allow_undec):
        assert labelling_conditions_hold(search.lab, search.attackers)
        assert all(search.lab[af.index_of(a)] == label
                   for a, label in forced.items())
        assert is_complete(af, ext)
        if not allow_undec:
            assert has_full_range(af, ext)
        reported.append(ext)
    sem = Semantics.CO if allow_undec else Semantics.ST
    expected = [e for e in oracle.oracle_enumerate(sem, af)
                if _fits(af, e, forced)]
    assert sorted(map(sorted, reported)) == sorted(map(sorted, expected))


# ---------------------------------------------------------------------------
# The range-maximality filter

@st.composite
def mask_families(draw):
    """Masks drawn freely, a chain of growing masks and an antichain of
    masks with one bit count, shuffled together with some repeated."""
    width = draw(st.integers(1, 10))
    mask = st.integers(0, (1 << width) - 1)
    family = draw(st.lists(mask, max_size=8))
    chain = [draw(mask)]
    for extra in draw(st.lists(mask, max_size=5)):
        chain.append(chain[-1] | extra)
    count = draw(st.integers(0, width))
    one_count = st.sets(st.integers(0, width - 1), min_size=count,
                        max_size=count).map(lambda bs: sum(1 << b for b in bs))
    family += chain + draw(st.lists(one_count, max_size=6))
    if family:
        family += draw(st.lists(st.sampled_from(family), max_size=4))
    return draw(st.permutations(family))


@SETTINGS
@given(mask_families())
def test_range_filter_keeps_the_masks_nothing_strictly_contains(family):
    naive = {m for m in family
             if not any(m != o and m & o == m for o in family)}
    assert engine._maximal_masks(set(family)) == naive
