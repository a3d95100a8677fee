import itertools

import pytest
from hypothesis import given, settings

from afkit import engine
from afkit.core import ArgumentationFramework
from afkit.errors import UnknownArgumentError
from afkit.oracle import oracle_enumerate
from afkit.rng import SeededRng
from afkit.generators import ErdosRenyi, gen_erdos
from afkit.tasks import Semantics
from afkit.verify import verify

from test_engine_properties import structured_afs
from test_engine_tree import _hand_built


def test_incomplete_because_it_defends_more(example1):
    assert not verify(Semantics.CO, example1, {"b", "d"})  # defends h


def test_ideal_singleton(example1):
    assert verify(Semantics.ID, example1, {"h"})
    assert not verify(Semantics.ID, example1, {"a", "h"})


def test_unattacked_single_argument_is_stable():
    af = ArgumentationFramework(["a"])
    assert verify(Semantics.ST, af, {"a"})


def test_unknown_argument(example1):
    with pytest.raises(UnknownArgumentError):
        verify(Semantics.CO, example1, {"nope"})


def test_example1_all_semantics_all_small_sets(example1):
    # verify agrees with oracle membership over every subset of 4 key args.
    for sem in Semantics:
        truth = set(oracle_enumerate(sem, example1))
        for r in range(4):
            for combo in itertools.combinations("abdh", r):
                assert verify(sem, example1, set(combo)) == \
                    (frozenset(combo) in truth), (sem, combo)


def _subsets(af):
    return [frozenset(c) for r in range(len(af) + 1)
            for c in itertools.combinations(af.args, r)]


def _membership_agrees(af, candidates):
    for sem in Semantics:
        truth = set(oracle_enumerate(sem, af))
        for s in candidates:
            assert verify(sem, af, s) == (s in truth), (sem, sorted(s))


def test_verify_matches_oracle_membership_on_random_frameworks():
    rng = SeededRng(17)
    for i in range(25):
        sub = rng.split(f"af{i}")
        af = gen_erdos(ErdosRenyi(n=sub.randint(1, 6), prob_attacks=0.4), sub)
        _membership_agrees(af, _subsets(af))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(structured_afs(max_args=8))
def test_verify_matches_oracle_membership_on_structured_frameworks(af):
    # Self-attackers, odd cycles and chains of SCCs, every subset.
    _membership_agrees(af, _subsets(af))


@pytest.mark.parametrize("name", sorted(_hand_built()))
def test_verify_matches_oracle_membership_on_hand_built_frameworks(name):
    # Every extension of any semantics, and each one with one argument
    # added or taken away.
    af = _hand_built()[name]
    extensions = {e for sem in Semantics for e in oracle_enumerate(sem, af)}
    _membership_agrees(af, extensions | {e ^ {a} for e in extensions
                                         for a in af.args})


def test_grounded_verifies_for_exactly_one_set():
    rng = SeededRng(23)
    for i in range(15):
        sub = rng.split(f"af{i}")
        af = gen_erdos(ErdosRenyi(n=sub.randint(1, 6), prob_attacks=0.35), sub)
        names = list(af.args)
        hits = [frozenset(c) for r in range(len(names) + 1)
                for c in itertools.combinations(names, r)
                if verify(Semantics.GR, af, frozenset(c))]
        assert len(hits) == 1


def test_stable_implies_semi_stable_and_stage():
    rng = SeededRng(29)
    checked = 0
    for i in range(40):
        sub = rng.split(f"af{i}")
        af = gen_erdos(ErdosRenyi(n=sub.randint(2, 7), prob_attacks=0.3), sub)
        for s in oracle_enumerate(Semantics.ST, af):
            checked += 1
            assert verify(Semantics.SST, af, s)
            assert verify(Semantics.STG, af, s)
            assert verify(Semantics.PR, af, s)
    assert checked > 10


def test_stage_extensions_of_one_framework_are_enumerated_once(monkeypatch):
    # Three mutual pairs beside an odd cycle: no stable extension and 24
    # stage extensions.  The first check draws every maximal conflict-free
    # set and keeps the widest ranges; later checks on the same framework
    # look the set's range up in them.
    real = engine._maximal_conflict_free_sets
    calls = []

    def counted(af, budget):
        calls.append(af)
        return real(af, budget)

    monkeypatch.setattr(engine, "_maximal_conflict_free_sets", counted)
    af = _hand_built()["pairs_triangle"]
    stage = set(oracle_enumerate(Semantics.STG, af))
    assert not oracle_enumerate(Semantics.ST, af) and len(stage) == 24
    assert all(verify(Semantics.STG, af, s) for s in stage)
    near = {e ^ {a} for e in stage for a in af.args}
    assert not any(verify(Semantics.STG, af, s) for s in near)
    assert calls == [af]
    # An equal framework that is another object is enumerated afresh.
    copy = ArgumentationFramework(af.args, af.attacks)
    assert all(verify(Semantics.STG, copy, s) for s in stage)
    assert calls == [af, copy]
