import gc
import os
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afkit
from afkit.core import (ArgumentationFramework, defends, grounded_extension,
                        is_admissible, is_complete, is_conflict_free, range_of,
                        strongly_connected_components)
from afkit.errors import UnknownArgumentError


def small_af(draw_args=6):
    names = st.integers(1, draw_args).map(lambda n: [f"x{i}" for i in range(n)])
    return names.flatmap(
        lambda ns: st.builds(
            lambda atts: ArgumentationFramework(ns, atts),
            st.lists(st.tuples(st.sampled_from(ns), st.sampled_from(ns)),
                     max_size=draw_args * 3)))


class TestFramework:
    def test_dedupes_and_orders_args(self):
        af = ArgumentationFramework(["b", "a", "b"], [("a", "b")])
        assert af.args == ("b", "a")
        assert ("a", "b") in af.attacks

    def test_rejects_undeclared_attack_endpoint(self):
        with pytest.raises(UnknownArgumentError):
            ArgumentationFramework(["a"], [("a", "b")])

    def test_first_undeclared_attack_in_input_order_is_named(self):
        # Forty bad attacks: in hash order, the first one named would vary
        # with the hash seed.
        code = ("from afkit.core import ArgumentationFramework\n"
                "attacks = [('a', 'b')] + [(f'x{i}', 'a') for i in range(40)]\n"
                "try:\n"
                "    ArgumentationFramework(['a', 'b'], attacks)\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        src = os.path.dirname(os.path.dirname(afkit.__file__))
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                check=True, env=dict(os.environ, PYTHONPATH=src,
                                     PYTHONHASHSEED=seed))
            assert proc.stdout == \
                "attack (x0,a) mentions an undeclared argument\n", seed

    def test_generator_of_attacks_is_read_once(self):
        pairs = [("a", "b"), ("b", "c"), ("a", "b"), ("c", "c")]
        af = ArgumentationFramework("abc", (p for p in pairs))
        assert af == ArgumentationFramework("abc", pairs)
        assert af.attacks == frozenset(pairs)
        assert af.targets_of("a") == ("b",)
        assert af.attackers_of("c") == ("b", "c")
        with pytest.raises(UnknownArgumentError, match=r"attack \(d,a\)"):
            ArgumentationFramework("abc", (p for p in [("a", "b"), ("d", "a")]))

    def test_equality_respects_order(self):
        a = ArgumentationFramework(["a", "b"], [("a", "b")])
        b = ArgumentationFramework(["a", "b"], [("a", "b")])
        c = ArgumentationFramework(["b", "a"], [("a", "b")])
        assert a == b and a != c

    def test_adjacency(self, example1):
        assert example1.attackers_of("c") == ("b", "e")
        assert example1.targets_of("d") == ("e", "g")

    def test_adjacency_is_the_one_stored_attack_relation(self, example1):
        assert ArgumentationFramework.__slots__ == (
            "_args", "_index", "_attackers", "_targets")
        assert not any(isinstance(r, frozenset)
                       for r in gc.get_referents(example1))
        assert repr(example1) == "ArgumentationFramework(8 args, 12 attacks)"

    @settings(max_examples=80, deadline=None)
    @given(af=small_af(), data=st.data())
    def test_attack_order_and_repeats_do_not_matter(self, af, data):
        attacks = sorted(af.attacks)
        noisy = data.draw(st.permutations(attacks + attacks[:len(attacks) // 2]))
        rebuilt = ArgumentationFramework(af.args, noisy)
        assert rebuilt == af and hash(rebuilt) == hash(af)
        assert ArgumentationFramework(af.args, af.attacks) == af
        if attacks:
            dropped = data.draw(st.sampled_from(attacks))
            fewer = ArgumentationFramework(
                af.args, [a for a in attacks if a != dropped])
            assert fewer != af and fewer.attacks == af.attacks - {dropped}


class TestConflictFree:
    def test_example_set_is_conflict_free(self, example1):
        assert is_conflict_free(example1, {"a", "c", "h"})

    def test_self_attacker_is_not(self, example1):
        assert not is_conflict_free(example1, {"f"})

    def test_empty_set_vacuously(self, example1):
        assert is_conflict_free(example1, frozenset())

    def test_unknown_argument(self, example1):
        with pytest.raises(UnknownArgumentError):
            is_conflict_free(example1, {"zz"})


class TestDefends:
    def test_set_not_defending_own_member(self, example1):
        assert not defends(example1, {"a", "d"}, "d")

    def test_unattacked_argument_defended_by_empty_set(self):
        af = ArgumentationFramework(["a", "b"], [("a", "b")])
        assert defends(af, frozenset(), "a")

    def test_chain_defense(self):
        af = ArgumentationFramework(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert defends(af, {"a"}, "c")

    def test_unknown_argument(self, example1):
        with pytest.raises(UnknownArgumentError):
            defends(example1, {"a"}, "zz")


class TestRange:
    def test_example_range(self, example1):
        assert range_of(example1, {"b", "d", "h"}) == frozenset("abcdegh")

    def test_empty(self, example1):
        assert range_of(example1, frozenset()) == frozenset()

    def test_self_attacker_range_is_itself(self, example1):
        assert range_of(example1, {"f"}) == frozenset({"f"})

    @settings(max_examples=60, deadline=None)
    @given(af=small_af(), data=st.data())
    def test_monotone(self, af, data):
        subset = data.draw(st.sets(st.sampled_from(af.args)) if af.args else st.just(set()))
        superset = subset | data.draw(st.sets(st.sampled_from(af.args)) if af.args else st.just(set()))
        assert range_of(af, subset) <= range_of(af, superset)


class TestGrounded:
    def test_example_grounded_empty(self, example1):
        assert grounded_extension(example1) == frozenset()

    def test_single_unattacked(self):
        assert grounded_extension(ArgumentationFramework(["a"])) == {"a"}

    def test_chain(self):
        af = ArgumentationFramework(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert grounded_extension(af) == {"a", "c"}

    def test_empty_framework(self):
        assert grounded_extension(ArgumentationFramework([])) == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(af=small_af())
    def test_grounded_is_least_complete(self, af):
        from afkit.oracle import oracle_enumerate
        from afkit.tasks import Semantics
        g = grounded_extension(af)
        completes = oracle_enumerate(Semantics.CO, af)
        assert g in completes
        assert all(g <= c for c in completes)

    def test_linear_at_scale(self):
        n = 30001
        names = [f"c{i}" for i in range(n)]
        af = ArgumentationFramework(names,
                                    [(names[i], names[i + 1]) for i in range(n - 1)])
        g = grounded_extension(af)
        assert len(g) == (n + 1) // 2


class TestPredicates:
    def test_admissible_examples(self, example1):
        assert is_admissible(example1, {"b", "d"})
        assert not is_admissible(example1, {"a", "d"})

    def test_complete_examples(self, example1):
        assert is_complete(example1, {"b", "d", "h"})
        assert not is_complete(example1, {"b", "d"})  # defends h

    @settings(max_examples=60, deadline=None)
    @given(af=small_af(), data=st.data())
    def test_complete_implies_admissible_implies_cf(self, af, data):
        members = data.draw(st.sets(st.sampled_from(af.args)) if af.args else st.just(set()))
        if is_complete(af, members):
            assert is_admissible(af, members)
        if is_admissible(af, members):
            assert is_conflict_free(af, members)


def digraphs(max_nodes=12):
    """Successor lists over 0..n-1; self-loops, isolated nodes and repeated
    edges all occur."""
    return st.integers(0, max_nodes).flatmap(
        lambda n: st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1)),
                           max_size=3 * n).map(
            lambda edges: _successors(n, edges)) if n else st.just([]))


def _successors(n, edges):
    succ = [[] for _ in range(n)]
    for u, v in edges:
        succ[u].append(v)
    return succ


class TestStronglyConnectedComponents:
    @settings(max_examples=300, deadline=None)
    @given(succ=digraphs())
    def test_same_partition_as_networkx(self, succ):
        g = nx.DiGraph()
        g.add_nodes_from(range(len(succ)))
        g.add_edges_from((u, v) for u, vs in enumerate(succ) for v in vs)
        ours = strongly_connected_components(succ)
        assert sorted(map(sorted, ours)) == \
            sorted(map(sorted, nx.strongly_connected_components(g)))

    @settings(max_examples=100, deadline=None)
    @given(succ=digraphs())
    def test_reverse_topological_order(self, succ):
        position = {}
        for k, component in enumerate(strongly_connected_components(succ)):
            for v in component:
                position[v] = k
        assert all(position[u] >= position[v]
                   for u, vs in enumerate(succ) for v in vs)

    def test_takes_framework_adjacency(self, example1):
        comps = strongly_connected_components(example1.target_indices())
        named = sorted(sorted(example1.args[i] for i in c) for c in comps)
        assert named == [["a", "b"], ["c", "d", "e"], ["f"], ["g", "h"]]

    def test_long_path_needs_no_recursion(self):
        n = 10 ** 5
        succ = [[i + 1] for i in range(n - 1)] + [[]]
        assert len(strongly_connected_components(succ)) == n

    def test_long_cycle_needs_no_recursion(self):
        n = 10 ** 5
        succ = [[(i + 1) % n] for i in range(n)]
        comps = strongly_connected_components(succ)
        assert len(comps) == 1 and sorted(comps[0]) == list(range(n))
