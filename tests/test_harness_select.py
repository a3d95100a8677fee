import collections

import pytest

from afkit.core import ArgumentationFramework
from afkit.errors import InsufficientPoolError
from afkit.harness.classify import HardnessCategory
from afkit.harness.select import (GROUPS, SelectionQuota, assign_ideal_queries,
                                  assign_query_arguments, query_count_for,
                                  select_arguments, select_benchmarks,
                                  select_by_quota, select_ideal_argument)
from afkit.oracle import oracle_enumerate
from afkit.rng import SeededRng
from afkit.tasks import Semantics


def preferred(af):
    return oracle_enumerate(Semantics.PR, af)


class TestGroups:
    def test_membership_and_representatives(self):
        assert GROUPS["A"]["tasks"] == ("DS-PR", "EE-PR", "EE-CO")
        assert GROUPS["A"]["representative"] == "EE-PR"
        assert GROUPS["B"]["representative"] == "EE-ST"
        assert GROUPS["C"]["representative"] == "SE-GR"
        assert GROUPS["D"]["benchmark_group"] == "A"
        assert GROUPS["E"]["benchmark_group"] == "A"
        assert len(GROUPS["E"]["tasks"]) == 8
        all_tasks = [t for g in GROUPS.values() for t in g["tasks"]]
        assert len(all_tasks) == len(set(all_tasks)) == 24


class TestQuota:
    def test_standard_quota(self):
        q = SelectionQuota()
        assert (q.very_easy, q.easy, q.medium, q.hard, q.too_hard) == \
            (50, 50, 100, 100, 50)
        assert q.total() == 350

    def test_group_c_override(self):
        q = SelectionQuota.for_group("C")
        assert (q.hard, q.too_hard) == (150, 0)
        assert q.total() == 350


class TestSelectBenchmarks:
    def test_example_pools_pattern(self):
        # Pools of size 1, 2, 4, 11 with n=10: everything from the two small
        # domains, three each from the larger two, one extra from either.
        for seed in range(300):
            pools = {"alpha": ["a0"], "beta": ["b0", "b1"],
                     "gamma": [f"g{i}" for i in range(4)],
                     "delta": [f"d{i}" for i in range(11)]}
            picked = select_benchmarks(pools, 10, SeededRng(seed))
            by_domain = collections.Counter(d for d, _ in picked)
            assert by_domain["alpha"] == 1
            assert by_domain["beta"] == 2
            assert sorted([by_domain["gamma"], by_domain["delta"]]) == [3, 4]
            assert len(picked) == 10

    def test_whole_pool_when_n_equals_total(self):
        pools = {"x": ["x1", "x2"], "y": ["y1"]}
        picked = select_benchmarks(pools, 3, SeededRng(0))
        assert sorted(i for _, i in picked) == ["x1", "x2", "y1"]

    def test_two_full_rounds(self):
        pools = {"x": list("abcde"), "y": list("fghij")}
        picked = select_benchmarks(pools, 4, SeededRng(5))
        by_domain = collections.Counter(d for d, _ in picked)
        assert by_domain == {"x": 2, "y": 2}

    def test_insufficient_pool(self):
        with pytest.raises(InsufficientPoolError):
            select_benchmarks({"x": ["a"]}, 2, SeededRng(0))

    def test_deterministic_given_seed(self):
        pools = lambda: {"x": list("abcdef"), "y": list("uvwxyz")}
        a = select_benchmarks(pools(), 5, SeededRng(7))
        b = select_benchmarks(pools(), 5, SeededRng(7))
        assert a == b

    def test_per_domain_balance_within_one_per_round(self):
        pools = {d: [f"{d}{i}" for i in range(60)] for d in "pqrs"}
        picked = select_benchmarks(pools, 50, SeededRng(3))
        counts = collections.Counter(d for d, _ in picked)
        assert max(counts.values()) - min(counts.values()) <= 1


class TestQuotaSelection:
    def test_exact_category_counts(self):
        pools = {
            cat: {d: [f"{cat.value}-{d}{i}" for i in range(80)] for d in "xyz"}
            for cat in (HardnessCategory.VERY_EASY, HardnessCategory.EASY,
                        HardnessCategory.MEDIUM, HardnessCategory.HARD,
                        HardnessCategory.TOO_HARD)
        }
        picked = select_by_quota(pools, SelectionQuota(), SeededRng(1))
        counts = {cat: len(v) for cat, v in picked.items()}
        assert counts[HardnessCategory.VERY_EASY] == 50
        assert counts[HardnessCategory.EASY] == 50
        assert counts[HardnessCategory.MEDIUM] == 100
        assert counts[HardnessCategory.HARD] == 100
        assert counts[HardnessCategory.TOO_HARD] == 50
        for cat, pairs in picked.items():
            by_domain = collections.Counter(d for d, _ in pairs)
            assert max(by_domain.values()) - min(by_domain.values()) <= 1

    def test_group_c_quota(self):
        pools = {
            cat: {d: [f"{d}{i}" for i in range(80)] for d in "xyz"}
            for cat in (HardnessCategory.VERY_EASY, HardnessCategory.EASY,
                        HardnessCategory.MEDIUM, HardnessCategory.HARD)
        }
        picked = select_by_quota(pools, SelectionQuota.for_group("C"),
                                 SeededRng(1))
        assert len(picked[HardnessCategory.HARD]) == 150
        assert picked[HardnessCategory.TOO_HARD] == []


class TestArgumentSelection:
    AF = ArgumentationFramework(["a", "b", "c", "d"],
                                [("a", "b"), ("b", "c"), ("c", "d")])

    def test_query_counts_per_category(self):
        assert query_count_for(HardnessCategory.VERY_EASY) == 0
        assert query_count_for(HardnessCategory.TOO_HARD) == 2
        assert query_count_for(HardnessCategory.MEDIUM) == 1

    def test_select_arguments(self):
        rng = SeededRng(0)
        assert select_arguments(self.AF, HardnessCategory.VERY_EASY, rng) == []
        two = select_arguments(self.AF, HardnessCategory.TOO_HARD, rng)
        assert len(two) == 2 and len(set(two)) == 2
        one = select_arguments(self.AF, HardnessCategory.HARD, rng)
        assert len(one) == 1

    def test_batch_assignment_meets_minimums(self):
        # grounded = {a, c}: DC-GR is yes on a,c and no on b,d.
        instances = [(f"i{k}", self.AF, HardnessCategory.MEDIUM)
                     for k in range(30)]

        def answer_fn(task_name, af, query):
            from afkit.engine import solve_optimized
            from afkit.tasks import parse_task
            return solve_optimized(parse_task(task_name, query), af).value

        assignments, stats = assign_query_arguments(
            instances, ("DC-GR", "SE-GR"), answer_fn, SeededRng(2),
            min_yes_fraction=0.2, min_no_fraction=0.2)
        assert all(len(a.queries) == 1 for a in assignments)
        row = stats["DC-GR"]
        assert row["yes"] >= row["need_yes"]
        assert row["no"] >= row["need_no"]
        assert row["deficit"] == 0


class TestIdealArgumentStrategy:
    def test_first_branch_set(self, example1):
        # preferred intersection is {h}, grounded empty: h with p=0.9.
        hits = 0
        rng = SeededRng(101)
        prefs = preferred(example1)
        for _ in range(4000):
            if select_ideal_argument(example1, prefs, rng) == "h":
                hits += 1
        assert abs(hits / 4000 - 0.9) < 0.02

    def test_second_branch_on_grounded_only(self):
        # grounded = {g}; preferred intersection = {g}: first pool is empty,
        # so g is drawn with p=0.6, otherwise something outside.
        af = ArgumentationFramework(["g", "b", "c"], [("b", "c"), ("c", "b")])
        rng = SeededRng(7)
        prefs = preferred(af)
        hits = sum(select_ideal_argument(af, prefs, rng) == "g"
                   for _ in range(4000))
        assert abs(hits / 4000 - 0.6) < 0.03

    def test_fallthrough_branch(self):
        # No grounded members, preferred intersection empty: always the
        # third pool, i.e. any argument outside the intersection.
        af = ArgumentationFramework(["b", "c"], [("b", "c"), ("c", "b")])
        rng = SeededRng(9)
        prefs = preferred(af)
        for _ in range(50):
            assert select_ideal_argument(af, prefs, rng) in ("b", "c")

    def test_degenerate_whole_framework_accepted(self):
        af = ArgumentationFramework(["a"])
        # intersection == {a} == grounded: branch two fires with p=0.6,
        # otherwise the empty third pool falls back to a uniform pick.
        rng = SeededRng(3)
        prefs = preferred(af)
        for _ in range(20):
            assert select_ideal_argument(af, prefs, rng) == "a"


class TestIdealQueryAssignment:
    def test_counts_distinct_and_deterministic(self, example1):
        instances = [("ve", example1, HardnessCategory.VERY_EASY),
                     ("e", example1, HardnessCategory.EASY),
                     ("m", example1, HardnessCategory.MEDIUM),
                     ("h", example1, HardnessCategory.HARD),
                     ("th", example1, HardnessCategory.TOO_HARD)]
        picks = assign_ideal_queries(instances, preferred, SeededRng(5))
        assert {name: len(q) for name, q in picks.items()} == \
            {"ve": 0, "e": 1, "m": 1, "h": 1, "th": 2}
        assert len(set(picks["th"])) == 2
        assert all(a in example1 for q in picks.values() for a in q)
        assert assign_ideal_queries(instances, preferred, SeededRng(5)) == picks

    def test_no_preferred_gives_a_uniform_pick(self, example1):
        # No reference within budget: one uniform draw, nothing else.
        picks = assign_ideal_queries([("e", example1, HardnessCategory.EASY)],
                                     lambda af: None, SeededRng(2))
        assert len(picks["e"]) == 1 and picks["e"][0] in example1
        assert picks["e"] == [SeededRng(2).choice(list(example1.args))]
