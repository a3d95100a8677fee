import ast
from pathlib import Path

import pytest

from afkit import core, oracle
from afkit.core import ArgumentationFramework
from afkit.errors import OracleSizeError
from afkit.oracle import (admissible_sets, conflict_free_sets,
                          oracle_enumerate, solve)
from afkit.tasks import (OneExtension, Semantics, Triathlon, YesNo,
                         parse_task)

from conftest import (EXAMPLE1_ADMISSIBLE, EXAMPLE1_CONFLICT_FREE,
                      EXAMPLE1_EXPECTED, as_tuples)


@pytest.mark.parametrize("sem", list(Semantics))
def test_example1_extension_sets(example1, sem):
    got = as_tuples(oracle_enumerate(sem, example1))
    assert got == as_tuples(EXAMPLE1_EXPECTED[sem.value])


def test_example1_conflict_free_and_admissible(example1):
    assert as_tuples(conflict_free_sets(example1)) == as_tuples(EXAMPLE1_CONFLICT_FREE)
    assert as_tuples(admissible_sets(example1)) == as_tuples(EXAMPLE1_ADMISSIBLE)


def test_self_attacker_has_no_stable_extension():
    af = ArgumentationFramework(["a"], [("a", "a")])
    assert oracle_enumerate(Semantics.ST, af) == ()


def test_single_unattacked_argument():
    af = ArgumentationFramework(["a"])
    for sem in Semantics:
        assert as_tuples(oracle_enumerate(sem, af)) == [("a",)]


def test_empty_framework():
    af = ArgumentationFramework([])
    for sem in Semantics:
        assert as_tuples(oracle_enumerate(sem, af)) == [()]


def test_size_cap():
    af = ArgumentationFramework([f"x{i}" for i in range(21)])
    with pytest.raises(OracleSizeError):
        oracle_enumerate(Semantics.CO, af)
    # At the cap the scan runs; self-attacks make each of its 2^20 subset
    # checks fail at the first member, which keeps the scan short.
    names = [f"x{i}" for i in range(20)]
    at_cap = ArgumentationFramework(names, [(a, a) for a in names])
    assert oracle_enumerate(Semantics.GR, at_cap) == (frozenset(),)


class TestSolve:
    def test_se_st_is_no_on_example1(self, example1):
        assert solve(parse_task("SE-ST"), example1) == OneExtension(None)

    def test_ds_st_vacuously_yes_when_no_stable(self, example1):
        assert solve(parse_task("DS-ST", "f"), example1) == YesNo(True)

    def test_dc_pr_query_outside_preferred(self, example1):
        assert solve(parse_task("DC-PR", "e"), example1) == YesNo(False)

    def test_dc_gr_empty_grounded(self, example1):
        assert solve(parse_task("DC-GR", "h"), example1) == YesNo(False)

    def test_se_canonical_pick_is_lexicographic(self):
        af = ArgumentationFramework(["b", "z"], [("b", "z"), ("z", "b")])
        assert solve(parse_task("SE-PR"), af) == OneExtension(frozenset({"b"}))

    def test_d3(self, example1):
        ans = solve(parse_task("D3"), example1)
        assert isinstance(ans, Triathlon)
        assert as_tuples(ans.grounded) == [()]
        assert ans.stable == ()
        assert as_tuples(ans.preferred) == as_tuples(EXAMPLE1_EXPECTED["PR"])


def test_stage_matches_quadratic_definition_on_small_inputs():
    # Independent check of the stage oracle: compare against the literal
    # definition (no conflict-free set with a strictly larger range).
    import itertools
    import random

    from afkit.core import is_conflict_free, range_of

    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(1, 6)
        names = [f"x{i}" for i in range(n)]
        attacks = [(a, b) for a in names for b in names if rng.random() < 0.3]
        af = ArgumentationFramework(names, attacks)
        cf = [frozenset(c) for r in range(n + 1)
              for c in itertools.combinations(names, r)
              if is_conflict_free(af, c)]
        ranges = {c: range_of(af, c) for c in cf}
        naive = [c for c in cf
                 if not any(ranges[o] > ranges[c] for o in cf)]
        assert as_tuples(oracle_enumerate(Semantics.STG, af)) == as_tuples(naive)


def test_oracle_takes_only_the_framework_and_bits_from_core():
    # The oracle is the reference the engine is checked against, so it
    # builds its own masks and keeps its own subset predicates: a fault in
    # a helper both used would go unseen by every differential test.
    taken = []
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in ("core",
                                                                "afkit.core"):
            taken += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            taken += [alias.name for alias in node.names
                      if alias.name.split(".")[-1] == "core"]
    assert sorted(taken) == ["ArgumentationFramework", "bits"]
    mask_functions = [node.name for node in ast.walk(
        ast.parse(Path(core.__file__).read_text()))
        if isinstance(node, ast.FunctionDef)
        and node.name.endswith(("_mask", "_masks"))]
    assert mask_functions == []
