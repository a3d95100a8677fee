"""Same-tree guard: the engine's node count per solve is pinned.

Each case below is a fixed framework and task together with the number of
search nodes expanded to answer it.  A run under exactly that node budget
must succeed and one node less must run out, so any change that adds, drops
or reorders search nodes fails here, even when the answers stay right.  A
change that means to alter the search tree updates the table and says why.

Two tables are pinned.  ``NODES`` holds what ``solve_optimized`` expands
under its dispatch; its tests are named by framework and task alone, so a
re-pin keeps their names.  ``SEARCH_NODES`` holds what the labelling search
of ``labelling.py`` and the engine's maximal conflict-free enumeration
expand when each task is answered by them alone: complete labellings for
CO, PR, SST and ID, stable ones for ST, both for D3, a forced label for
DC-CO, DC-PR, DC-ST and DS-ST, maximal conflict-free sets for STG.  The
dispatch reaches Bron-Kerbosch only on frameworks with no stable extension,
so its tree stays pinned on every framework through this table.  The
labelling search is the tests' reference for complete and stable semantics,
a different algorithm from the engine's covering and closing; its trees
stay pinned so the reference stays the one the engine is checked against
below.
"""

from dataclasses import replace

import pytest

from afkit.core import ArgumentationFramework
from afkit.engine import _Budget, _maximal_conflict_free_sets, solve_optimized
from afkit.errors import BudgetExceededError
from afkit.generators import (gen_admbuster, gen_sembuster, generate,
                              preset_configs)
from afkit.rng import SeededRng
from afkit.tasks import (AllExtensions, OneExtension, Semantics, YesNo,
                         all_task_names, parse_task, sorted_members)

from conftest import EXAMPLE1_ARGS, EXAMPLE1_ATTACKS
from labelling import IN, OUT, labellings

PRESET_FAMILIES = ("grounded", "scc", "stable", "erdos", "watts", "barabasi")


def _preset(family, n):
    """The bench ladder's framework of ``family`` at size ``n``: the middle
    configuration of the published preset sweep, resized, generated from
    the ladder's fixed seed."""
    configs = preset_configs(family, SeededRng(0))
    cfg = configs[len(configs) // 2]
    changes = {"n": n}
    if family == "watts":
        changes["k"] = min(cfg.k, 2 * max(1, n // 6))
    elif family == "scc":
        changes["n_sccs"] = min(cfg.n_sccs, n)
    rng = SeededRng(2019).split("ladder").split(f"{family}/{n}")
    return generate(replace(cfg, **changes), rng)


def _cycle(names):
    return [(a, names[(k + 1) % len(names)]) for k, a in enumerate(names)]


def _hand_built():
    pairs = [f"{s}{k}" for k in range(3) for s in "ab"]
    triangle = ["c0", "c1", "c2"]
    chain_a, chain_b = ["s0", "s1", "s2", "s3"], ["t0", "t1", "t2"]
    return {
        "example1": ArgumentationFramework(EXAMPLE1_ARGS, EXAMPLE1_ATTACKS),
        # Three mutual-attack pairs beside an odd cycle: 27 complete
        # extensions, none stable.
        "pairs_triangle": ArgumentationFramework(
            pairs + triangle,
            [(f"a{k}", f"b{k}") for k in range(3)]
            + [(f"b{k}", f"a{k}") for k in range(3)] + _cycle(triangle)),
        # A chain of SCCs: an even 4-cycle feeding an odd 3-cycle feeding a
        # mutual pair with a self-attacker, then a sink.
        "scc_chain": ArgumentationFramework(
            chain_a + chain_b + ["u0", "u1", "v"],
            _cycle(chain_a) + _cycle(chain_b)
            + [("s0", "t0"), ("s2", "t1"), ("t2", "u0"), ("u0", "u1"),
               ("u1", "u0"), ("u1", "u1"), ("u0", "v"), ("t1", "v")]),
        # Self-attackers woven through cycles and pairs.
        "self_attacks": ArgumentationFramework(
            list("abcdefgh"),
            [("a", "a"), ("a", "b"), ("b", "c"), ("c", "b"), ("d", "d"),
             ("d", "c"), ("e", "f"), ("f", "e"), ("f", "g"), ("g", "h"),
             ("h", "e"), ("g", "g"), ("c", "e")]),
    }


def _frameworks():
    afs = {"admbuster/12": gen_admbuster(12), "sembuster/4": gen_sembuster(4)}
    for family in PRESET_FAMILIES:
        afs[f"{family}/12"] = _preset(family, 12)
    for name in {**RUNG1_NODES, **RUNG1_SEARCH_NODES}:
        family, _, n = name.partition("/")
        afs[name] = (gen_sembuster(int(n)) if family == "sembuster"
                     else _preset(family, int(n)))
    afs.update(_hand_built())
    return afs


# Nodes expanded per (framework, task); a DC or DS query is the framework's
# middle argument.  Tasks left out of a row expand no node at all.  The
# rung-1 rows hold cells finished well inside the bench ladder's budget;
# only their listed tasks are pinned, the others run out of budget there.
#
# The tasks that need the whole preferred list (EE-PR, SE-PR, the SST and
# ID tasks, and D3, whose stable extensions are the preferred ones with
# full range, so it costs what EE-PR does) build it SCC by SCC: each
# component is walked once per status of its members, and the walk over
# the components ticks once per branch where a component has more than one
# extension.  In ``pairs_triangle`` each mutual pair costs 2 nodes and the
# odd cycle 6, and the walk over the components ticks 2 + 4 + 8 times: 26
# nodes.  ``self_attacks`` has a single preferred extension that its
# components give without a choice: 1 node.  DS-PR walks the whole
# framework once, going on from each accepted set, and stops at the first
# preferred extension without the query.  The scc/100 rows are the 1947
# preferred extensions of 35 components of at most 5 arguments, in 3893
# nodes; the walk over the whole framework takes 302,664.
#
# EE-ST and SE-ST, and SST and STG where stable extensions exist, are built
# by the same driver with the covering walk on each component; where there
# are none, SST adds the EE-PR count and STG that of Bron-Kerbosch
# (``SEARCH_NODES``).  Stable semantics is not directional: the driver walks
# every stable extension of a component and learns only further down that
# a later component rules it out, where the covering walk over the whole
# framework branched first on the argument with the fewest candidates
# anywhere.  So ``pairs_triangle``, with no stable extension, is decided by
# the odd cycle's component alone, 2 nodes (the whole walk takes 30), while
# ``sembuster/4`` walks the 5 stable extensions of its x-y component and
# branches on them before its self-attacking z arguments rule out all but
# {y4}: 13 nodes where the whole walk covers z4 by y4 at once in 1.  Alike,
# ``example1`` takes 6 and ``scc_chain`` 8 to find no stable extension
# (the whole walk 1 and 3), and scc/100 EE-ST 3868 (the whole walk 6867).
# DC-ST and DS-ST stay on the whole-framework walk.
NODES = {
    "admbuster/12": {},
    "sembuster/4": {
        "SE-CO": 8, "EE-CO": 8, "DS-PR": 1, "SE-PR": 10, "EE-PR": 10,
        "DS-ST": 1, "SE-ST": 13, "EE-ST": 13, "DC-SST": 13, "DS-SST": 13,
        "SE-SST": 13, "EE-SST": 13, "DC-STG": 13, "DS-STG": 13,
        "SE-STG": 13, "EE-STG": 13, "DC-ID": 10, "SE-ID": 10, "D3": 10},
    "grounded/12": {},
    "scc/12": {},
    "stable/12": {},
    "erdos/12": {
        "DC-CO": 4, "SE-CO": 16, "EE-CO": 16, "DC-PR": 4, "DS-PR": 16,
        "SE-PR": 32, "EE-PR": 32, "DC-ST": 3, "DS-ST": 1, "SE-ST": 5,
        "EE-ST": 5, "DC-SST": 37, "DS-SST": 37, "SE-SST": 37, "EE-SST": 37,
        "DC-STG": 25, "DS-STG": 25, "SE-STG": 25, "EE-STG": 25, "DC-ID": 32,
        "SE-ID": 32, "D3": 32},
    "watts/12": {},
    "barabasi/12": {},
    "example1": {
        "SE-CO": 10, "EE-CO": 10, "DS-PR": 5, "SE-PR": 11, "EE-PR": 11,
        "SE-ST": 6, "EE-ST": 6, "DC-SST": 17, "DS-SST": 17, "SE-SST": 17,
        "EE-SST": 17, "DC-STG": 15, "DS-STG": 15, "SE-STG": 15, "EE-STG": 15,
        "DC-ID": 11, "SE-ID": 11, "D3": 11},
    "pairs_triangle": {
        "SE-CO": 107, "EE-CO": 107, "DS-PR": 21, "SE-PR": 26, "EE-PR": 26,
        "DC-ST": 14, "DS-ST": 15, "SE-ST": 2, "EE-ST": 2, "DC-SST": 28,
        "DS-SST": 28, "SE-SST": 28, "EE-SST": 28, "DC-STG": 41,
        "DS-STG": 41, "SE-STG": 41, "EE-STG": 41, "DC-ID": 26, "SE-ID": 26,
        "D3": 26},
    "scc_chain": {
        "DC-CO": 1, "SE-CO": 16, "EE-CO": 16, "DC-PR": 1, "DS-PR": 2,
        "SE-PR": 13, "EE-PR": 13, "DC-ST": 1, "DS-ST": 1, "SE-ST": 8,
        "EE-ST": 8, "DC-SST": 21, "DS-SST": 21, "SE-SST": 21, "EE-SST": 21,
        "DC-STG": 29, "DS-STG": 29, "SE-STG": 29, "EE-STG": 29, "DC-ID": 13,
        "SE-ID": 13, "D3": 13},
    "self_attacks": {
        "SE-CO": 5, "EE-CO": 5, "DS-PR": 4, "SE-PR": 1, "EE-PR": 1,
        "DC-SST": 1, "DS-SST": 1, "SE-SST": 1, "EE-SST": 1, "DC-STG": 8,
        "DS-STG": 8, "SE-STG": 8, "EE-STG": 8, "DC-ID": 1, "SE-ID": 1,
        "D3": 1},
}

RUNG1_NODES = {
    "scc/100": {"DC-CO": 2, "DC-PR": 2, "DC-ST": 25, "DS-ST": 28,
                "EE-PR": 3893, "SE-ID": 3893, "EE-ST": 3868},
    "sembuster/20": {"EE-PR": 42, "EE-CO": 40},
    "erdos/60": {
        "DC-ST": 6, "DS-ST": 57, "SE-ST": 60, "EE-ST": 60, "EE-STG": 1950,
        "EE-PR": 308},
    "watts/100": {
        "DC-ST": 3, "DS-ST": 26, "SE-ST": 28, "EE-ST": 28, "DS-PR": 142},
}
SEARCH_NODES = {
    "admbuster/12": {"DC-STG": 49, "DS-STG": 49, "SE-STG": 49, "EE-STG": 49},
    "sembuster/4": {
        "DC-CO": 3, "SE-CO": 804, "EE-CO": 804, "DC-PR": 3, "DS-PR": 804,
        "SE-PR": 804, "EE-PR": 804, "DC-ST": 2, "DS-ST": 18, "SE-ST": 22,
        "EE-ST": 22, "DC-SST": 804, "DS-SST": 804, "SE-SST": 804,
        "EE-SST": 804, "DC-STG": 9, "DS-STG": 9, "SE-STG": 9, "EE-STG": 9,
        "DC-ID": 804, "SE-ID": 804, "D3": 826},
    "grounded/12": {"DC-STG": 53, "DS-STG": 53, "SE-STG": 53, "EE-STG": 53},
    "scc/12": {"DC-STG": 19, "DS-STG": 19, "SE-STG": 19, "EE-STG": 19},
    "stable/12": {"DC-STG": 49, "DS-STG": 49, "SE-STG": 49, "EE-STG": 49},
    "erdos/12": {
        "DC-CO": 93, "SE-CO": 717, "EE-CO": 717, "DC-PR": 93, "DS-PR": 717,
        "SE-PR": 717, "EE-PR": 717, "DC-ST": 8, "DS-ST": 12, "SE-ST": 12,
        "EE-ST": 12, "DC-SST": 717, "DS-SST": 717, "SE-SST": 717,
        "EE-SST": 717, "DC-STG": 20, "DS-STG": 20, "SE-STG": 20, "EE-STG": 20,
        "DC-ID": 717, "SE-ID": 717, "D3": 729},
    "watts/12": {"DC-STG": 48, "DS-STG": 48, "SE-STG": 48, "EE-STG": 48},
    "barabasi/12": {"DC-STG": 39, "DS-STG": 39, "SE-STG": 39, "EE-STG": 39},
    "example1": {
        "SE-CO": 45, "EE-CO": 45, "DS-PR": 45, "SE-PR": 45, "EE-PR": 45,
        "DS-ST": 4, "SE-ST": 6, "EE-ST": 6, "DC-SST": 45, "DS-SST": 45,
        "SE-SST": 45, "EE-SST": 45, "DC-STG": 9, "DS-STG": 9, "SE-STG": 9,
        "EE-STG": 9, "DC-ID": 45, "SE-ID": 45, "D3": 51},
    "pairs_triangle": {
        "DC-CO": 11, "SE-CO": 321, "EE-CO": 321, "DC-PR": 11, "DS-PR": 321,
        "SE-PR": 321, "EE-PR": 321, "DC-ST": 14, "DS-ST": 14, "SE-ST": 30,
        "EE-ST": 30, "DC-SST": 321, "DS-SST": 321, "SE-SST": 321,
        "EE-SST": 321, "DC-STG": 39, "DS-STG": 39, "SE-STG": 39, "EE-STG": 39,
        "DC-ID": 321, "SE-ID": 321, "D3": 351},
    "scc_chain": {
        "SE-CO": 63, "EE-CO": 63, "DS-PR": 63, "SE-PR": 63, "EE-PR": 63,
        "DS-ST": 4, "SE-ST": 6, "EE-ST": 6, "DC-SST": 63, "DS-SST": 63,
        "SE-SST": 63, "EE-SST": 63, "DC-STG": 21, "DS-STG": 21, "SE-STG": 21,
        "EE-STG": 21, "DC-ID": 63, "SE-ID": 63, "D3": 69},
    "self_attacks": {
        "DC-CO": 9, "SE-CO": 30, "EE-CO": 30, "DC-PR": 9, "DS-PR": 30,
        "SE-PR": 30, "EE-PR": 30, "DC-ST": 2, "DS-ST": 2, "SE-ST": 2,
        "EE-ST": 2, "DC-SST": 30, "DS-SST": 30, "SE-SST": 30, "EE-SST": 30,
        "DC-STG": 8, "DS-STG": 8, "SE-STG": 8, "EE-STG": 8, "DC-ID": 30,
        "SE-ID": 30, "D3": 32},
}

RUNG1_SEARCH_NODES = {
    "scc/100": {"DC-CO": 12, "DC-PR": 12, "DC-ST": 12, "DS-ST": 17},
    "erdos/60": {"DC-ST": 56, "DS-ST": 462, "SE-ST": 502, "EE-ST": 502,
                 "EE-STG": 1890},
    "watts/100": {"DC-ST": 424, "DS-ST": 704, "SE-ST": 706, "EE-ST": 706},
}
FRAMEWORKS = _frameworks()


def _cases(rows, rung1_rows):
    for name, row in rows.items():
        for task in all_task_names():
            yield name, task, row.get(task, 0)
    for name, row in rung1_rows.items():
        yield from ((name, task, nodes) for task, nodes in row.items())


def _task(name, task_name):
    af = FRAMEWORKS[name]
    query = af.args[len(af) // 2] if task_name[:2] in ("DC", "DS") else None
    return parse_task(task_name, query), af


def _search_alone(task, af, budget):
    """Answer ``task`` by the reference labelling search and the maximal
    conflict-free enumeration alone, under one ``budget``, drawing each
    search as far as the answer needs."""
    b = _Budget(budget)
    sem, problem = task.semantics, task.problem
    if problem == "D3":
        drawn = [labellings(af, b, allow_undec=False), labellings(af, b)]
    elif sem == Semantics.GR or (problem, sem) == ("DS", Semantics.CO):
        # Grounded membership: no search at all.
        drawn = []
    elif (problem == "DC" and sem in (Semantics.CO, Semantics.PR,
                                      Semantics.ST)
          or (problem, sem) == ("DS", Semantics.ST)):
        label = IN if problem == "DC" else OUT
        found = labellings(af, b, [(task.query, label)],
                           allow_undec=sem != Semantics.ST)
        next(found, None)
        return
    elif sem == Semantics.STG:
        drawn = [_maximal_conflict_free_sets(af, b)]
    else:
        drawn = [labellings(af, b, allow_undec=sem != Semantics.ST)]
    for search in drawn:
        for _ in search:
            pass


def _reference(task, af):
    """The answer to a CO or ST task, or to DC-PR, by the reference
    labelling search: DC finds a labelling with the query IN, DS-ST finds
    none with it OUT."""
    b, query = _Budget(None), task.query
    undec = task.semantics != Semantics.ST
    if task.problem in ("DC", "DS"):
        label = IN if task.problem == "DC" else OUT
        found = next(labellings(af, b, [(query, label)], undec), None)
        return YesNo((found is not None) == (task.problem == "DC"))
    exts = list(labellings(af, b, allow_undec=undec))
    if task.problem == "SE":
        return OneExtension(min(exts, key=sorted_members) if exts else None)
    return AllExtensions.of(exts)


def _reference_cases():
    answered = ("DC-CO", "SE-CO", "EE-CO", "DC-PR", "DC-ST", "DS-ST",
                "SE-ST", "EE-ST")
    for name in SEARCH_NODES:
        yield from ((name, task) for task in answered)
    for name, row in RUNG1_SEARCH_NODES.items():
        yield from ((name, task) for task in row if task in answered)


def _solve(task, af, budget):
    solve_optimized(task, af, budget=budget)


def _assert_pinned(run, task, af, nodes):
    run(task, af, nodes)
    if nodes:
        with pytest.raises(BudgetExceededError):
            run(task, af, nodes - 1)


@pytest.mark.parametrize("name,task_name,nodes", [
    pytest.param(name, task_name, nodes, id=f"{name}-{task_name}")
    for name, task_name, nodes in _cases(NODES, RUNG1_NODES)])
def test_solve_node_count_is_pinned(name, task_name, nodes):
    task, af = _task(name, task_name)
    _assert_pinned(_solve, task, af, nodes)


@pytest.mark.parametrize("name,task_name,nodes",
                         list(_cases(SEARCH_NODES, RUNG1_SEARCH_NODES)))
def test_node_count_is_pinned(name, task_name, nodes):
    task, af = _task(name, task_name)
    _assert_pinned(_search_alone, task, af, nodes)


@pytest.mark.parametrize("name,task_name", [
    pytest.param(name, task_name, id=f"{name}-{task_name}")
    for name, task_name in _reference_cases()])
def test_engine_matches_the_labelling_reference(name, task_name):
    # The brute-force oracle stops near twenty arguments; the reference
    # search checks the covering and closing searches on the bench
    # ladder's rung-1 frameworks too.
    task, af = _task(name, task_name)
    assert solve_optimized(task, af) == _reference(task, af)


@pytest.mark.parametrize("task_name", ["EE-PR", "EE-ST", "EE-SST", "EE-STG"])
def test_scc_enumeration_scales_with_its_answers(task_name):
    # 12 disjoint mutual-attack pairs have 2^12 preferred extensions, all
    # stable, so semi-stable and stage too.  The walk over the pairs ticks
    # 2 + 4 + ... + 2^12 times, and each pair is walked once, 2 nodes each:
    # 8214 nodes.  The preferred walk over the whole framework takes
    # 269,815, the covering walk 8190.
    names = [f"{s}{i}" for i in range(12) for s in "ab"]
    af = ArgumentationFramework(
        names, [(f"{s}{i}", f"{t}{i}") for i in range(12)
                for s, t in ("ab", "ba")])
    task = parse_task(task_name)
    found = solve_optimized(task, af, budget=8214)
    assert len(found.extensions) == 4096
    _assert_pinned(_solve, task, af, 8214)


def test_every_framework_is_pinned():
    assert set(SEARCH_NODES) == set(NODES)
    assert (set(NODES) | set(RUNG1_NODES) | set(RUNG1_SEARCH_NODES)
            == set(FRAMEWORKS))
