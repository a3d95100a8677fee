"""Same-tree guard: the engine's node count per solve is pinned.

Each case below is a fixed framework and task together with the number of
search nodes the engine expands to solve it.  A solve under exactly that
node budget must succeed and one node less must run out, so any change that
adds, drops or reorders search nodes fails here, even when the answers stay
right.  A change that means to alter the search tree updates the table and
says why.
"""

from dataclasses import replace

import pytest

from afkit.core import ArgumentationFramework
from afkit.engine import solve_optimized
from afkit.errors import BudgetExceededError
from afkit.generators import (gen_admbuster, gen_sembuster, generate,
                              preset_configs)
from afkit.rng import SeededRng
from afkit.tasks import all_task_names, parse_task

from conftest import EXAMPLE1_ARGS, EXAMPLE1_ATTACKS

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
    for name in RUNG1_NODES:
        family, _, n = name.partition("/")
        afs[name] = _preset(family, int(n))
    afs.update(_hand_built())
    return afs


# Nodes expanded per (framework, task); a DC or DS query is the framework's
# middle argument.  Tasks left out of a row expand no node at all.
NODES = {
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

# Rung-1 cells the engine finishes well inside the bench ladder's budget;
# only the listed tasks are pinned, the others run out of budget there.
RUNG1_NODES = {
    "scc/100": {"DC-CO": 12, "DC-PR": 12, "DC-ST": 12, "DS-ST": 17},
    "erdos/60": {"DC-ST": 56, "DS-ST": 462, "SE-ST": 502, "EE-ST": 502,
                 "EE-STG": 1890},
    "watts/100": {"DC-ST": 424, "DS-ST": 704, "SE-ST": 706, "EE-ST": 706},
}
FRAMEWORKS = _frameworks()


def _cases():
    for name, row in NODES.items():
        for task in all_task_names():
            yield name, task, row.get(task, 0)
    for name, row in RUNG1_NODES.items():
        yield from ((name, task, nodes) for task, nodes in row.items())


def _task(name, task_name):
    af = FRAMEWORKS[name]
    query = af.args[len(af) // 2] if task_name[:2] in ("DC", "DS") else None
    return parse_task(task_name, query), af


@pytest.mark.parametrize("name,task_name,nodes", list(_cases()))
def test_node_count_is_pinned(name, task_name, nodes):
    task, af = _task(name, task_name)
    solve_optimized(task, af, budget=nodes)
    if nodes:
        with pytest.raises(BudgetExceededError):
            solve_optimized(task, af, budget=nodes - 1)


def test_every_framework_is_pinned():
    assert set(NODES) | set(RUNG1_NODES) == set(FRAMEWORKS)
