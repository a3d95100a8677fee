import ast
from pathlib import Path

import pytest

from afkit import engine, oracle
from afkit.core import ArgumentationFramework
from afkit.errors import BudgetExceededError
from afkit.generators import (ErdosRenyi, WattsStrogatz, gen_admbuster,
                              gen_erdos, gen_sembuster, gen_watts)
from afkit.rng import SeededRng
from afkit.tasks import (AllExtensions, OneExtension, Semantics, Triathlon,
                         YesNo, all_task_names, parse_task)

from conftest import EXAMPLE1_EXPECTED, as_tuples


@pytest.mark.parametrize("sem", list(Semantics))
def test_example1_extension_sets(example1, sem):
    got = as_tuples(engine.enumerate_extensions(sem, example1))
    assert got == as_tuples(EXAMPLE1_EXPECTED[sem.value])


def test_ee_co_and_sst_examples(example1):
    assert engine.solve_optimized(parse_task("EE-CO"), example1) == \
        AllExtensions.of(map(frozenset, EXAMPLE1_EXPECTED["CO"]))
    assert engine.solve_optimized(parse_task("EE-SST"), example1) == \
        AllExtensions.of([frozenset({"b", "d", "h"})])


def test_empty_framework_tasks():
    af = ArgumentationFramework([])
    assert engine.solve_optimized(parse_task("EE-PR"), af) == \
        AllExtensions.of([frozenset()])
    assert engine.solve_optimized(parse_task("D3"), af) == \
        Triathlon.of([frozenset()], [frozenset()], [frozenset()])


def test_d3_shares_answer_with_oracle(example1):
    got = engine.solve_optimized(parse_task("D3"), example1)
    assert got == oracle.solve(parse_task("D3"), example1)
    assert as_tuples(got.stable) == []


def test_d3_single_argument():
    af = ArgumentationFramework(["a"])
    t = engine.solve_optimized(parse_task("D3"), af)
    assert t == Triathlon.of([{"a"}], [{"a"}], [{"a"}])


def test_budget_error_surfaces_not_a_wrong_answer(example1):
    with pytest.raises(BudgetExceededError):
        engine.solve_optimized(parse_task("EE-CO"), example1, budget=2)


@pytest.mark.parametrize("sem", [Semantics.PR, Semantics.SST, Semantics.STG])
def test_dominated_stops_at_its_first_witness(monkeypatch, sem):
    # k disjoint mutual-attack pairs have 3^k complete extensions and 2^k
    # maximal conflict-free sets, and the first of either beats the empty
    # set.  A budget of 10 nodes per argument replaces the unbudgeted one,
    # so a search that does not stop at its first witness fails fast.
    k = 20
    names = [f"{s}{i}" for i in range(k) for s in "ab"]
    af = ArgumentationFramework(
        names, [(f"{s}{i}", f"{t}{i}") for i in range(k)
                for s, t in ("ab", "ba")])
    real_budget = engine._Budget
    budgets = []

    def capped(limit):
        assert limit is None
        budgets.append(real_budget(10 * len(af)))
        return budgets[-1]

    monkeypatch.setattr(engine, "_Budget", capped)
    assert engine.dominated(sem, af, frozenset())
    assert len(budgets) == 1 and budgets[0].remaining >= 0


@pytest.mark.parametrize("af", [gen_admbuster(2000), gen_sembuster(6)],
                         ids=["admbuster-2000", "sembuster-6"])
def test_preferred_tasks_build_no_per_argument_masks(monkeypatch, af):
    # Masks cost O(n^2) bits; the searches work on adjacency lists only.
    def refuse(indices):
        raise AssertionError("per-argument bitmasks were built")

    monkeypatch.setattr(engine, "_mask", refuse)
    query = af.args[len(af) // 2]
    for name in ("EE-PR", "DC-PR", "DS-PR", "SE-ID", "EE-CO", "D3"):
        task = parse_task(name, query if name[:2] in ("DC", "DS") else None)
        engine.solve_optimized(task, af)


def _random_afs(count, max_args, seed):
    rng = SeededRng(seed)
    for i in range(count):
        sub = rng.split(f"af{i}")
        n = sub.randint(1, max_args)
        p = sub.choice([0.1, 0.2, 0.3, 0.5])
        if i % 2 == 0:
            yield gen_erdos(ErdosRenyi(n=n, prob_attacks=p), sub)
        else:
            k = min(n - 1, 2) & ~1
            yield gen_watts(WattsStrogatz(n=n, k=k, beta=0.3, prob_cycles=p),
                            sub)


def test_engine_matches_oracle_on_random_frameworks():
    for af in _random_afs(60, 8, seed=20260809):
        for name in all_task_names():
            if name.startswith(("DC", "DS")):
                for q in af.args:
                    task = parse_task(name, q)
                    assert engine.solve_optimized(task, af) == oracle.solve(task, af), \
                        (name, q, sorted(af.attacks))
            else:
                task = parse_task(name)
                assert engine.solve_optimized(task, af) == oracle.solve(task, af), \
                    (name, sorted(af.attacks))


def test_task_identities_hold(example1):
    # Skeptical-complete coincides with credulous-grounded, and
    # credulous-preferred with credulous-complete.
    for af in list(_random_afs(40, 7, seed=99)) + [example1]:
        for q in af.args:
            assert engine.solve_optimized(parse_task("DS-CO", q), af) == \
                engine.solve_optimized(parse_task("DC-GR", q), af)
            assert engine.solve_optimized(parse_task("DC-PR", q), af) == \
                engine.solve_optimized(parse_task("DC-CO", q), af)


def test_nonemptiness_and_stable_coincidence():
    for af in _random_afs(40, 7, seed=4242):
        per_sem = {sem: engine.enumerate_extensions(sem, af)
                   for sem in Semantics}
        for sem, exts in per_sem.items():
            if sem != Semantics.ST:
                assert exts, f"{sem} produced no extensions"
        if per_sem[Semantics.ST]:
            assert per_sem[Semantics.ST] == per_sem[Semantics.SST]
            assert per_sem[Semantics.ST] == per_sem[Semantics.STG]
        gr = per_sem[Semantics.GR][0]
        ideal = per_sem[Semantics.ID][0]
        inter = frozenset.intersection(*per_sem[Semantics.PR])
        assert gr <= ideal <= inter


def test_se_agrees_between_backends_on_singletons(example1):
    assert engine.solve_optimized(parse_task("SE-GR"), example1) == \
        OneExtension(frozenset())
    assert engine.solve_optimized(parse_task("SE-ID"), example1) == \
        OneExtension(frozenset({"h"}))


def test_engine_matches_oracle_with_self_attacks():
    # A self-attacker never joins a set and is covered only by an attacker;
    # the equivalence corpus generators never emit them, so force them here.
    rng = SeededRng(777)
    for i in range(120):
        sub = rng.split(f"af{i}")
        n = sub.randint(1, 7)
        names = [f"x{k}" for k in range(n)]
        attacks = [(a, b) for a in names for b in names
                   if sub.coin(0.28 if a != b else 0.3)]
        af = ArgumentationFramework(names, attacks)
        for name in all_task_names():
            if name.startswith(("DC", "DS")):
                for q in af.args:
                    task = parse_task(name, q)
                    assert engine.solve_optimized(task, af) == \
                        oracle.solve(task, af), (name, q, sorted(attacks))
            else:
                task = parse_task(name)
                assert engine.solve_optimized(task, af) == \
                    oracle.solve(task, af), (name, sorted(attacks))


def test_stable_semantics_is_not_directional():
    # Stable, semi-stable and stage semantics are not directional: the
    # answer for a query can change with arguments outside its ancestry,
    # so no shortcut may decide them on the ancestry alone.
    pair = [("p", "q"), ("q", "p")]
    ancestry = ArgumentationFramework(["p", "q"], pair)
    # q covers the self-attacker r, so {q} is the only stable extension.
    covered = ArgumentationFramework(["p", "q", "r"],
                                     pair + [("r", "r"), ("q", "r")])
    for sem in ("ST", "SST", "STG"):
        task = parse_task(f"DS-{sem}", "q")
        assert engine.solve_optimized(task, covered) == YesNo(True) \
            == oracle.solve(task, covered)
        assert engine.solve_optimized(task, ancestry) == YesNo(False)
    # Nothing covers r, so no stable extension exists at all.
    uncovered = ArgumentationFramework(["p", "q", "r"], pair + [("r", "r")])
    task = parse_task("DC-ST", "q")
    assert engine.solve_optimized(task, uncovered) == YesNo(False) \
        == oracle.solve(task, uncovered)
    assert engine.solve_optimized(task, ancestry) == YesNo(True)


def test_engine_matches_oracle_on_dense_and_sparse_extremes():
    rng = SeededRng(31)
    cases = []
    for density in (0.0, 0.05, 0.8, 1.0):
        for i in range(10):
            sub = rng.split(f"d{density}/{i}")
            n = sub.randint(2, 7)
            names = [f"x{k}" for k in range(n)]
            attacks = [(a, b) for a in names for b in names
                       if a != b and sub.coin(density)]
            cases.append(ArgumentationFramework(names, attacks))
    for af in cases:
        for sem in Semantics:
            assert as_tuples(engine.enumerate_extensions(sem, af)) == \
                as_tuples(oracle.oracle_enumerate(sem, af))


# ---------------------------------------------------------------------------
# A module's private names stay inside that module

SRC = Path(engine.__file__).parent


def _private_uses(text, module, is_package=False):
    """Dotted names ``afkit.<other>._…`` that the source ``text`` of
    ``module`` (such as ``"afkit.harness.judge"``; ``is_package`` for an
    ``__init__``) imports or reads through an attribute, where ``<other>``,
    the part before the first private name, is not ``module`` itself."""
    package = module.split(".") if is_package else module.split(".")[:-1]
    tree = ast.parse(text)
    bound = {}  # local name -> the dotted name it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                local = a.asname or a.name.partition(".")[0]
                bound[local] = a.name if a.asname else local
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            names = base + (node.module.split(".") if node.module else [])
            for a in node.names:
                bound[a.asname or a.name] = ".".join(names + [a.name])
    uses = set(bound.values())
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in bound:
            uses.add(".".join([bound[node.id]] + attrs[::-1]))
    found = []
    for use in uses:
        parts = use.split(".")
        private = [k for k, part in enumerate(parts) if part.startswith("_")]
        if parts[0] == "afkit" and private \
                and ".".join(parts[:private[0]]) != module:
            found.append(use)
    return sorted(found)


def test_private_engine_use_is_detected():
    assert _private_uses(
        "from . import engine\nengine._Budget(None)\n", "afkit.verify") == \
        ["afkit.engine._Budget"]
    assert _private_uses(
        "from ..engine import _AdmissibleSearch, dominated\n",
        "afkit.harness.judge") == ["afkit.engine._AdmissibleSearch"]
    assert _private_uses(
        "import afkit.engine as e\ne.dominated\ne._extensions\n",
        "afkit.cli") == ["afkit.engine._extensions"]
    assert _private_uses(
        "import afkit.engine\nafkit.engine._Budget\n", "afkit.engine") == []


def test_private_use_is_detected():
    assert _private_uses(
        "from .cli import _resolve_jobs, main\n", "afkit.subcommands") == \
        ["afkit.cli._resolve_jobs"]
    assert _private_uses(
        "from .runner import _limited_argv\n", "afkit.harness",
        is_package=True) == ["afkit.harness.runner._limited_argv"]
    assert _private_uses(
        "from .core import ArgumentationFramework as AF\nAF._index\n",
        "afkit.engine") == ["afkit.core.ArgumentationFramework._index"]
    assert _private_uses(
        "from .cli import _resolve_jobs\n", "afkit.cli") == []


def _private_uses_by_file():
    """``{path relative to the package: private names of other modules it
    uses}`` for every source file of afkit that uses any."""
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = ["afkit", *path.relative_to(SRC).with_suffix("").parts]
        is_package = parts[-1] == "__init__"
        module = ".".join(parts[:-1] if is_package else parts)
        uses = _private_uses(path.read_text(encoding="utf-8"), module,
                             is_package)
        if uses:
            offenders[str(path.relative_to(SRC))] = uses
    return offenders


def test_no_module_but_the_engine_uses_its_private_names():
    offenders = {path: [u for u in uses if u.startswith("afkit.engine.")]
                 for path, uses in _private_uses_by_file().items()}
    assert {path: uses for path, uses in offenders.items() if uses} == {}


def test_no_module_uses_another_modules_private_names():
    assert _private_uses_by_file() == {}
