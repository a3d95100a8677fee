import pytest

from afkit import oracle
from afkit.errors import BudgetExceededError
from afkit.harness.judge import (CORRECT, INCORRECT, ZERO, Judgement,
                                 ReferenceBundle, verify_cascade)
from afkit.solutions import parse_solution
from afkit.tasks import parse_task

EE_PR = parse_task("EE-PR")
SE_ST = parse_task("SE-ST")
DC_CO = parse_task("DC-CO", "a")
D3 = parse_task("D3")


@pytest.fixture
def bundle(example1):
    return ReferenceBundle(example1)


def j(task, text, bundle):
    # With a reference present, the other answers of the cell do not matter.
    sol = parse_solution(task, text)
    return verify_cascade(task, bundle, sol, [sol])


class TestJudgeWithReference:
    def test_ee_exact_set_is_correct(self, bundle):
        assert j(EE_PR, "[[b,d,h],[a,h]]", bundle).verdict == CORRECT

    def test_ee_proper_subset_is_zero(self, bundle):
        res = j(EE_PR, "[[a,h]]", bundle)
        assert res.verdict == ZERO and res.points == 0

    def test_ee_with_non_extension_is_incorrect(self, bundle):
        res = j(EE_PR, "[[a,h],[a,e,h]]", bundle)
        assert res.verdict == INCORRECT and res.points == -5

    def test_se_no_correct_when_none_exists(self, bundle):
        assert j(SE_ST, "NO", bundle).points == 1

    def test_se_no_incorrect_when_extensions_exist(self, bundle):
        assert j(parse_task("SE-PR"), "NO", bundle).verdict == INCORRECT

    def test_se_any_valid_extension_is_correct(self, bundle):
        # Either preferred extension is acceptable, not just a canonical one.
        assert j(parse_task("SE-PR"), "[b,d,h]", bundle).verdict == CORRECT
        assert j(parse_task("SE-PR"), "[a,h]", bundle).verdict == CORRECT

    def test_se_non_extension_is_incorrect(self, bundle):
        assert j(parse_task("SE-PR"), "[a]", bundle).verdict == INCORRECT

    def test_se_unknown_argument_is_incorrect(self, bundle):
        assert j(parse_task("SE-PR"), "[qq]", bundle).verdict == INCORRECT

    def test_verdicts(self, bundle):
        assert j(DC_CO, "YES", bundle).verdict == CORRECT
        assert j(DC_CO, "NO", bundle).verdict == INCORRECT

    def test_unparsable_and_empty_are_zero(self, bundle):
        assert j(EE_PR, "[[a,h]", bundle).verdict == ZERO
        assert j(DC_CO, "", bundle).verdict == ZERO
        assert j(DC_CO, "boom: stack trace", bundle).verdict == ZERO

    def test_d3_componentwise(self, bundle):
        good = "[[]]\n[]\n[[a,h],[b,d,h]]"
        assert j(D3, good, bundle).verdict == CORRECT
        subset = "[[]]\n[]\n[[a,h]]"
        assert j(D3, subset, bundle).verdict == ZERO
        wrong = "[[]]\n[]\n[[a,h],[a,e,h]]"
        assert j(D3, wrong, bundle).verdict == INCORRECT
        wrong_first = "[[a]]\n[]\n[[a,h],[b,d,h]]"
        assert j(D3, wrong_first, bundle).verdict == INCORRECT

    def test_points_follow_verdict(self, bundle):
        for text, pts in [("[[b,d,h],[a,h]]", 1), ("[[a,h]]", 0),
                          ("[[e]]", -5)]:
            assert j(EE_PR, text, bundle).points == pts


class _Unsolvable:
    """Reference solver stand-in that always runs out of budget."""

    def __call__(self, task, af):
        raise BudgetExceededError("synthetic")


class _NoSingleExtension:
    """Reference solver stand-in that fails on every SE task and defers to
    the oracle on the rest."""

    def __call__(self, task, af):
        if task.problem == "SE":
            raise RuntimeError(f"{task.name()} reference requested")
        return oracle.solve(task, af)


class TestVerifyCascade:
    def test_claimed_extension_needs_no_reference(self, example1):
        bundle = ReferenceBundle(example1, solver=_NoSingleExtension())
        se_pr = parse_task("SE-PR")
        good, bad = parse_solution(se_pr, "[b,d,h]"), parse_solution(se_pr, "[a]")
        assert verify_cascade(se_pr, bundle, good, [good, bad]).verdict == CORRECT
        assert verify_cascade(se_pr, bundle, bad, [good, bad]).verdict == INCORRECT

    def test_reference_wins_when_available(self, example1):
        bundle = ReferenceBundle(example1)
        sol = parse_solution(EE_PR, "[[a,h]]")
        res = verify_cascade(EE_PR, bundle, sol, [sol])
        assert res.verdict == ZERO

    def test_lone_unverifiable_enumeration_is_correct_unchecked(self, example1):
        bundle = ReferenceBundle(example1, solver=_Unsolvable())
        sol = parse_solution(EE_PR, "[[a,h]]")  # valid but incomplete
        res = verify_cascade(EE_PR, bundle, sol, [sol])
        assert res == Judgement(CORRECT, 1, unchecked=True)

    def test_enumeration_with_bad_member_caught_without_reference(self, example1):
        bundle = ReferenceBundle(example1, solver=_Unsolvable())
        sol = parse_solution(EE_PR, "[[a,h],[a,e,h]]")
        res = verify_cascade(EE_PR, bundle, sol, [sol])
        assert res.verdict == INCORRECT

    def test_se_verified_extension_without_reference(self, example1):
        bundle = ReferenceBundle(example1, solver=_Unsolvable())
        sol = parse_solution(parse_task("SE-PR"), "[b,d,h]")
        res = verify_cascade(parse_task("SE-PR"), bundle, sol, [sol])
        assert res == Judgement(CORRECT, 1, unchecked=False)

    def test_majority_outvotes_dissenter(self, example1):
        bundle = ReferenceBundle(example1, solver=_Unsolvable())
        yeses = [parse_solution(DC_CO, "YES") for _ in range(3)]
        no = parse_solution(DC_CO, "NO")
        res = verify_cascade(DC_CO, bundle, no, yeses + [no])
        assert res.verdict == INCORRECT
        res = verify_cascade(DC_CO, bundle, yeses[0], yeses + [no])
        assert res == Judgement(CORRECT, 1, unchecked=False)

    def test_one_one_split_has_no_majority(self, example1):
        bundle = ReferenceBundle(example1, solver=_Unsolvable())
        yes, no = parse_solution(DC_CO, "YES"), parse_solution(DC_CO, "NO")
        assert verify_cascade(DC_CO, bundle, yes, [yes, no]).unchecked
        assert verify_cascade(DC_CO, bundle, no, [yes, no]).unchecked

    def test_subset_of_majority_is_zero(self, example1):
        bundle = ReferenceBundle(example1, solver=_Unsolvable())
        full = parse_solution(EE_PR, "[[a,h],[b,d,h]]")
        part = parse_solution(EE_PR, "[[a,h]]")
        res = verify_cascade(EE_PR, bundle, part, [full, full, part])
        assert res.verdict == ZERO

    def test_unparsable_is_zero_even_without_reference(self, example1):
        bundle = ReferenceBundle(example1, solver=_Unsolvable())
        bad = parse_solution(EE_PR, "%%%")
        assert verify_cascade(EE_PR, bundle, bad, [bad]).verdict == ZERO


def test_judge_never_accepts_enumeration_with_rejected_member():
    # Random claimed enumerations against random frameworks: whenever any
    # claimed set fails extension verification, the verdict must be -5.
    import itertools

    from afkit.generators import ErdosRenyi, gen_erdos
    from afkit.rng import SeededRng
    from afkit.solutions import write_solution
    from afkit.tasks import AllExtensions, Semantics
    from afkit.verify import verify

    rng = SeededRng(555)
    for i in range(40):
        sub = rng.split(f"af{i}")
        af = gen_erdos(ErdosRenyi(n=sub.randint(2, 6), prob_attacks=0.4), sub)
        bundle = ReferenceBundle(af)
        names = list(af.args)
        for sem in (Semantics.CO, Semantics.PR, Semantics.ST):
            task = parse_task(f"EE-{sem}")
            claimed = []
            for _ in range(sub.randint(1, 3)):
                size = sub.randint(0, len(names))
                claimed.append(frozenset(sub.sample(names, size)))
            answer = AllExtensions(claimed)
            sol = parse_solution(task, write_solution(task, answer))
            verdict = verify_cascade(task, bundle, sol, [sol]).verdict
            if any(not verify(sem, af, c) for c in answer.extensions):
                assert verdict == INCORRECT
            else:
                assert verdict in (CORRECT, ZERO)


class TestIdealClaims:
    @staticmethod
    def pairs(k):
        # k disjoint mutual attacks: 2^k preferred extensions, ideal = {}.
        from afkit.core import ArgumentationFramework

        args = [f"{side}{i}" for i in range(k) for side in "ab"]
        attacks = [(f"a{i}", f"b{i}") for i in range(k)]
        attacks += [(b, a) for a, b in attacks]
        return ArgumentationFramework(args, attacks)

    def test_judged_under_the_bundle_budget(self):
        # 24 arguments, above the oracle's cap: the engine needs more than
        # 100 nodes, so there is no verdict rather than an unbudgeted search.
        bundle = ReferenceBundle(self.pairs(12), budget=100)
        assert bundle.is_extension("ID", []) is None

    def test_compared_with_the_reference(self):
        bundle = ReferenceBundle(self.pairs(12), budget=1_000_000)
        assert bundle.is_extension("ID", []) is True
        assert bundle.is_extension("ID", ["a0"]) is False
        assert bundle.is_extension("ID", ["zz"]) is False


def test_oracle_scans_once_per_semantics(monkeypatch):
    # Within the cap, every task's answer is read off one scan of its
    # semantics, and equals the oracle's own answer.
    from afkit.generators import ErdosRenyi, gen_erdos
    from afkit.rng import SeededRng

    af = gen_erdos(ErdosRenyi(12, 0.15), SeededRng(7))
    scans = []
    real = oracle.oracle_enumerate
    monkeypatch.setattr(oracle, "oracle_enumerate",
                        lambda sem, af: scans.append(sem) or real(sem, af))
    bundle = ReferenceBundle(af)
    queries = [parse_task("DS-PR", a) for a in af.args[:5]]
    answers = [bundle.answer_for(task) for task in queries]
    assert scans == ["PR"]
    tasks = [parse_task(name) for name in ("EE-PR", "SE-PR", "D3")]
    answers += [bundle.answer_for(task) for task in tasks]
    assert scans == ["PR", "GR", "ST"]
    monkeypatch.undo()
    assert answers == [oracle.solve(task, af) for task in queries + tasks]


def _imported_modules(path):
    """Every module a harness file imports, nested imports included, with
    relative imports resolved against ``afkit.harness``."""
    import ast

    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = ["afkit", "harness"][:3 - node.level]
                base = ".".join(package + ([base] if base else []))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_only_the_judge_reaches_a_solver():
    # The harness gets every solver answer through ReferenceBundle, so only
    # judge.py may import the engine, the oracle or the verifier.
    from pathlib import Path

    import afkit.harness

    solvers = ("afkit.engine", "afkit.oracle", "afkit.verify")
    offenders = {}
    for path in sorted(Path(afkit.harness.__file__).parent.glob("*.py")):
        hits = {m for m in _imported_modules(path)
                if any(m == s or m.startswith(s + ".") for s in solvers)}
        if hits and path.name != "judge.py":
            offenders[path.name] = sorted(hits)
    assert offenders == {}
