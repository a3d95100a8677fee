"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria, in order: the eight-argument golden example; oracle/engine
equivalence on a seeded random corpus; cross-semantics identities on that
corpus; replay of the published 2017 competition scoring tables; the
selection algorithm's replay and quota behaviour; the hardness classifier
boundary table; generator invariants; an end-to-end harness run with this
package registered as its own solvers plus a corrupted solver; and the
query-argument strategy's branch probabilities.
"""

import collections
import json
import math
import stat
import sys
import textwrap
import time

import networkx as nx
import pytest

from afkit import engine, oracle
from afkit.core import ArgumentationFramework
from afkit.formats import write_apx
from afkit.generators import (AdmBuster, BarabasiAlbert, ErdosRenyi, SccGen,
                              StableGen, WattsStrogatz, gen_admbuster,
                              gen_barabasi, gen_erdos, gen_scc, gen_sembuster,
                              gen_stable, gen_watts)
from afkit.harness.classify import HardnessCategory, RefRun, classify_hardness
from afkit.harness.records import read_records
from afkit.harness.scoring import SolverCounts, rank_counts, score
from afkit.harness.select import (SelectionQuota, select_benchmarks,
                                  select_by_quota, select_ideal_argument)
from afkit.rng import SeededRng
from afkit.tasks import Semantics, all_task_names, parse_task

from conftest import (EXAMPLE1_ADMISSIBLE, EXAMPLE1_CONFLICT_FREE,
                      EXAMPLE1_EXPECTED, as_tuples)
from data.iccma17_tracks import (PUBLISHED_DISCREPANCY, TASK_ROWS,
                                 TRACK_TABLES)

CORPUS_SEED = 20170901
CORPUS_SIZE = 500


def _report(n, name, ok=True):
    import conftest
    line = f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}"
    conftest.record_acceptance(n, line)
    print("\n" + line)


@pytest.fixture(scope="module")
def corpus():
    """>= 500 seeded random frameworks with at most 10 arguments, drawn
    alternately from the Erdos-Renyi and Watts-Strogatz generators."""
    rng = SeededRng(CORPUS_SEED)
    afs = []
    for i in range(CORPUS_SIZE):
        sub = rng.split(f"af{i}")
        n = sub.randint(1, 10)
        p = sub.choice([0.1, 0.2, 0.3, 0.4, 0.6])
        if i % 2 == 0:
            afs.append(gen_erdos(ErdosRenyi(n=n, prob_attacks=p), sub))
        else:
            k = min(n - 1, sub.choice([2, 4])) & ~1
            afs.append(gen_watts(
                WattsStrogatz(n=n, k=max(k, 0), beta=0.3, prob_cycles=p), sub))
    return afs


def test_criterion_1_example_golden_suite(example1):
    start = time.perf_counter()
    for sem in Semantics:
        got = as_tuples(engine.enumerate_extensions(sem, example1))
        assert got == as_tuples(EXAMPLE1_EXPECTED[sem.value]), sem
    assert as_tuples(oracle.conflict_free_sets(example1)) == \
        as_tuples(EXAMPLE1_CONFLICT_FREE)
    assert as_tuples(oracle.admissible_sets(example1)) == \
        as_tuples(EXAMPLE1_ADMISSIBLE)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden suite took {elapsed:.2f}s"
    _report(1, "example golden suite")


def test_criterion_2_oracle_equivalence(corpus):
    start = time.perf_counter()
    assert len(corpus) >= 500
    mismatches = 0
    for af in corpus:
        assert len(af.args) <= 10
        for name in all_task_names():
            if name.startswith(("DC", "DS")):
                for q in af.args:
                    task = parse_task(name, q)
                    if engine.solve_optimized(task, af) != oracle.solve(task, af):
                        mismatches += 1
            else:
                task = parse_task(name)
                if engine.solve_optimized(task, af) != oracle.solve(task, af):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 600.0, f"equivalence sweep took {elapsed:.0f}s"
    _report(2, f"oracle equivalence over {len(corpus)} frameworks "
               f"({elapsed:.0f}s)")


def test_criterion_3_semantics_identities(corpus):
    for af in corpus:
        enums = {sem: oracle.oracle_enumerate(sem, af) for sem in Semantics}
        for q in af.args:
            assert oracle.solve(parse_task("DS-CO", q), af) == \
                oracle.solve(parse_task("DC-GR", q), af)
            assert oracle.solve(parse_task("DC-PR", q), af) == \
                oracle.solve(parse_task("DC-CO", q), af)
        if enums[Semantics.ST]:
            assert enums[Semantics.ST] == enums[Semantics.SST]
            assert enums[Semantics.ST] == enums[Semantics.STG]
        for sem, exts in enums.items():
            if sem != Semantics.ST:
                assert exts, f"{sem} empty"
        gr = enums[Semantics.GR][0]
        ideal = enums[Semantics.ID][0]
        inter = frozenset.intersection(*enums[Semantics.PR])
        assert gr <= ideal <= inter
    _report(3, "semantics identities")


def test_criterion_4_scoring_replay():
    # Quoted exemplars first.
    assert score(1176, 4) == 1156      # goDIAMOND, CO track
    assert score(264, 427) == -1871    # gg-sts, GR track
    for track, rows in sorted(TRACK_TABLES.items()):
        counts = [SolverCounts(solver=s, correct=c, wrong=w, time=t)
                  for s, _, t, c, w in rows]
        ranked = rank_counts(counts)
        assert [r.counts.points for r in ranked] == [p for _, p, *_ in rows], track
        assert [r.counts.solver for r in ranked] == [s for s, *_ in rows], track
    for solver, task, points, correct, wrong in TASK_ROWS:
        assert score(correct, wrong) == points, (solver, task)
    # One published row contradicts the scoring rule it sits under: its
    # counts give -1176, the table prints -1170.  The rule is authoritative.
    track, solver, printed, rule_value = PUBLISHED_DISCREPANCY
    row = next(r for r in TRACK_TABLES[track] if r[0] == solver)
    assert score(row[3], row[4]) == rule_value
    assert printed != rule_value
    _report(4, "published scoring replay (one table typo documented)")


def test_criterion_5_selection_replay():
    for seed in range(1000):
        pools = {"alpha": ["a0"], "beta": ["b0", "b1"],
                 "gamma": [f"g{i}" for i in range(4)],
                 "delta": [f"d{i}" for i in range(11)]}
        picked = select_benchmarks(pools, 10, SeededRng(seed))
        by_domain = collections.Counter(d for d, _ in picked)
        assert by_domain["alpha"] == 1 and by_domain["beta"] == 2, seed
        assert sorted([by_domain["gamma"], by_domain["delta"]]) == [3, 4], seed

    def ample_pools(categories):
        return {cat: {d: [f"{cat.value}-{d}{i}" for i in range(90)]
                      for d in "uvwx"} for cat in categories}

    all_cats = (HardnessCategory.VERY_EASY, HardnessCategory.EASY,
                HardnessCategory.MEDIUM, HardnessCategory.HARD,
                HardnessCategory.TOO_HARD)
    picked = select_by_quota(ample_pools(all_cats), SelectionQuota(),
                             SeededRng(77))
    expected = {"very_easy": 50, "easy": 50, "medium": 100, "hard": 100,
                "too_hard": 50}
    for cat, want in expected.items():
        got = picked[HardnessCategory(cat)]
        assert len(got) == want, cat
        by_domain = collections.Counter(d for d, _ in got)
        assert max(by_domain.values()) - min(by_domain.values()) <= 1, cat
    picked_c = select_by_quota(ample_pools(all_cats),
                               SelectionQuota.for_group("C"), SeededRng(78))
    assert len(picked_c[HardnessCategory.HARD]) == 150
    assert len(picked_c[HardnessCategory.TOO_HARD]) == 0
    assert sum(len(v) for v in picked_c.values()) == 350
    _report(5, "selection replay and quotas")


def test_criterion_6_hardness_classifier_boundaries():
    table = [
        ((5.99, 5.99, 5.99), (), "very_easy"),
        ((6.0, 1.0, 1.0), (), "easy"),
        ((59.99, 59.99, 59.99), (), "easy"),
        ((60.0, 1.0, 1.0), (), "medium"),
        ((599.0, 599.0, 599.0), (), "medium"),
        ((600.0, 1.0, 1.0), (), "hard"),
        ((1200.0, 1250.0, 1250.0), (), "hard"),
        ((1201.0, 1201.0, 1201.0), (), "too_hard"),
        ((3.0, 5.0, 2.0), (), "very_easy"),
        ((50.0, 400.0, 1100.0), (), "hard"),
        ((1.0, 1.0, 1.0), (0,), "hard"),
        ((1.0, 1.0, 1.0), (0, 1), "not_classified"),
    ]
    for times, crashes, expected in table:
        runs = [RefRun(elapsed=t, crashed=(i in crashes))
                for i, t in enumerate(times)]
        assert classify_hardness(runs) == HardnessCategory(expected), \
            (times, crashes)
    _report(6, "hardness classifier boundaries")


def test_criterion_7_generator_invariants():
    for n in range(4, 15):
        af = gen_admbuster(n)
        assert len(oracle.oracle_enumerate(Semantics.CO, af)) == 1, n

    for n in range(1, 5):
        af = gen_sembuster(n)
        co = oracle.oracle_enumerate(Semantics.CO, af)
        pr = oracle.oracle_enumerate(Semantics.PR, af)
        sst = oracle.oracle_enumerate(Semantics.SST, af)
        # n+1 extensions are complete and preferred; exactly one semi-stable.
        # (The grounded extension is always the one extra complete set: no
        # framework can make every complete extension maximal unless there
        # is exactly one of them.)
        assert len(pr) == n + 1 and all(p in co for p in pr), n
        assert len(co) == n + 2, n
        assert len(sst) == 1, n

    for seed in range(100):
        cfg = SccGen(n=12, n_sccs=3, inner_attack_prob=0.5,
                     outer_attack_prob=0.25)
        af = gen_scc(cfg, SeededRng(seed))
        rank_of = {}
        base, extra = divmod(cfg.n, cfg.n_sccs)
        pos = 0
        for c in range(cfg.n_sccs):
            size = base + (1 if c < extra else 0)
            for a in af.args[pos:pos + size]:
                rank_of[a] = c
            pos += size
        assert all(rank_of[s] <= rank_of[t] for s, t in af.attacks), seed

    for seed in range(50):
        af = gen_watts(WattsStrogatz(n=16, k=4, beta=0.3, prob_cycles=0.6),
                       SeededRng(seed))
        g = nx.DiGraph()
        g.add_nodes_from(af.args)
        g.add_edges_from(af.attacks)
        assert nx.number_strongly_connected_components(g) <= \
            max(1, math.ceil(16 * 0.4)), seed
    for seed in range(50):
        af = gen_barabasi(BarabasiAlbert(n=16, prob_cycles=0.75), SeededRng(seed))
        g = nx.DiGraph()
        g.add_nodes_from(af.args)
        g.add_edges_from(af.attacks)
        assert nx.number_strongly_connected_components(g) <= \
            max(1, math.ceil(16 * 0.25)), seed
    _report(7, "generator invariants")


def _write_corrupted_wrapper(tmp_path):
    """A solver that parses the instance but answers wrongly on purpose:
    decision answers are inverted, extension answers claim the full argument
    set (never conflict-free on an instance with an attack)."""
    script = tmp_path / "corrupted.py"
    script.write_text(textwrap.dedent("""\
        import sys
        from afkit.engine import solve_optimized
        from afkit.formats import load_framework
        from afkit.tasks import parse_task

        def flag(name):
            return sys.argv[sys.argv.index(name) + 1]

        af = load_framework(flag("-f"), flag("-fo"))
        task_name = flag("-p")
        everything = "[" + ",".join(sorted(af.args)) + "]"
        if task_name.startswith(("DC-", "DS-")):
            task = parse_task(task_name, flag("-a"))
            truth = solve_optimized(task, af)
            print("NO" if truth.value else "YES")
        elif task_name == "D3":
            print("[%s]\\n[%s]\\n[%s]" % (everything, everything, everything))
        elif task_name.startswith("SE-"):
            print(everything)
        else:
            print("[" + everything + "]")
        """))
    return str(script)


def test_criterion_8_harness_end_to_end(tmp_path):
    start = time.perf_counter()
    instances_dir = tmp_path / "instances"
    instances_dir.mkdir()
    rng = SeededRng(441)
    written = 0
    while written < 50:
        sub = rng.split(f"inst{written}")
        kind = written % 4
        if kind == 0:
            af = gen_erdos(ErdosRenyi(n=sub.randint(4, 8), prob_attacks=0.4), sub)
        elif kind == 1:
            af = gen_watts(WattsStrogatz(n=sub.randint(5, 8), k=2, beta=0.3,
                                         prob_cycles=0.4), sub)
        elif kind == 2:
            af = gen_scc(SccGen(n=sub.randint(4, 8), n_sccs=2,
                                inner_attack_prob=0.6,
                                outer_attack_prob=0.3), sub)
        else:
            af = gen_stable(StableGen(n=8, min_num_extensions=1,
                                      max_num_extensions=2,
                                      min_size_of_extensions=2,
                                      max_size_of_extensions=3,
                                      min_size_of_grounded_extension=1,
                                      max_size_of_grounded_extension=1), sub)
        if not af.attacks:
            continue  # the corrupted roster needs a conflict to lie about
        (instances_dir / f"mix_{written:03d}.apx").write_text(write_apx(af))
        written += 1

    roster = tmp_path / "roster.json"
    roster.write_text(json.dumps([
        {"id": "afkit-optimized", "command": [sys.executable, "-m", "afkit"]},
        {"id": "afkit-oracle", "command": [sys.executable, "-m", "afkit", "oracle"]},
    ]))
    log = tmp_path / "jobs.jsonl"
    from afkit.cli import main as cli_main
    code = cli_main(["run", "--roster", str(roster),
                     "--instances", str(instances_dir),
                     "--out", str(log), "--jobs", "8", "--timeout", "120"])
    assert code == 0
    records = list(read_records(log))
    per_solver = collections.Counter(r.solver for r in records)
    assert set(per_solver) == {"afkit-optimized", "afkit-oracle"}
    # 50 instances x (13 query-free tasks + 12 decision tasks x n queries).
    assert all(count >= 50 * 25 for count in per_solver.values())
    bad = [r for r in records if r.verdict != "correct"]
    assert not bad, bad[:3]
    assert all(r.points == 1 for r in records)
    assert not any(r.points == -5 for r in records)

    corrupted = tmp_path / "corrupted_roster.json"
    corrupted.write_text(json.dumps([
        {"id": "corrupted", "command": [sys.executable,
                                        _write_corrupted_wrapper(tmp_path)]},
    ]))
    bad_log = tmp_path / "bad_jobs.jsonl"
    code = cli_main(["run", "--roster", str(corrupted),
                     "--instances", str(instances_dir),
                     "--tasks", "SE-PR", "EE-PR", "DC-PR", "D3",
                     "--out", str(bad_log), "--jobs", "8", "--timeout", "120"])
    assert code == 0
    bad_records = list(read_records(bad_log))
    assert bad_records
    assert all(r.verdict == "incorrect" and r.points == -5
               for r in bad_records), \
        [r for r in bad_records if r.verdict != "incorrect"][:3]
    elapsed = time.perf_counter() - start
    assert elapsed < 900, f"end-to-end run took {elapsed:.0f}s"
    _report(8, f"harness end-to-end ({len(records)} judged jobs, "
               f"{elapsed:.0f}s)")


def test_criterion_9_ideal_argument_branch_rates(example1):
    # Framework with a non-empty preferred-intersection-minus-grounded pool:
    # the example framework, where that pool is exactly {h}.
    rng = SeededRng(90210)
    draws = 10000
    prefs = oracle.oracle_enumerate(Semantics.PR, example1)
    hits = sum(select_ideal_argument(example1, prefs, rng) == "h"
               for _ in range(draws))
    rate = hits / draws
    assert abs(rate - 0.9) <= 0.01, rate

    # Framework where only the grounded pool is non-empty.
    af = ArgumentationFramework(["g", "b", "c"], [("b", "c"), ("c", "b")])
    rng = SeededRng(31337)
    prefs = oracle.oracle_enumerate(Semantics.PR, af)
    hits = sum(select_ideal_argument(af, prefs, rng) == "g"
               for _ in range(draws))
    rate = hits / draws
    assert abs(rate - 0.6) <= 0.015, rate
    _report(9, "ideal query-argument branch rates")
