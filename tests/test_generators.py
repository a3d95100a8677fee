import hashlib
import math

import networkx as nx
import pytest

from afkit.core import grounded_extension
from afkit.errors import FormatError, InvalidConfigError
from afkit.formats import write_apx
from afkit.generators import (ADMBUSTER_SIZES, SEMBUSTER_SIZES, AdmBuster,
                              BarabasiAlbert, ErdosRenyi, GroundedGen, SccGen,
                              SemBuster, StableGen, Traffic, WattsStrogatz,
                              gen_admbuster, gen_barabasi, gen_erdos,
                              gen_grounded, gen_scc, gen_sembuster,
                              gen_stable, gen_watts, generate,
                              parse_batch_file, parse_batch_line,
                              preset_configs, traffic_to_af)
from afkit.oracle import oracle_enumerate
from afkit.rng import SeededRng
from afkit.tasks import Semantics

from conftest import as_tuples


def scc_count(af):
    g = nx.DiGraph()
    g.add_nodes_from(af.args)
    g.add_edges_from(af.attacks)
    return nx.number_strongly_connected_components(g)


class TestGroundedGen:
    def test_full_probability_gives_complete_dag(self):
        af = gen_grounded(GroundedGen(n=5, prob_attacks=1.0), SeededRng(1))
        assert len(af.attacks) == 10
        assert grounded_extension(af)

    def test_single_argument(self):
        af = gen_grounded(GroundedGen(n=1, prob_attacks=0.5), SeededRng(1))
        assert af.args == ("a1",) and not af.attacks

    def test_no_isolated_arguments_remain(self):
        for seed in range(30):
            af = gen_grounded(GroundedGen(n=12, prob_attacks=0.05), SeededRng(seed))
            touched = {a for pair in af.attacks for a in pair}
            assert touched == set(af.args)

    def test_zero_probability_still_connects(self):
        af = gen_grounded(GroundedGen(n=4, prob_attacks=0.0), SeededRng(3))
        touched = {a for pair in af.attacks for a in pair}
        assert touched == set(af.args)


class TestSccGen:
    def test_inner_only_never_crosses(self):
        af = gen_scc(SccGen(n=10, n_sccs=2, inner_attack_prob=1.0,
                            outer_attack_prob=0.0), SeededRng(2))
        comp = {a: (0 if i < 5 else 1) for i, a in enumerate(af.args)}
        assert all(comp[s] == comp[t] for s, t in af.attacks)

    def test_singleton_components_stay_isolated(self):
        af = gen_scc(SccGen(n=4, n_sccs=4, inner_attack_prob=0.9,
                            outer_attack_prob=0.0), SeededRng(5))
        assert not af.attacks  # no self-attacks, no pairs inside size-1 comps

    def test_no_backward_attacks_across_seeds(self):
        for seed in range(40):
            af = gen_scc(SccGen(n=11, n_sccs=3, inner_attack_prob=0.5,
                                outer_attack_prob=0.3), SeededRng(seed))
            sizes = [4, 4, 3]
            rank = {}
            pos = 0
            for c, size in enumerate(sizes):
                for a in af.args[pos:pos + size]:
                    rank[a] = c
                pos += size
            assert all(rank[s] <= rank[t] for s, t in af.attacks)

    def test_component_sizes_differ_by_at_most_one(self):
        af = gen_scc(SccGen(n=11, n_sccs=3, inner_attack_prob=1.0,
                            outer_attack_prob=0.0), SeededRng(1))
        comps = list(nx.strongly_connected_components(
            nx.DiGraph(list(af.attacks))))
        sizes = sorted(len(c) for c in comps)
        assert sizes == [3, 4, 4]

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            SccGen(n=3, n_sccs=4, inner_attack_prob=0.5,
                   outer_attack_prob=0.5)


class TestStableGen:
    CFG = StableGen(n=15, min_num_extensions=2, max_num_extensions=3,
                    min_size_of_extensions=3, max_size_of_extensions=5,
                    min_size_of_grounded_extension=1,
                    max_size_of_grounded_extension=2)

    def test_generates_stable_extensions(self):
        for seed in range(8):
            af = gen_stable(self.CFG, SeededRng(seed))
            assert len(af.args) == 15
            assert oracle_enumerate(Semantics.ST, af), f"seed {seed}"

    def test_degenerate_single_full_extension_is_attack_free(self):
        cfg = StableGen(n=6, min_num_extensions=1, max_num_extensions=1,
                        min_size_of_extensions=6, max_size_of_extensions=6,
                        min_size_of_grounded_extension=0,
                        max_size_of_grounded_extension=0)
        af = gen_stable(cfg, SeededRng(0))
        assert not af.attacks
        assert as_tuples(oracle_enumerate(Semantics.ST, af)) == \
            [tuple(sorted(af.args))]

    def test_bounds_are_soft_but_grounded_hits_target(self):
        af = gen_stable(self.CFG, SeededRng(1))
        g = grounded_extension(af)
        assert 1 <= len(g) <= 3  # chain target plus possible pool leakage

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            StableGen(n=5, min_num_extensions=3, max_num_extensions=2,
                      min_size_of_extensions=1, max_size_of_extensions=1,
                      min_size_of_grounded_extension=0,
                      max_size_of_grounded_extension=0)


class TestErdosRenyi:
    def test_zero_probability(self):
        assert not gen_erdos(ErdosRenyi(n=6, prob_attacks=0.0), SeededRng(1)).attacks

    def test_full_probability_one_attack_per_pair(self):
        af = gen_erdos(ErdosRenyi(n=4, prob_attacks=1.0), SeededRng(1))
        assert len(af.attacks) == 6
        und = {frozenset(p) for p in af.attacks}
        assert len(und) == 6

    def test_expected_attack_count(self):
        n, p, trials = 12, 0.4, 100
        pairs = n * (n - 1) / 2
        counts = [len(gen_erdos(ErdosRenyi(n=n, prob_attacks=p), SeededRng(s)).attacks)
                  for s in range(trials)]
        mean = sum(counts) / trials
        sigma = math.sqrt(pairs * p * (1 - p) / trials)
        assert abs(mean - pairs * p) <= 3 * sigma


class TestWattsStrogatz:
    def test_pure_ring_lattice(self):
        af = gen_watts(WattsStrogatz(n=6, k=2, beta=0.0, prob_cycles=0.0),
                       SeededRng(4))
        und = {frozenset((s, t)) for s, t in af.attacks}
        ring = {frozenset((f"a{i+1}", f"a{(i % 6)+2 if i<5 else 1}"))
                for i in range(6)}
        assert und == ring

    def test_prob_cycles_one_means_strongly_connected(self):
        af = gen_watts(WattsStrogatz(n=8, k=2, beta=0.2, prob_cycles=1.0),
                       SeededRng(4))
        assert scc_count(af) == 1

    def test_scc_bound_over_seeds(self):
        n, pc = 20, 0.7
        for seed in range(25):
            af = gen_watts(WattsStrogatz(n=n, k=4, beta=0.3, prob_cycles=pc),
                           SeededRng(seed))
            assert scc_count(af) <= max(1, math.ceil(n * (1 - pc)))

    def test_odd_k_rejected(self):
        with pytest.raises(InvalidConfigError):
            WattsStrogatz(n=10, k=3, beta=0.1, prob_cycles=0.1)


class TestBarabasiAlbert:
    def test_single_argument(self):
        af = gen_barabasi(BarabasiAlbert(n=1, prob_cycles=0.5), SeededRng(1))
        assert af.args == ("a1",) and not af.attacks

    def test_scc_bound(self):
        af = gen_barabasi(BarabasiAlbert(n=20, prob_cycles=0.9), SeededRng(6))
        assert scc_count(af) <= 2

    def test_scc_bound_over_seeds(self):
        n, pc = 18, 0.5
        for seed in range(25):
            af = gen_barabasi(BarabasiAlbert(n=n, prob_cycles=pc), SeededRng(seed))
            assert scc_count(af) <= max(1, math.ceil(n * (1 - pc)))

    def test_growth_connects_every_argument(self):
        af = gen_barabasi(BarabasiAlbert(n=15, prob_cycles=0.0), SeededRng(2))
        touched = {a for pair in af.attacks for a in pair}
        assert touched == set(af.args)


class TestAdmBuster:
    @pytest.mark.parametrize("n", range(4, 15))
    def test_single_complete_extension(self, n):
        af = gen_admbuster(n)
        assert len(af.args) == n
        assert len(oracle_enumerate(Semantics.CO, af)) == 1

    def test_block_shape(self):
        af = gen_admbuster(8)
        assert "s" in af.args and "t" in af.args
        assert not af.attackers_of("s") and not af.targets_of("t")
        inter = [a for a in af.args if a not in ("s", "t")]
        assert len(inter) == 6

    def test_grounded_needs_long_derivation(self):
        af = gen_admbuster(12)
        g = grounded_extension(af)
        assert "s" in g and "t" in g
        assert len(oracle_enumerate(Semantics.PR, af)) == 1

    def test_minimum_size(self):
        with pytest.raises(InvalidConfigError):
            gen_admbuster(3)


class TestSemBuster:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_published_invariants(self, n):
        af = gen_sembuster(n)
        assert len(af.args) == 3 * n
        co = oracle_enumerate(Semantics.CO, af)
        pr = oracle_enumerate(Semantics.PR, af)
        sst = oracle_enumerate(Semantics.SST, af)
        # n+1 complete extensions are preferred (the grounded one is the
        # inevitable extra complete); exactly one is semi-stable.
        assert len(pr) == n + 1
        assert all(p in co for p in pr)
        assert len(co) == n + 2
        assert len(sst) == 1

    def test_three_equal_blocks(self):
        af = gen_sembuster(3)
        for prefix in ("x", "y", "z"):
            assert sum(1 for a in af.args if a.startswith(prefix)) == 3

    def test_minimum_size(self):
        with pytest.raises(InvalidConfigError):
            gen_sembuster(0)


class TestTraffic:
    def test_fully_symmetric(self):
        af = traffic_to_af(["u", "v"], [("u", "v")], 1.0, SeededRng(1))
        assert af.attacks == frozenset({("u", "v"), ("v", "u")})

    def test_fully_asymmetric_single_edge(self):
        af = traffic_to_af(["u", "v"], [("u", "v")], 0.0, SeededRng(1))
        assert len(af.attacks) == 1
        assert af.attacks <= {("u", "v"), ("v", "u")}

    def test_cycle_graph_coverage(self):
        nodes = ["n1", "n2", "n3", "n4"]
        edges = [("n1", "n2"), ("n2", "n3"), ("n3", "n4"), ("n4", "n1")]
        af = traffic_to_af(nodes, edges, 0.5, SeededRng(9))
        assert 4 <= len(af.attacks) <= 8
        covered = {frozenset(p) for p in af.attacks}
        assert covered == {frozenset(e) for e in edges}

    def test_unknown_node(self):
        with pytest.raises(FormatError):
            traffic_to_af(["u"], [("u", "w")], 0.5, SeededRng(1))


class TestDeterminism:
    CONFIGS = [
        GroundedGen(18, 0.1), SccGen(14, 3, 0.5, 0.1), ErdosRenyi(16, 0.3),
        WattsStrogatz(12, 4, 0.3, 0.5), BarabasiAlbert(14, 0.5),
        StableGen(15, 2, 3, 3, 5, 1, 2), AdmBuster(9), SemBuster(3),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: type(c).__name__)
    def test_same_seed_same_bytes(self, cfg):
        a = write_apx(generate(cfg, SeededRng(99)))
        b = write_apx(generate(cfg, SeededRng(99)))
        assert a == b

    def test_different_seed_usually_differs(self):
        cfg = ErdosRenyi(16, 0.3)
        assert write_apx(generate(cfg, SeededRng(1))) != \
            write_apx(generate(cfg, SeededRng(2)))


class TestCycleEnrichmentPins:
    # SHA-256 of the APX text, recorded when the SCC count came from
    # networkx.  Each config makes cycle enrichment add 100-430 attacks, so
    # any change to the draw order, the loop or its stop test shows here.
    PINS = [
        (WattsStrogatz(n=200, k=2, beta=0.1, prob_cycles=0.9), 1,
         "8fcdc28e8b8b2704b9eeeec6352cecf87a1f7e87237edbfd77c277b8ec65a6d8"),
        (WattsStrogatz(n=120, k=4, beta=0.3, prob_cycles=0.95), 2,
         "6ad1a01d8c75a71349f9863b6de054af019dce20cb0e4465f8fd3bc7caa8a3a4"),
        (WattsStrogatz(n=60, k=2, beta=0.0, prob_cycles=1.0), 3,
         "a64cfe6e92cf49ba2e626d09fe5e4a0a9d8e02f11375bff8460bac2c8a435c4e"),
        (BarabasiAlbert(n=200, prob_cycles=0.9), 4,
         "3c137372b3b838cb36ad7745fb73239ec40dc2e6b1366a9e051f29b015c556a6"),
        (BarabasiAlbert(n=150, prob_cycles=0.8), 5,
         "1dea62b4f64958f245c0f7c65a022b0f4693f1e9dc2783072dbd889e3790742d"),
        (BarabasiAlbert(n=50, prob_cycles=1.0), 6,
         "e5e761ebaceeb45ce158b207d62abf3563ec3ffbe0f315b4d6f640a6833763e3"),
        # Heavy rewiring: most lattice edges move, many vertices take
        # several new neighbours before their own edges come up.
        (WattsStrogatz(n=300, k=8, beta=0.9, prob_cycles=0.1), 7,
         "dca80e8b1ae84ef8a6eab1f93a13d7980d18b7f58837e10a37eada70b8a18f35"),
        (WattsStrogatz(n=500, k=36, beta=0.5, prob_cycles=0.3), 8,
         "f56a1d5571de8faa0a7e04ed26eaca9a6b98b73719b7673f704485ac4764f336"),
    ]

    @pytest.mark.parametrize("cfg,seed,digest", PINS,
                             ids=[f"{type(c).__name__}-n{c.n}-seed{s}"
                                  for c, s, _ in PINS])
    def test_bytes_match_pin(self, cfg, seed, digest):
        text = write_apx(generate(cfg, SeededRng(seed)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestAllPairsDrawPins:
    # SHA-256 of the APX text, recorded when every pair drew its own coin.
    # The grounded and SCC generators draw one coin per argument pair, so
    # any change to the pair order or to the draws shows here.
    PINS = [
        (GroundedGen(n=1500, prob_attacks=0.05), 3,
         "896949f506a5ec5e0e52cbb1326fb5a18c5a9b9f9ee82a83935cf039651faec9"),
        (SccGen(n=2000, n_sccs=40, inner_attack_prob=0.5,
                outer_attack_prob=0.1), 3,
         "4b3781cfa88a1042969ac4a9718a1259d1e71902ec90a0fee6dcb78f88546217"),
        # One component: only the inner loop draws.
        (SccGen(n=300, n_sccs=1, inner_attack_prob=0.3,
                outer_attack_prob=0.1), 3,
         "25c95801a42a6387c2719b920de8ed56ac33111a1a99c15eda98de37ba602883"),
    ]

    @pytest.mark.parametrize("cfg,seed,digest", PINS,
                             ids=[f"{type(c).__name__}-n{c.n}-seed{s}"
                                  for c, s, _ in PINS])
    def test_bytes_match_pin(self, cfg, seed, digest):
        text = write_apx(generate(cfg, SeededRng(seed)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestBatchAndPresets:
    def test_parse_batch_line(self):
        cfg, count, graph = parse_batch_line("erdos n=10 prob_attacks=0.5 count=3")
        assert cfg == ErdosRenyi(n=10, prob_attacks=0.5) and count == 3

    def test_parse_batch_line_rejects_invalid_values(self):
        with pytest.raises(InvalidConfigError, match="prob_attacks"):
            parse_batch_line("erdos n=10 prob_attacks=1.5")

    def test_parse_batch_file_reports_line(self):
        with pytest.raises(InvalidConfigError) as err:
            parse_batch_file("erdos n=10 prob_attacks=0.5\nbogus n=1\n")
        assert "line 2" in str(err.value)

    def test_traffic_batch_carries_graph(self):
        cfg, count, graph = parse_batch_line("traffic p_symmetric=0.2 graph=g.tgf")
        assert isinstance(cfg, Traffic) and graph == "g.tgf"

    def test_preset_cardinalities(self):
        expected = {"grounded": 50, "scc": 600, "stable": 500, "erdos": 500,
                    "watts": 400, "barabasi": 500,
                    "admbuster": len(ADMBUSTER_SIZES),
                    "sembuster": len(SEMBUSTER_SIZES)}
        rng = SeededRng(0)
        for domain, count in expected.items():
            cfgs = preset_configs(domain, rng)
            assert len(cfgs) == count, domain

    def test_stable_preset_uses_published_bounds(self):
        cfg = preset_configs("stable", SeededRng(0))[0]
        assert (cfg.min_num_extensions, cfg.max_num_extensions) == (5, 30)
        assert (cfg.min_size_of_extensions, cfg.max_size_of_extensions) == (5, 40)
        assert 100 <= cfg.n <= 800

    def test_grounded_preset_ranges(self):
        for cfg in preset_configs("grounded", SeededRng(0)):
            assert 100 <= cfg.n <= 1500
            assert cfg.prob_attacks in (0.01, 0.02, 0.03, 0.04, 0.05)


def test_watts_preset_neighbour_counts_are_even_and_legal():
    for cfg in preset_configs("watts", SeededRng(0)):
        assert cfg.k % 2 == 0 and 0 < cfg.k < cfg.n
        cfg.validate()
