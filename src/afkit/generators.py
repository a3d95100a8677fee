"""Benchmark instance generators.

Nine families: three ICCMA'15-style generators (grounded-heavy, SCC-layered,
stable-rich), the three AFBenchGen2 random graph classes (Erdos-Renyi,
Watts-Strogatz, Barabasi-Albert), the two crafted families (AdmBuster,
SemBuster), and the traffic-graph transformer.  Every generator is a pure
function of (config, seed): identical inputs reproduce identical frameworks
byte-for-byte.  Random draws come from labelled sub-streams of the caller's
SeededRng, one per generation phase.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import (accumulate, chain, combinations, compress,
                       permutations, product)
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import ArgumentationFramework, strongly_connected_components
from .errors import FormatError, InvalidConfigError
from .rng import SeededRng


# ---------------------------------------------------------------------------
# Configs

def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise InvalidConfigError(f"{name} must be in [0,1], got {p}")


class GeneratorConfig:
    """Base of the nine generator configs: each checks its fields with
    ``validate`` when it is constructed, so an invalid config never exists."""

    def __post_init__(self) -> None:
        self.validate()


@dataclass(frozen=True)
class GroundedGen(GeneratorConfig):
    n: int
    prob_attacks: float

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidConfigError("n must be positive")
        _check_prob("prob_attacks", self.prob_attacks)


@dataclass(frozen=True)
class SccGen(GeneratorConfig):
    n: int
    n_sccs: int
    inner_attack_prob: float
    outer_attack_prob: float

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidConfigError("n must be positive")
        if not 1 <= self.n_sccs <= self.n:
            raise InvalidConfigError("n_sccs must be in [1, n]")
        _check_prob("inner_attack_prob", self.inner_attack_prob)
        _check_prob("outer_attack_prob", self.outer_attack_prob)


@dataclass(frozen=True)
class StableGen(GeneratorConfig):
    n: int
    min_num_extensions: int
    max_num_extensions: int
    min_size_of_extensions: int
    max_size_of_extensions: int
    min_size_of_grounded_extension: int
    max_size_of_grounded_extension: int

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidConfigError("n must be positive")
        if self.min_num_extensions < 1:
            raise InvalidConfigError("min_num_extensions must be positive")
        if self.min_size_of_extensions < 1:
            raise InvalidConfigError("min_size_of_extensions must be positive")
        if self.min_size_of_grounded_extension < 0:
            raise InvalidConfigError("min_size_of_grounded_extension must be >= 0")
        for lo, hi, what in ((self.min_num_extensions, self.max_num_extensions, "num_extensions"),
                             (self.min_size_of_extensions, self.max_size_of_extensions, "size_of_extensions"),
                             (self.min_size_of_grounded_extension, self.max_size_of_grounded_extension,
                              "size_of_grounded_extension")):
            if lo > hi:
                raise InvalidConfigError(f"min_{what} exceeds max_{what}")


@dataclass(frozen=True)
class ErdosRenyi(GeneratorConfig):
    n: int
    prob_attacks: float

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidConfigError("n must be positive")
        _check_prob("prob_attacks", self.prob_attacks)


@dataclass(frozen=True)
class WattsStrogatz(GeneratorConfig):
    n: int
    k: int
    beta: float
    prob_cycles: float

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidConfigError("n must be positive")
        if self.k % 2 != 0 or self.k < 0 or self.k >= self.n:
            raise InvalidConfigError("k must be even and < n")
        _check_prob("beta", self.beta)
        _check_prob("prob_cycles", self.prob_cycles)


@dataclass(frozen=True)
class BarabasiAlbert(GeneratorConfig):
    n: int
    prob_cycles: float

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidConfigError("n must be positive")
        _check_prob("prob_cycles", self.prob_cycles)


@dataclass(frozen=True)
class AdmBuster(GeneratorConfig):
    n: int

    def validate(self) -> None:
        if self.n < 4:
            raise InvalidConfigError("AdmBuster needs n >= 4")


@dataclass(frozen=True)
class SemBuster(GeneratorConfig):
    n: int

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidConfigError("SemBuster needs n >= 1")


@dataclass(frozen=True)
class Traffic(GeneratorConfig):
    p_symmetric: float

    def validate(self) -> None:
        _check_prob("p_symmetric", self.p_symmetric)


CONFIG_KINDS: Dict[str, type] = {
    "grounded": GroundedGen,
    "scc": SccGen,
    "stable": StableGen,
    "erdos": ErdosRenyi,
    "watts": WattsStrogatz,
    "barabasi": BarabasiAlbert,
    "admbuster": AdmBuster,
    "sembuster": SemBuster,
    "traffic": Traffic,
}


def _names(n: int) -> List[str]:
    return [f"a{i}" for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# ICCMA'15-style generators

def gen_grounded(cfg: GroundedGen, rng: SeededRng) -> ArgumentationFramework:
    """Linearly ordered arguments with forward attacks, isolated ones then
    connected to the built component by one random attack each.

    The forward attacks take one coin per pair i < j, drawn in the order of
    the pairs (``combinations``)."""
    names = _names(cfg.n)
    edges = rng.split("order-attacks")
    draws = edges.coins(cfg.prob_attacks, cfg.n * (cfg.n - 1) // 2)
    attacks = set(compress(combinations(names, 2), draws))
    touched = {a for pair in attacks for a in pair}
    connect = rng.split("connect-isolated")
    component = [a for a in names if a in touched]
    for x in names:
        if x in touched:
            continue
        if component:
            other = connect.choice(component)
        else:
            others = [a for a in names if a != x]
            if not others:
                break  # single argument, nothing to connect to
            other = connect.choice(others)
            component.append(other)
        if connect.coin(0.5):
            attacks.add((x, other))
        else:
            attacks.add((other, x))
        component.append(x)
    return ArgumentationFramework(names, attacks)


def gen_scc(cfg: SccGen, rng: SeededRng) -> ArgumentationFramework:
    """Linearly ordered components of near-equal size; dense attacks inside
    each component, sparse attacks only from lower- to higher-ranked ones.

    Each ordered pair takes one coin, drawn in the order of the pairs: a
    component's ``permutations`` on the inner stream, then each lower/higher
    component pair's ``product`` on the outer one."""
    names = _names(cfg.n)
    base, extra = divmod(cfg.n, cfg.n_sccs)
    comps: List[List[str]] = []
    pos = 0
    for c in range(cfg.n_sccs):
        size = base + (1 if c < extra else 0)
        comps.append(names[pos:pos + size])
        pos += size
    # With s_c the size of component c: sum(s_c^2) - n ordered pairs inside
    # components, (n^2 - sum(s_c^2)) / 2 from a lower to a higher one.
    squares = sum(len(comp) ** 2 for comp in comps)
    inner = chain.from_iterable(permutations(comp, 2) for comp in comps)
    draws = rng.split("inner").coins(cfg.inner_attack_prob, squares - cfg.n)
    attacks = set(compress(inner, draws))
    outer = chain.from_iterable(product(lo, hi)
                                for lo, hi in combinations(comps, 2))
    draws = rng.split("outer").coins(cfg.outer_attack_prob,
                                     (cfg.n ** 2 - squares) // 2)
    attacks.update(compress(outer, draws))
    return ArgumentationFramework(names, attacks)


def _grounded_chain(names: Sequence[str]) -> Set[Tuple[str, str]]:
    """Acyclic attack chain whose grounded extension is every other element."""
    return {(names[i], names[i + 1]) for i in range(len(names) - 1)}


def gen_stable(cfg: StableGen, rng: SeededRng) -> ArgumentationFramework:
    """Acyclic seed holding the grounded extension, plus argument subsets made
    stable by attacking everything outside them.

    The six min/max bounds are heuristic targets: draws that cannot be wired
    conflict-free are rejected and retried, and after a retry cap the
    generator degrades to a single guaranteed stable extension.
    """
    names = _names(cfg.n)
    for attempt in range(12):
        af = _try_stable(cfg, names, rng.split(f"attempt-{attempt}"))
        if af is not None:
            return af
    return _stable_single(cfg, names, rng.split("fallback"))


def _stable_layout(cfg: StableGen, names: Sequence[str], r: SeededRng):
    g_cap = (len(names) + 1) // 2
    g_target = min(r.randint(cfg.min_size_of_grounded_extension,
                             cfg.max_size_of_grounded_extension), g_cap)
    chain_len = 2 * g_target - 1 if g_target > 0 else 0
    return _grounded_chain(names[:chain_len]), list(names[chain_len:])


def _try_stable(cfg: StableGen, names: Sequence[str],
                r: SeededRng) -> Optional[ArgumentationFramework]:
    attacks, pool = _stable_layout(cfg, names, r)
    if not pool:
        return ArgumentationFramework(names, attacks)
    num_ext = r.randint(cfg.min_num_extensions, cfg.max_num_extensions)
    subsets: List[Set[str]] = []
    for _ in range(num_ext):
        size = min(max(r.randint(cfg.min_size_of_extensions,
                                 cfg.max_size_of_extensions), 1), len(pool))
        subsets.append(set(r.sample(pool, size)))
    if len(subsets) > 1:
        # An argument inside every subset would end up unattacked and leak
        # into the grounded extension; evict it from one subset.
        for x in set.intersection(*subsets):
            candidates = [s for s in subsets if len(s) > 1]
            if candidates:
                r.choice(candidates).discard(x)
    member_of: Dict[str, Set[int]] = {x: set() for x in pool}
    for j, s in enumerate(subsets):
        for x in s:
            member_of[x].add(j)
    attackers_of: Dict[str, Set[str]] = {x: set() for x in pool}
    for j, s in enumerate(subsets):
        ordered = sorted(s)
        for x in pool:
            if x in s:
                continue
            if any(u in s for u in attackers_of[x]):
                continue  # already covered by this subset
            choices = [u for u in ordered if member_of[u].isdisjoint(member_of[x])]
            if not choices:
                return None  # draw cannot be wired conflict-free
            u = r.choice(choices)
            attacks.add((u, x))
            attackers_of[x].add(u)
    return ArgumentationFramework(names, attacks)


def _stable_single(cfg: StableGen, names: Sequence[str],
                   r: SeededRng) -> ArgumentationFramework:
    attacks, pool = _stable_layout(cfg, names, r)
    if pool:
        size = min(max(cfg.min_size_of_extensions, 1), len(pool))
        subset = sorted(r.sample(pool, size))
        for x in pool:
            if x not in subset:
                attacks.add((r.choice(subset), x))
    return ArgumentationFramework(names, attacks)


# ---------------------------------------------------------------------------
# AFBenchGen2 graph classes

def gen_erdos(cfg: ErdosRenyi, rng: SeededRng) -> ArgumentationFramework:
    """One attack per unordered argument pair with probability
    ``prob_attacks``; the direction is a fair coin."""
    names = _names(cfg.n)
    r = rng.split("pairs")
    attacks: Set[Tuple[str, str]] = set()
    for i in range(cfg.n):
        for j in range(i + 1, cfg.n):
            if r.coin(cfg.prob_attacks):
                if r.coin(0.5):
                    attacks.add((names[i], names[j]))
                else:
                    attacks.add((names[j], names[i]))
    return ArgumentationFramework(names, attacks)


def _add_cycles(n: int, attacks: Set[Tuple[int, int]], prob_cycles: float,
                r: SeededRng) -> None:
    """Add random attacks while the SCC count exceeds n * (1 - prob_cycles).

    The count only decreases as attacks are added, and a strongly connected
    graph (one SCC) ends the loop regardless of the bound.  An attack inside
    one component leaves the components as they are, so the count is taken
    again only after an attack between two of them.
    """
    if n <= 1:
        return
    bound = n * (1.0 - prob_cycles)
    succ: List[List[int]] = [[] for _ in range(n)]
    for u, v in attacks:
        succ[u].append(v)
    component = [0] * n  # each argument's component at the last count
    while True:
        components = strongly_connected_components(succ)
        if len(components) <= bound or len(components) <= 1:
            return
        for c, members in enumerate(components):
            for x in members:
                component[x] = c
        while True:
            u = r.randbelow(n)
            v = r.randbelow(n - 1)
            if v >= u:
                v += 1
            if (u, v) not in attacks:
                attacks.add((u, v))
                succ[u].append(v)
                if component[u] != component[v]:
                    break


def gen_watts(cfg: WattsStrogatz, rng: SeededRng) -> ArgumentationFramework:
    """Ring lattice with k nearest neighbours, beta-rewiring, random attack
    direction per edge, then cycle enrichment down to the SCC bound."""
    n = cfg.n
    names = _names(n)
    nbrs: List[Set[int]] = [set() for _ in range(n)]
    for d in range(1, cfg.k // 2 + 1):
        for i in range(n):
            j = (i + d) % n
            if i != j:
                nbrs[i].add(j)
                nbrs[j].add(i)
    rewire = rng.split("rewire")
    for d in range(1, cfg.k // 2 + 1):
        for i in range(n):
            j = (i + d) % n
            if j not in nbrs[i] or not rewire.coin(cfg.beta):
                continue
            free = n - 1 - len(nbrs[i])
            if not free:
                continue
            # The w-th vertex, ascending, that is neither i nor a neighbour.
            w = rewire.randbelow(free)
            for u in sorted(nbrs[i] | {i}):
                if u > w:
                    break
                w += 1
            nbrs[i].discard(j)
            nbrs[j].discard(i)
            nbrs[i].add(w)
            nbrs[w].add(i)
    orient = rng.split("orient")
    attacks: Set[Tuple[int, int]] = set()
    for u in range(n):
        for v in sorted(w for w in nbrs[u] if w > u):
            attacks.add((u, v) if orient.coin(0.5) else (v, u))
    _add_cycles(n, attacks, cfg.prob_cycles, rng.split("cycles"))
    return ArgumentationFramework(names, ((names[u], names[v]) for u, v in attacks))


BARABASI_ATTACHMENTS = 2  # undirected links added per newly grown argument


def gen_barabasi(cfg: BarabasiAlbert, rng: SeededRng) -> ArgumentationFramework:
    """Preferential-attachment growth (attachment odds proportional to degree,
    plus one to let isolated seeds compete), random attack direction, then
    cycle enrichment down to the SCC bound."""
    n = cfg.n
    names = _names(n)
    grow = rng.split("grow")
    odds = [1] * n  # degree + 1
    edges: Set[Tuple[int, int]] = set()
    for v in range(1, n):
        wanted = min(BARABASI_ATTACHMENTS, v)
        cumulative = list(accumulate(odds[:v]))
        chosen: Set[int] = set()
        while len(chosen) < wanted:
            pick = grow.randbelow(cumulative[-1])
            chosen.add(bisect_right(cumulative, pick))
        for u in chosen:
            edges.add((u, v))
            odds[u] += 1
            odds[v] += 1
    orient = rng.split("orient")
    attacks: Set[Tuple[int, int]] = set()
    for u, v in sorted(edges):
        attacks.add((u, v) if orient.coin(0.5) else (v, u))
    _add_cycles(n, attacks, cfg.prob_cycles, rng.split("cycles"))
    return ArgumentationFramework(names, ((names[u], names[v]) for u, v in attacks))


# ---------------------------------------------------------------------------
# Crafted families

def gen_admbuster(n: int) -> ArgumentationFramework:
    """Deterministic four-block chain with exactly one complete extension.

    A starting argument ``s`` (outgoing edges only) heads an alternating
    chain of "blocker" and "accepted" arguments; every blocker also attacks
    the terminal argument ``t`` (incoming edges only).  The graph is acyclic,
    so the grounded extension is the only complete one, and computing it
    needs a defense chain about n/2 steps deep.
    """
    AdmBuster(n)
    chain = []
    for p in range(1, n - 1):
        block, idx = ("b", (p + 1) // 2) if p % 2 else ("a", p // 2)
        chain.append(f"{block}{idx}")
    names = ["s", *chain, "t"]
    attacks = [("s", chain[0])]
    attacks += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    attacks += [(c, "t") for c in chain if c.startswith("b")]
    return ArgumentationFramework(names, attacks)


def gen_sembuster(n: int) -> ArgumentationFramework:
    """Deterministic three-block family stressing semi-stable reasoning.

    Blocks x, y, z of n arguments each.  Every x attacks every y and vice
    versa, the y block is a mutual clique, each z attacks only itself, and
    y_i attacks z_1..z_i.  The n+1 preferred extensions (the whole x block,
    plus each singleton {y_k}) are also complete, their ranges grow strictly
    with k, and only {y_n} is semi-stable.
    """
    SemBuster(n)
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{i}" for i in range(1, n + 1)]
    zs = [f"z{i}" for i in range(1, n + 1)]
    attacks: List[Tuple[str, str]] = []
    for x in xs:
        for y in ys:
            attacks.append((x, y))
            attacks.append((y, x))
    for yi in ys:
        for yj in ys:
            if yi != yj:
                attacks.append((yi, yj))
    for z in zs:
        attacks.append((z, z))
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            attacks.append((ys[i - 1], zs[j - 1]))
    return ArgumentationFramework(xs + ys + zs, attacks)


def traffic_to_af(nodes: Sequence[str], edges: Sequence[Tuple[str, str]],
                  p_symmetric: float, rng: SeededRng) -> ArgumentationFramework:
    """Same vertex set; each input edge becomes a mutual attack pair with
    probability ``p_symmetric``, otherwise one uniformly directed attack."""
    Traffic(p_symmetric)
    known = set(nodes)
    r = rng.split("edges")
    attacks: Set[Tuple[str, str]] = set()
    for u, v in edges:
        if u not in known or v not in known:
            raise FormatError(f"edge ({u},{v}) mentions an unknown node")
        if r.coin(p_symmetric):
            attacks.add((u, v))
            attacks.add((v, u))
        elif r.coin(0.5):
            attacks.add((u, v))
        else:
            attacks.add((v, u))
    return ArgumentationFramework(nodes, attacks)


# ---------------------------------------------------------------------------
# Dispatch, batch files, and published parameterisations

def generate(cfg: GeneratorConfig, rng: SeededRng,
             traffic_graph: Optional[Tuple[Sequence[str], Sequence[Tuple[str, str]]]] = None
             ) -> ArgumentationFramework:
    if isinstance(cfg, GroundedGen):
        return gen_grounded(cfg, rng)
    if isinstance(cfg, SccGen):
        return gen_scc(cfg, rng)
    if isinstance(cfg, StableGen):
        return gen_stable(cfg, rng)
    if isinstance(cfg, ErdosRenyi):
        return gen_erdos(cfg, rng)
    if isinstance(cfg, WattsStrogatz):
        return gen_watts(cfg, rng)
    if isinstance(cfg, BarabasiAlbert):
        return gen_barabasi(cfg, rng)
    if isinstance(cfg, AdmBuster):
        return gen_admbuster(cfg.n)
    if isinstance(cfg, SemBuster):
        return gen_sembuster(cfg.n)
    if isinstance(cfg, Traffic):
        if traffic_graph is None:
            raise InvalidConfigError("traffic generation needs an input graph")
        nodes, edges = traffic_graph
        return traffic_to_af(nodes, edges, cfg.p_symmetric, rng)
    raise InvalidConfigError(f"unknown generator config {cfg!r}")


def _number(kind: type, key: str, value: str):
    try:
        return kind(value)
    except ValueError:
        raise InvalidConfigError(
            f"{key} must be {'a number' if kind is float else 'an integer'}, "
            f"got {value!r}") from None


def parse_batch_line(line: str) -> Tuple[GeneratorConfig, int, Optional[str]]:
    """One batch line: ``<kind> key=value ...``.

    Special keys: ``count=N`` replicates the config N times (fresh streams),
    ``graph=PATH`` names a TGF input graph for traffic configs.
    Returns (config, count, graph path or None).
    """
    parts = line.split()
    if not parts:
        raise InvalidConfigError("empty generator line")
    kind = parts[0].lower()
    if kind not in CONFIG_KINDS:
        raise InvalidConfigError(f"unknown generator kind {kind!r}")
    cls = CONFIG_KINDS[kind]
    kwargs: Dict[str, object] = {}
    count = 1
    graph: Optional[str] = None
    for part in parts[1:]:
        if "=" not in part:
            raise InvalidConfigError(f"expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        if key == "count":
            count = _number(int, key, value)
            if count < 1:
                raise InvalidConfigError("count must be positive")
        elif key == "graph":
            graph = value
        else:
            field_types = {f: t for f, t in cls.__annotations__.items()}
            if key not in field_types:
                raise InvalidConfigError(f"{kind} has no parameter {key!r}")
            is_float = field_types[key] in (float, "float")
            kwargs[key] = _number(float if is_float else int, key, value)
    try:
        cfg = cls(**kwargs)
    except TypeError as exc:
        raise InvalidConfigError(f"{kind}: {exc}") from None
    return cfg, count, graph


def parse_batch_file(text: str) -> List[Tuple[GeneratorConfig, int, Optional[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse_batch_line(line))
        except InvalidConfigError as exc:
            raise InvalidConfigError(f"line {lineno}: {exc}") from None
    return out


ADMBUSTER_SIZES = (1000, 2000, 4000, 6000, 8000, 10000, 20000, 50000,
                   100000, 200000, 500000, 1000000, 2000000)
SEMBUSTER_SIZES = (60, 150, 300, 600, 900, 1200, 1500, 1800, 2400, 3000,
                   3600, 4200, 4800, 5400, 6000, 7500)


def _even(k: int) -> int:
    return max(2, 2 * round(k / 2))


def preset_configs(domain: str, rng: SeededRng) -> List[GeneratorConfig]:
    """Competition-style parameter sweeps for one generated domain.

    The crafted families use their published size lists; the random families
    reproduce the published grids, with range-valued parameters drawn from
    ``rng``.  Watts-Strogatz neighbour counts are rounded to the nearest even
    number (the lattice construction needs k even).
    """
    r = rng.split(f"preset-{domain}")
    out: List[GeneratorConfig] = []
    if domain == "grounded":
        for prob in (0.01, 0.02, 0.03, 0.04, 0.05):
            for _ in range(10):
                out.append(GroundedGen(n=r.randint(100, 1500), prob_attacks=prob))
    elif domain == "scc":
        grid = [(i / 10, o / 100) for i in range(3, 8) for o in (5, 10, 15, 20)]
        for inner, outer in grid:
            for _ in range(25):
                out.append(SccGen(n=r.randint(100, 1500), n_sccs=r.randint(1, 50),
                                  inner_attack_prob=inner, outer_attack_prob=outer))
        for inner, outer in grid:
            for _ in range(5):
                out.append(SccGen(n=r.randint(5000, 10000), n_sccs=r.randint(40, 50),
                                  inner_attack_prob=inner, outer_attack_prob=outer))
    elif domain == "stable":
        for _ in range(500):
            out.append(StableGen(n=r.randint(100, 800),
                                 min_num_extensions=5, max_num_extensions=30,
                                 min_size_of_extensions=5, max_size_of_extensions=40,
                                 min_size_of_grounded_extension=5,
                                 max_size_of_grounded_extension=40))
    elif domain == "erdos":
        for n in range(100, 501, 100):
            for p10 in range(1, 11):
                for _ in range(10):
                    out.append(ErdosRenyi(n=n, prob_attacks=p10 / 10))
    elif domain == "watts":
        for n in range(100, 501, 100):
            for mult in (1, 2, 3, 4):
                for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
                    for pc in (0.1, 0.3, 0.5, 0.7):
                        out.append(WattsStrogatz(n=n, k=_even(round(mult * math.log2(n))),
                                                 beta=beta, prob_cycles=pc))
    elif domain == "barabasi":
        for n in range(20, 201, 20):
            for pc10 in range(0, 10):
                for _ in range(5):
                    out.append(BarabasiAlbert(n=n, prob_cycles=pc10 / 10))
    elif domain == "admbuster":
        out += [AdmBuster(n) for n in ADMBUSTER_SIZES]
    elif domain == "sembuster":
        out += [SemBuster(n) for n in SEMBUSTER_SIZES]
    else:
        raise InvalidConfigError(f"no preset for domain {domain!r}")
    return out


PRESET_DOMAINS = ("grounded", "scc", "stable", "erdos", "watts", "barabasi",
                  "admbuster", "sembuster")
