"""Shared pieces of the benchmark: capped worker processes, frameworks
from the published presets, digests, a quantile, the environment record
and the pass record.

The benchmark measures afkit from outside: it imports the package from the
checkout's ``src`` directory and calls its public functions, or spawns
``python -m afkit`` the way a competition harness would.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

BENCH_VERSION = "2"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def require_source() -> None:
    """Exit with code 2 when the checkout holds no afkit sources."""
    if not (SRC / "afkit" / "__init__.py").is_file():
        print(f"perfbench: no afkit package under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# Capped children

@dataclass
class ChildResult:
    """How one capped child ended.

    ``status`` is ``ok`` (the handler returned), ``error`` (it raised; the
    message is in ``value``) or ``cap`` (the parent killed the child at the
    wall cap).  ``wall`` runs from sending the request to reading the reply;
    ``maxrss_kb`` is the child's peak resident set so far (0 when it
    ended without a reply).
    """
    status: str
    value: object
    wall: float
    maxrss_kb: int


_FORK = multiprocessing.get_context("fork")


class Worker:
    """A forked child that serves requests one at a time under a wall cap.

    The benchmark process is single-threaded, so forking is safe, and the
    child inherits the generated frameworks without copying them.  When a
    request outlives its cap the parent kills the child; the next request
    forks a fresh one.  Killing is the only way a cap is enforced: neither
    the node budget nor ``verify`` bounds time on their own.  The child's
    spans and counters travel back with each reply, and pickles are only
    ever read from this program's own children.
    """

    def __init__(self, handler: Callable[[object], object], tracer):
        self.handler = handler
        self.tracer = tracer
        self.process = None
        self.conn = None

    def _serve(self, conn, parent_end) -> None:
        # Without closing its copy of the parent's end, the child would
        # never see the parent hang up.
        parent_end.close()
        # The inherited heap holds every generated framework.  Freezing it
        # keeps the child's collector from walking (and copying) those
        # pages on every collection.
        gc.freeze()
        self.tracer.fork_child()
        while True:
            try:
                request = conn.recv()
            except EOFError:
                return
            try:
                payload = ("ok", self.handler(request))
            except Exception as exc:  # reported to the parent as data
                payload = ("error", f"{type(exc).__name__}: {exc}")
            spans, counts = self.tracer.take()
            maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            conn.send((payload, spans, counts, maxrss))

    def _start(self) -> None:
        self.conn, child_end = _FORK.Pipe()
        self.process = _FORK.Process(target=self._serve,
                                     args=(child_end, self.conn), daemon=True)
        self.process.start()
        child_end.close()

    def _stop(self, kill: bool) -> None:
        if kill:
            self.process.kill()
        self.conn.close()
        self.process.join()
        self.process = self.conn = None

    def call(self, request, cap: float) -> "ChildResult":
        if self.process is None:
            self._start()
        start = time.perf_counter()
        try:
            self.conn.send(request)
            # poll also returns when the child died; recv then raises.
            replied = self.conn.poll(cap)
            reply = self.conn.recv() if replied else None
        except (EOFError, OSError):
            replied, reply = True, None
        wall = time.perf_counter() - start
        if not replied:
            self._stop(kill=True)
            return ChildResult("cap", None, wall, 0)
        if reply is None:
            self._stop(kill=True)
            return ChildResult("error", "worker exited without a reply", wall, 0)
        (status, value), spans, counts, maxrss = reply
        self.tracer.adopt(spans, counts)
        return ChildResult(status, value, wall, maxrss)

    def close(self) -> None:
        if self.process is not None:
            self._stop(kill=False)


def run_capped(fn: Callable[[], object], cap: float, tracer) -> "ChildResult":
    """Run ``fn`` once in a forked child killed after ``cap`` seconds."""
    worker = Worker(lambda _: fn(), tracer)
    try:
        return worker.call(None, cap)
    finally:
        worker.close()


# ---------------------------------------------------------------------------
# Instances from the published presets

def preset_instance(family: str, n: int, rng):
    """One framework of ``family`` with size parameter ``n``.

    AdmBuster and SemBuster are deterministic in ``n``.  A random family
    takes the middle configuration of its published preset sweep (drawn
    with a fixed seed), resized to ``n``; ``rng`` drives the generator.  So
    the seed changes the frameworks but not the family's parameters, which
    keeps runs with different seeds comparable.  The Watts-Strogatz
    neighbour count and the SCC count are clamped so the resized
    configuration stays valid.
    """
    from afkit.generators import generate, gen_admbuster, gen_sembuster, preset_configs
    from afkit.rng import SeededRng

    if family == "admbuster":
        return gen_admbuster(n)
    if family == "sembuster":
        return gen_sembuster(n)
    configs = preset_configs(family, SeededRng(0))
    cfg = configs[len(configs) // 2]
    changes = {"n": n}
    if family == "watts":
        changes["k"] = min(cfg.k, 2 * max(1, n // 6))
    elif family == "scc":
        changes["n_sccs"] = min(cfg.n_sccs, n)
    return generate(replace(cfg, **changes), rng)


def instance_digest(named_texts: Sequence[Tuple[str, str]]) -> str:
    """SHA-256 over (name, APX text) pairs, in the given order."""
    h = hashlib.sha256()
    for name, text in named_texts:
        h.update(name.encode() + b"\n" + text.encode() + b"\n")
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Statistics

def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]) of a nonempty list."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Run record

def environment() -> Dict[str, object]:
    """What the numbers depend on besides the code."""
    try:
        import networkx
        nx_version = networkx.__version__
    except ImportError:
        nx_version = None
    return {
        "bench_version": BENCH_VERSION,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "networkx": nx_version,
        "git_commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout read from its ``.git``; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@dataclass
class Pass:
    """One measured pass of a workload: the ladder once, the call sequence
    once, or one competition round.

    ``items`` is what the pass attempted (cells, calls or judged jobs);
    ``solve_times`` are the solver times, each capped, whose sum is
    ``solve_s``; ``cell_times`` and ``call_times`` feed the percentiles;
    ``rate`` is the pass's jobs per second.  ``peak_rss_mb`` is set by a
    workload that tracks its children's memory itself; otherwise the run
    takes the largest child the operating system reports.  ``score`` and
    ``failed`` are filled in by the workload's check.
    """
    wall: float
    items: int
    solve_times: List[float]
    cell_times: List[float]
    call_times: List[float]
    rate: float
    peak_rss_mb: Optional[float] = None
    extra: Dict[str, object] = field(default_factory=dict)
    score: float = 0.0
    failed: List[str] = field(default_factory=list)
