"""In-memory span recording for the traced benchmark runs.

A span times one call from the benchmark into a layer of afkit.  It has a
name (the layer metric it feeds, e.g. ``formats.parse_apx``), a start and
end on the monotonic clock, the id of the span that was open when it began
(its parent), and an operation id naming the cell, call, job or round it
belongs to.  Root spans name the phase (``setup``, ``pass``, ``check``,
``probe``), so per-layer totals can be normalised per pass.

Spans stay in memory and are written out once, when the run ends.  With
tracing off, ``span`` does no bookkeeping, so the untraced end-to-end run
pays only for the context-manager call.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Collects spans of one benchmark process (or one forked child)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self.counts: Dict[Tuple[str, str], float] = {}
        self._stack: List[Tuple[str, str]] = []
        self._proc = "main"
        self._next_id = 1

    def _new_id(self) -> str:
        self._next_id += 1
        return f"{self._proc}.{self._next_id}"

    @contextmanager
    def span(self, name: str, op: str = "") -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = self._new_id()
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": span_id, "name": name, "start": start,
                               "end": end, "parent": parent, "op": op})

    def record(self, name: str, start: float, end: float, op: str = "") -> None:
        """Add a span timed elsewhere, e.g. a child killed at its cap."""
        if not self.enabled:
            return
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append({"id": self._new_id(), "name": name, "start": start,
                           "end": end, "parent": parent, "op": op})

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a per-layer counter, keyed by the phase it ran in."""
        if self.enabled:
            key = (self._stack[0][1] if self._stack else "", name)
            self.counts[key] = self.counts.get(key, 0) + amount

    def fork_child(self) -> None:
        """Start afresh inside a forked child.

        Span ids carry a token of their process, so spans shipped back to
        the parent never collide with its own.  The open-span stack is
        kept, so the child's spans hang under the span that forked it.
        """
        self.spans = []
        self.counts = {}
        self._proc = os.urandom(6).hex()

    def take(self) -> Tuple[List[dict], Dict[Tuple[str, str], float]]:
        """Hand over (and forget) what was collected since the last take."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts

    def adopt(self, spans: List[dict],
              counts: Dict[Tuple[str, str], float]) -> None:
        """Merge spans and counters shipped back from a forked child."""
        self.spans.extend(spans)
        for key, amount in counts.items():
            self.counts[key] = self.counts.get(key, 0) + amount

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def phase_of(spans: List[dict]) -> Dict[str, Optional[dict]]:
    """Map each span id to its root span (the phase it ran in)."""
    by_id = {s["id"]: s for s in spans}
    roots: Dict[str, Optional[dict]] = {}

    def root(span_id: str) -> Optional[dict]:
        if span_id in roots:
            return roots[span_id]
        s = by_id.get(span_id)
        if s is None:
            return None
        r = s if s["parent"] is None else root(s["parent"])
        roots[span_id] = r
        return r

    for s in spans:
        root(s["id"])
    return roots


def _share(phase: str, passes: int) -> float:
    return 1.0 / max(1, passes) if phase == "pass" else 1.0


def layer_seconds(spans: List[dict], passes: int,
                  key: Callable[[dict], Optional[str]] = lambda s: s["name"]
                  ) -> Dict[str, float]:
    """Seconds per ``key(span)``, with the measured passes counted per pass.

    ``key`` defaults to the span name; spans it maps to None are skipped.

    Spans under a ``pass`` root are divided by the number of traced passes;
    spans under ``setup``, ``check`` and ``probe`` roots count once, because
    each of those phases runs once in a traced run.
    """
    roots = phase_of(spans)
    out: Dict[str, float] = {}
    for s in spans:
        r = roots.get(s["id"])
        if r is None or r is s:
            continue
        k = key(s)
        if k is None:
            continue
        share = _share(r["name"], passes)
        out[k] = out.get(k, 0.0) + (s["end"] - s["start"]) * share
    return out


def layer_counts(counts: Dict[Tuple[str, str], float],
                 passes: int) -> Dict[str, float]:
    """Counter totals, normalised per pass the same way as ``layer_seconds``."""
    out: Dict[str, float] = {}
    for (phase, name), amount in counts.items():
        out[name] = out.get(name, 0.0) + amount * _share(phase, passes)
    return out
