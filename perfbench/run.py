"""afkit benchmark: one command, three workloads, every answer checked.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout; it imports afkit from ``src``.  The
workloads are described in ``perfbench/README.md``.  A run sets up its
inputs from the seed several times, then measures whole passes of the
workload until the next pass would end after ``--seconds``, always at least
one, setting up again several times after each pass (``setup_s`` is the
median of all set-ups), then checks every answer.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end metrics.  With ``--trace 1`` the run first measures one
pass untraced, then traced passes; the metrics are the per-layer numbers
taken from the spans, plus the tracing overhead between the two.  Results
and spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import re
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from statistics import median

from benchlib import OUT, environment, quantile, require_source
from spans import Tracer, layer_counts, layer_seconds

WORKLOADS = ("ladder", "cli", "pipeline")
# An untraced run sets up before the first measured pass and again after
# each one: every time at least SETUPS times and for at least SETUP_SECONDS.
# The machine's speed drifts over tens of seconds, so set-ups sampled across
# the whole run give a median as steady as the other metrics', whether one
# set-up takes milliseconds or half a second.
SETUPS = 3
SETUP_SECONDS = 1.0
DIGESTS = Path(__file__).resolve().parent / "digests.json"


# Span name -> per-layer metric holding its seconds.
SPAN_METRICS = {
    "formats.parse_apx": "formats.parse_apx_s",
    "formats.parse_tgf": "formats.parse_tgf_s",
    "formats.write_apx": "formats.write_apx_s",
    "core.build": "core.build_s",
    "core.grounded": "core.grounded_s",
    "oracle.solve": "oracle.solve_s",
    "verify.PR": "verify.PR.s",
    "verify.SST": "verify.SST.s",
    "verify.STG": "verify.STG.s",
    "solutions.write": "solutions.write_s",
    "solutions.parse": "solutions.parse_s",
    "harness.judge": "harness.judge.s",
    "harness.judge.reference": "harness.judge.reference_s",
    "harness.select": "harness.select.s",
    "harness.report": "harness.report.s",
}


def _module(name: str):
    import calls
    import ladder
    import pipeline
    return {"ladder": ladder, "cli": calls, "pipeline": pipeline}[name]


def end_to_end(setups, passes, peak_rss_mb, failed, attempted):
    return {
        "setup_s": (median(setups), "s"),
        "score": (median([p.score for p in passes]), "points"),
        "solve_s": (median([sum(p.solve_times) for p in passes]), "s"),
        "round_s": (median([p.wall for p in passes]), "s"),
        "jobs_per_s": (median([p.rate for p in passes]), "1/s"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, passes, probes, overhead, extra):
    """Layer numbers from the spans, plus the medians and tails of the cell
    and call times, which are reported here because no bound holds them
    steady."""
    import ladder

    secs = layer_seconds(tracer.spans, len(passes))
    cnts = layer_counts(tracer.counts, len(passes))
    families = set(ladder.FAMILIES)

    def family_of(span):
        if not span["name"].startswith("engine."):
            return None
        hit = [t for t in re.split(r"[/_]", span["op"]) if t in families]
        return hit[0] if hit else None

    by_family = layer_seconds(tracer.spans, len(passes), key=family_of)
    parse_s = secs.get("formats.parse_apx", 0.0) + secs.get("formats.parse_tgf", 0.0)
    m = {name: (probes.get(name, 0.0), "s") for name in
         ("cli.bare_python_s", "cli.import_s", "cli.cold_start_s")}
    for span_name, metric in SPAN_METRICS.items():
        m[metric] = (secs.get(span_name, 0.0), "s")
    m["formats.args_per_s"] = (cnts.get("formats.args", 0.0) / parse_s
                               if parse_s else 0.0, "args/s")
    for task in ladder.TASKS:
        m[f"engine.{task}.s"] = (secs.get(f"engine.{task}", 0.0), "s")
        m[f"engine.{task}.solved"] = (cnts.get(f"engine.{task}.solved", 0.0), "count")
    for family in ladder.FAMILIES:
        m[f"engine.{family}.s"] = (by_family.get(family, 0.0), "s")
        m[f"engine.{family}.solved"] = (cnts.get(f"engine.{family}.solved", 0.0), "count")
        m[f"generators.{family}.s"] = (secs.get(f"generators.{family}", 0.0), "s")
    cells = cnts.get("engine.cells", 0.0)
    m["engine.capped_frac"] = (cnts.get("engine.capped", 0.0) / cells
                               if cells else 0.0, "frac")
    m["verify.calls"] = (cnts.get("verify.calls", 0.0), "count")
    m["harness.runner.job_s_p50"] = (extra.get("harness.runner.job_s_p50", 0.0), "s")
    m["harness.runner.job_s_p90"] = (extra.get("harness.runner.job_s_p90", 0.0), "s")
    for name in ("harness.runner.errors", "harness.judge.cells",
                 "harness.judge.unchecked", "harness.judge.no_reference",
                 "ladder.unchecked"):
        m[name] = (cnts.get(name, 0.0), "count")
    m["trace.overhead_frac"] = (overhead, "frac")
    cells = [t for p in passes for t in p.cell_times]
    calls = [t for p in passes for t in p.call_times]
    for q in (50, 90):
        m[f"workload.cell_s_p{q}"] = (quantile(cells, q / 100), "s")
        m[f"workload.call_s_p{q}"] = (quantile(calls, q / 100), "s")
    return m


def recorded_digests(workload: str, seed: int):
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure, check; returns the run record."""
    mod = _module(workload)
    env = environment()
    workdir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer(enabled=False)
    run_failures = []

    setups, digests, state = [], set(), None

    def set_up():
        """Time SETUPS set-ups or more; the last state is kept."""
        nonlocal state
        spent = []
        while len(spent) < SETUPS or sum(spent) < SETUP_SECONDS:
            # Each set-up starts from the same heap, without the last state.
            state = None
            gc.collect()
            t0 = time.perf_counter()
            state = mod.setup(seed, tracer, workdir)
            spent.append(time.perf_counter() - t0)
            digests.add(state.digest)
        setups.extend(spent)

    if trace:
        tracer.enabled = True
        with tracer.span("setup", op="setup"):
            state = mod.setup(seed, tracer, workdir)
        digests.add(state.digest)
    else:
        set_up()
    recorded = recorded_digests(workload, seed)
    if recorded and recorded.get("instances") not in (None, state.digest):
        run_failures.append("instance digest differs from the recorded run")

    untraced_wall = None
    if trace:
        tracer.enabled = False
        untraced_wall = mod.run_pass(state, tracer, 0).wall
        tracer.enabled = True
    passes, measured = [], 0.0
    while True:
        t0 = time.perf_counter()
        with tracer.span("pass", op=f"pass{len(passes)}"):
            passes.append(mod.run_pass(state, tracer, len(passes) + int(trace)))
        measured += time.perf_counter() - t0
        if not trace:
            set_up()
        if measured + passes[-1].wall > seconds:
            break
    if len(digests) > 1:
        run_failures.append("set-ups from one seed produced different instances")
    peak_rss_mb = max(p.peak_rss_mb for p in passes) if passes[0].peak_rss_mb \
        else resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    with tracer.span("check", op="check"):
        mod.check(state, passes, tracer, recorded)
    attempted = sum(p.items for p in passes)
    failures = run_failures + [f for p in passes for f in p.failed]
    failed = len(failures)

    if trace:
        import calls
        with tracer.span("probe", op="probe"):
            probes = calls.startup_probes(tracer)
        traced = median([p.wall for p in passes])
        overhead = (traced - untraced_wall) / untraced_wall
        extra = mod.layers(passes) if hasattr(mod, "layers") else {}
        metrics = per_layer(tracer, passes, probes, overhead, extra)
        tracer.write(workdir / "trace.jsonl")
    else:
        metrics = end_to_end(setups, passes, peak_rss_mb, failed, attempted)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": env, "passes": len(passes),
        "digests": {"instances": state.digest,
                    "answers": getattr(state, "answers", {})},
        "unchecked": getattr(state, "unchecked", 0),
        "failures": failures,
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}},
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")
    return record


def print_record(record: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} passes={record['passes']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"instances sha256 {record['digests']['instances']}")
    answers = record["digests"]["answers"]
    if answers:
        joined = "".join(f"{k}={v};" for k, v in sorted(answers.items()))
        print(f"answers {len(answers)} cells, sha256 of digests "
              f"{hashlib.sha256(joined.encode()).hexdigest()}")
    for name, m in record["result"]["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for f in record["failures"][:20]:
        print(f"FAILED {f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = p.parse_args(argv)
    require_source()
    if opts.workload == "all":
        return run_all(opts)
    record = run_one(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    print_record(record)
    print(json.dumps(record["result"]), flush=True)
    return 0


def run_all(opts) -> int:
    """Each workload in its own process, so peak RSS stays per workload;
    the last line merges the three results, metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(opts.seed), "--seconds", str(opts.seconds),
             "--trace", str(opts.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
