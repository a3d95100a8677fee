"""Write a BENCH entry: spot numbers plus medians and spreads over seeds.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/BENCH_1.json
    python3 perfbench/record.py --workloads cli --seeds 1-5     # spreads only

Each (workload, seed) pair is one untraced ``run.py`` process.  For every
end-to-end metric the entry holds the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (q3 - q1) / median,
which is what the benchmark's bounds are compared with.  One traced run per
workload, on the first seed, adds the per-layer numbers and the tracing
overhead.  ``--spot`` adds the one-off numbers ROADMAP quotes for this
code: ``parse_apx`` on 100k arguments, solver-mode cold start against bare
Python, SE-ID on AdmBuster 4000, and EE-STG on a grounded framework of 1000
arguments (capped).
``--record-digests`` stores each run's instance and answer digests in
``digests.json``, so later runs with those seeds fail when generators or
answers change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchlib import OUT, ROOT, environment, require_source, run_capped

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ladder", "cli", "pipeline")


def seed_list(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def run_once(workload, seed, seconds, trace):
    """One run.py process; returns its exit status and its run record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.DEVNULL)
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}" /
                         "result.json").read_text(encoding="utf-8"))
    return proc.returncode, record


def run_seeds(workload, seeds, seconds, digests):
    """Untraced runs over ``seeds``, then one traced run on the first seed
    for the per-layer numbers and the tracing overhead."""
    runs = []
    for seed in seeds:
        t0 = time.perf_counter()
        code, record = run_once(workload, seed, seconds, 0)
        result = record["result"]
        runs.append({"seed": seed, "exit": code,
                     "wall": time.perf_counter() - t0, **result})
        digests.setdefault(workload, {})[str(seed)] = record["digests"]
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']} wall={runs[-1]['wall']:.1f}s",
              file=sys.stderr, flush=True)
    names = runs[0]["metrics"].keys()
    metrics = {name: {"unit": runs[0]["metrics"][name]["unit"],
                      **summarize([r["metrics"][name]["value"] for r in runs])}
               for name in names}
    _, traced = run_once(workload, seeds[0], seconds, 1)
    return {"runs": [{k: r[k] for k in ("seed", "exit", "wall", "correct",
                                        "attempted", "failed")} for r in runs],
            "metrics": metrics,
            "per_layer": {"seed": seeds[0],
                          "correct": traced["result"]["correct"],
                          "metrics": {k: m["value"] for k, m in
                                      traced["result"]["metrics"].items()}}}


def spot():
    """The one-off numbers quoted in ROADMAP's re-anchor."""
    import calls
    from afkit.engine import solve_optimized
    from afkit.formats import parse_apx, write_apx
    from afkit.generators import gen_admbuster
    from afkit.rng import SeededRng
    from afkit.tasks import parse_task
    from benchlib import preset_instance
    from spans import Tracer

    tracer = Tracer(enabled=False)
    out = {}
    text = write_apx(gen_admbuster(100000))
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        af = parse_apx(text)
        walls.append(time.perf_counter() - t0)
    out["parse_apx_100k"] = {"args": len(af), "attacks": len(af.attacks),
                             "seconds_median_of_3": statistics.median(walls)}
    out["startup"] = calls.startup_probes(tracer)

    def timed(task_name, af, cap):
        task = parse_task(task_name)
        res = run_capped(lambda: solve_optimized(task, af), cap, tracer)
        return {"status": res.status, "seconds": res.wall, "cap": cap}

    adm = gen_admbuster(4000)
    out["SE-ID_admbuster_4000"] = timed("SE-ID", adm, 60.0)
    grounded = preset_instance("grounded", 1000, SeededRng(1).split("spot"))
    out["grounded_1000"] = {"args": len(grounded),
                            "attacks": len(grounded.attacks),
                            "EE-ST": timed("EE-ST", grounded, 10.0),
                            "EE-STG": timed("EE-STG", grounded, 10.0)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="*", default=list(WORKLOADS),
                   choices=WORKLOADS)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--spot", action="store_true")
    p.add_argument("--record-digests", action="store_true")
    p.add_argument("--out")
    opts = p.parse_args(argv)
    require_source()
    seconds = opts.seconds
    if seconds is None:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = bench["run_seconds"]
    entry = {"environment": environment(), "seconds": seconds}
    if opts.spot:
        entry["spot"] = spot()
        print(json.dumps(entry["spot"], indent=1), file=sys.stderr)
    digests = {}
    entry["workloads"] = {}
    for workload in opts.workloads:
        summary = run_seeds(workload, seed_list(opts.seeds), seconds, digests)
        entry["workloads"][workload] = summary
        for name, m in summary["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:9} {name:12} median {m['median']:.6g} {m['unit']:6} "
                  f"spread {spread}")
    if opts.record_digests:
        path = HERE / "digests.json"
        stored = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        for workload, by_seed in digests.items():
            stored.setdefault(workload, {}).update(by_seed)
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    if opts.out:
        Path(opts.out).write_text(json.dumps(entry, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
