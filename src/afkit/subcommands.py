"""The toolkit subcommands behind ``afkit <name>``: ``generate``, ``classify``,
``select``, ``run`` and ``report``.

They need the generators and the competition harness, which solver mode does
not, so ``cli.main`` imports this module only when a subcommand is named.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .core import strongly_connected_components
from .errors import AfkitError
from .formats import FORMATS, load_framework, write_framework
from .generators import (PRESET_DOMAINS, Traffic, generate, parse_batch_file,
                         parse_batch_line, preset_configs)
from .harness import (GROUPS, HardnessCategory, ReferenceBundle, RefRun,
                      ResourceLimits, SelectionQuota, append_record,
                      assign_ideal_queries, assign_query_arguments,
                      classify_hardness, emit_counts_report, emit_report,
                      load_roster, read_records, select_by_quota,
                      verify_cascade)
from .harness.records import json_shape, read_json
from .harness.runner import JobSpec, run_jobs
from .harness.scoring import SolverCounts
from .rng import SeededRng
from .solutions import parse_solution
from .tasks import all_task_names, parse_task


# ---------------------------------------------------------------------------
# generate

def _cmd_generate(argv) -> int:
    p = argparse.ArgumentParser(prog="afkit generate")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=FORMATS, default="apx")
    p.add_argument("--batch", help="batch file: one '<kind> key=value ...' per line")
    p.add_argument("--spec", action="append", default=[],
                   help="inline batch line (repeatable)")
    p.add_argument("--preset", choices=PRESET_DOMAINS,
                   help="published parameter sweep for one domain")
    p.add_argument("--limit", type=int, default=None,
                   help="generate at most this many instances")
    opts = p.parse_args(argv)

    entries = []
    if opts.batch:
        entries += parse_batch_file(Path(opts.batch).read_text(encoding="utf-8"))
    for line in opts.spec:
        entries.append(parse_batch_line(line))
    if opts.preset:
        rng = SeededRng(opts.seed)
        entries += [(cfg, 1, None) for cfg in preset_configs(opts.preset, rng)]
    if not entries:
        p.error("nothing to generate: pass --batch, --spec, or --preset")

    out = Path(opts.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = SeededRng(opts.seed)
    manifest = []
    index = 0
    for line_no, (cfg, count, graph_path) in enumerate(entries):
        kind = type(cfg).__name__.lower()
        graph = None
        if isinstance(cfg, Traffic):
            if graph_path is None:
                p.error("traffic configs need graph=<file.tgf>")
            g = load_framework(graph_path, "tgf")
            graph = (g.args, sorted(g.attacks))
        for rep in range(count):
            if opts.limit is not None and index >= opts.limit:
                break
            af = generate(cfg, rng.split(f"line{line_no}/rep{rep}"), graph)
            name = f"{kind}_{index:05d}.{opts.format}"
            (out / name).write_text(write_framework(af, opts.format),
                                    encoding="utf-8")
            targets = af.target_indices()
            sccs = strongly_connected_components(targets)
            manifest.append({"file": name, "domain": kind,
                             "config": asdict(cfg), "seed": opts.seed,
                             "args": len(af.args), "attacks": sum(map(len, targets)),
                             "sccs": len(sccs),
                             "largest_scc": max(map(len, sccs), default=0)})
            index += 1
    (out / "instances.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                        encoding="utf-8")
    print(f"wrote {index} instances to {out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# classify

def _instance_domain(path: Path, domains: dict) -> str:
    if path.name in domains:
        return domains[path.name]
    return path.stem.split("_")[0]


def _load_domain_map(instance_dir: Path) -> dict:
    meta = instance_dir / "instances.json"
    if not meta.exists():
        return {}
    entries = read_json(meta)
    with json_shape(meta, "a list of generated instances"):
        return {entry["file"]: entry["domain"] for entry in entries}


def _cmd_classify(argv) -> int:
    p = argparse.ArgumentParser(prog="afkit classify")
    p.add_argument("--roster", required=True,
                   help="JSON roster of exactly 3 reference solvers")
    p.add_argument("--instances", required=True, help="instance directory")
    p.add_argument("--task", required=True, help="representative task to run")
    p.add_argument("--base-timeout", type=float, default=600.0,
                   help="competition timeout; classification runs at twice this")
    p.add_argument("--memory", type=int, default=ResourceLimits().memory_bytes)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    opts = p.parse_args(argv)

    solvers = load_roster(opts.roster)
    if len(solvers) != 3:
        p.error(f"classification needs exactly 3 reference solvers, got {len(solvers)}")
    task = parse_task(opts.task)
    instance_dir = Path(opts.instances)
    domains = _load_domain_map(instance_dir)
    paths = sorted(q for q in instance_dir.iterdir()
                   if q.suffix.lstrip(".") in FORMATS)
    limits = ResourceLimits(wall_seconds=2 * opts.base_timeout,
                            memory_bytes=opts.memory)
    jobs = [JobSpec(solver=s, task_name=opts.task, instance_id=q.name,
                    instance_path=str(q), fmt=q.suffix.lstrip("."),
                    limits=limits)
            for q in paths for s in solvers]
    records = run_jobs(jobs, parallelism=opts.jobs)
    by_instance: dict = {}
    for r in records:
        by_instance.setdefault(r.instance, []).append(r)
    rows = []
    for q in paths:
        runs = []
        for r in sorted(by_instance.get(q.name, []), key=lambda r: r.solver):
            parsed = parse_solution(task, r.raw).parsed
            crashed = r.status == "error" or (r.status == "ok" and not parsed)
            elapsed = math.inf if r.status == "timeout" else r.elapsed
            runs.append(RefRun(elapsed=elapsed, crashed=crashed))
        category = classify_hardness(runs)
        rows.append({"instance": q.name, "path": str(q),
                     "domain": _instance_domain(q, domains),
                     "times": [None if math.isinf(r.elapsed) else round(r.elapsed, 3)
                               for r in runs],
                     "crashed": [r.crashed for r in runs],
                     "category": str(category)})
    Path(opts.out).write_text(json.dumps(rows, indent=2) + "\n",
                              encoding="utf-8")
    print(f"classified {len(rows)} instances", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# select

def _cmd_select(argv) -> int:
    p = argparse.ArgumentParser(prog="afkit select")
    p.add_argument("--classification", required=True,
                   help="classify output JSON")
    p.add_argument("--group", required=True, choices=sorted(GROUPS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--no-queries", action="store_true",
                   help="skip query-argument assignment")
    p.add_argument("--copy-queries-from",
                   help="manifest whose instances and queries to reuse "
                        "(groups A and E share arguments)")
    p.add_argument("--min-yes", type=float, default=0.2)
    p.add_argument("--min-no", type=float, default=0.2)
    p.add_argument("--quota", type=int, nargs=5, metavar=("VE", "E", "M", "H", "TH"),
                   help="override the per-category quota")
    p.add_argument("--answer-budget", type=int, default=2_000_000)
    opts = p.parse_args(argv)
    rng = SeededRng(opts.seed)

    if opts.copy_queries_from:
        source = read_json(opts.copy_queries_from)
        with json_shape(opts.copy_queries_from, "a selection manifest"):
            manifest = {"group": opts.group, "seed": source.get("seed"),
                        "shared_with": source.get("group"),
                        "instances": source["instances"],
                        "balance": source.get("balance")}
        Path(opts.out).write_text(json.dumps(manifest, indent=2) + "\n",
                                  encoding="utf-8")
        print(f"copied {len(source['instances'])} instances", file=sys.stderr)
        return 0

    rows = read_json(opts.classification)
    pools: dict = {}
    with json_shape(opts.classification, "a classification"):
        paths = {row["instance"]: row["path"] for row in rows}
        for row in rows:
            cat = HardnessCategory(row["category"])
            if cat == HardnessCategory.NOT_CLASSIFIED:
                continue
            domain = pools.setdefault(cat, {}).setdefault(row["domain"], [])
            domain.append(row["instance"])
    if opts.quota:
        quota = SelectionQuota(*opts.quota)
    else:
        quota = SelectionQuota.for_group(opts.group)
    picked = select_by_quota(pools, quota, rng.split("instances"))

    selected = []
    for category, pairs in picked.items():
        for domain, instance in pairs:
            selected.append({"instance": instance, "domain": domain,
                             "path": paths[instance],
                             "category": str(category), "queries": []})

    balance = None
    if not opts.no_queries:
        loaded = [(row["instance"], load_framework(row["path"]),
                   HardnessCategory(row["category"])) for row in selected]
        tasks = GROUPS[opts.group]["tasks"]
        bundles = {id(af): ReferenceBundle(af, budget=opts.answer_budget)
                   for _, af, _ in loaded}

        def answer_fn(task_name, af, query):
            ans = bundles[id(af)].answer_for(parse_task(task_name, query))
            return None if ans is None else ans.value

        def preferred_fn(af):
            ans = bundles[id(af)].answer_for(parse_task("EE-PR"))
            return None if ans is None else ans.extensions

        if opts.group == "D":
            queries = assign_ideal_queries(loaded, preferred_fn,
                                           rng.split("ideal-queries"))
        else:
            assignments, balance = assign_query_arguments(
                loaded, tasks, answer_fn, rng.split("queries"),
                min_yes_fraction=opts.min_yes, min_no_fraction=opts.min_no)
            queries = {a.instance: a.queries for a in assignments}
        for row in selected:
            row["queries"] = queries[row["instance"]]

    manifest = {"group": opts.group, "seed": opts.seed, "quota": asdict(quota),
                "instances": selected, "balance": balance}
    Path(opts.out).write_text(json.dumps(manifest, indent=2) + "\n",
                              encoding="utf-8")
    print(f"selected {len(selected)} instances", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# run

def _cmd_run(argv) -> int:
    p = argparse.ArgumentParser(prog="afkit run")
    p.add_argument("--roster", required=True)
    p.add_argument("--manifest", help="selection manifest with queries")
    p.add_argument("--instances", help="bare instance directory")
    p.add_argument("--queries-per-instance", type=int, default=1,
                   help="with --instances: how many arguments to query on "
                        "decision tasks (first k in framework order)")
    p.add_argument("--tasks", nargs="*", default=None,
                   help="task names (default: every task a solver advertises)")
    p.add_argument("--out", required=True, help="JSONL job log")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timeout", type=float, default=None,
                   help="wall seconds override (default: per-task limits)")
    p.add_argument("--memory", type=int, default=None)
    p.add_argument("--ref-budget", type=int, default=5_000_000,
                   help="node budget for the judging reference engine")
    opts = p.parse_args(argv)

    solvers = load_roster(opts.roster)
    task_names = opts.tasks if opts.tasks else list(all_task_names())
    for t in task_names:
        parse_task(t, "q" if t.startswith(("DC", "DS")) else None)

    instances = []  # (id, path, queries)
    if opts.manifest:
        manifest = read_json(opts.manifest)
        with json_shape(opts.manifest, "a selection manifest"):
            for row in manifest["instances"]:
                instances.append((row["instance"], row["path"],
                                  row.get("queries") or []))
    elif opts.instances:
        for q in sorted(Path(opts.instances).iterdir()):
            if q.suffix.lstrip(".") in FORMATS:
                af = load_framework(q)
                queries = list(af.args[:max(0, opts.queries_per_instance)])
                instances.append((q.name, str(q), queries))
    else:
        p.error("pass --manifest or --instances")

    jobs = []
    for instance_id, path, queries in instances:
        fmt = Path(path).suffix.lstrip(".")
        for task_name in task_names:
            needs_query = task_name.startswith(("DC-", "DS-"))
            for solver in solvers:
                if not solver.supports_task(task_name):
                    continue
                if not solver.supports_format(fmt):
                    continue
                for q in (queries if needs_query else [None]):
                    jobs.append(JobSpec(solver, task_name, instance_id, path,
                                        fmt, query=q,
                                        limits=_limits_for(opts, task_name)))

    records = run_jobs(jobs, parallelism=opts.jobs)
    _judge_records(records, {i: p for i, p, _ in instances}, opts.ref_budget)
    log = Path(opts.out)
    if log.exists():
        log.unlink()
    for r in records:
        append_record(log, r)
    total = sum(r.points for r in records)
    print(f"ran {len(jobs)} jobs; total points {total}", file=sys.stderr)
    return 0


def _limits_for(opts, task_name: str) -> ResourceLimits:
    limits = ResourceLimits.for_task(task_name)
    wall = opts.timeout if opts.timeout is not None else limits.wall_seconds
    memory = opts.memory if opts.memory is not None else limits.memory_bytes
    return ResourceLimits(wall, memory)


def _judge_records(records, instance_paths, ref_budget) -> None:
    """Judge the records one instance at a time, each cell of an instance
    against that instance's reference bundle."""
    by_instance: dict = {}
    for r in records:
        cells = by_instance.setdefault(r.instance, {})
        cells.setdefault((r.task, r.query), []).append(r)
    for instance_id, cells in by_instance.items():
        af = load_framework(instance_paths[instance_id])
        bundle = ReferenceBundle(af, budget=ref_budget)
        for (task_name, query), cell in cells.items():
            task = parse_task(task_name, query)
            solutions = [parse_solution(task, r.raw if r.status == "ok" else "")
                         for r in cell]
            for r, solution in zip(cell, solutions):
                judgement = verify_cascade(task, bundle, solution, solutions)
                r.judged(judgement.verdict, judgement.unchecked)


# ---------------------------------------------------------------------------
# report

def _read_counts(path) -> list:
    """The rows of a solver,correct,wrong[,time] CSV as SolverCounts; a
    missing or non-numeric cell is an AfkitError naming its line."""
    counts = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            missing = [c for c in ("solver", "correct", "wrong")
                       if row.get(c) is None]
            if missing:
                raise AfkitError(f"{where}: no {', '.join(missing)} value")
            try:
                counts.append(SolverCounts(solver=row["solver"],
                                           correct=int(row["correct"]),
                                           wrong=int(row["wrong"]),
                                           time=float(row.get("time", 0))))
            except (TypeError, ValueError) as exc:
                raise AfkitError(f"{where}: {exc}") from None
    return counts


def _cmd_report(argv) -> int:
    p = argparse.ArgumentParser(prog="afkit report")
    p.add_argument("--log", help="JSONL job log from 'afkit run'")
    p.add_argument("--counts", help="CSV of solver,correct,wrong,time rows")
    p.add_argument("--tasks", nargs="*", default=None)
    p.add_argument("--out-dir", required=True)
    opts = p.parse_args(argv)
    out = Path(opts.out_dir)
    if opts.log:
        records = list(read_records(opts.log))
        rows = emit_report(records, out, tasks=opts.tasks)
    elif opts.counts:
        counts = _read_counts(opts.counts)
        if not counts:
            raise AfkitError(f"{opts.counts}: no solver rows")
        rows = emit_counts_report(counts, out)
    else:
        p.error("pass --log or --counts")
    for row in rows[:3]:
        print(f"{row['rank']:>2} {row['solver']} {row['points']}",
              file=sys.stderr)
    return 0


HANDLERS = {
    "generate": _cmd_generate,
    "classify": _cmd_classify,
    "select": _cmd_select,
    "run": _cmd_run,
    "report": _cmd_report,
}
