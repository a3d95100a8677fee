"""Command-line front end.

Solver mode follows the competition flag contract and prints nothing but the
solution text:

    afkit --formats
    afkit --problems
    afkit -f <file> -fo <apx|tgf> -p <task> [-a <arg>]

Subcommands expose the rest of the toolkit: ``generate`` (instances from
configs, batch files, or published presets), ``classify`` (three-solver
hardness protocol), ``select`` (quota selection plus query arguments),
``run`` (execute a solver roster and judge it), ``report`` (tables and
cactus series), and ``oracle`` (solver mode forced onto the exhaustive
backend).

Solver mode loads only the solving modules.  The other subcommands live in
``afkit.subcommands``, which loads the generators and the harness, and is
imported only when one of them is named.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import engine, oracle
from .errors import AfkitError
from .formats import FORMATS, load_framework
from .solutions import write_solution
from .tasks import all_task_names, parse_task

SUBCOMMANDS = ("solve", "oracle", "generate", "classify", "select", "run",
               "report")

# Environment overrides for harness defaults; explicit flags still win.
ENV_TIMEOUT = "AFKIT_TIMEOUT"
ENV_MEMORY = "AFKIT_MEMORY_BYTES"
ENV_JOBS = "AFKIT_JOBS"


def _env_number(name, cast):
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return cast(raw)
    except ValueError:
        print(f"afkit: ignoring bad {name}={raw!r}", file=sys.stderr)
        return None


def _resolve_jobs(flag_value):
    if flag_value is not None:
        return flag_value
    return _env_number(ENV_JOBS, int) or 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in SUBCOMMANDS:
            name, rest = argv[0], argv[1:]
            if name == "solve":
                return _solver_mode(rest, backend="optimized")
            if name == "oracle":
                return _solver_mode(rest, backend="oracle")
            from .subcommands import HANDLERS
            return HANDLERS[name](rest)
        return _solver_mode(argv, backend="optimized")
    except AfkitError as exc:
        print(f"afkit: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


# ---------------------------------------------------------------------------
# Solver mode

def _solver_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="afkit", add_help=True,
                                description="argumentation solver mode")
    p.add_argument("--formats", action="store_true",
                   help="print the supported instance formats")
    p.add_argument("--problems", action="store_true",
                   help="print the supported tasks")
    p.add_argument("-f", dest="file", help="instance file")
    p.add_argument("-fo", dest="format", choices=FORMATS, help="instance format")
    p.add_argument("-p", dest="task", help="task name, e.g. EE-PR or D3")
    p.add_argument("-a", dest="query", help="query argument for DC/DS tasks")
    p.add_argument("--engine", dest="backend", choices=("optimized", "oracle"),
                   default="optimized", help="solving backend")
    p.add_argument("--budget", type=int, default=None,
                   help="node-expansion budget for the optimized backend")
    return p


def _solver_mode(argv, backend: str) -> int:
    parser = _solver_parser()
    opts = parser.parse_args(argv)
    if opts.formats:
        print("[" + ",".join(FORMATS) + "]")
        return 0
    if opts.problems:
        print("[" + ",".join(all_task_names()) + "]")
        return 0
    if not (opts.file and opts.format and opts.task):
        parser.print_usage(sys.stderr)
        return 2
    task = parse_task(opts.task, opts.query)
    af = load_framework(opts.file, opts.format)
    if opts.backend == "oracle" or backend == "oracle":
        answer = oracle.solve(task, af)
    else:
        answer = engine.solve_optimized(task, af, budget=opts.budget)
    print(write_solution(task, answer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
