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

Solver mode loads only the solving modules, and those import neither
``typing``, ``dataclasses`` nor ``pathlib``.  The other subcommands live in
``afkit.subcommands``, which loads the generators and the harness, and is
imported only when one of them is named; the exhaustive oracle is imported
only by ``afkit oracle``.
"""

from __future__ import annotations

import argparse
import gc
import sys
from functools import partial

from . import engine
from .errors import AfkitError
from .formats import FORMATS, load_framework
from .solutions import write_solution
from .tasks import all_task_names, parse_task

SUBCOMMANDS = ("oracle", "generate", "classify", "select", "run", "report")

def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in SUBCOMMANDS:
            name, rest = argv[0], argv[1:]
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
    except OSError as exc:  # a missing or unreadable input file
        print(f"afkit: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# Solver mode

def _solver_parser() -> argparse.ArgumentParser:
    # A fixed width, the one argparse picks when stdout is no terminal,
    # spares every call the import of shutil (with bz2, lzma, zlib and
    # fnmatch) that the formatter otherwise makes to ask for the terminal's.
    p = argparse.ArgumentParser(
        prog="afkit", add_help=True, description="argumentation solver mode",
        formatter_class=partial(argparse.HelpFormatter, width=78))
    p.add_argument("--formats", action="store_true",
                   help="print the supported instance formats")
    p.add_argument("--problems", action="store_true",
                   help="print the supported tasks")
    p.add_argument("-f", dest="file", help="instance file")
    p.add_argument("-fo", dest="format", choices=FORMATS, help="instance format")
    p.add_argument("-p", dest="task", help="task name, e.g. EE-PR or D3")
    p.add_argument("-a", dest="query", help="query argument for DC/DS tasks")
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
    # The framework lives until the process exits.  Loaded with the cyclic
    # collector off and then frozen, its objects are never walked by a
    # collection: not by the one that would follow the parse, nor by any
    # during the search.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        af = load_framework(opts.file, opts.format)
        gc.freeze()
    finally:
        if was_enabled:
            gc.enable()
    if backend == "oracle":
        from . import oracle
        answer = oracle.solve(task, af)
    else:
        answer = engine.solve_optimized(task, af, budget=opts.budget)
    print(write_solution(task, answer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
