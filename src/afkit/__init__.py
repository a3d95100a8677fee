"""afkit: abstract argumentation toolkit.

Frameworks and semantics predicates (``core``), the 25-task catalog
(``tasks``), an exhaustive ground-truth oracle (``oracle``) and an optimized
search engine (``engine``), extension verification (``verify``),
instance and answer formats (``formats``, ``solutions``), benchmark
generators (``generators``), and a solver-competition harness (``harness``).
"""

from .core import (ArgumentationFramework, defends, grounded_extension,
                   is_admissible, is_complete, is_conflict_free, range_of)
from .engine import enumerate_extensions, solve_optimized
from .tasks import (AllExtensions, Answer, OneExtension, Semantics, TaskSpec,
                    Triathlon, YesNo, all_task_names, parse_task)
from .verify import verify

__version__ = "0.1.0"

__all__ = [
    "ArgumentationFramework", "Semantics", "TaskSpec", "Answer", "YesNo",
    "OneExtension", "AllExtensions", "Triathlon",
    "is_conflict_free", "is_admissible", "is_complete", "defends", "range_of",
    "grounded_extension", "oracle_enumerate", "solve", "solve_optimized",
    "enumerate_extensions", "verify", "parse_task", "all_task_names",
    "__version__",
]


def __getattr__(name: str):
    # The oracle is loaded on first use, so a solver-mode call, which runs
    # this file first, does not compile it.  ``verify`` stays eager: a lazy
    # name would be shadowed by the ``afkit.verify`` submodule once that is
    # imported.
    if name in ("solve", "oracle_enumerate"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
