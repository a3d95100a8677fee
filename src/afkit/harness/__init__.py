"""Competition machinery: run solvers under limits, judge, score, rank,
classify instance hardness, select benchmarks and query arguments, report."""

from .classify import HardnessCategory, RefRun, classify_hardness
from .judge import Judgement, ReferenceBundle, verify_cascade
from .limits import ResourceLimits
from .records import JobRecord, append_record, read_records
from .runner import SolverSpec, load_roster, run_job, run_jobs
from .scoring import RankedRow, SolverCounts, rank_counts, score
from .select import (GROUPS, SelectionQuota, assign_ideal_queries,
                     assign_query_arguments, select_arguments,
                     select_benchmarks, select_by_quota, select_ideal_argument)
from .report import emit_counts_report, emit_report

__all__ = [
    "HardnessCategory", "RefRun", "classify_hardness",
    "Judgement", "ReferenceBundle", "verify_cascade",
    "ResourceLimits", "JobRecord", "append_record", "read_records",
    "SolverSpec", "load_roster", "run_job", "run_jobs",
    "RankedRow", "SolverCounts", "rank_counts", "score",
    "GROUPS", "SelectionQuota", "assign_ideal_queries",
    "assign_query_arguments", "select_arguments", "select_benchmarks",
    "select_by_quota", "select_ideal_argument",
    "emit_counts_report", "emit_report",
]
