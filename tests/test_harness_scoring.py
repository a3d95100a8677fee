import pytest

from afkit.harness.records import JobRecord
from afkit.harness.scoring import SolverCounts, aggregate, rank_counts, score

from data.iccma17_tracks import PUBLISHED_DISCREPANCY, TASK_ROWS, TRACK_TABLES


def test_scoring_rule():
    assert score(1176, 4) == 1156
    assert score(264, 427) == -1871
    assert score(0, 0) == 0


@pytest.mark.parametrize("track", sorted(TRACK_TABLES))
def test_published_track_tables_replay(track):
    rows = TRACK_TABLES[track]
    counts = [SolverCounts(solver=s, correct=c, wrong=w, time=t)
              for s, _, t, c, w in rows]
    ranked = rank_counts(counts)
    assert [r.counts.solver for r in ranked] == [s for s, *_ in rows]
    assert [r.counts.points for r in ranked] == [p for _, p, *_ in rows]


def test_single_task_rows_replay():
    for solver, task, points, correct, wrong in TASK_ROWS:
        assert score(correct, wrong) == points, (solver, task)


def test_known_publication_typo_is_rule_inconsistent():
    # The one published row whose printed points disagree with its own
    # counts: the scoring rule, not the typo, is what this toolkit implements.
    track, solver, printed, rule_value = PUBLISHED_DISCREPANCY
    row = next(r for r in TRACK_TABLES[track] if r[0] == solver)
    assert score(row[3], row[4]) == rule_value != printed


def test_tie_breaks_by_correct_time():
    rows = rank_counts([
        SolverCounts("slow", correct=695, wrong=0, time=1152.51),
        SolverCounts("fast", correct=695, wrong=0, time=335.85),
    ])
    assert [r.counts.solver for r in rows] == ["fast", "slow"]
    assert not any(r.tied for r in rows)


def test_full_tie_is_flagged_and_stable_by_id():
    rows = rank_counts([
        SolverCounts("beta", correct=10, wrong=0, time=5.0),
        SolverCounts("alpha", correct=10, wrong=0, time=5.0),
    ])
    assert [r.counts.solver for r in rows] == ["alpha", "beta"]
    assert all(r.tied for r in rows)


def _rec(solver, task, instance, verdict, elapsed=1.0, unchecked=False,
         status="ok"):
    r = JobRecord(solver=solver, task=task, instance=instance,
                  elapsed=elapsed, status=status)
    if verdict:
        r.judged(verdict, unchecked)
    return r


def test_aggregate_counts_and_usc():
    records = [
        _rec("s1", "EE-PR", "i1", "correct", 2.0),
        _rec("s1", "EE-PR", "i2", "correct", 3.0, unchecked=True),
        _rec("s1", "EE-PR", "i3", "incorrect"),
        _rec("s1", "EE-PR", "i4", None, status="timeout"),
        _rec("s2", "EE-PR", "i1", "correct", 4.0),
        _rec("s2", "EE-PR", "i2", "zero"),
        _rec("s2", "EE-PR", "i3", "correct", 1.0),
        _rec("s2", "EE-PR", "i4", "zero"),
    ]
    counts = {c.solver: c for c in aggregate(records)}
    s1, s2 = counts["s1"], counts["s2"]
    assert (s1.correct, s1.wrong, s1.timeouts, s1.other) == (2, 1, 1, 0)
    assert s1.points == 2 - 5
    assert s1.time == 5.0
    # i2 and i3 were each solved by exactly one solver.
    assert (s1.usc, s1.usc_unchecked) == (1, 1)
    assert (s2.usc, s2.usc_unchecked) == (1, 0)
    assert (s2.correct, s2.wrong, s2.other) == (2, 0, 2)


def test_rank_over_records_restricted_to_tasks():
    records = [
        _rec("s1", "EE-PR", "i1", "correct"),
        _rec("s1", "SE-GR", "i1", "incorrect"),
        _rec("s2", "EE-PR", "i1", "zero"),
    ]
    rows = rank_counts(aggregate(records, tasks=["EE-PR"]))
    assert rows[0].counts.solver == "s1"
    assert rows[0].counts.points == 1


def test_empty_records_score_zero():
    assert rank_counts(aggregate([])) == []
    assert SolverCounts("x", 0, 0).points == 0
