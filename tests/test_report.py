import csv
import json

import pytest

from afkit.harness.records import JobRecord
from afkit.harness.report import cactus_series, emit_report


def _rec(solver, instance, verdict, elapsed):
    r = JobRecord(solver=solver, task="EE-PR", instance=instance,
                  elapsed=elapsed)
    r.judged(verdict)
    return r


def test_emit_report_files_and_rows(tmp_path):
    records = [
        _rec("good", "i1", "correct", 1.0),
        _rec("good", "i2", "correct", 2.0),
        _rec("good", "i3", "correct", 0.5),
        _rec("bad", "i1", "incorrect", 1.0),
        _rec("bad", "i2", "zero", 1.0),
        _rec("bad", "i3", "correct", 9.0),
    ]
    rows = emit_report(records, tmp_path)
    assert rows[0]["solver"] == "good" and rows[0]["points"] == 3
    assert rows[1]["solver"] == "bad" and rows[1]["points"] == 1 - 5
    # i1, i2 solved only by "good": USC 2; i3 by both: no USC.
    assert rows[0]["usc"] == 2
    with open(tmp_path / "summary.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert [t["solver"] for t in table] == ["good", "bad"]
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data == rows
    assert (tmp_path / "cactus.csv").exists()


def test_single_solver_three_correct(tmp_path):
    rows = emit_report([_rec("s", f"i{k}", "correct", 1.0) for k in range(3)],
                       tmp_path)
    assert rows == [{"rank": 1, "solver": "s", "points": 3, "time": 3.0,
                     "correct": 3, "wrong": 0, "timeouts": 0, "other": 0,
                     "usc": 3, "usc_unchecked": 0, "tied": False}]


def test_cactus_series_monotone():
    records = [_rec("s", f"i{k}", "correct", t)
               for k, t in enumerate([5.0, 1.0, 3.0, 2.0])]
    records.append(_rec("s", "i9", "zero", 100.0))
    series = cactus_series(records)["s"]
    assert [p[0] for p in series] == [1, 2, 3, 4]
    times = [p[1] for p in series]
    assert times == sorted(times)
    assert times[-1] == pytest.approx(11.0)

