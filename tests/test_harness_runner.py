import json
import os
import stat
import sys
import textwrap

import pytest

from afkit.harness.limits import ResourceLimits
from afkit.harness.records import JobRecord, append_record, read_records
from afkit.harness.runner import (JobSpec, SolverSpec, load_roster, run_job,
                                  run_jobs)


def make_script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


@pytest.fixture
def instance(tmp_path):
    p = tmp_path / "inst.apx"
    p.write_text("arg(a).\narg(b).\natt(a,b).\n")
    return str(p)


def spec(cmd, solver_id="s", tasks=("*",)):
    return SolverSpec(solver_id=solver_id, command=(cmd,), tasks=tuple(tasks))


class TestRunJob:
    def test_captures_stdout_and_flags(self, tmp_path, instance):
        cmd = make_script(tmp_path, "echoer.sh", 'echo "args: $@"\n')
        record = run_job(JobSpec(spec(cmd), "EE-PR", "inst", instance, "apx",
                                 limits=ResourceLimits(5, 2 ** 30)))
        assert record.status == "ok" and record.exit_status == 0
        assert "-f" in record.raw and "-p EE-PR" in record.raw

    def test_query_flag_passed(self, tmp_path, instance):
        cmd = make_script(tmp_path, "echoer.sh", 'echo "$@"\n')
        record = run_job(JobSpec(spec(cmd), "DC-CO", "inst", instance, "apx",
                                 query="a", limits=ResourceLimits(5, 2 ** 30)))
        assert "-a a" in record.raw

    def test_timeout_kills_and_marks(self, tmp_path, instance):
        cmd = make_script(tmp_path, "sleeper.sh", "sleep 30\necho done\n")
        record = run_job(JobSpec(spec(cmd), "EE-PR", "inst", instance, "apx",
                                 limits=ResourceLimits(0.3, 2 ** 30)))
        assert record.status == "timeout"
        assert record.elapsed < 5
        assert record.verdict is None and record.points == 0

    def test_spawn_failure_is_zero_with_diagnostic(self, instance):
        record = run_job(JobSpec(spec("/nonexistent/solver"), "EE-PR", "inst",
                                 instance, "apx",
                                 limits=ResourceLimits(5, 2 ** 30)))
        assert record.status == "error"
        assert "spawn failed" in record.diagnostic

    def test_crash_records_exit_status(self, tmp_path, instance):
        cmd = make_script(tmp_path, "crasher.sh", "exit 3\n")
        record = run_job(JobSpec(spec(cmd), "EE-PR", "inst", instance, "apx",
                                 limits=ResourceLimits(5, 2 ** 30)))
        assert record.status == "error" and record.exit_status == 3

    def test_unadvertised_task_never_spawns(self, instance):
        record = run_job(JobSpec(spec("/bin/echo", tasks=("EE-PR",)), "SE-GR",
                                 "inst", instance, "apx"))
        assert record.status == "error"
        assert "advertise" in record.diagnostic

    @pytest.mark.skipif(sys.platform != "linux", reason="rlimit semantics")
    def test_memory_limit_enforced(self, tmp_path, instance):
        hog = tmp_path / "hog.py"
        hog.write_text("x = bytearray(600 * 1024 * 1024)\nprint('grew')\n")
        solver = SolverSpec("hog", (sys.executable, str(hog)))
        record = run_job(JobSpec(solver, "EE-PR", "inst", instance, "apx",
                                 limits=ResourceLimits(20, 256 * 1024 * 1024)))
        assert record.status == "error"
        assert "grew" not in record.raw


class TestRunJobs:
    def test_parallel_results_sorted_deterministically(self, tmp_path, instance):
        cmd = make_script(tmp_path, "echoer.sh", 'echo "ok"\n')
        jobs = [JobSpec(spec(cmd, solver_id=s), "EE-PR", f"i{i}", instance,
                        "apx", limits=ResourceLimits(5, 2 ** 30))
                for s in ("s2", "s1") for i in (3, 1, 2)]
        records = run_jobs(jobs, parallelism=4)
        keys = [(r.solver, r.instance) for r in records]
        assert keys == sorted(keys)

    def test_log_is_append_only_jsonl(self, tmp_path, instance):
        cmd = make_script(tmp_path, "echoer.sh", 'echo "ok"\n')
        log = tmp_path / "log.jsonl"
        jobs = [JobSpec(spec(cmd), "EE-PR", f"i{i}", instance, "apx",
                        limits=ResourceLimits(5, 2 ** 30)) for i in range(3)]
        run_jobs(jobs, parallelism=1, log_path=log)
        run_jobs(jobs[:1], parallelism=1, log_path=log)
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line)["task"] == "EE-PR" for line in lines)


class TestRecordsAndRoster:
    def test_record_round_trip(self, tmp_path):
        r = JobRecord(solver="s", task="EE-PR", instance="i", elapsed=1.5)
        r.judged("correct", unchecked=True)
        log = tmp_path / "r.jsonl"
        append_record(log, r)
        back = list(read_records(log))
        assert back == [r]
        assert back[0].points == 1 and back[0].unchecked

    def test_append_record_fsyncs_every_line(self, tmp_path, monkeypatch):
        from afkit.harness import records
        synced = []
        real_fsync = records.os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(records.os, "fsync", counting_fsync)
        log = tmp_path / "r.jsonl"
        for i in range(3):
            append_record(log, JobRecord(solver="s", task="EE-PR",
                                         instance=f"i{i}"))
        assert len(synced) == 3
        assert [r.instance for r in read_records(log)] == ["i0", "i1", "i2"]

    def test_points_verdict_coupling(self):
        r = JobRecord(solver="s", task="t", instance="i")
        assert r.judged("incorrect").points == -5
        assert r.judged("zero").points == 0
        assert r.judged("correct").points == 1

    def test_load_roster(self, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_text(json.dumps([
            {"id": "one", "command": ["solver1"], "tasks": ["EE-PR"]},
            {"id": "two", "command": ["solver2", "--flag"]},
        ]))
        solvers = load_roster(roster)
        assert solvers[0].solver_id == "one"
        assert not solvers[0].supports_task("SE-GR")
        assert solvers[1].supports_task("SE-GR")
        assert solvers[1].command == ("solver2", "--flag")


class TestOwnSolverThroughRunner:
    def test_ee_pr_raw_output_on_example(self, tmp_path, example1):
        from afkit.formats import write_apx
        inst = tmp_path / "example1.apx"
        inst.write_text(write_apx(example1))
        solver = SolverSpec("self", (sys.executable, "-m", "afkit"))
        record = run_job(JobSpec(solver, "EE-PR", "example1", str(inst), "apx",
                                 limits=ResourceLimits(60, 2 ** 31)))
        assert record.status == "ok"
        assert record.raw.strip() == "[[a,h],[b,d,h]]"

    def test_d3_gets_the_long_limits_by_default(self):
        assert ResourceLimits.for_task("D3").wall_seconds == 1800.0
        assert ResourceLimits.for_task("D3").memory_bytes == int(6.5 * 1024 ** 3)
        assert ResourceLimits.for_task("EE-PR").wall_seconds == 600.0
        assert ResourceLimits.for_task("EE-PR").memory_bytes == 4 * 1024 ** 3
