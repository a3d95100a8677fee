import gc
import json
import sys

import networkx as nx
import pytest

from afkit import cli, oracle
from afkit.formats import load_framework, write_apx
from afkit.generators import ErdosRenyi, gen_erdos
from afkit.rng import SeededRng
from afkit.solutions import parse_solution
from afkit.tasks import all_task_names, parse_task


@pytest.fixture(autouse=True)
def unfreeze_heap():
    """Solver mode freezes the heap once it has loaded the framework; an
    in-process call must not leave pytest's heap frozen."""
    yield
    gc.unfreeze()


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def example1_apx(tmp_path, example1):
    p = tmp_path / "example1.apx"
    p.write_text(write_apx(example1))
    return str(p)


class TestSolverMode:
    def test_formats(self, capsys):
        code, out, _ = run_cli(capsys, "--formats")
        assert code == 0 and out == "[apx,tgf]\n"

    def test_problems(self, capsys):
        code, out, _ = run_cli(capsys, "--problems")
        assert code == 0
        assert out.startswith("[DC-CO,DS-CO,SE-CO,EE-CO,")
        assert out.rstrip().endswith(",D3]")
        assert len(out.strip()[1:-1].split(",")) == 25

    def test_se_st_prints_no(self, capsys, example1_apx):
        code, out, _ = run_cli(capsys, "-p", "SE-ST", "-fo", "apx",
                               "-f", example1_apx)
        assert code == 0 and out == "NO\n"

    def test_dc_gr_query(self, capsys, example1_apx):
        code, out, _ = run_cli(capsys, "-p", "DC-GR", "-a", "h", "-fo", "apx",
                               "-f", example1_apx)
        assert code == 0 and out == "NO\n"

    def test_ee_pr(self, capsys, example1_apx):
        code, out, _ = run_cli(capsys, "-p", "EE-PR", "-fo", "apx",
                               "-f", example1_apx)
        assert code == 0 and out == "[[a,h],[b,d,h]]\n"

    def test_unsupported_task_diagnostic_on_stderr(self, capsys, example1_apx):
        code, out, err = run_cli(capsys, "-p", "EE-XX", "-fo", "apx",
                                 "-f", example1_apx)
        assert code != 0 and out == "" and "EE-XX" in err

    def test_budget_failure_never_prints_no(self, capsys, example1_apx):
        code, out, err = run_cli(capsys, "-p", "SE-PR", "-fo", "apx",
                                 "-f", example1_apx, "--budget", "1")
        assert code != 0 and out == "" and err

    def test_missing_flags_usage(self, capsys):
        code, out, err = run_cli(capsys, "-p", "EE-PR")
        assert code == 2 and out == ""

    def test_oracle_subcommand_same_answers(self, capsys, example1_apx):
        code, out, _ = run_cli(capsys, "oracle", "-f", example1_apx,
                               "-fo", "apx", "-p", "EE-STG")
        assert code == 0 and out == "[[a,e,h],[b,d,h],[b,e,h]]\n"

    def test_self_compatibility_round_trip(self, capsys, tmp_path):
        # Solver-mode stdout must parse back for every task on generator
        # output: the harness judges our own solver with our own parser.
        af = gen_erdos(ErdosRenyi(n=6, prob_attacks=0.3), SeededRng(8))
        path = tmp_path / "inst.apx"
        path.write_text(write_apx(af))
        for name in all_task_names():
            argv = ["-p", name, "-fo", "apx", "-f", str(path)]
            task_query = None
            if name.startswith(("DC", "DS")):
                task_query = af.args[0]
                argv += ["-a", task_query]
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, (name, err)
            task = parse_task(name, task_query)
            parsed = parse_solution(task, out)
            assert parsed.answer is not None, (name, out)
            assert parsed.answer == oracle.solve(task, af)


def _loaded_modules(*args):
    """Every module a fresh interpreter imports while running ``args``,
    read from ``-X importtime``."""
    import os
    import subprocess
    from pathlib import Path

    import afkit
    src = str(Path(afkit.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def _imported_modules(*args):
    """Modules a fresh interpreter imports while running ``args``, beyond
    those a bare interpreter already imports."""
    return _loaded_modules(*args) - _loaded_modules("-c", "pass")


class TestImportBoundary:
    # Solver mode must not pay for the competition harness or the
    # generators: each ICCMA call is a fresh process, timed from spawn.
    HEAVY = {"afkit.harness", "afkit.generators", "afkit.subcommands",
             "afkit.oracle", "concurrent.futures", "csv"}

    def test_solver_call_loads_only_the_solving_modules(self, example1_apx):
        loaded = _imported_modules("-m", "afkit", "-f", example1_apx,
                                   "-fo", "apx", "-p", "SE-GR")
        assert {"afkit.cli", "afkit.formats", "afkit.engine"} <= loaded
        assert not loaded & self.HEAVY

    def test_solver_call_imports_no_typing_dataclasses_or_pathlib(
            self, example1_apx):
        # -S keeps site-packages' own imports out of the list.
        loaded = _loaded_modules("-S", "-m", "afkit", "-f", example1_apx,
                                 "-fo", "apx", "-p", "EE-PR")
        assert "afkit.engine" in loaded
        assert not loaded & {"typing", "dataclasses", "inspect", "pathlib",
                              "shutil"}

    def test_problems_loads_only_the_solving_modules(self):
        loaded = _imported_modules("-m", "afkit", "--problems")
        assert "afkit.cli" in loaded
        assert not loaded & self.HEAVY

    def test_oracle_names_resolve_on_first_use(self):
        import afkit
        assert afkit.solve is oracle.solve
        assert afkit.oracle_enumerate is oracle.oracle_enumerate
        with pytest.raises(AttributeError):
            afkit.no_such_name


class TestGenerate:
    def test_spec_lines_and_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "inst"
        code, _, err = run_cli(capsys, "generate", "--out", str(out_dir),
                               "--seed", "5", "--spec",
                               "erdos n=6 prob_attacks=0.4 count=3",
                               "--spec", "admbuster n=6")
        assert code == 0
        files = sorted(p.name for p in out_dir.glob("*.apx"))
        assert len(files) == 4
        manifest = json.loads((out_dir / "instances.json").read_text())
        assert {m["domain"] for m in manifest} == {"erdosrenyi", "admbuster"}

    def test_manifest_counts_the_sccs(self, capsys, tmp_path):
        out_dir = tmp_path / "inst"
        code, _, _ = run_cli(capsys, "generate", "--out", str(out_dir),
                             "--seed", "3", "--spec",
                             "scc n=30 n_sccs=4 inner_attack_prob=0.6 "
                             "outer_attack_prob=0.05 count=2",
                             "--spec", "admbuster n=6")
        assert code == 0
        manifest = json.loads((out_dir / "instances.json").read_text())
        assert len(manifest) == 3
        for row in manifest:
            af = load_framework(out_dir / row["file"])
            g = nx.DiGraph()
            g.add_nodes_from(af.args)
            g.add_edges_from(af.attacks)
            sizes = [len(c) for c in nx.strongly_connected_components(g)]
            assert (row["sccs"], row["largest_scc"]) == (len(sizes),
                                                         max(sizes))
        # AdmBuster is acyclic: every argument is a component of its own.
        assert (manifest[2]["sccs"], manifest[2]["largest_scc"]) == (6, 1)
        assert max(row["largest_scc"] for row in manifest[:2]) > 1

    def test_deterministic_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            run_cli(capsys, "generate", "--out", str(out_dir), "--seed", "7",
                    "--spec", "watts n=10 k=2 beta=0.3 prob_cycles=0.5")
        fa, fb = next(a.glob("*.apx")), next(b.glob("*.apx"))
        assert fa.read_text() == fb.read_text()

    def test_batch_file(self, capsys, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text("# demo\nscc n=8 n_sccs=2 inner_attack_prob=0.5 "
                         "outer_attack_prob=0.1 count=2\n")
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "generate", "--out", str(out_dir),
                             "--batch", str(batch))
        assert code == 0
        assert len(list(out_dir.glob("*.apx"))) == 2

    def test_tgf_output_loads(self, capsys, tmp_path):
        out_dir = tmp_path / "inst"
        run_cli(capsys, "generate", "--out", str(out_dir), "--format", "tgf",
                "--spec", "erdos n=5 prob_attacks=0.5")
        af = load_framework(next(out_dir.glob("*.tgf")))
        assert len(af.args) == 5

    def test_runs_without_networkx(self, tmp_path):
        # afkit's runtime is the standard library alone: cycle enrichment
        # must work, byte for byte, where networkx cannot be imported.
        import hashlib
        import os
        import subprocess
        from pathlib import Path

        import afkit
        src = str(Path(afkit.__file__).resolve().parent.parent)
        wrapper = ('import sys; sys.modules["networkx"] = None; '
                   'from afkit.cli import main; sys.exit(main())')
        out_dir = tmp_path / "inst"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "generate", "--out", str(out_dir),
             "--seed", "7",
             "--spec", "watts n=200 k=2 beta=0.1 prob_cycles=0.9",
             "--spec", "barabasi n=200 prob_cycles=0.9"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True)
        assert proc.returncode == 0, proc.stderr
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out_dir.glob("*.apx")}
        assert digests == {
            "wattsstrogatz_00000.apx":
                "918bd215bc60ffc998138a403916befae244ed08eb3aaae1b68841e85312c942",
            "barabasialbert_00001.apx":
                "3c5f91fbea9e89b94f6470ecd17bb03cf0d37f0ccbb3b853ef344f32e13c95f8",
        }


def _roster(tmp_path, name="roster.json", entries=None):
    entries = entries or [
        {"id": "afkit-optimized", "command": [sys.executable, "-m", "afkit"]},
    ]
    p = tmp_path / name
    p.write_text(json.dumps(entries))
    return str(p)


class TestPipeline:
    def test_run_and_report(self, capsys, tmp_path):
        out_dir = tmp_path / "inst"
        run_cli(capsys, "generate", "--out", str(out_dir), "--seed", "11",
                "--spec", "erdos n=5 prob_attacks=0.4 count=2")
        roster = _roster(tmp_path)
        log = tmp_path / "jobs.jsonl"
        code, _, err = run_cli(capsys, "run", "--roster", roster,
                               "--instances", str(out_dir),
                               "--tasks", "EE-PR", "SE-GR", "DC-CO",
                               "--out", str(log), "--jobs", "2",
                               "--timeout", "60")
        assert code == 0, err
        from afkit.harness.records import read_records
        records = list(read_records(log))
        assert records and all(r.verdict == "correct" for r in records)
        report_dir = tmp_path / "report"
        code, _, _ = run_cli(capsys, "report", "--log", str(log),
                             "--out-dir", str(report_dir))
        assert code == 0
        rows = json.loads((report_dir / "summary.json").read_text())
        assert rows[0]["wrong"] == 0

    def test_classify_select(self, capsys, tmp_path):
        out_dir = tmp_path / "inst"
        run_cli(capsys, "generate", "--out", str(out_dir), "--seed", "3",
                "--spec", "erdos n=5 prob_attacks=0.4 count=6",
                "--spec", "admbuster n=6 count=1")
        roster = _roster(tmp_path, entries=[
            {"id": f"ref{i}", "command": [sys.executable, "-m", "afkit"]}
            for i in range(3)])
        classification = tmp_path / "classes.json"
        code, _, err = run_cli(capsys, "classify", "--roster", roster,
                               "--instances", str(out_dir),
                               "--task", "EE-PR", "--base-timeout", "30",
                               "--jobs", "3", "--out", str(classification))
        assert code == 0, err
        rows = json.loads(classification.read_text())
        assert len(rows) == 7
        assert all(r["category"] == "very_easy" for r in rows)

        manifest = tmp_path / "manifest.json"
        code, _, err = run_cli(capsys, "select", "--classification",
                               str(classification), "--group", "A",
                               "--seed", "2", "--quota", "3", "0", "0", "0", "0",
                               "--out", str(manifest))
        assert code == 0, err
        data = json.loads(manifest.read_text())
        assert len(data["instances"]) == 3
        # very easy instances carry no query arguments
        assert all(row["queries"] == [] for row in data["instances"])

    def test_report_from_counts_csv(self, capsys, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("solver,correct,wrong,time\n"
                          "pyglaf,1229,0,28774.77\n"
                          "gg-sts,834,402,18203.86\n")
        out_dir = tmp_path / "rep"
        code, _, err = run_cli(capsys, "report", "--counts", str(counts),
                               "--out-dir", str(out_dir))
        assert code == 0
        rows = json.loads((out_dir / "summary.json").read_text())
        assert rows[0] == {"rank": 1, "solver": "pyglaf", "points": 1229,
                           "time": 28774.77, "correct": 1229, "wrong": 0,
                           "tied": False}
        assert rows[1]["points"] == 834 - 5 * 402

    def test_report_from_header_only_counts_csv_is_a_clean_error(
            self, capsys, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("solver,correct,wrong,time\n")
        code, out, err = run_cli(capsys, "report", "--counts", str(counts),
                                 "--out-dir", str(tmp_path / "rep"))
        assert code == 1 and out == ""
        assert err.startswith("afkit: ") and "no solver rows" in err


class TestOutsideInputErrors:
    """Bad files from outside end in ``afkit: …`` and exit 1, never in a
    traceback."""

    @pytest.mark.parametrize("argv", [
        ["-p", "EE-PR", "-fo", "apx", "-f", "{missing}"],
        ["run", "--roster", "{missing}", "--instances", "{tmp}",
         "--out", "{tmp}/log.jsonl"],
        ["report", "--counts", "{missing}", "--out-dir", "{tmp}/rep"],
        ["report", "--log", "{missing}", "--out-dir", "{tmp}/rep"],
    ], ids=["instance", "roster", "counts", "log"])
    def test_missing_file(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "nowhere.txt")
        argv = [a.format(missing=missing, tmp=tmp_path) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("afkit: ") and "nowhere.txt" in err

    @pytest.mark.parametrize("text", [
        "solver,correct,time\npyglaf,3,1.5\n",
        "solver,correct,wrong,time\npyglaf,3,x,1.5\n",
        "solver,correct,wrong,time\npyglaf,3,0,\n",
    ], ids=["missing-column", "not-a-number", "empty-time"])
    def test_bad_counts_row_names_its_line(self, capsys, tmp_path, text):
        counts = tmp_path / "counts.csv"
        counts.write_text(text)
        code, out, err = run_cli(capsys, "report", "--counts", str(counts),
                                 "--out-dir", str(tmp_path / "rep"))
        assert code == 1 and out == ""
        assert err.startswith("afkit: ") and "line 2" in err

    def test_log_line_that_is_not_json_names_its_line(self, capsys, tmp_path):
        from afkit.harness.records import JobRecord
        log = tmp_path / "jobs.jsonl"
        good = JobRecord("s", "SE-GR", "i1", verdict="correct").to_json()
        log.write_text(good + "\n{not json\n")
        code, out, err = run_cli(capsys, "report", "--log", str(log),
                                 "--out-dir", str(tmp_path / "rep"))
        assert code == 1 and out == ""
        assert err.startswith("afkit: line 2: ")

    @pytest.mark.parametrize("argv", [
        ["run", "--roster", "{bad}", "--instances", "{tmp}",
         "--out", "{tmp}/log.jsonl"],
        ["run", "--roster", "{roster}", "--manifest", "{bad}",
         "--out", "{tmp}/log.jsonl"],
        ["classify", "--roster", "{bad}", "--instances", "{tmp}",
         "--task", "SE-GR", "--out", "{tmp}/cls.json"],
        ["select", "--classification", "{bad}", "--group", "A",
         "--out", "{tmp}/sel.json"],
        ["select", "--classification", "{bad}", "--group", "E",
         "--copy-queries-from", "{bad}", "--out", "{tmp}/sel.json"],
    ], ids=["roster", "manifest", "classify-roster", "classification",
            "copy-queries-from"])
    def test_file_that_is_not_json_is_named(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"id": "s",\n')
        roster = _roster(tmp_path)
        argv = [a.format(bad=bad, roster=roster, tmp=tmp_path) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"afkit: {bad}: not JSON: ")

    @pytest.mark.parametrize("entries, message", [
        ([{"command": ["true"]}], "has no 'id' key"),
        ([{"id": "s"}], "has no 'command' key"),
        ({"id": "s", "command": ["true"]}, "not a list of solver descriptors"),
        ([{"id": "s", "command": 7}], "not a list of solver descriptors"),
        ([{"id": "s", "command": "python3"}], "'command' is not a list"),
        ([{"id": "s", "command": ["python3"], "formats": "apx"}],
         "'formats' is not a list"),
        ([{"id": "s", "command": ["python3"], "tasks": "EE-PR"}],
         "'tasks' is not a list"),
        ([{"id": "s", "command": ["python3", 3]}], "'command' is not a list"),
    ], ids=["no-id", "no-command", "not-a-list", "command-not-a-list",
            "command-string", "formats-string", "tasks-string",
            "command-not-strings"])
    def test_roster_entry_without_a_field_is_named(self, capsys, tmp_path,
                                                   entries, message):
        roster = tmp_path / "roster.json"
        roster.write_text(json.dumps(entries))
        code, out, err = run_cli(capsys, "run", "--roster", str(roster),
                                 "--instances", str(tmp_path),
                                 "--out", str(tmp_path / "log.jsonl"))
        assert code == 1 and out == ""
        assert err.startswith(f"afkit: {roster}: ") and message in err


    @pytest.mark.parametrize("argv, content", [
        (["run", "--roster", "{roster}", "--manifest", "{bad}",
          "--out", "{tmp}/log.jsonl"], {"rows": []}),
        (["select", "--classification", "{bad}", "--group", "A",
          "--out", "{tmp}/sel.json"], [{"instance": "a"}]),
        (["select", "--classification", "{bad}", "--group", "E",
          "--copy-queries-from", "{bad}", "--out", "{tmp}/sel.json"],
         {"group": "A"}),
    ], ids=["manifest", "classification", "copy-queries-from"])
    def test_json_without_a_key_is_named(self, capsys, tmp_path, argv,
                                         content):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        roster = _roster(tmp_path)
        argv = [a.format(bad=bad, roster=roster, tmp=tmp_path) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"afkit: {bad}: ") and "has no '" in err

    def test_instance_manifest_row_without_domain_is_named(self, capsys,
                                                           tmp_path):
        inst = tmp_path / "inst"
        inst.mkdir()
        meta = inst / "instances.json"
        meta.write_text(json.dumps([{"file": "a.apx"}]))
        roster = _roster(tmp_path, entries=[
            {"id": f"s{i}", "command": [sys.executable, "-m", "afkit"]}
            for i in range(3)])
        code, out, err = run_cli(capsys, "classify", "--roster", roster,
                                 "--instances", str(inst), "--task", "SE-GR",
                                 "--out", str(tmp_path / "cls.json"))
        assert code == 1 and out == ""
        assert err.startswith(f"afkit: {meta}: ") and "'domain'" in err


class TestPresetGeneration:
    def test_grounded_preset_writes_fifty_files(self, capsys, tmp_path):
        out_dir = tmp_path / "inst"
        code, _, err = run_cli(capsys, "generate", "--out", str(out_dir),
                               "--seed", "12", "--preset", "grounded")
        assert code == 0, err
        assert len(list(out_dir.glob("*.apx"))) == 50

    def test_limit_caps_output(self, capsys, tmp_path):
        out_dir = tmp_path / "inst"
        run_cli(capsys, "generate", "--out", str(out_dir), "--seed", "12",
                "--preset", "grounded", "--limit", "3")
        assert len(list(out_dir.glob("*.apx"))) == 3
