"""Tests of the benchmark itself, at minimum sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

They check that each workload runs and passes its own correctness gate on
small inputs, that a tampered answer is counted as failed, that a cap kills
a child rather than waiting for it, and that the command refuses to run
without the afkit sources.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchlib import require_source, run_capped  # noqa: E402
from spans import Tracer, layer_seconds  # noqa: E402

require_source()

import calls  # noqa: E402
import ladder  # noqa: E402
import pipeline  # noqa: E402

LADDER_MIN = {family: sizes[:1] for family, sizes in ladder.SIZES.items()}
LADDER_MIN["grounded"] = (12, 30)    # one rung above the oracle's reach


def _ladder_pass(tmp_path, tracer):
    state = ladder.setup(3, tracer, tmp_path, sizes=LADDER_MIN)
    with tracer.span("pass"):
        p = ladder.run_pass(state, tracer, 0)
    return state, p


def test_ladder_smoke(tmp_path):
    tracer = Tracer(enabled=True)
    state, p = _ladder_pass(tmp_path, tracer)
    with tracer.span("check"):
        ladder.check(state, [p], tracer, None)
    assert p.failed == []
    assert p.items == len(state.cells) == 9 * len(ladder.TASKS)
    assert p.score > 0
    seconds = layer_seconds(tracer.spans, 1)
    assert seconds["oracle.solve"] > 0
    assert any(name.startswith("verify.") for name in seconds)
    # A solved cell scores only once a check has covered it.
    assert p.score == len(state.answers) - state.unchecked


def test_tampered_ladder_answer_is_failed(tmp_path):
    tracer = Tracer(enabled=False)
    state, p = _ladder_pass(tmp_path, tracer)
    ladder.check(state, [p], tracer, None)
    honest = p.score
    op = "admbuster/12/EE-PR"
    assert p.extra["status"][op] == "ok"
    p.extra["texts"][op] = "[[" + ",".join(sorted(
        state.frameworks[("admbuster", 12)].args)) + "]]"
    ladder.check(state, [p], tracer, None)
    assert p.failed == [f"{op}: differs from the oracle"]
    assert p.score == honest - 1 - 5


def test_tampered_ladder_answer_above_oracle_cap_is_failed(tmp_path):
    tracer = Tracer(enabled=False)
    state, p = _ladder_pass(tmp_path, tracer)
    op = "grounded/30/DS-PR"
    assert p.extra["status"][op] == "ok"
    flipped = {"YES": "NO", "NO": "YES"}[p.extra["texts"][op]]
    p.extra["texts"][op] = flipped
    ladder.check(state, [p], tracer, None)
    assert p.failed == [f"{op}: disagrees with EE-PR"]


def _ideal_above_grounded():
    """a and b attack each other, b attacks itself, and 12 unattacked
    arguments pad the framework past the oracle's check: the ideal
    extension holds a, the grounded extension does not."""
    from afkit.core import ArgumentationFramework
    from afkit.engine import solve_optimized
    from afkit.solutions import write_solution
    from afkit.tasks import parse_task

    pad = [f"x{i}" for i in range(12)]
    af = ArgumentationFramework(["a", "b"] + pad,
                                [("a", "b"), ("b", "a"), ("b", "b")])
    cells = {task: ladder.Cell(f"t/{task}", "t", 14, task,
                               "a" if task == "DC-PR" else None)
             for task in ("EE-PR", "SE-ID", "DC-PR")}
    texts = {c.op: write_solution(parse_task(c.task, c.query),
                                  solve_optimized(parse_task(c.task, c.query), af))
             for c in cells.values()}
    return af, cells, texts


def test_non_maximal_ideal_extension_is_failed():
    tracer = Tracer(enabled=False)
    af, cells, texts = _ideal_above_grounded()
    cell = cells["SE-ID"]
    assert ladder.check_cell(af, cell, texts, cells, tracer) == "ok"
    texts[cell.op] = "[" + ",".join(sorted(f"x{i}" for i in range(12))) + "]"
    assert ladder.check_cell(af, cell, texts, cells, tracer) == \
        "not the largest admissible set inside every preferred extension"


def test_decision_without_sibling_is_checked_on_its_ancestry():
    tracer = Tracer(enabled=False)
    af, cells, texts = _ideal_above_grounded()
    cell = cells["DC-PR"]
    del texts[cells["EE-PR"].op]
    assert ladder.check_cell(af, cell, texts, cells, tracer) == "ok"
    texts[cell.op] = {"YES": "NO", "NO": "YES"}[texts[cell.op]]
    assert ladder.check_cell(af, cell, texts, cells, tracer) == \
        "differs from the oracle on the query's ancestry"


def test_recorded_answer_digest_mismatch_is_failed(tmp_path):
    tracer = Tracer(enabled=False)
    state, p = _ladder_pass(tmp_path, tracer)
    op = "erdos/12/EE-CO"
    ladder.check(state, [p], tracer, {"answers": {op: "0" * 16}})
    assert p.failed == [f"{op}: answer digest differs from the recorded run"]


def test_cli_smoke_and_tampered_stdout(tmp_path):
    tracer = Tracer(enabled=False)
    state = calls.setup(5, tracer, tmp_path, tiny=("sembuster", "watts"),
                        large=((200, ("SE-GR", "EE-PR")),))
    p = calls.run_pass(state, tracer, 0)
    calls.check(state, [p], tracer, None)
    assert p.failed == [] and p.score == p.items == 6
    op = "admbuster/200/EE-PR/1"
    status, code, out = p.extra["results"][op]
    p.extra["results"][op] = (status, code, out.replace("a1,", "", 1))
    calls.check(state, [p], tracer, None)
    assert p.failed == [f"{op}: stdout differs from the in-process answer"]
    assert p.score == 5 - 5


def test_pipeline_smoke(tmp_path):
    tracer = Tracer(enabled=True)
    state = pipeline.setup(2, tracer, tmp_path,
                           small={"admbuster": 8, "barabasi": 10},
                           large={"grounded": 22, "scc": 22, "stable": 22})
    with tracer.span("pass"):
        p = pipeline.run_pass(state, tracer, 0)
    pipeline.check(state, [p], tracer, None)
    assert p.failed == []
    solvers = {r.solver for r in p.extra["records"]}
    assert solvers == {"afkit-optimized", "afkit-oracle", "corrupted"}
    assert all(r.verdict == "incorrect" for r in p.extra["records"]
               if r.solver == "corrupted")
    assert (tmp_path / "round0" / "report" / "summary.csv").is_file()
    assert layer_seconds(tracer.spans, 1)["harness.judge"] > 0


def test_cap_kills_the_child():
    tracer = Tracer(enabled=False)
    t0 = time.perf_counter()
    res = run_capped(lambda: time.sleep(30), 0.2, tracer)
    assert res.status == "cap"
    assert time.perf_counter() - t0 < 5
    assert run_capped(lambda: 1 / 0, 5, tracer).status == "error"
    assert run_capped(lambda: "x" * 5_000_000, 5, tracer).value == "x" * 5_000_000


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cli", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_contract_line(trace):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           "pipeline", "--seed", "1", "--seconds", "1",
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
