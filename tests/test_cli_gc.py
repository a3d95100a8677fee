"""Solver mode loads the framework with the cyclic garbage collector off,
then freezes it, and leaves the collector as it found it, whether the call
succeeds or fails."""

import gc

import pytest

from afkit import cli

GOOD = "arg(a).\narg(b).\natt(a,b).\n"
BAD = "arg(a).\natt(a,b).\n"


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()
    gc.unfreeze()


def solve(tmp_path, text):
    path = tmp_path / "instance.apx"
    path.write_text(text)
    return cli.main(["-f", str(path), "-fo", "apx", "-p", "EE-PR"])


def test_solver_call_restores_collector_state(gc_state, tmp_path, capsys):
    assert solve(tmp_path, GOOD) == 0
    assert capsys.readouterr().out == "[[a]]\n"
    assert gc.isenabled() is gc_state


def test_failed_load_restores_collector_state(gc_state, tmp_path, capsys):
    assert solve(tmp_path, BAD) == 1
    assert "line 2" in capsys.readouterr().err
    assert gc.isenabled() is gc_state


def test_solver_call_freezes_what_it_loaded(gc_state, tmp_path, capsys):
    gc.unfreeze()
    assert gc.get_freeze_count() == 0
    assert solve(tmp_path, GOOD) == 0
    assert gc.get_freeze_count() > 0
