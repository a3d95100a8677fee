"""``parse_apx`` pauses the cyclic garbage collector and leaves it as it
found it, whether the parse succeeds or raises."""

import gc

import pytest

from afkit.errors import FormatError
from afkit.formats import parse_apx

GOOD = "arg(a).\narg(b).\natt(a,b).\n"
BAD = "arg(a).\natt(a,b).\n"


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_good_parse_restores_collector_state(gc_state):
    assert len(parse_apx(GOOD)) == 2
    assert gc.isenabled() is gc_state


def test_failed_parse_restores_collector_state(gc_state):
    with pytest.raises(FormatError):
        parse_apx(BAD)
    assert gc.isenabled() is gc_state
