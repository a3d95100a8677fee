"""``parse_apx`` and ``parse_tgf`` pause the cyclic garbage collector and
leave it as they found it, whether the parse succeeds or raises."""

import gc

import pytest

from afkit import formats
from afkit.errors import FormatError
from afkit.formats import parse_apx, parse_tgf

GOOD = "arg(a).\narg(b).\natt(a,b).\n"
BAD = "arg(a).\natt(a,b).\n"
GOOD_TGF = "a\nb\n#\na b\n"
BAD_TGF = "a\n#\na b\n"


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


def test_good_tgf_parse_restores_collector_state(gc_state):
    assert len(parse_tgf(GOOD_TGF)) == 2
    assert gc.isenabled() is gc_state


def test_failed_tgf_parse_restores_collector_state(gc_state):
    with pytest.raises(FormatError):
        parse_tgf(BAD_TGF)
    assert gc.isenabled() is gc_state


@pytest.mark.parametrize("parse,text", [(parse_apx, GOOD),
                                        (parse_tgf, GOOD_TGF)],
                         ids=["apx", "tgf"])
def test_collector_is_off_while_the_framework_is_built(monkeypatch, gc_state,
                                                       parse, text):
    states = []
    build = formats.ArgumentationFramework

    def spy(*args):
        states.append(gc.isenabled())
        return build(*args)

    monkeypatch.setattr(formats, "ArgumentationFramework", spy)
    parse(text)
    assert states == [False]
    assert gc.isenabled() is gc_state
