import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afkit.errors import FormatError
from afkit.solutions import parse_solution, write_solution
from afkit.tasks import (AllExtensions, OneExtension, Triathlon, YesNo,
                         parse_task)

DC = parse_task("DC-CO", "a")
SE = parse_task("SE-PR")
EE = parse_task("EE-PR")
D3 = parse_task("D3")


class TestWrite:
    def test_verdicts(self):
        assert write_solution(DC, YesNo(True)) == "YES"
        assert write_solution(DC, YesNo(False)) == "NO"

    def test_single_extension_sorted(self):
        assert write_solution(SE, OneExtension(frozenset("cab"))) == "[a,b,c]"
        assert write_solution(SE, OneExtension(None)) == "NO"
        assert write_solution(SE, OneExtension(frozenset())) == "[]"

    def test_enumeration_canonical(self):
        ans = AllExtensions([frozenset({"b", "d", "h"}),
                             frozenset({"a", "h"})])
        assert write_solution(EE, ans) == "[[a,h],[b,d,h]]"
        assert write_solution(parse_task("EE-ST"), AllExtensions([])) == "[]"

    def test_d3_three_lines(self):
        ans = Triathlon([frozenset()], [], [frozenset({"a", "h"}),
                                            frozenset({"b", "d", "h"})])
        assert write_solution(D3, ans) == "[[]]\n[]\n[[a,h],[b,d,h]]"

    def test_shape_mismatch(self):
        with pytest.raises(FormatError):
            write_solution(DC, OneExtension(None))
        with pytest.raises(FormatError):
            write_solution(SE, YesNo(True))


class TestParse:
    def test_verdict(self):
        assert parse_solution(DC, "YES\n").answer == YesNo(True)
        assert parse_solution(DC, "  NO  ").answer == YesNo(False)
        assert parse_solution(DC, "maybe").answer is None

    def test_single_extension(self):
        assert parse_solution(SE, "[b, a]").answer == OneExtension(frozenset({"a", "b"}))
        assert parse_solution(SE, "NO").answer == OneExtension(None)
        assert parse_solution(SE, "[]").answer == OneExtension(frozenset())

    def test_enumeration(self):
        got = parse_solution(EE, "[[a,h],[b,d,h]]").answer
        assert got == AllExtensions([frozenset({"a", "h"}),
                                     frozenset({"b", "d", "h"})])
        assert parse_solution(EE, " [ [ ] ] ").answer == AllExtensions([frozenset()])
        assert parse_solution(EE, "[]").answer == AllExtensions([])

    def test_truncated_enumeration_is_marker(self):
        assert parse_solution(EE, "[[a],[b").answer is None

    def test_example1_preferred(self, example1):
        got = parse_solution(EE, "[[a,h],[b,d,h]]").answer
        from afkit.oracle import oracle_enumerate
        from afkit.tasks import Semantics
        assert set(got.extensions) == set(oracle_enumerate(Semantics.PR, example1))

    def test_d3(self):
        got = parse_solution(D3, "[[]]\n[]\n[[a,h],[b,d,h]]").answer
        assert isinstance(got, Triathlon)
        assert got.stable == ()
        assert len(got.preferred) == 2

    def test_d3_wrong_number_of_blocks(self):
        assert parse_solution(D3, "[[]]\n[]").answer is None
        assert parse_solution(D3, "[[]]\n[]\n[]\n[]").answer is None

    def test_trailing_garbage_is_marker(self):
        assert parse_solution(SE, "[a] ok").answer is None
        assert parse_solution(EE, "[[a]] [[b]]").answer is None


TASKS = [DC, SE, EE, D3, parse_task("DS-ST", "x"), parse_task("EE-ST")]


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=60), task=st.sampled_from(TASKS))
def test_parse_never_raises_on_arbitrary_text(text, task):
    result = parse_solution(task, text)
    assert result.raw == text


@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=80), task=st.sampled_from(TASKS))
def test_parse_never_raises_on_arbitrary_bytes(data, task):
    parse_solution(task, data.decode("utf-8", errors="replace"))


ids = st.from_regex(r"[a-z0-9_]{1,5}", fullmatch=True)
extensions = st.frozensets(ids, max_size=4)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parse_inverts_write(data):
    task = data.draw(st.sampled_from(TASKS))
    if task.problem in ("DC", "DS"):
        answer = YesNo(data.draw(st.booleans()))
    elif task.problem == "SE":
        answer = OneExtension(data.draw(st.none() | extensions))
    elif task.problem == "EE":
        answer = AllExtensions(data.draw(st.lists(extensions, max_size=4)))
    else:
        answer = Triathlon(data.draw(st.lists(extensions, max_size=2)),
                           data.draw(st.lists(extensions, max_size=2)),
                           data.draw(st.lists(extensions, max_size=2)))
    assert parse_solution(task, write_solution(task, answer)).answer == answer


# ---------------------------------------------------------------------------
# Properties of the answer grammar

ANSWER_TASKS = [SE, EE, D3]
# Whitespace as the parser sees it: Python's \s, Unicode included.
WHITESPACE = st.text(st.sampled_from(" \t\n\r\x0b\x0c\xa0 "), max_size=3)
# Ids of two or more characters, so that a space can split one.
long_ids = st.from_regex(r"[A-Za-z0-9_]{2,5}", fullmatch=True)


def _tokens(text):
    """The written text as ids and single characters, in order."""
    return re.findall(r"[A-Za-z0-9_]+|[^A-Za-z0-9_]", text)


def _draw_written(data, task, ids=ids, min_size=0):
    """The text ``write_solution`` gives for a drawn answer to ``task``."""
    exts = st.frozensets(ids, min_size=min_size, max_size=4)
    enums = st.lists(exts, min_size=min_size, max_size=3, unique=True)
    if task.problem in ("DC", "DS"):
        answer = YesNo(data.draw(st.booleans()))
    elif task.problem == "SE":
        answer = OneExtension(data.draw(exts))
    elif task.problem == "EE":
        answer = AllExtensions(data.draw(enums))
    else:
        answer = Triathlon(*(data.draw(enums) for _ in range(3)))
    return write_solution(task, answer)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_whitespace_at_token_boundaries_leaves_the_parse_unchanged(data):
    task = data.draw(st.sampled_from(TASKS))
    text = _draw_written(data, task)
    padded = "".join(data.draw(WHITESPACE) + tok for tok in _tokens(text))
    padded += data.draw(WHITESPACE)
    want = parse_solution(task, text).answer
    assert want is not None
    assert parse_solution(task, padded).answer == want


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_space_inside_an_id_is_a_marker(data):
    task = data.draw(st.sampled_from(ANSWER_TASKS))
    text = _draw_written(data, task, ids=long_ids, min_size=1)
    starts = [m.start() for m in re.finditer(r"[A-Za-z0-9_]{2}", text)]
    at = data.draw(st.sampled_from(starts)) + 1
    assert parse_solution(task, text[:at] + " " + text[at:]).answer is None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_stray_character_is_a_marker(data):
    task = data.draw(st.sampled_from(TASKS))
    text = _draw_written(data, task)
    at = data.draw(st.integers(0, len(text)))
    stray = data.draw(st.sampled_from("-.é"))
    assert parse_solution(task, text[:at] + stray + text[at:]).answer is None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_dropped_or_extra_bracket_is_a_marker(data):
    task = data.draw(st.sampled_from(ANSWER_TASKS))
    text = _draw_written(data, task, min_size=1)
    if data.draw(st.booleans()):
        at = data.draw(st.sampled_from([i for i, c in enumerate(text)
                                        if c in "[]"]))
        bad = text[:at] + text[at + 1:]
    else:
        at = data.draw(st.integers(0, len(text)))
        bad = text[:at] + data.draw(st.sampled_from("[]")) + text[at:]
    assert parse_solution(task, bad).answer is None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_an_extra_comma_at_a_token_boundary_is_a_marker(data):
    task = data.draw(st.sampled_from(ANSWER_TASKS))
    tokens = _tokens(_draw_written(data, task))
    at = data.draw(st.integers(0, len(tokens)))
    bad = "".join(tokens[:at] + [","] + tokens[at:])
    assert parse_solution(task, bad).answer is None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_dropped_comma_between_extensions_is_a_marker(data):
    # A comma between two ids, dropped, joins them into one id: that text
    # is still a well-formed answer, so only commas after a list count.
    task = data.draw(st.sampled_from([EE, D3]))
    text = _draw_written(data, task, min_size=2)
    at = data.draw(st.sampled_from([m.start() + 1
                                    for m in re.finditer(r"\],", text)]))
    assert parse_solution(task, text[:at] + text[at + 1:]).answer is None


@settings(max_examples=100, deadline=None)
@given(data=st.data(), blocks=st.sampled_from([1, 2, 4, 5]))
def test_d3_needs_exactly_three_blocks(data, blocks):
    text = "\n".join(_draw_written(data, EE) for _ in range(blocks))
    assert parse_solution(D3, text).answer is None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_answers_from_the_same_sets_in_any_order_are_equal(data):
    enums = [data.draw(st.lists(extensions, max_size=4)) for _ in range(3)]
    shuffled = [data.draw(st.permutations(e)) for e in enums]
    for build in (lambda es: AllExtensions(es[0]), lambda es: Triathlon(*es)):
        a, b = build(enums), build(shuffled)
        assert a == b and repr(a) == repr(b)
