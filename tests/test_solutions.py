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
        ans = AllExtensions.of([frozenset({"b", "d", "h"}),
                                frozenset({"a", "h"})])
        assert write_solution(EE, ans) == "[[a,h],[b,d,h]]"
        assert write_solution(parse_task("EE-ST"), AllExtensions.of([])) == "[]"

    def test_d3_three_lines(self):
        ans = Triathlon.of([frozenset()], [], [frozenset({"a", "h"}),
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
        assert got == AllExtensions.of([frozenset({"a", "h"}),
                                        frozenset({"b", "d", "h"})])
        assert parse_solution(EE, " [ [ ] ] ").answer == AllExtensions.of([frozenset()])
        assert parse_solution(EE, "[]").answer == AllExtensions.of([])

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
        answer = AllExtensions.of(data.draw(st.lists(extensions, max_size=4)))
    else:
        answer = Triathlon.of(data.draw(st.lists(extensions, max_size=2)),
                              data.draw(st.lists(extensions, max_size=2)),
                              data.draw(st.lists(extensions, max_size=2)))
    assert parse_solution(task, write_solution(task, answer)).answer == answer
