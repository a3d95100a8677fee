"""The immutable value types of the task catalog and the answer formats:
equality, hashing, repr, immutability, copying, pickling and validation."""

import copy
import pickle

import pytest

from afkit.errors import MalformedTaskError
from afkit.solutions import SolutionText
from afkit.tasks import (AllExtensions, Answer, OneExtension, Semantics,
                         TaskSpec, Triathlon, YesNo)

A, B = frozenset({"a"}), frozenset({"b"})

# (build a value, the exact repr of what it builds)
VALUES = [
    (lambda: TaskSpec("DC", Semantics.CO, "a"),
     "TaskSpec(problem='DC', semantics=<Semantics.CO: 'CO'>, query='a')"),
    (lambda: TaskSpec("EE", Semantics.PR),
     "TaskSpec(problem='EE', semantics=<Semantics.PR: 'PR'>, query=None)"),
    (lambda: TaskSpec("D3"),
     "TaskSpec(problem='D3', semantics=None, query=None)"),
    (lambda: YesNo(True), "YesNo(value=True)"),
    (lambda: OneExtension(A), "OneExtension(extension=frozenset({'a'}))"),
    (lambda: OneExtension(None), "OneExtension(extension=None)"),
    (lambda: AllExtensions((frozenset(), A)),
     "AllExtensions(extensions=(frozenset(), frozenset({'a'})))"),
    (lambda: Triathlon((frozenset(),), (), (A, B)),
     "Triathlon(grounded=(frozenset(),), stable=(), "
     "preferred=(frozenset({'a'}), frozenset({'b'})))"),
    (lambda: SolutionText("YES", YesNo(True)),
     "SolutionText(raw='YES', answer=YesNo(value=True))"),
    (lambda: SolutionText(raw="junk", answer=None),
     "SolutionText(raw='junk', answer=None)"),
]
IDS = [text.partition("(")[0] for _, text in VALUES]


@pytest.mark.parametrize("build, text", VALUES, ids=IDS)
def test_repr_text(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text", VALUES, ids=IDS)
def test_equal_values_are_equal_and_hash_alike(build, text):
    x, y = build(), build()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


def test_values_differ_by_field_and_by_type():
    assert YesNo(True) != YesNo(False)
    assert OneExtension(A) != OneExtension(B)
    assert TaskSpec("DC", Semantics.CO, "a") != TaskSpec("DC", Semantics.CO, "b")
    assert TaskSpec("DC", Semantics.CO, "a") != TaskSpec("DS", Semantics.CO, "a")
    assert Triathlon((), (), (A,)) != Triathlon((), (A,), ())
    assert SolutionText("YES", YesNo(True)) != SolutionText("YES ", YesNo(True))
    # A different type never equals, even with the same field values.
    assert YesNo(True) != OneExtension(True)
    assert YesNo(True) != True  # noqa: E712
    assert AllExtensions((A,)) != (A,)


@pytest.mark.parametrize("build, text", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(build, text):
    x = build()
    field = text.partition("(")[2].partition("=")[0]
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, "changed")
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert getattr(x, field) == before
    assert x == build()


@pytest.mark.parametrize("build, text", VALUES, ids=IDS)
def test_copy_and_pickle_round_trips(build, text):
    x = build()
    copies = [copy.copy(x), copy.deepcopy(x)]
    copies += [pickle.loads(pickle.dumps(x, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x)
        assert repr(y) == text


def test_keyword_construction():
    assert TaskSpec(problem="SE", semantics=Semantics.GR) == \
        TaskSpec("SE", Semantics.GR, None)
    assert SolutionText(raw="NO", answer=YesNo(False)).answer == YesNo(False)
    assert YesNo(value=False) == YesNo(False)
    assert OneExtension(extension=A).extension == A
    assert AllExtensions(extensions=(A,)).extensions == (A,)
    assert Triathlon(grounded=(), stable=(A,), preferred=(B,)).stable == (A,)


def test_solution_text_parsed_flag():
    assert SolutionText("YES", YesNo(True)).parsed
    assert not SolutionText("junk", None).parsed


@pytest.mark.parametrize("args, message", [
    (("D3", Semantics.CO), "D3 carries no semantics"),
    (("D3", None, "a"), "D3 takes no query argument"),
    (("XX", Semantics.CO), "unknown problem 'XX'"),
    (("EE",), "EE needs a semantics"),
    (("DC", None, "a"), "DC needs a semantics"),
    (("EE", Semantics.GR),
     "EE-GR is not a task: single-status semantics only admit DC and SE"),
    (("DS", Semantics.ID, "a"),
     "DS-ID is not a task: single-status semantics only admit DC and SE"),
    (("DC", Semantics.CO), "DC-CO needs a query argument"),
    (("DS", Semantics.PR), "DS-PR needs a query argument"),
    (("SE", Semantics.CO, "a"), "SE-CO takes no query argument"),
    (("EE", Semantics.ST, "a"), "EE-ST takes no query argument"),
])
def test_every_malformed_task_is_refused(args, message):
    with pytest.raises(MalformedTaskError) as info:
        TaskSpec(*args)
    assert str(info.value) == message


def test_answer_union_admits_exactly_the_four_answer_types():
    for answer in (YesNo(True), OneExtension(None), AllExtensions(()),
                   Triathlon((), (), ())):
        assert isinstance(answer, Answer)
    for other in (TaskSpec("D3"), SolutionText("YES", YesNo(True)), True, ()):
        assert not isinstance(other, Answer)
