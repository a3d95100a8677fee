import pytest

from afkit.errors import MalformedTaskError
from afkit.tasks import (AllExtensions, Semantics, TaskSpec, all_task_names,
                         canonical_extensions, parse_task)


def test_catalog_has_24_tasks_plus_d3():
    names = all_task_names()
    assert len(names) == 25
    assert names[-1] == "D3"
    assert "EE-GR" not in names and "DS-ID" not in names
    for sem in ("CO", "PR", "ST", "SST", "STG"):
        for p in ("DC", "DS", "SE", "EE"):
            assert f"{p}-{sem}" in names
    for sem in ("GR", "ID"):
        assert f"DC-{sem}" in names and f"SE-{sem}" in names


def test_parse_roundtrip():
    for name in all_task_names():
        query = "q" if name.startswith(("DC", "DS")) else None
        assert parse_task(name, query).name() == name


@pytest.mark.parametrize("bad", [
    ("DC", Semantics.CO, None),     # decision without query
    ("SE", Semantics.CO, "a"),      # query on a non-decision problem
    ("EE", Semantics.GR, None),     # single-status only admits DC/SE
    ("DS", Semantics.ID, "a"),
    ("XX", Semantics.CO, None),
])
def test_rejects_malformed(bad):
    problem, sem, query = bad
    with pytest.raises(MalformedTaskError):
        TaskSpec(problem, sem, query)


def test_d3_takes_no_semantics_or_query():
    assert parse_task("D3").name() == "D3"
    with pytest.raises(MalformedTaskError):
        TaskSpec("D3", Semantics.CO)


def test_parse_rejects_garbage():
    for bad in ("EE", "EE-XX", "banana", ""):
        with pytest.raises(MalformedTaskError):
            parse_task(bad)


def test_canonical_extension_order_is_by_sorted_member_list():
    exts = [frozenset({"b", "e", "h"}), frozenset({"a", "e", "h"}),
            frozenset({"b", "d", "h"}), frozenset({"b", "d", "h"})]
    got = canonical_extensions(exts)
    assert [tuple(sorted(e)) for e in got] == [
        ("a", "e", "h"), ("b", "d", "h"), ("b", "e", "h")]
    assert AllExtensions(exts).extensions == got
