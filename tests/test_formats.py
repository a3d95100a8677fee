import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afkit.core import ArgumentationFramework
from afkit.errors import FormatError
from afkit.formats import (parse_apx, parse_framework, parse_tgf, write_apx,
                           write_framework, write_tgf)

ids = st.from_regex(r"[A-Za-z0-9_]{1,8}", fullmatch=True)
frameworks = st.lists(ids, min_size=0, max_size=7, unique=True).flatmap(
    lambda ns: st.builds(
        lambda atts: ArgumentationFramework(ns, atts),
        st.lists(st.tuples(st.sampled_from(ns), st.sampled_from(ns)), max_size=20)
        if ns else st.just([])))


class TestApx:
    def test_basic(self):
        af = parse_apx("arg(a).\narg(b).\natt(a,b).")
        assert af == ArgumentationFramework(["a", "b"], [("a", "b")])

    def test_blank_lines_and_crlf_ignored(self):
        af = parse_apx("arg(a).\r\n\r\narg(b).\r\natt(b,a).\r\n")
        assert af.attacks == frozenset({("b", "a")})

    def test_undeclared_endpoint(self):
        with pytest.raises(FormatError) as err:
            parse_apx("att(a,b).")
        assert err.value.line == 1

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_apx("arg(a).\narg(b)\n")
        assert err.value.line == 2

    def test_example1_round_trip(self, example1):
        assert parse_apx(write_apx(example1)) == example1

    def test_whitespace_inside_atoms(self):
        af = parse_apx("arg( a ).\narg(b).\natt( a , b ).")
        assert af.attacks == frozenset({("a", "b")})


class TestTgf:
    def test_basic(self):
        af = parse_tgf("1\n2\n#\n1 2")
        assert af == ArgumentationFramework(["1", "2"], [("1", "2")])

    def test_empty_node_section(self):
        assert parse_tgf("#\n") == ArgumentationFramework([])

    def test_missing_separator(self):
        with pytest.raises(FormatError):
            parse_tgf("1\n2\n")

    def test_second_separator_rejected(self):
        with pytest.raises(FormatError) as err:
            parse_tgf("1\n#\n#\n")
        assert err.value.line == 3

    def test_bad_edge_line(self):
        with pytest.raises(FormatError) as err:
            parse_tgf("1\n2\n#\n1 2 3\n")
        assert err.value.line == 4

    def test_undeclared_edge_endpoint(self):
        with pytest.raises(FormatError):
            parse_tgf("1\n#\n1 2\n")

    def test_round_trip(self, example1):
        assert parse_tgf(write_tgf(example1)) == example1


@settings(max_examples=80, deadline=None)
@given(af=frameworks, fmt=st.sampled_from(["apx", "tgf"]))
def test_round_trip_any_framework(af, fmt):
    assert parse_framework(write_framework(af, fmt), fmt) == af


def test_unknown_format():
    with pytest.raises(FormatError):
        parse_framework("", "json")


def test_writers_are_byte_stable(example1):
    assert write_apx(example1) == write_apx(example1)
    assert write_tgf(example1) == write_tgf(example1)
    assert write_apx(example1).endswith("\n")
    assert "\r" not in write_apx(example1)


# ---------------------------------------------------------------------------
# Differential test: the one-pass parser against the line-by-line parser it
# replaced, kept here as the reference for lines, errors and line numbers.

_REF_ID = r"[A-Za-z0-9_]+"
_REF_ARG_RE = re.compile(rf"^arg\(\s*({_REF_ID})\s*\)\.$")
_REF_ATT_RE = re.compile(rf"^att\(\s*({_REF_ID})\s*,\s*({_REF_ID})\s*\)\.$")


def reference_parse_apx(text):
    args, seen, attacks = [], set(), []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        m = _REF_ARG_RE.match(line)
        if m:
            name = m.group(1)
            if name not in seen:
                seen.add(name)
                args.append(name)
            continue
        m = _REF_ATT_RE.match(line)
        if m:
            src, dst = m.group(1), m.group(2)
            if src not in seen:
                raise FormatError(f"attack endpoint {src!r} is not a declared argument",
                                  line=lineno)
            if dst not in seen:
                raise FormatError(f"attack endpoint {dst!r} is not a declared argument",
                                  line=lineno)
            attacks.append((src, dst))
            continue
        raise FormatError(f"unrecognised APX line: {raw!r}", line=lineno)
    return ArgumentationFramework(args, attacks)


# Line separators str.splitlines honours, of which re.M sees only "\n".
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]
# Whitespace that str.strip removes and that stays inside one line.
SPACES = st.text(alphabet=" \t\xa0\u2003", max_size=2)
POOL_IDS = st.sampled_from(["a", "b", "c1", "_x", "Z9"])


def _arg_line(ws, name):
    return f"{ws[0]}arg({ws[1]}{name}{ws[2]}).{ws[3]}"


def _att_line(ws, src, dst):
    return f"{ws[0]}att({ws[1]}{src}{ws[2]},{ws[3]}{dst}{ws[4]}).{ws[5]}"


SPACES4 = st.lists(SPACES, min_size=4, max_size=4)
SPACES6 = st.lists(SPACES, min_size=6, max_size=6)
bad_lines = st.one_of(
    st.sampled_from(["arg(a)", "att(a,b,c).", "arg(a).x", "arg(a-b).",
                     "ARG(a).", "arg(a).att(a,a).", "arg()."]),
    # Junk drawn from the characters of the grammar, separators included.
    st.text(alphabet="arg(t),.ab_ \t\n\r\x0c\u2028\xa0", max_size=10),
)


@st.composite
def apx_texts(draw):
    """Declarations (some duplicated), then attacks among the declared
    names, with blank, bad, and stray arg and att lines (which may name
    undeclared or later-declared arguments) inserted anywhere, joined by
    newlines alone, newlines and one other separator, or any mix."""
    names = draw(st.lists(POOL_IDS, max_size=5))
    lines = [_arg_line(draw(SPACES4), name) for name in names]
    ends = st.sampled_from(names) if names else POOL_IDS
    lines += [_att_line(draw(SPACES6), src, dst)
              for src, dst in draw(st.lists(st.tuples(ends, ends),
                                            max_size=6))]
    stray_lines = st.one_of(
        SPACES,                                      # blank line
        bad_lines,
        st.builds(_arg_line, SPACES4, POOL_IDS),
        st.builds(_att_line, SPACES6, ends, ends),   # may precede a declaration
        st.builds(_att_line, SPACES6, POOL_IDS, POOL_IDS),
    )
    for stray in draw(st.lists(stray_lines, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), stray)
    separators = draw(st.sampled_from(
        [["\n"], SEPARATORS] + [["\n", sep] for sep in SEPARATORS]))
    out = []
    for line in lines:
        out.append(line)
        out.append(draw(st.sampled_from(separators)))
    if out and draw(st.booleans()):
        out.pop()                                    # no final line break
    return "".join(out)


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except FormatError as exc:
        return "error", (exc.line, str(exc))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(text=apx_texts())
def test_parse_apx_matches_line_by_line_reference(text):
    assert _outcome(parse_apx, text) == _outcome(reference_parse_apx, text)


@pytest.mark.parametrize("text", [
    "",
    "\n\n",
    "arg(a).\u2028arg(b).\x0catt(a,b).\r",
    "arg(a)\u2028.",
    "att(a,b).\narg(a).\narg(b).\n",
    "arg(a).\natt(a,b).\narg(b).\n",
    "arg(a).\narg(b).\natt(a,b).\narg(c).\natt(c,a).",
    "arg(a).\natt(a,q).\njunk\n",
    "arg(a).\njunk\natt(a,q).\n",
    "\xa0arg( a\t).\u2003\n\t\narg(a).",
], ids=["empty", "blank-lines", "other-breaks", "break-inside-atom",
        "attack-before-declarations", "declaration-after-attack",
        "interleaved-valid", "undeclared-before-junk",
        "junk-before-undeclared", "unicode-spaces"])
def test_parse_apx_edge_cases_match_reference(text):
    assert _outcome(parse_apx, text) == _outcome(reference_parse_apx, text)
