"""Instance file formats: APX (fact-style) and TGF (trivial graph format).

APX files hold ``arg(<id>).`` and ``att(<id>,<id>).`` lines; TGF files hold
one node id per line, a ``#`` separator, then ``src dst`` edge lines.
Identifiers are nonempty strings over letters, digits, and underscore.
Readers accept LF or CRLF and ignore blank lines; writers emit LF and sort
attacks for byte-stable output.
"""

from __future__ import annotations

import re
from typing import Tuple

from .core import ArgumentationFramework
from .errors import FormatError, UnknownArgumentError

FORMATS = ("apx", "tgf")

_ID = r"[A-Za-z0-9_]+"
_ID_RE = re.compile(rf"^{_ID}$")
# One APX line: an arg or att atom, or nothing, with whitespace around and
# inside the atom.  Matched in MULTILINE mode over lines separated by "\n";
# ``[^\S\n]`` is whitespace that does not cross into the next line.
_WS = r"[^\S\n]*"
_APX_LINE_RE = re.compile(
    rf"^{_WS}(?:(?:arg\({_WS}({_ID}){_WS}\)"
    rf"|att\({_WS}({_ID}){_WS},{_WS}({_ID}){_WS}\))\.{_WS})?$", re.M)
# The line boundaries str.splitlines honours besides "\n"; re.M sees none.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def parse_apx(text: str) -> ArgumentationFramework:
    """Parse APX text; attack endpoints must be declared on an earlier line.

    Lines are those of ``str.splitlines``.  One ``findall`` over the text
    yields an ``(arg, src, dst)`` triple per line, all empty for a blank
    line.  A line yields at most one match, so every line matched iff there
    are as many matches as lines; only otherwise is the text walked line by
    line for the first bad one.
    """
    body = text
    if any(c in text for c in _OTHER_BREAKS):
        body = "\n".join(text.splitlines())
    found = _APX_LINE_RE.findall(body)
    # re.M also starts a line after a final "\n"; that empty line matches.
    if len(found) != body.count("\n") + 1:
        _check_apx_lines(text)
    args = [a for a, _, _ in found if a]
    attacks = [(src, dst) for _, src, dst in found if src]
    del found   # freed before the framework's own peak
    # An "arg(" after the first "att(" may declare an attacked argument too
    # late; "(" cannot occur inside an identifier.
    if body.rfind("arg(") > body.find("att(") >= 0:
        _check_apx_lines(text)
    try:
        return ArgumentationFramework(args, attacks)
    except UnknownArgumentError:
        _check_apx_lines(text)   # raises with the line number
        raise


def _check_apx_lines(text: str) -> None:
    """Raise FormatError at the first line that is neither blank nor an APX
    atom, or that names an attack endpoint no earlier line declares."""
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _APX_LINE_RE.match(line)
        if m is None:
            raise FormatError(f"unrecognised APX line: {line!r}", line=lineno)
        arg, src, dst = m.groups()
        if arg:
            seen.add(arg)
        elif src:
            for end in (src, dst):
                if end not in seen:
                    raise FormatError(
                        f"attack endpoint {end!r} is not a declared argument",
                        line=lineno)


def write_apx(af: ArgumentationFramework) -> str:
    lines = [f"arg({a})." for a in af.args]
    lines += [f"att({s},{t})." for s, t in sorted(af.attacks)]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_tgf(text: str) -> ArgumentationFramework:
    """Parse TGF text: node lines, one ``#`` separator, then edge lines."""
    args: list[str] = []
    seen = set()
    attacks: list[Tuple[str, str]] = []
    in_edges = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "#":
            if in_edges:
                raise FormatError("second '#' separator", line=lineno)
            in_edges = True
            continue
        if not in_edges:
            if not _ID_RE.match(line):
                raise FormatError(f"bad node id {raw!r}", line=lineno)
            if line not in seen:
                seen.add(line)
                args.append(line)
        else:
            parts = line.split()
            if len(parts) != 2 or not all(_ID_RE.match(p) for p in parts):
                raise FormatError(f"bad edge line {raw!r}", line=lineno)
            src, dst = parts
            if src not in seen or dst not in seen:
                raise FormatError(f"edge endpoint not declared: {raw!r}", line=lineno)
            attacks.append((src, dst))
    if not in_edges:
        raise FormatError("missing '#' separator between nodes and edges")
    return ArgumentationFramework(args, attacks)


def write_tgf(af: ArgumentationFramework) -> str:
    lines = list(af.args)
    lines.append("#")
    lines += [f"{s} {t}" for s, t in sorted(af.attacks)]
    return "\n".join(lines) + "\n"


def parse_framework(text: str, fmt: str) -> ArgumentationFramework:
    if fmt == "apx":
        return parse_apx(text)
    if fmt == "tgf":
        return parse_tgf(text)
    raise FormatError(f"unknown input format {fmt!r}")


def write_framework(af: ArgumentationFramework, fmt: str) -> str:
    if fmt == "apx":
        return write_apx(af)
    if fmt == "tgf":
        return write_tgf(af)
    raise FormatError(f"unknown input format {fmt!r}")


def load_framework(path, fmt: str | None = None) -> ArgumentationFramework:
    """Read an instance file; the format defaults to the file extension."""
    from pathlib import Path
    p = Path(path)
    if fmt is None:
        fmt = p.suffix.lstrip(".").lower()
    return parse_framework(p.read_text(encoding="utf-8"), fmt)
