"""Job records, their line-delimited JSON log, and the JSON files the
harness reads."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from ..errors import FormatError

CORRECT, INCORRECT, ZERO = "correct", "incorrect", "zero"
# Points per verdict; judging, records and scoring all read this table.
POINTS = {CORRECT: 1, INCORRECT: -5, ZERO: 0}


@dataclass
class JobRecord:
    """One solver x task x instance execution.

    ``status`` tracks how the run ended (ok / timeout / error); ``verdict``
    is filled in by judging and is one of correct / incorrect / zero, with
    ``unchecked`` flagging answers accepted without verification.  Points
    follow the verdict exactly: 1, -5, or 0.
    """

    solver: str
    task: str
    instance: str
    query: Optional[str] = None
    raw: str = ""
    elapsed: float = 0.0
    exit_status: Optional[int] = None
    status: str = "ok"
    verdict: Optional[str] = None
    points: int = 0
    unchecked: bool = False
    diagnostic: str = ""

    def judged(self, verdict: str, unchecked: bool = False) -> "JobRecord":
        self.verdict = verdict
        self.unchecked = unchecked
        self.points = POINTS[verdict]
        return self

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "JobRecord":
        return JobRecord(**json.loads(line))


def read_json(path):
    """The JSON document in the file at ``path``; a file that is not JSON is
    a FormatError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path}: not JSON: {exc}") from None


@contextmanager
def json_shape(path, what: str):
    """Inside the block, a JSON document read from ``path`` that lacks a key
    or holds a value of the wrong kind is a FormatError naming the file;
    ``what`` says what the document should have been."""
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{path}: an object has no {exc} key") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: not {what}: {exc}") from None


def append_record(path, record: JobRecord) -> None:
    """Append one record to a JSONL log (one fsync'd line per job)."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(record.to_json() + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def read_records(path) -> Iterator[JobRecord]:
    text = Path(path).read_text(encoding="utf-8")
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line:
            try:
                record = JobRecord.from_json(line)
            except (TypeError, ValueError) as exc:
                raise FormatError(f"{path}: not a job record: {exc}",
                                  line=number) from None
            yield record
