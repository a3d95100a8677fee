"""Job records and their line-delimited JSON log."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Optional

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


def append_record(path, record: JobRecord) -> None:
    """Append one record to a JSONL log (one fsync'd line per job)."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(record.to_json() + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def read_records(path) -> Iterator[JobRecord]:
    text = Path(path).read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.strip()
        if line:
            yield JobRecord.from_json(line)
