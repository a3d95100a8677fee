"""Per-job resource limits."""

from __future__ import annotations

from dataclasses import dataclass

GIB = 1024 ** 3

DEFAULT_WALL_SECONDS = 600.0
DEFAULT_MEMORY_BYTES = 4 * GIB
D3_WALL_SECONDS = 1800.0
D3_MEMORY_BYTES = int(6.5 * GIB)


@dataclass(frozen=True)
class ResourceLimits:
    """Wall-clock and memory caps for one solver run.

    Defaults are 600 s / 4 GiB; D3 jobs get 1800 s / 6.5 GiB.
    """

    wall_seconds: float = DEFAULT_WALL_SECONDS
    memory_bytes: int = DEFAULT_MEMORY_BYTES

    @staticmethod
    def for_task(task_name: str) -> "ResourceLimits":
        if task_name == "D3":
            return ResourceLimits(D3_WALL_SECONDS, D3_MEMORY_BYTES)
        return ResourceLimits()
