"""Deterministic seeded randomness for generators and selection.

The generator is Mersenne Twister (MT19937) driven exclusively through
``getrandbits``, with all derived draws (uniform floats, bounded integers,
choice, sample, coin) implemented here.  That keeps every stream
bit-identical across platforms and Python versions: the stdlib guarantees the
raw MT output, while its higher-level helpers do not.

Streams are split by label: a child seed is the first 8 bytes of
SHA-256("<seed>/<label>"), so each generator phase draws from its own
independent, reproducible stream.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")

_MASK64 = (1 << 64) - 1


class SeededRng:
    """64-bit-seeded deterministic random stream with labelled splitting."""

    __slots__ = ("seed", "_mt")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._mt = random.Random(self.seed)

    def split(self, label: str) -> "SeededRng":
        """Independent child stream derived from this seed and ``label``."""
        digest = hashlib.sha256(f"{self.seed}/{label}".encode()).digest()
        return SeededRng(int.from_bytes(digest[:8], "big"))

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return self._mt.getrandbits(53) / (1 << 53)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling on getrandbits."""
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        k = (n - 1).bit_length()
        while True:
            r = self._mt.getrandbits(k) if k else 0
            if r < n:
                return r

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b], both ends inclusive."""
        if b < a:
            raise ValueError(f"empty range [{a}, {b}]")
        return a + self.randbelow(b - a + 1)

    def choice(self, seq: Sequence[T]) -> T:
        if not seq:
            raise ValueError("choice from an empty sequence")
        return seq[self.randbelow(len(seq))]

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        """k distinct elements, order random (partial Fisher-Yates)."""
        if not 0 <= k <= len(seq):
            raise ValueError(f"cannot sample {k} of {len(seq)} items")
        pool = list(seq)
        for i in range(k):
            j = i + self.randbelow(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def coin(self, p: float) -> bool:
        """True with probability ``p``: the draw of ``random()`` below
        ``p``, with both sides scaled by 2^53, which is exact."""
        return self._mt.getrandbits(53) < p * (1 << 53)
