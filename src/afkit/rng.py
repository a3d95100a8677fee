"""Deterministic seeded randomness for generators and selection.

The generator is Mersenne Twister (MT19937) driven exclusively through
``getrandbits``, with all derived draws (uniform floats, bounded integers,
choice, sample, coin, coins) implemented here.  That keeps every stream
bit-identical across platforms and Python versions: the stdlib guarantees the
raw MT output, while its higher-level helpers do not.

``coins`` draws many coins in bulk from the same words that as many ``coin``
calls would read.  ``getrandbits(53)`` takes two 32-bit MT words w0, w1 and
returns ``w0 | (w1 >> 11) << 32``; ``getrandbits(64 * k)`` takes exactly 2k
words and places them from least to most significant.  So byte group i of
its little-endian bytes is the pair read by the i-th ``coin``, with the
draw's top 8 bits in the group's last byte.

Streams are split by label: a child seed is the first 8 bytes of
SHA-256("<seed>/<label>"), so each generator phase draws from its own
independent, reproducible stream.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")

_MASK64 = (1 << 64) - 1
_COIN_CHUNK = 4096   # coins drawn per getrandbits call in ``coins``


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

    def coins(self, p: float, m: int) -> bytearray:
        """Outcomes of ``m`` calls of ``coin(p)``, as 0/1 flags, leaving the
        stream where those ``m`` calls would leave it.

        The draws come a chunk at a time from one ``getrandbits`` call (see
        the module docstring for the word layout).  A draw is an integer, so
        it is below ``p * 2^53`` exactly when it is below the ceiling ``t``
        of that product.  Its top byte decides the outcome unless it equals
        ``t``'s top byte; only those ties, one draw in 256, read the rest.
        """
        # p <= 0 or NaN: no draw is below p * 2^53.
        t = math.ceil(min(p, 1.0) * (1 << 53)) if p > 0 else 0
        top_t = t >> 45         # 256 when every draw is below t
        table = b"\x01" * top_t + bytes(256 - top_t)   # b -> b < top_t
        flags = bytearray()
        for start in range(0, m, _COIN_CHUNK):
            k = min(_COIN_CHUNK, m - start)
            buf = self._mt.getrandbits(64 * k).to_bytes(8 * k, "little")
            tops = buf[7::8]
            flags += tops.translate(table)
            if top_t > 255:
                continue
            i = tops.find(top_t)
            while i >= 0:
                g = int.from_bytes(buf[8 * i:8 * i + 8], "little")
                flags[start + i] = (g & 0xFFFFFFFF | g >> 43 << 32) < t
                i = tops.find(top_t, i + 1)
        return flags
