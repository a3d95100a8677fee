import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afkit.rng import _COIN_CHUNK, SeededRng


def test_same_seed_same_stream():
    a, b = SeededRng(42), SeededRng(42)
    assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]
    assert [a.randint(0, 9) for _ in range(50)] == [b.randint(0, 9) for _ in range(50)]


def test_different_seeds_differ():
    a, b = SeededRng(1), SeededRng(2)
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_split_streams_are_stable_and_independent():
    root = SeededRng(7)
    x = root.split("phase-x")
    y = root.split("phase-y")
    assert x.seed != y.seed
    assert x.seed == SeededRng(7).split("phase-x").seed
    xs = [x.random() for _ in range(20)]
    replay = SeededRng(7).split("phase-x")
    assert xs == [replay.random() for _ in range(20)]


def test_split_does_not_consume_parent_stream():
    a, b = SeededRng(5), SeededRng(5)
    a.split("child")
    assert a.random() == b.random()


def test_randbelow_bounds_and_coverage():
    r = SeededRng(3)
    draws = [r.randbelow(7) for _ in range(2000)]
    assert set(draws) == set(range(7))


def test_sample_draws_distinct_items():
    r = SeededRng(11)
    items = list(range(20))
    picked = r.sample(items, 8)
    assert len(set(picked)) == 8 and set(picked) <= set(items)


def test_choice_uniformish():
    r = SeededRng(13)
    counts = {c: 0 for c in "abcd"}
    for _ in range(8000):
        counts[r.choice("abcd")] += 1
    for c in counts.values():
        assert abs(c - 2000) < 200


def test_known_stream_values_pinned():
    # Guards against silent PRNG drift: these values must never change.
    r = SeededRng(123456789)
    assert [r.randbelow(1000) for _ in range(5)] == [656, 452, 555, 726, 924]


# ``coins(p, m)`` against m calls of ``coin(p)``: the same flags, and the
# stream left in the same place.  The k/256 probabilities and the floats
# either side of them put the threshold's top byte where draws tie with it.

def _coin_loop_matches(seed, p, m):
    bulk, loop = SeededRng(seed), SeededRng(seed)
    flags = bulk.coins(p, m)
    assert list(flags) == [int(loop.coin(p)) for _ in range(m)]
    assert bulk._mt.getrandbits(32) == loop._mt.getrandbits(32)


_TIE_PROBS = sorted({q for k in (1, 3, 8, 77, 128, 200, 255)
                     for q in (k / 256, math.nextafter(k / 256, 0),
                               math.nextafter(k / 256, 1))})
_PROBS = [0.0, 1.0, 2.0 ** -53, 1 - 2.0 ** -53, 0.5, 0.03] + _TIE_PROBS
_COUNTS = [0, 1, _COIN_CHUNK - 1, _COIN_CHUNK, _COIN_CHUNK + 1,
           3 * _COIN_CHUNK + 5]


@pytest.mark.parametrize("m", _COUNTS)
@pytest.mark.parametrize("p", _PROBS)
def test_coins_match_coin_loop(p, m):
    _coin_loop_matches(1000 + _COUNTS.index(m), p, m)


def test_coins_zero_draws_nothing():
    a, b = SeededRng(9), SeededRng(9)
    assert a.coins(0.5, 0) == b""
    assert a._mt.getrandbits(32) == b._mt.getrandbits(32)


def test_coins_draw_equal_to_threshold_is_not_below_it():
    # p = d / 2^53 for a draw d of the stream: that coin is False, and the
    # one with p a step above it is True.  Both tie on the top byte.
    m = 3 * _COIN_CHUNK + 5
    for i in (0, 5, _COIN_CHUNK + 7, m - 1):
        peek = SeededRng(77)
        draws = [peek._mt.getrandbits(53) for _ in range(m)]
        p = draws[i] / (1 << 53)
        assert SeededRng(77).coins(p, m)[i] == 0
        assert SeededRng(77).coins(math.nextafter(p, 1), m)[i] == 1
        _coin_loop_matches(77, p, m)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       p=st.floats(0.0, 1.0),
       m=st.integers(0, 5000))
def test_coins_match_coin_loop_property(seed, p, m):
    _coin_loop_matches(seed, p, m)
