from afkit.rng import SeededRng


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
