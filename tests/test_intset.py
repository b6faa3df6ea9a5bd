import random

import pytest

from xcsolve.intset import IntegerSet


def test_canonical_merge():
    s = IntegerSet.from_intervals([(1, 2), (3, 4), (7, 7)])
    assert s.ranges == ((1, 4), (7, 7))


def test_overlap_merge():
    s = IntegerSet.from_intervals([(1, 5), (3, 8), (10, 10)])
    assert s.ranges == ((1, 8), (10, 10))


def test_membership_and_bounds():
    s = IntegerSet.from_intervals([(-3, -1), (2, 4)])
    assert -2 in s and 3 in s
    assert 0 not in s and 5 not in s
    assert s.min_value() == -3
    assert s.max_value() == 4
    assert s.size() == 6
    assert list(s) == [-3, -2, -1, 2, 3, 4]


def test_remove_splits_interval():
    s = IntegerSet.from_intervals([(1, 5)])
    assert s.difference(IntegerSet.interval(3, 3)).ranges == ((1, 2), (4, 5))
    assert s.difference(IntegerSet.interval(1, 1)).ranges == ((2, 5),)
    assert s.difference(IntegerSet.interval(9, 9)) == s


def test_intersect_clamp_union():
    a = IntegerSet.from_intervals([(0, 4), (8, 10)])
    b = IntegerSet.from_intervals([(3, 9)])
    assert a.intersect(b).ranges == ((3, 4), (8, 9))
    assert a.clamp(lo=2, hi=8).ranges == ((2, 4), (8, 8))
    assert a.union(b).ranges == ((0, 10),)


def test_singleton_and_empty():
    assert IntegerSet.interval(5, 5).is_singleton()
    assert IntegerSet.interval(5, 5).value() == 5
    assert IntegerSet.interval(5, 4).is_empty()
    with pytest.raises(ValueError):
        IntegerSet.interval(1, 2).value()


def test_random_against_python_sets():
    rng = random.Random(7)
    for _ in range(200):
        xs = set(rng.sample(range(-10, 20), rng.randint(0, 12)))
        ys = set(rng.sample(range(-10, 20), rng.randint(0, 12)))
        a = IntegerSet.from_values(xs)
        b = IntegerSet.from_values(ys)
        assert set(a) == xs
        assert set(a.intersect(b)) == xs & ys
        assert set(a.union(b)) == xs | ys
        assert set(a.difference(b)) == xs - ys
        assert a.intersects(b) == b.intersects(a) == bool(xs & ys)
        # re-canonicalizing is the identity
        assert IntegerSet.from_intervals(a.ranges) == a


def test_difference_over_wide_ranges():
    # an interval sweep: the cost does not depend on how many values go
    big = 10 ** 12
    whole = IntegerSet.interval(0, big)
    cut = IntegerSet.from_intervals([(5, big // 10), (big // 10 + 2, big - 3)])
    assert whole.difference(cut).ranges == (
        (0, 4), (big // 10 + 1, big // 10 + 1), (big - 2, big))
    # one range of `other` spanning several of `self`
    spaced = IntegerSet.from_intervals([(0, 10), (20, 30), (40, 50)])
    assert spaced.difference(IntegerSet.interval(5, 45)).ranges == ((0, 4), (46, 50))
    assert spaced.difference(IntegerSet.interval(-big, big)).is_empty()
    assert spaced.difference(IntegerSet(())) == spaced


def test_difference_is_canonical():
    rng = random.Random(11)
    for _ in range(200):
        xs = set(rng.sample(range(-10, 20), rng.randint(0, 20)))
        ys = set(rng.sample(range(-10, 20), rng.randint(0, 20)))
        diff = IntegerSet.from_values(xs).difference(IntegerSet.from_values(ys))
        assert diff == IntegerSet.from_values(xs - ys)
