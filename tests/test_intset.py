import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcsolve.intset import SPAN, IntegerSet


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


# -- the two forms ------------------------------------------------------------

ANCHORS = (-SPAN - 3, -2, 0, 7, 5 * SPAN)
SPANS = (1, 2, 33, SPAN - 1, SPAN, SPAN + 1, 3 * SPAN)


@st.composite
def models(draw):
    """A plain set whose span is one of SPANS, on either side of zero: the
    two end points, runs and single values between them, minus some holes;
    or, now and then, the empty set."""
    if draw(st.integers(0, 9)) == 0:
        return set()
    low = draw(st.sampled_from(ANCHORS))
    span = draw(st.sampled_from(SPANS))
    members = {low, low + span - 1}
    if draw(st.integers(0, 3)) == 0:  # dense: the whole span
        members.update(range(low, low + span))
    for start, length in draw(st.lists(
            st.tuples(st.integers(0, span - 1), st.integers(1, 64)), max_size=6)):
        members.update(range(low + start, low + min(start + length, span)))
    holes = draw(st.lists(st.integers(1, max(1, span - 2)), max_size=6))
    return members - {low + k for k in holes if k < span - 1}


def check_form(s, model):
    """`s` holds `model`, in the one canonical form its span calls for."""
    assert list(s) == sorted(model)
    rebuilt = IntegerSet.from_values(model)
    assert s == rebuilt and hash(s) == hash(rebuilt)
    assert IntegerSet(s.ranges) == s and IntegerSet.from_intervals(s.ranges) == s
    assert s.range_count() == len(s.ranges)
    assert s.size() == len(model)
    assert s.is_empty() == (not model)
    assert s.is_singleton() == (len(model) == 1)
    if model:
        assert (s.min_value(), s.max_value()) == (min(model), max(model))
    span = max(model) - min(model) + 1 if model else 0
    if span <= SPAN:  # a mask of exactly `span` bits, bit 0 at the minimum
        assert s._bits is not None and s._bits.bit_length() == span
    else:
        assert s._bits is None


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(models(), models(), models())
def test_operations_match_a_set_model(xs, ys, zs):
    a, b, c = (IntegerSet.from_values(m) for m in (xs, ys, zs))
    for s, model in ((a, xs), (b, ys), (c, zs)):
        check_form(s, model)
    check_form(a.intersect(b), xs & ys)
    check_form(a.union(b), xs | ys)
    check_form(a.difference(b), xs - ys)
    check_form(b.difference(a), ys - xs)
    check_form(IntegerSet.union_all([a, b, c]), xs | ys | zs)
    check_form(IntegerSet.from_intervals(a.ranges + b.ranges + c.ranges), xs | ys | zs)
    assert a.intersects(b) == b.intersects(a) == bool(xs & ys)
    # equality is set equality, across the forms and the builders
    assert (a == b) == (xs == ys)
    if xs == ys:
        assert hash(a) == hash(b)
    assert IntegerSet.union_all(IntegerSet.interval(v, v) for v in ys) == b
    probes = sorted({v + d for m in (xs, ys) if m
                     for v in (min(m), max(m)) for d in (-1, 0, 1)})
    for v in probes:
        assert (v in a) == (v in xs)
    # rows whose second value lies below, in, between or beyond the members
    rows = [(None, v) for v in probes + sorted(ys)[:64]]
    assert a.select(rows, 1) == [t for t in rows if t[1] in xs]
    for lo in [None] + probes[::3]:
        for hi in [None] + probes[1::3]:
            check_form(a.clamp(lo, hi), {v for v in xs if (lo is None or v >= lo)
                                         and (hi is None or v <= hi)})


def test_form_follows_the_span():
    assert IntegerSet.interval(0, SPAN - 1)._bits == (1 << SPAN) - 1
    wide = IntegerSet.interval(0, SPAN)
    assert wide._bits is None and wide.ranges == ((0, SPAN),)
    # dropping an end point narrows the span back into a mask
    narrowed = wide.difference(IntegerSet.interval(SPAN, SPAN))
    assert narrowed == IntegerSet.interval(0, SPAN - 1)
    assert hash(narrowed) == hash(IntegerSet.interval(0, SPAN - 1))
    assert IntegerSet(((0, 3), (SPAN, SPAN))).ranges == ((0, 3), (SPAN, SPAN))
    assert IntegerSet(((0, 3), (SPAN, SPAN))).range_count() == 2


@pytest.mark.parametrize("p, q", [(0, 10 ** 18), (10 ** 18, 0),
                                  (-2 ** 63, 2 ** 63), (2 ** 63, -2 ** 63)])
def test_narrow_sets_far_apart_cost_no_more_than_near_ones(p, q):
    # a left shift by the distance between them would build a 10**18-bit
    # integer and fail with MemoryError
    a = IntegerSet.from_values([p, p + 2, p + 5])
    b = IntegerSet.from_values([q, q + 1])
    wide = IntegerSet.interval(q - 10 ** 12, q - 5)
    started = time.perf_counter()
    for x, y in ((a, b), (b, a), (a, wide), (wide, a)):
        assert x.difference(y) == x
        assert x.intersect(y).is_empty()
        assert not x.intersects(y)
        union = x.union(y)
        assert union.size() == x.size() + y.size()
        assert union.difference(y) == x and union.intersect(x) == x
        assert IntegerSet.union_all([x, y, x]) == union
        assert union.range_count() == x.range_count() + y.range_count()
        assert x.min_value() not in y and y.max_value() not in x
        beyond = y.min_value() if y.min_value() > x.max_value() else y.max_value()
        assert x.clamp(lo=beyond).is_empty() or x.clamp(hi=beyond).is_empty()
        assert x.clamp(lo=min(beyond, x.min_value()), hi=max(beyond, x.max_value())) == x
    assert list(a) == [p, p + 2, p + 5]
    assert time.perf_counter() - started < 1


class CountingTuple(tuple):
    """A tuple that counts the items read from it by index."""

    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return tuple.__getitem__(self, k)


def test_intersecting_wide_sets_reads_only_where_they_meet():
    # each range of the shorter set is looked up in the longer by bisection;
    # a merge of the two lists would read all 100,000 ranges
    many = CountingTuple((4 * k, 4 * k + 1) for k in range(100_000))
    fragmented = IntegerSet(many)
    far = IntegerSet.interval(10 ** 12, 10 ** 12 + SPAN)
    assert fragmented.ranges is many
    many.reads = 0
    assert fragmented.intersect(far).is_empty()
    assert far.intersect(fragmented).is_empty()
    assert many.reads <= 48
