"""Finite integer sets in one of two canonical forms.

A set whose span (max - min + 1) is at most SPAN is a mask: a Python int
whose bit k says whether `min + k` is a member, bit 0 set, stored with that
minimum. Each operation on two masks is a shift and a mask: `size` is a
bit count, `is_singleton` a comparison with 1. A wider set is a tuple of
sorted, disjoint, non-adjacent closed intervals (hi + 1 < next lo), so a
domain such as 0..10**12 costs one interval and not 10**12 bits. The
interval form has one walk, `_overlaps`, and a difference is an
intersection with the gaps of the set taken away.

The form follows from the members alone and each form is canonical, so
structural equality is set equality and `hash` agrees with it. `ranges`
gives the intervals of either form; for a mask it builds them, so the
solver's hot paths use the set operations instead.

No operation costs more for sets far apart than for sets side by side: a
mask is shifted left only by less than SPAN, and a right shift by any
distance, 2**64 included, is one step that yields 0. Sets at 0 and at
10**18 never build a 10**18-bit integer.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import count
from operator import itemgetter
from typing import Iterable, Iterator, List, Tuple

# the widest span (max - min + 1) a set keeps as a mask
SPAN = 1 << 12

_lo = itemgetter(0)
_hi = itemgetter(1)
_new = object.__new__
# the positions of the set bits of each byte value, for iterating a mask
_OCTET_BITS = [tuple(k for k in range(8) if octet >> k & 1) for octet in range(256)]


def _runs(low: int, bits: int) -> Tuple[Tuple[int, int], ...]:
    """The intervals of the mask `bits` with bit 0 at `low`, ascending."""
    out = []
    while bits:
        gap = (bits & -bits).bit_length() - 1
        bits >>= gap
        low += gap
        run = (bits ^ (bits + 1)).bit_length() - 1  # the trailing ones
        out.append((low, low + run - 1))
        bits >>= run
        low += run
    return tuple(out)


def _overlaps(a, b) -> Iterator[Tuple[int, int]]:
    """The non-empty intersections of the canonical intervals `a` and `b`,
    ascending: each range of the shorter is found in the longer by bisection,
    then walked forward while they overlap."""
    if len(a) > len(b):
        a, b = b, a
    for lo, hi in a:
        for k in range(bisect_left(b, lo, key=_hi), len(b)):
            b_lo, b_hi = b[k]
            if b_lo > hi:
                break
            yield (b_lo if b_lo > lo else lo), (b_hi if b_hi < hi else hi)


def _window(ranges, base: int, width: int) -> int:
    """The members of the canonical intervals `ranges` in
    [base, base + width) as a mask with bit 0 at `base`. Only the
    intervals that meet the window are read, so the cost is bounded by
    `width` and not by the set."""
    bits = 0
    for lo, hi in _overlaps(ranges, ((base, base + width - 1),)):
        bits |= ((1 << (hi - lo + 1)) - 1) << (lo - base)
    return bits


class IntegerSet:
    """Immutable set of integers: a mask when narrow, intervals when wide."""

    # `_min` is the least member (0 for the empty set), `_bits` the mask
    # (None for a wide set) and `_wide` the intervals (None for a mask)
    __slots__ = ("_min", "_bits", "_wide")

    def __init__(self, ranges: Tuple[Tuple[int, int], ...] = ()):
        # `ranges` must already be canonical; use the builders below otherwise.
        base = ranges[0][0] if ranges else 0
        if ranges and ranges[-1][1] - base >= SPAN:
            self._min, self._bits, self._wide = base, None, ranges
        else:
            self._min, self._bits, self._wide = base, _window(ranges, base, SPAN), None

    @classmethod
    def from_intervals(cls, intervals: Iterable[Tuple[int, int]]) -> "IntegerSet":
        """Build from arbitrary [lo, hi] intervals, merging into canonical form."""
        pending = [(lo, hi) for lo, hi in intervals if lo <= hi]
        if not pending:
            return EMPTY
        base = min(map(_lo, pending))
        if max(map(_hi, pending)) - base < SPAN:
            bits = 0
            for lo, hi in pending:
                bits |= ((1 << (hi - lo + 1)) - 1) << (lo - base)
            return _mask(base, bits)
        return _merge(sorted(pending))

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "IntegerSet":
        values = set(values)
        if not values:
            return EMPTY
        base = min(values)
        if max(values) - base < SPAN:
            bits = 0
            for v in values:
                bits |= 1 << (v - base)
            return _mask(base, bits)
        return _merge((v, v) for v in sorted(values))

    @classmethod
    def interval(cls, lo: int, hi: int) -> "IntegerSet":
        if hi - lo < SPAN:
            return _mask(lo, (1 << (hi - lo + 1)) - 1) if lo <= hi else EMPTY
        return cls(((lo, hi),))

    @classmethod
    def union_all(cls, sets: Iterable["IntegerSet"]) -> "IntegerSet":
        """The union of `sets`: one OR per set when the union fits in a
        mask, otherwise one sort of all their intervals, so that n sets
        never cost n pairwise unions."""
        sets = [s for s in sets if s._bits != 0]
        if not sets:
            return EMPTY
        base = min(s._min for s in sets)
        if max(s.max_value() for s in sets) - base < SPAN:  # masks, all of them
            bits = 0
            for s in sets:
                bits |= s._bits << (s._min - base)
            return _mask(base, bits)
        return _merge(sorted(r for s in sets for r in s.ranges))

    # -- queries ----------------------------------------------------------

    @property
    def ranges(self) -> Tuple[Tuple[int, int], ...]:
        """The canonical intervals; built anew for a mask."""
        if self._bits is None:
            return self._wide
        return _runs(self._min, self._bits)

    def range_count(self) -> int:
        """len(self.ranges), without building them."""
        bits = self._bits
        if bits is None:
            return len(self._wide)
        return (bits & ~(bits << 1)).bit_count()  # the bits that start a run

    def is_empty(self) -> bool:
        return self._bits == 0

    def is_singleton(self) -> bool:
        return self._bits == 1

    def value(self) -> int:
        """The single member; only valid when is_singleton()."""
        if self._bits != 1:
            raise ValueError("IntegerSet is not a singleton: %r" % (self,))
        return self._min

    def min_value(self) -> int:
        """The least member; the set must not be empty."""
        return self._min

    def max_value(self) -> int:
        """The greatest member; the set must not be empty."""
        bits = self._bits
        if bits is None:
            return self._wide[-1][1]
        return self._min + bits.bit_length() - 1

    def size(self) -> int:
        bits = self._bits
        if bits is None:
            return sum(hi - lo + 1 for lo, hi in self._wide)
        return bits.bit_count()

    def __contains__(self, v: int) -> bool:
        bits = self._bits
        if bits is None:
            ranges = self._wide
            k = bisect_right(ranges, v, key=_lo) - 1
            return k >= 0 and v <= ranges[k][1]
        offset = v - self._min
        return 0 <= offset < SPAN and bits >> offset & 1 == 1

    def __iter__(self) -> Iterator[int]:
        bits = self._bits
        if bits is None:
            return (v for lo, hi in self._wide for v in range(lo, hi + 1))
        low = self._min
        if not bits & (bits + 1):  # one interval
            return iter(range(low, low + bits.bit_length()))
        octets = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
        return iter([at + k for at, octet in zip(count(low, 8), octets)
                     for k in _OCTET_BITS[octet]])

    def select(self, rows: List[tuple], k: int) -> List[tuple]:
        """The rows whose k-th value is a member, in order: one comparison
        each for a single value, a bit test each on a mask, a bisect each
        on intervals."""
        bits = self._bits
        if bits is None:
            return [t for t in rows if t[k] in self]
        low = self._min
        if bits == 1:
            return [t for t in rows if t[k] == low]
        return [t for t in rows if t[k] >= low and bits >> (t[k] - low) & 1]

    def intersects(self, other: "IntegerSet") -> bool:
        a, b = self._bits, other._bits
        if a is not None and b is not None:
            if self._min > other._min:
                a, b = b, a
            return b & a >> abs(other._min - self._min) != 0
        if a is not None:
            return a & _window(other._wide, self._min, a.bit_length()) != 0
        if b is not None:
            return b & _window(self._wide, other._min, b.bit_length()) != 0
        return next(_overlaps(self._wide, other._wide), None) is not None

    # -- derivations ------------------------------------------------------

    def intersect(self, other: "IntegerSet") -> "IntegerSet":
        a, b = self._bits, other._bits
        if a is not None and b is not None:
            if self._min > other._min:
                self, other, a, b = other, self, b, a
            return _mask(other._min, b & a >> (other._min - self._min))
        if a is None and b is not None:
            self, other, a = other, self, b
        if a is not None:  # `self` is the mask, `other` wide
            return _mask(self._min, a & _window(other._wide, self._min, a.bit_length()))
        return IntegerSet(tuple(_overlaps(self._wide, other._wide)))

    def clamp(self, lo=None, hi=None) -> "IntegerSet":
        """Restrict to [lo, hi]; either bound may be None (unbounded)."""
        bits = self._bits
        if bits is None:
            return self.intersect(IntegerSet.interval(
                self._min if lo is None else lo,
                self.max_value() if hi is None else hi))
        low = self._min
        top = low + bits.bit_length() - 1
        if lo is None or lo < low:
            lo = low
        if hi is None or hi > top:
            hi = top
        if lo == low and hi == top:
            return self
        if lo > hi:
            return EMPTY
        return _mask(lo, bits >> (lo - low) & ((1 << (hi - lo + 1)) - 1))

    def union(self, other: "IntegerSet") -> "IntegerSet":
        return IntegerSet.union_all((self, other))

    def difference(self, other: "IntegerSet") -> "IntegerSet":
        a, b = self._bits, other._bits
        if a is not None:
            if b is None:
                cut = _window(other._wide, self._min, a.bit_length())
            else:
                offset = other._min - self._min
                if offset >= SPAN:
                    return self
                cut = b << offset if offset >= 0 else b >> -offset
            if not a & cut:
                return self
            return _mask(self._min, a & ~cut)
        # the set met with the gaps of `other` between its own bounds
        low, top = self._min, self.max_value()
        cut = list(_overlaps(other.ranges, ((low, top),)))
        starts = [low] + [hi + 1 for _, hi in cut]
        ends = [lo - 1 for lo, _ in cut] + [top]
        return self.intersect(IntegerSet.from_intervals(zip(starts, ends)))

    # -- dunder plumbing --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntegerSet) and self._bits == other._bits
                and self._min == other._min and self._wide == other._wide)

    def __hash__(self) -> int:
        return hash((self._min, self._bits, self._wide))

    def __repr__(self) -> str:
        parts = []
        for lo, hi in self.ranges:
            parts.append(str(lo) if lo == hi else "%d..%d" % (lo, hi))
        return "{%s}" % " ".join(parts)


EMPTY = IntegerSet()


def _merge(intervals) -> IntegerSet:
    """The set of the [lo, hi] intervals, sorted and none empty."""
    merged: list[tuple[int, int]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1] + 1:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return IntegerSet(tuple(merged))


def _mask(low: int, bits: int) -> IntegerSet:
    """The set of the mask `bits` with bit 0 at `low`, made canonical:
    shifted down to its least member. `bits` holds at most SPAN bits."""
    if not bits & 1:
        if not bits:
            return EMPTY
        gap = (bits & -bits).bit_length() - 1
        bits >>= gap
        low += gap
    s = _new(IntegerSet)
    s._min = low
    s._bits = bits
    s._wide = None
    return s
