"""Finite integer sets stored as sorted, disjoint, non-adjacent closed intervals.

The canonical form is the one the rest of the toolchain relies on: intervals
are ascending, pairwise disjoint, and never touch (hi + 1 < next lo), so
structural equality is set equality.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Iterator, Tuple


class IntegerSet:
    """Immutable set of integers, interval-encoded."""

    __slots__ = ("ranges",)

    def __init__(self, ranges: Tuple[Tuple[int, int], ...] = ()):
        # `ranges` must already be canonical; use the builders below otherwise.
        self.ranges = ranges

    @classmethod
    def from_intervals(cls, intervals: Iterable[Tuple[int, int]]) -> "IntegerSet":
        """Build from arbitrary [lo, hi] intervals, merging into canonical form."""
        pending = sorted((lo, hi) for lo, hi in intervals if lo <= hi)
        merged: list[tuple[int, int]] = []
        for lo, hi in pending:
            if merged and lo <= merged[-1][1] + 1:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        return cls(tuple(merged))

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "IntegerSet":
        out = []
        start = prev = None
        for v in sorted(set(values)):
            if v - 1 != prev:  # a gap: close the run so far, open a new one
                if prev is not None:
                    out.append((start, prev))
                start = v
            prev = v
        if prev is not None:
            out.append((start, prev))
        return cls(tuple(out))

    @classmethod
    def interval(cls, lo: int, hi: int) -> "IntegerSet":
        return cls(((lo, hi),)) if lo <= hi else cls(())

    # -- queries ----------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.ranges

    def is_singleton(self) -> bool:
        r = self.ranges
        return len(r) == 1 and r[0][0] == r[0][1]

    def value(self) -> int:
        """The single member; only valid when is_singleton()."""
        if not self.is_singleton():
            raise ValueError("IntegerSet is not a singleton: %r" % (self,))
        return self.ranges[0][0]

    def min_value(self) -> int:
        return self.ranges[0][0]

    def max_value(self) -> int:
        return self.ranges[-1][1]

    def size(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.ranges)

    def __contains__(self, v: int) -> bool:
        for lo, hi in self.ranges:
            if v < lo:
                return False
            if v <= hi:
                return True
        return False

    def __iter__(self) -> Iterator[int]:
        for lo, hi in self.ranges:
            yield from range(lo, hi + 1)

    def intersects(self, other: "IntegerSet") -> bool:
        # look each range of the shorter set up in the longer one: the first
        # range there that ends at or after `lo` is the only candidate
        shorter, longer = sorted((self.ranges, other.ranges), key=len)
        for lo, hi in shorter:
            k = bisect_left(longer, lo, key=itemgetter(1))
            if k < len(longer) and longer[k][0] <= hi:
                return True
        return False

    # -- derivations ------------------------------------------------------

    def intersect(self, other: "IntegerSet") -> "IntegerSet":
        out = []
        a, b = self.ranges, other.ranges
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntegerSet(tuple(out))

    def clamp(self, lo=None, hi=None) -> "IntegerSet":
        """Restrict to [lo, hi]; either bound may be None (unbounded)."""
        if lo is None:
            lo = self.ranges[0][0] if self.ranges else 0
        if hi is None:
            hi = self.ranges[-1][1] if self.ranges else -1
        return self.intersect(IntegerSet.interval(lo, hi))

    def union(self, other: "IntegerSet") -> "IntegerSet":
        return IntegerSet.from_intervals(list(self.ranges) + list(other.ranges))

    def difference(self, other: "IntegerSet") -> "IntegerSet":
        b = other.ranges
        if not b:
            return self
        out = []
        n = len(b)
        j = 0
        for lo, hi in self.ranges:
            # skip the ranges of `other` wholly below this one; the rest cut
            # it into pieces, left to right
            while j < n and b[j][1] < lo:
                j += 1
            k = j
            while k < n:
                cut_lo, cut_hi = b[k]
                if cut_lo > hi:
                    break
                if cut_lo > lo:
                    out.append((lo, cut_lo - 1))
                lo = cut_hi + 1
                k += 1
            if lo <= hi:
                out.append((lo, hi))
        return IntegerSet(tuple(out))

    # -- dunder plumbing --------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerSet) and self.ranges == other.ranges

    def __hash__(self) -> int:
        return hash(self.ranges)

    def __repr__(self) -> str:
        parts = []
        for lo, hi in self.ranges:
            parts.append(str(lo) if lo == hi else "%d..%d" % (lo, hi))
        return "{%s}" % " ".join(parts)
