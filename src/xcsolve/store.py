"""Trail-based mutable domain store for depth-first search.

Domains are immutable IntegerSets replaced wholesale on update. One trail
of `(owner, key, old)` entries records every change to search state, the
domains (`owner` is the domain list) and whatever goes through `save`:
the engine's flags of subsumed propagators, a table's valid tuples with
the domains its last call left, an alldifferent's free variables, and
`failed`. `undo` restores the state at the matching `push`; a search
pushes one frame for its root and one per open choice point. An update
that empties a domain sets `failed` and raises `Wipeout`, so no caller
goes on to read that domain. A domain empty from the start leaves
`failed` set for good.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from .intset import IntegerSet


class Wipeout(Exception):
    """A domain update left the domain empty; `Propagator.prune` reports it
    as FAILED."""


class DomainStore:
    def __init__(self, domains: List[IntegerSet]):
        self._domains = list(domains)
        self.failed = any(d.is_empty() for d in domains)
        self._trail: List[Tuple[Any, Any, Any]] = []
        self._marks: List[int] = []
        # variables updated since the engine last drained this list
        self.changed: List[int] = []

    def __len__(self) -> int:
        return len(self._domains)

    def domain(self, i: int) -> IntegerSet:
        return self._domains[i]

    def assigned(self, i: int) -> bool:
        return self._domains[i].is_singleton()

    # -- updates ----------------------------------------------------------

    def update(self, i: int, new: IntegerSet) -> bool:
        """Replace domain i; returns True when it actually shrank. Emptying
        it is trailed, sets `failed` through the trail and raises Wipeout."""
        old = self._domains[i]
        if new == old:
            return False
        self._trail.append((self._domains, i, old))
        self._domains[i] = new
        self.changed.append(i)
        if new.is_empty():
            self.save(vars(self), "failed", True)
            raise Wipeout
        return True

    def assign(self, i: int, v: int) -> bool:
        return self.intersect(i, IntegerSet.interval(v, v))

    def remove_value(self, i: int, v: int) -> bool:
        return self.update(i, self._domains[i].difference(IntegerSet.interval(v, v)))

    def clamp(self, i: int, lo=None, hi=None) -> bool:
        return self.update(i, self._domains[i].clamp(lo, hi))

    def intersect(self, i: int, other: IntegerSet) -> bool:
        return self.update(i, self._domains[i].intersect(other))

    def drain_changed(self) -> List[int]:
        out = self.changed
        self.changed = []
        return out

    # -- trail ------------------------------------------------------------

    def save(self, owner, key, value):
        """Set `owner[key] = value` until the matching undo. `owner` is any
        list or dict: the engine's active flags, `vars(propagator)`, `vars(self)`."""
        self._trail.append((owner, key, owner[key]))
        owner[key] = value

    def push(self):
        self._marks.append(len(self._trail))

    def undo(self):
        trail = self._trail
        mark = self._marks.pop()
        while len(trail) > mark:
            owner, key, old = trail.pop()
            owner[key] = old
        self.changed = []

    def depth(self) -> int:
        return len(self._marks)

    def snapshot(self) -> Tuple[IntegerSet, ...]:
        """Structural copy of all current domains, for restoration checks."""
        return tuple(self._domains)

    def solution_values(self) -> List[int]:
        return [d.value() for d in self._domains]
