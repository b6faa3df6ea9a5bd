"""Propagation-based depth-first search with binary branching.

Branching is x=v versus x!=v. Variable and value heuristics are pluggable
and deterministically tie-broken (lowest variable index, then lowest
value), so two runs over the same problem produce identical statistics and
solution order.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .compiler import Problem
from .propagators import FAILED, SUBSUMED, build_propagator
from .store import DomainStore

VAR_HEURISTICS = ("input", "min-dom", "max-deg")
VAL_HEURISTICS = ("min", "max")


class BudgetSpent(Exception):
    """The node or time budget of a search ran out; not a failure."""


@dataclass
class SearchStats:
    nodes: int = 0
    failures: int = 0
    propagations: int = 0
    peak_depth: int = 0
    solutions: int = 0


@dataclass
class SearchResult:
    solutions: List[List[int]]
    stats: SearchStats
    complete: bool  # False when a node/time budget cut the search short


@dataclass
class BranchStrategy:
    var_heuristic: str = "input"
    val_heuristic: str = "min"

    def __post_init__(self):
        if self.var_heuristic not in VAR_HEURISTICS:
            raise ValueError("unknown variable heuristic %r" % self.var_heuristic)
        if self.val_heuristic not in VAL_HEURISTICS:
            raise ValueError("unknown value heuristic %r" % self.val_heuristic)

    def select(self, store: DomainStore,
               degrees: List[int]) -> Optional[Tuple[int, int]]:
        """The next decision `(var, value)`, or None when every variable is
        fixed: the store then holds a solution."""
        free = (i for i in range(len(store)) if not store.assigned(i))
        # `min` and `max` return the first of equal keys: the lowest index
        if self.var_heuristic == "min-dom":
            var = min(free, key=lambda i: store.domain(i).size(), default=None)
        elif self.var_heuristic == "max-deg":
            var = max(free, key=degrees.__getitem__, default=None)
        else:
            var = next(free, None)
        if var is None:
            return None
        d = store.domain(var)
        value = d.min_value() if self.val_heuristic == "min" else d.max_value()
        return var, value


class Engine:
    """One search owns its DomainStore; the Problem itself stays immutable."""

    def __init__(self, problem: Problem, strategy: Optional[BranchStrategy] = None):
        self.strategy = strategy or BranchStrategy()
        self.store = DomainStore(problem.domains)
        self.props = [build_propagator(spec) for spec in problem.propagators]
        # a propagator watches each distinct variable of its scope for any
        # change, or only for becoming fixed when it is `fix_only`
        self.watchers: List[List[int]] = [[] for _ in problem.domains]
        self.fix_watchers: List[List[int]] = [[] for _ in problem.domains]
        self.degrees = [0] * len(problem.domains)
        for k, p in enumerate(self.props):
            lists = self.fix_watchers if p.fix_only else self.watchers
            for v in dict.fromkeys(p.spec.scope):
                lists[v].append(k)
                self.degrees[v] += 1
        self.active = [True] * len(self.props)
        self.stats = SearchStats()
        # a time.monotonic() value, set while solve() runs with a time limit
        self.deadline: Optional[float] = None

    # -- propagation ------------------------------------------------------

    def propagate_fixpoint(self, seeds: Optional[List[int]] = None) -> bool:
        """Run propagators until fixpoint; returns False exactly on failure.

        `seeds` are the propagators to run first; None wakes every active
        one. A propagator runs whenever a variable it watches has changed
        since the last call, a decision included, or, for a fix watcher,
        has become fixed. Raises BudgetSpent once `self.deadline` has
        passed, read before every propagation; `solve` raises the same for a
        spent node budget and catches both in one place.
        """
        store, active, stats = self.store, self.active, self.stats
        watchers, fix_watchers = self.watchers, self.fix_watchers
        deadline = self.deadline
        if store.failed:
            stats.failures += 1
            return False
        if seeds is None:
            seeds = range(len(self.props))
        queue = deque()
        queued = [False] * len(self.props)
        for k in seeds:
            if active[k] and not queued[k]:
                queue.append(k)
                queued[k] = True
        while True:
            for v in store.drain_changed():
                woken = watchers[v]
                if fix_watchers[v] and store.assigned(v):
                    woken = woken + fix_watchers[v]
                for watcher in woken:
                    if active[watcher] and not queued[watcher]:
                        queue.append(watcher)
                        queued[watcher] = True
            if not queue:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                raise BudgetSpent
            k = queue.popleft()
            queued[k] = False
            stats.propagations += 1
            outcome = self.props[k].prune(store)
            if outcome == FAILED:
                stats.failures += 1
                return False
            if outcome == SUBSUMED:
                # subsumption is search state, trailed with the domains
                store.save(active, k, False)

    # -- search -----------------------------------------------------------

    def solve(self, limit: Optional[int] = 1,
              node_limit: Optional[int] = None,
              time_limit: Optional[float] = None) -> SearchResult:
        """Search until `limit` solutions are found (1 by default; None
        enumerates them all), the tree is exhausted, or a node or time
        budget runs out; a spent budget raises BudgetSpent, caught here. The
        time budget starts here and also holds inside a fixpoint. An open
        choice point owns one trail frame, for its left branch x=v; its
        right branch x!=v is taken in the parent's frame. Each call counts
        into a fresh `self.stats`. Raises ValueError for a `limit` below 1
        or a negative or NaN budget."""
        if limit is not None and limit < 1:
            raise ValueError("solution limit must be positive, got %r" % limit)
        if node_limit is not None and node_limit < 0:
            raise ValueError("node limit must be nonnegative, got %r" % node_limit)
        if time_limit is not None and not time_limit >= 0:  # nan too
            raise ValueError("time limit must be nonnegative, got %r" % time_limit)
        deadline = None if time_limit is None else time.monotonic() + time_limit
        solutions: List[List[int]] = []
        stats = self.stats = SearchStats()
        complete = True
        # open choice points: (var, value, path length at its left branch)
        decisions: List[Tuple[int, int, int]] = []

        def check_budget():
            if ((node_limit is not None and stats.nodes >= node_limit)
                    or (deadline is not None and time.monotonic() >= deadline)):
                raise BudgetSpent

        # root propagation wakes every propagator, in a frame of its own so
        # that solve() leaves the store as constructed, for the next call
        self.store.push()
        self.deadline = deadline
        try:
            check_budget()
            failed = not self.propagate_fixpoint()
            depth = 0
            while True:
                if not failed:
                    choice = self.strategy.select(self.store, self.degrees)
                    if choice is None:
                        solutions.append(self.store.solution_values())
                        stats.solutions += 1
                        if limit is not None and len(solutions) >= limit:
                            break
                        failed = True  # exhaust this branch and keep enumerating
                if failed and not decisions:
                    break
                check_budget()
                if failed:
                    # the deepest choice point takes its right branch x!=v in
                    # its parent's frame; x was unfixed, so x keeps a value
                    var, value, depth = decisions.pop()
                    self.store.undo()
                    self.store.remove_value(var, value)
                else:
                    var, value = choice
                    depth += 1
                    self.store.push()
                    decisions.append((var, value, depth))
                    self.store.assign(var, value)
                stats.nodes += 1
                stats.peak_depth = max(stats.peak_depth, depth)
                failed = not self.propagate_fixpoint(())
        except BudgetSpent:
            complete = False
        finally:
            self.deadline = None

        # unwind so the store returns to its root state
        for _ in range(len(decisions) + 1):
            self.store.undo()
        return SearchResult(solutions, stats, complete)
