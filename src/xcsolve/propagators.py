"""One filtering implementation per propagator kind.

Every propagator obeys the soundness contract: it never removes a value
that appears in some satisfying assignment of its own constraint given the
other current domains. Reporting SUBSUMED means the constraint holds for
every completion of the current domains.

A `filter` returns FAILED for an inconsistency it finds itself; an update
that empties a domain raises `Wipeout`, which `Propagator.prune`, the one
entry point, reports as FAILED.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import expr as ex
from .compiler import PropagatorSpec
from .errors import EvalError
from .intset import IntegerSet
from .store import DomainStore, Wipeout

OK = "ok"
SUBSUMED = "subsumed"
FAILED = "failed"

# the widest domain an expression check evaluates, value by value, in one call
MAX_CHECK_VALUES = 1 << 16
# the most ranges one expression check's memo holds before it is cleared
MEMO_RANGES = 1 << 12
# a memo entry for a key no call has evaluated: (tested, rejected)
_UNTESTED = (IntegerSet(()),) * 2


def _term_domain(store: DomainStore, term) -> IntegerSet:
    if isinstance(term, ex.VarRef):
        return store.domain(term.index)
    return IntegerSet.interval(term, term)


class Propagator:
    # True when a scope variable that shrinks without becoming fixed never
    # gives `filter` more to do; the engine then wakes it only on fixing
    fix_only = False

    def __init__(self, spec: PropagatorSpec):
        self.spec = spec

    def prune(self, store: DomainStore) -> str:
        """`filter`'s outcome, or FAILED when it empties a domain."""
        try:
            return self.filter(store)
        except Wipeout:
            return FAILED

    def filter(self, store: DomainStore) -> str:
        raise NotImplementedError


class TableProp(Propagator):
    """Simple tabular reduction (STR) for both semantics of a table.

    `valid` holds the tuples whose every value is still in its domain. It
    starts as the spec's own tuple list and shrinks with the domains; the
    store trails it, so backtracking brings the longer list back. A
    `supports` table keeps in each domain the values that some valid tuple
    uses (generalized arc consistency), and is subsumed once at most one
    column holds more than one value. In a `conflicts` table the valid
    tuples are the conflicts that can still match: the table fails when one
    matches a full assignment and prunes their values from its last free
    variable.

    `memory` pairs `valid` with `seen`, the scope's domains as the last
    call that returned OK left them, and the store trails the pair as one.
    Every valid tuple's k-th value lies in `seen[k]`, and an IntegerSet is
    immutable, so a column whose domain is still the object `seen[k]`
    cannot drop a tuple: a call filters only the other columns (STR2's
    rule, Lecoutre, Constraints 16(4), 2011). When no column changed, the
    domains are those an OK call left, on which STR prunes nothing and
    returns OK again."""

    def __init__(self, spec: PropagatorSpec):
        super().__init__(spec)
        if len(set(spec.scope)) < len(spec.scope):
            # each column owns its variable's domain
            raise ValueError("table scope repeats a variable: %r" % (spec.scope,))
        self.memory = spec.data["tuples"], (None,) * len(spec.scope)
        self.supports = spec.kind == "TableSupports"

    @property
    def valid(self):
        return self.memory[0]

    def filter(self, store):
        scope = self.spec.scope
        valid, seen = self.memory
        domains = [store.domain(v) for v in scope]
        kept = valid
        changed = not scope  # a table over no variables is filtered once
        for k, d in enumerate(domains):
            if d is not seen[k]:
                changed = True
                kept = d.select(kept, k)
        if not changed:
            return OK
        if not kept:
            return FAILED if self.supports else SUBSUMED
        if len(kept) == len(valid):
            kept = valid  # shared, not an equal copy
        sizes = [d.size() for d in domains]
        if self.supports:
            open_columns = 0
            for k, v in enumerate(scope):
                if sizes[k] == 1:
                    continue  # its one value is every valid tuple's
                supported = {t[k] for t in kept}
                if len(supported) < sizes[k]:
                    # remember the very object the store now holds
                    domains[k] = IntegerSet.from_values(supported)
                    store.update(v, domains[k])
                open_columns += len(supported) > 1
            # each value of one open column has a valid tuple through the
            # fixed columns, so every completion is a tuple
            outcome = OK if open_columns > 1 else SUBSUMED
        else:
            free = [k for k, size in enumerate(sizes) if size > 1]
            # no free variable: a valid conflict is the full assignment
            outcome = OK if len(free) > 1 else SUBSUMED if free else FAILED
        # only an OK call's domains are `seen`: called again on the same
        # domains, a subsumed or failed table filters anew
        store.save(vars(self), "memory",
                   (kept, tuple(domains) if outcome == OK else seen))
        if outcome == SUBSUMED and not self.supports:
            k = free[0]
            store.update(scope[k], domains[k].difference(
                IntegerSet.from_values(t[k] for t in kept)))
        return outcome


class LinearRelProp(Propagator):
    """sum(c_i * x_i) RELOP rhs: bounds consistency for `eq` and the
    orderings; `ne`, binary disequality included, prunes its last free term.

    The relation becomes bounds on the sum once, when the propagator is
    built: `lo <= sum <= hi`, None where the relation sets no bound."""

    def __init__(self, spec: PropagatorSpec):
        super().__init__(spec)
        op, rhs = spec.data["op"], spec.data["rhs"]
        self.lo = {"gt": rhs + 1, "ge": rhs, "eq": rhs}.get(op)
        self.hi = {"lt": rhs - 1, "le": rhs, "eq": rhs}.get(op)

    def filter(self, store):
        terms = self.spec.data["terms"]
        if self.spec.data["op"] == "ne":
            return self._ne(store, terms, self.spec.data["rhs"])
        lo, hi = self.lo, self.hi
        smin, smax = self._bounds(store, terms)
        if (hi is not None and smin > hi) or (lo is not None and smax < lo):
            return FAILED
        for v, c in terms:
            d = store.domain(v)
            low, high = c * d.min_value(), c * d.max_value()
            if hi is not None:
                slack = hi - smin + min(low, high)  # c_i * x_i <= slack
                if c > 0:
                    store.clamp(v, hi=slack // c)
                else:
                    store.clamp(v, lo=-(-slack // c))
            if lo is not None:
                need = lo - smax + max(low, high)  # c_i * x_i >= need
                if c > 0:
                    store.clamp(v, lo=-(-need // c))
                else:
                    store.clamp(v, hi=need // c)
        smin, smax = self._bounds(store, terms)
        if (hi is None or smax <= hi) and (lo is None or smin >= lo):
            return SUBSUMED
        return OK

    @staticmethod
    def _bounds(store, terms):
        smin = smax = 0
        for v, c in terms:
            d = store.domain(v)
            low, high = c * d.min_value(), c * d.max_value()
            smin += min(low, high)
            smax += max(low, high)
        return smin, smax

    @staticmethod
    def _ne(store, terms, rhs):
        free = None  # the one unfixed term
        for v, c in terms:
            d = store.domain(v)
            if d.is_singleton():
                rhs -= c * d.min_value()
            elif free is None:
                free = v, c
            else:
                return OK
        if free is None:
            return FAILED if rhs == 0 else SUBSUMED
        v, c = free
        if rhs % c == 0:
            store.remove_value(v, rhs // c)
        return SUBSUMED


class AllDifferentProp(Propagator):
    """Value propagation from assigned variables plus a pigeonhole check on
    the union of the current domains.

    `free` holds, in scope order, the variables whose value has not yet
    been removed from the others. It starts as the scope and shrinks as
    variables are fixed; the store trails it, as STR trails `valid`. A
    call reads only `free`: the values already handled are distinct and
    gone from every free domain, so they can prune nothing more, and the
    pigeonhole test on the whole scope is the same test on `free` alone."""

    def __init__(self, spec: PropagatorSpec):
        super().__init__(spec)
        self.free = spec.scope

    def filter(self, store):
        taken = set()  # the values fixed since the last call
        free = []
        for v in self.free:
            d = store.domain(v)
            if d.is_singleton():
                value = d.min_value()
                if value in taken:
                    return FAILED
                taken.add(value)
            else:
                free.append(v)
        if not free:
            return SUBSUMED
        if taken:
            store.save(vars(self), "free", free)
            taken_set = IntegerSet.from_values(taken)
            for v in free:
                store.update(v, store.domain(v).difference(taken_set))
        union = IntegerSet.union_all(store.domain(v) for v in free)
        if union.size() < len(free):
            return FAILED
        return OK


class CountingProp(Propagator):
    """Shared filtering for among / atleast / atmost, and for each
    `{value occurrences}` pair of global_cardinality.

    Maintains lower/upper bounds on |{i : x_i in S}| and confronts them
    with the required count (a fixed interval or a count variable); it is
    subsumed once both bounds lie inside the required count's interval.
    A fixed variable costs one lookup in `members`.
    """

    def __init__(self, spec: PropagatorSpec):
        super().__init__(spec)
        self.members = frozenset(spec.data["values"])
        self.value_set = IntegerSet.from_values(self.members)

    def filter(self, store):
        data = self.spec.data
        vars_ = data["vars"]
        members, value_set = self.members, self.value_set
        count_var = data["count_var"]

        lb = ub = 0
        undecided = []
        for v in vars_:
            d = store.domain(v)
            if d.is_singleton():
                if d.min_value() in members:
                    lb += 1
                    ub += 1
                continue
            hits = d.intersect(value_set).size()
            if not hits:
                continue
            ub += 1
            if hits == d.size():
                lb += 1
            else:
                undecided.append(v)

        if count_var is not None:
            store.clamp(count_var, lo=lb, hi=ub)
            need_lo = store.domain(count_var).min_value()
            need_hi = store.domain(count_var).max_value()
        else:
            need_lo = data["lo"] if data["lo"] is not None else 0
            need_hi = data["hi"] if data["hi"] is not None else len(vars_)

        if lb > need_hi or ub < need_lo:
            return FAILED
        if undecided and (lb == need_hi or ub == need_lo):
            # at the upper count no further variable may take a counted
            # value; at the lower one every undecided variable must
            for v in undecided:
                if lb == need_hi:
                    store.update(v, store.domain(v).difference(value_set))
                else:
                    store.intersect(v, value_set)
        # every completion counts inside the bounds; a fixed count
        # variable, clamped to lb..ub, gives this only when lb == ub
        if need_lo <= lb and ub <= need_hi and (
                count_var is None or store.assigned(count_var)):
            return SUBSUMED
        return OK


class ElementProp(Propagator):
    """table[index] = value with a configurable index base."""

    def filter(self, store):
        data = self.spec.data
        table = data["table"]
        base = data["base"]
        index, value = data["index"], data["value"]
        idom = _term_domain(store, index)
        vdom = _term_domain(store, value)

        cells = idom.intersect(IntegerSet.interval(base, base + len(table) - 1))
        valid = [i - base for i in cells
                 if _term_domain(store, table[i - base]).intersects(vdom)]
        if not valid:
            return FAILED
        if isinstance(index, ex.VarRef):
            store.update(index.index, IntegerSet.from_values(j + base for j in valid))
        reachable = IntegerSet.union_all(_term_domain(store, table[j]) for j in valid)
        if isinstance(value, ex.VarRef):
            store.intersect(value.index, reachable)
        elif value not in reachable:
            return FAILED

        idom = _term_domain(store, index)
        if idom.is_singleton():
            # the value's domain lies inside the one valid cell's, unless the
            # index is the value and narrowing the value just fixed it to a
            # value that its cell lacks
            cell = table[idom.value() - base]
            vdom = _term_domain(store, value)
            if not _term_domain(store, cell).intersects(vdom):
                return FAILED
            if isinstance(cell, ex.VarRef):
                store.update(cell.index, vdom)
            if vdom.is_singleton():
                return SUBSUMED
        return OK


class CumulativeProp(Propagator):
    """Energetic overload checking (Wolf & Schrader, INAP 2005), then
    time-table filtering over compulsory parts, swept into a profile of
    `(start, end, load)` segments (Letort, Beldiceanu & Carlsson, CP 2012).
    Neither does work that grows with the time horizon."""

    def filter(self, store):
        data = self.spec.data
        tasks = data["tasks"]
        capacity = data["capacity"]

        events = []
        parts: List[Optional[Tuple[int, int]]] = []
        windows = []
        fixed = True
        for origin, duration, height in tasks:
            d = _term_domain(store, origin)
            if duration > 0 and height > capacity:
                return FAILED
            fixed = fixed and d.is_singleton()
            est, lst = d.min_value(), d.max_value()
            ect = est + duration
            if height > 0 and lst < ect:
                parts.append((lst, ect))
                events += [(lst, height), (ect, -height)]
            else:
                parts.append(None)
            if duration > 0 and height > 0:
                windows.append((lst + duration, est, duration * height))

        # the tasks whose windows lie inside [est, lct] must fit in
        # capacity * (lct - est)
        windows.sort()
        for est in {w[1] for w in windows}:
            energy = 0
            for lct, task_est, task_energy in windows:
                if task_est >= est:
                    energy += task_energy
                    if energy > capacity * (lct - est):
                        return FAILED

        events.sort()
        segments = []
        load = 0
        for (t, delta), (following, _) in zip(events, events[1:]):
            load += delta
            if load > 0 and t < following:
                if load > capacity:
                    return FAILED
                segments.append((t, following, load))

        for (origin, duration, height), own in zip(tasks, parts):
            if not isinstance(origin, ex.VarRef) or height == 0 or duration == 0:
                continue
            forbidden = []
            for start, end, load in segments:
                # own part boundaries are events: a segment is inside or apart
                if own is not None and own[0] <= start < own[1]:
                    load -= height
                if load + height > capacity:
                    forbidden.append((start - duration + 1, end - 1))
            if forbidden:
                v = origin.index
                store.update(v, store.domain(v).difference(
                    IntegerSet.from_intervals(forbidden)))
        # the engine runs this again after its own pruning, so only a
        # schedule fixed on entry is known to fit
        return SUBSUMED if fixed else OK


class LexProp(Propagator):
    """Pointer-based filtering for lexicographic vector ordering (Frisch,
    Hnich, Kiziltan, Miguel & Walsh, CP 2002)."""

    strict = True

    def filter(self, store):
        xs = self.spec.data["xs"]
        ys = self.spec.data["ys"]
        n = len(xs)

        # alpha: the first position not fixed to equal values
        for alpha in range(n):
            xd = _term_domain(store, xs[alpha])
            if not (xd.is_singleton() and xd == _term_domain(store, ys[alpha])):
                break
        else:
            return FAILED if self.strict else SUBSUMED

        # beta: most significant position from which a strict decrease is
        # already impossible; runs where only equality fits are transparent
        run_start = None
        for i in range(alpha, n):
            x_min = _term_domain(store, xs[i]).min_value()
            y_max = _term_domain(store, ys[i]).max_value()
            if x_min > y_max:
                beta = i if run_start is None else run_start
                break
            if x_min < y_max:
                run_start = None
            elif run_start is None:
                run_start = i
        else:
            beta = (n if run_start is None else run_start) if self.strict else n + 1
        if alpha >= beta:
            return FAILED

        offset = 1 if alpha + 1 == beta else 0
        x, y = xs[alpha], ys[alpha]
        x_hi = _term_domain(store, y).max_value() - offset
        if _term_domain(store, x).min_value() > x_hi:
            return FAILED
        if isinstance(x, ex.VarRef):
            store.clamp(x.index, hi=x_hi)
        if isinstance(y, ex.VarRef):
            # x's bound as it stands after its clamp: x and y may be one variable
            store.clamp(y.index, lo=_term_domain(store, x).min_value() + offset)
        if _term_domain(store, x).max_value() < _term_domain(store, y).min_value():
            return SUBSUMED
        return OK


class LexLessEqProp(LexProp):
    strict = False


class ExprCheckProp(Propagator):
    """Generic expression constraint: satisfied iff the expression
    evaluates to 1; an evaluation that raises is a violation. Prunes only
    when at most one scope variable is unassigned.

    Pruning the last free variable again after its domain shrank removes
    nothing more, so the engine wakes it only when a scope variable is
    fixed. The expression is lowered to a closure at the first call that
    evaluates it, so a check that never gets that far costs nothing.

    What an evaluation gives depends only on the values, so each value of
    the free variable is evaluated once per set of fixed values (the memo's
    key) and the verdict is kept in `memo`; the memo is no search state and
    is not trailed. A free variable with more than MAX_CHECK_VALUES values
    is left to the full-assignment check."""

    fix_only = True
    check = None  # the lowered expression, once a call has built it
    memo = None  # key -> (tested, rejected), built with `check`
    memo_ranges = 0  # ranges the memo's sets hold together

    def filter(self, store):
        scope = self.spec.scope
        values = []
        free = None  # position of the one unassigned variable
        for k, v in enumerate(scope):
            d = store.domain(v)
            if d.is_singleton():
                values.append(d.min_value())
            elif free is None:
                free = k
                values.append(None)
            else:
                return OK
        if free is not None:
            u = scope[free]
            domain = store.domain(u)
            if (domain.max_value() - domain.min_value() >= MAX_CHECK_VALUES
                    and domain.size() > MAX_CHECK_VALUES):
                return OK
        check = self.check
        if check is None:
            check = self.check = ex.lower(
                self.spec.data["expr"], {v: k for k, v in enumerate(scope)})
            self.memo = {}
        if free is None:
            try:
                return SUBSUMED if check(values) == 1 else FAILED
            except EvalError:
                return FAILED
        key = tuple(values)
        old = self.memo.get(key, _UNTESTED)
        tested, rejected = old
        untested = domain.difference(tested)
        if not untested.is_empty():
            new_rejected = []
            for candidate in untested:
                values[free] = candidate
                try:
                    if check(values) == 1:
                        continue
                except EvalError:
                    pass  # a violation, as on a full assignment
                new_rejected.append(candidate)
            tested = tested.union(untested)
            if tested.size() > MAX_CHECK_VALUES:
                # keep only what this domain needs, so no entry outgrows it
                tested = domain
                rejected = rejected.intersect(domain)
            if new_rejected:
                rejected = rejected.union(IntegerSet.from_values(new_rejected))
            self.memo[key] = new = (tested, rejected)
            self.memo_ranges += sum(s.range_count() for s in new) - sum(
                s.range_count() for s in old)
            if self.memo_ranges > MEMO_RANGES:
                self.memo.clear()
                self.memo_ranges = 0
        if not rejected.is_empty():
            store.update(u, domain.difference(rejected))
        return SUBSUMED


PROPAGATOR_CLASSES = {
    "TableSupports": TableProp,
    "TableConflicts": TableProp,
    "LinearRel": LinearRelProp,
    "AllDifferent": AllDifferentProp,
    "Among": CountingProp,
    "AtLeast": CountingProp,
    "AtMost": CountingProp,
    "Element": ElementProp,
    "GlobalCardinality": CountingProp,
    "Cumulative": CumulativeProp,
    "LexLess": LexProp,
    "LexLessEq": LexLessEqProp,
    "ExprCheck": ExprCheckProp,
}


def build_propagator(spec: PropagatorSpec) -> Propagator:
    try:
        cls = PROPAGATOR_CLASSES[spec.kind]
    except KeyError:
        raise ValueError("no propagator for kind %r" % spec.kind) from None
    return cls(spec)
