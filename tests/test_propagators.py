import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xcsolve import Engine, propagators
from xcsolve import expr as ex
from xcsolve.compiler import Problem, PropagatorSpec
from xcsolve.expr import Apply, IntLiteral, VarRef
from xcsolve.intset import IntegerSet
from xcsolve.propagators import (
    FAILED,
    MAX_CHECK_VALUES,
    MEMO_RANGES,
    OK,
    SUBSUMED,
    Propagator,
    build_propagator,
)
from xcsolve.store import DomainStore

from helpers import instance_xml, load


def iset(*values):
    return IntegerSet.from_values(values)


def run_root(spec, domains):
    problem = Problem(list(domains), [spec])
    engine = Engine(problem)
    ok = engine.propagate_fixpoint()
    return ok, engine.store


# -- the failure contract -----------------------------------------------------


def test_prune_reports_a_wipeout_as_failed_before_filter_reads_on():
    # a filter that empties a domain never reaches its next line
    reads = []

    class Emptying(Propagator):
        def filter(self, store):
            store.remove_value(0, 7)
            reads.append(store.domain(0).min_value())
            return OK

    store = DomainStore([iset(7)])
    assert Emptying(PropagatorSpec("Emptying", (0,), {})).prune(store) == FAILED
    assert reads == []
    assert store.failed and store.domain(0).is_empty()


# -- tables -------------------------------------------------------------------


def test_conflicts_prune_last_variable():
    spec = PropagatorSpec("TableConflicts", (0, 1),
                          {"tuples": [[1, 1], [1, 3]]})
    ok, store = run_root(spec, [iset(1), iset(1, 2, 3)])
    assert ok
    assert store.domain(1) == iset(2)


def test_conflicts_no_active_tuple_subsumes():
    spec = PropagatorSpec("TableConflicts", (0, 1), {"tuples": [[9, 9]]})
    store = DomainStore([iset(1, 2), iset(1, 2)])
    assert build_propagator(spec).prune(store) == SUBSUMED


def test_conflicts_full_match_fails():
    spec = PropagatorSpec("TableConflicts", (0, 1), {"tuples": [[1, 2]]})
    store = DomainStore([iset(1), iset(2)])
    assert build_propagator(spec).prune(store) == FAILED


def test_both_table_kinds_share_one_class():
    classes = propagators.PROPAGATOR_CLASSES
    assert classes["TableSupports"] is classes["TableConflicts"]


def completions(scope, domains):
    """Every assignment of the scope's variables from their domains."""
    return itertools.product(*(sorted(domains[v]) for v in scope))


def fitting(scope, tuples, domains):
    """The tuples whose every value is in its domain, in table order."""
    return [t for t in tuples if all(t[k] in domains[v] for k, v in enumerate(scope))]


def expected_table_call(kind, scope, tuples, domains):
    """What one call of a table propagator gives, by brute force: the
    outcome, the domains after it, and its domain update calls."""
    fits = fitting(scope, tuples, domains)
    after = list(domains)
    if kind == "TableSupports":
        # a value stays exactly when some tuple that fits the domains uses it
        if not fits:
            return FAILED, after, 0
        updates = 0
        for k, v in enumerate(scope):
            used = {t[k] for t in fits}
            if used != domains[v]:
                after[v], updates = used, updates + 1
        # with at most one column open, every completion is a fitting tuple
        open_columns = sum(len(after[v]) > 1 for v in scope)
        return (SUBSUMED if open_columns <= 1 else OK), after, updates
    # forward checking: a conflict that fits stays possible until only one
    # variable is free, which then loses the conflicts' values
    if not fits:
        return SUBSUMED, after, 0
    free = [k for k, v in enumerate(scope) if len(domains[v]) > 1]
    if not free:
        return FAILED, after, 0
    if len(free) > 1:
        return OK, after, 0
    k = free[0]
    after[scope[k]] = domains[scope[k]] - {t[k] for t in fits}
    return (SUBSUMED if after[scope[k]] else FAILED), after, 1


@st.composite
def _table_calls(draw):
    """A table over some of up to four variables, domains with holes in
    -2..4, and rows from -3..5 that may fall outside them or repeat, as
    lists or tuples."""
    count = draw(st.integers(1, 4))
    domains = [draw(st.sets(st.integers(-2, 4), min_size=1, max_size=4))
               for _ in range(count)]
    scope = tuple(draw(st.permutations(range(count)))[:draw(st.integers(1, count))])
    row = st.lists(st.integers(-3, 5), min_size=len(scope), max_size=len(scope))
    rows = draw(st.lists(row, max_size=8))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    tuples = [draw(st.sampled_from([list, tuple]))(r) for r in rows]
    return draw(st.sampled_from(["TableSupports", "TableConflicts"])), scope, tuples, domains


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_table_calls())
@example(("TableSupports", (0, 1), [[1, 1], [2, 2]], [{1, 2}, {1, 2}]))  # two open
def test_table_call_matches_brute_force(call):
    kind, scope, tuples, domains = call
    store = CountingStore([IntegerSet.from_values(d) for d in domains])
    prop = build_propagator(PropagatorSpec(kind, scope, {"tuples": tuples}))
    outcome, after, updates = expected_table_call(kind, scope, tuples, domains)
    assert prop.prune(store) == outcome
    assert store.updates == updates
    if outcome != FAILED:
        assert [set(d) for d in store.snapshot()] == after
    # the valid tuples are the ones that fit, kept only while there are any
    assert prop.valid == (fitting(scope, tuples, domains) or tuples)
    if outcome == SUBSUMED:
        rows = set(map(tuple, tuples))
        assert all((c in rows) == (kind == "TableSupports")
                   for c in completions(scope, after))


@pytest.mark.parametrize("kind", ["TableSupports", "TableConflicts"])
def test_table_over_a_repeated_variable_is_refused(kind):
    # each column would replace the one domain in turn, so X = 0 would pass
    # for the pair (1, 0)
    spec = PropagatorSpec(kind, (0, 0), {"tuples": [(1, 0)]})
    with pytest.raises(ValueError, match="repeats a variable"):
        Engine(Problem([IntegerSet.interval(0, 2)], [spec]))


@pytest.mark.parametrize("kind", ["TableSupports", "TableConflicts"])
def test_table_calls_with_backtracking_match_one_call_each(kind):
    # decisions, undos and repeated calls in a random order, as a search
    # makes them: every call gives what one STR call gives on the domains of
    # that moment, and a call right after the table's own OK call returns
    # OK without touching the store
    rng = random.Random(kind)
    repeats = 0
    for _ in range(600):
        count = rng.randint(2, 4)
        domains = [IntegerSet.from_values(rng.sample(range(-2, 5), rng.randint(1, 5)))
                   for _ in range(count)]
        scope = tuple(rng.sample(range(count), rng.randint(1, count)))
        # rows over -2..5, so that some values lie outside every domain
        tuples = [tuple(rng.randint(-2, 5) for _ in scope)
                  for _ in range(rng.randint(0, 30))]
        store = CountingStore(domains)
        prop = build_propagator(PropagatorSpec(kind, scope, {"tuples": tuples}))
        # the engine calls a subsumed table again only after an undo, and
        # undoes a failed call's frame before it calls anything again
        state = {"active": True, "failed": False}
        for _ in range(40):
            action = rng.choice(["push", "decide", "decide", "undo", "prune", "prune"])
            if state["failed"] and action != "undo":
                continue
            if action == "push":
                store.push()
            elif action == "undo":
                if not store.depth():
                    break
                store.undo()
            elif action == "decide":
                free = [v for v in range(count) if not store.assigned(v)]
                if not free:
                    continue
                v = rng.choice(free)
                value = rng.choice(list(store.domain(v)))
                if rng.random() < 0.5:
                    store.assign(v, value)
                else:
                    store.remove_value(v, value)
            elif state["active"]:
                before = [set(d) for d in store.snapshot()]
                valid = prop.valid
                counts = store.updates, store.saves
                outcome = prop.prune(store)
                expected, after, updates = expected_table_call(kind, scope, tuples, before)
                assert outcome == expected
                assert store.updates - counts[0] == updates
                if outcome != FAILED:
                    assert [set(d) for d in store.snapshot()] == after
                assert prop.valid == (fitting(scope, tuples, before) or valid)
                if outcome == OK:
                    counts = store.updates, store.saves
                    assert prop.prune(store) == OK
                    assert (store.updates, store.saves) == counts
                    repeats += 1
                elif outcome == SUBSUMED:
                    store.save(state, "active", False)
                else:
                    store.save(state, "failed", True)
    assert repeats > 100


# -- linear -------------------------------------------------------------------


def test_linear_ne_removes_single_completion():
    spec = PropagatorSpec("LinearRel", (0, 1),
                          {"terms": [[0, 1], [1, 1]], "op": "ne", "rhs": 4})
    ok, store = run_root(spec, [iset(2), iset(1, 2, 3)])
    assert ok
    assert store.domain(1) == iset(1, 3)


def test_linear_negative_coefficient():
    # 2x - y >= 3 over x in 0..2, y in 0..4
    spec = PropagatorSpec("LinearRel", (0, 1),
                          {"terms": [[0, 2], [1, -1]], "op": "ge", "rhs": 3})
    ok, store = run_root(spec, [iset(0, 1, 2), iset(0, 1, 2, 3, 4)])
    assert ok
    assert store.domain(0) == iset(2)  # 2x >= 3 + min(y) = 3
    assert store.domain(1) == iset(0, 1)


def test_linear_infeasible_bounds_fail():
    spec = PropagatorSpec("LinearRel", (0,),
                          {"terms": [[0, 1]], "op": "gt", "rhs": 9})
    ok, _ = run_root(spec, [iset(1, 2, 3)])
    assert not ok


# -- counting -----------------------------------------------------------------


def test_among_exact_forces_membership():
    # both variables must land in {1, 2}
    spec = PropagatorSpec("Among", (0, 1),
                          {"vars": [0, 1], "values": [1, 2],
                           "lo": 2, "hi": 2, "count_var": None})
    ok, store = run_root(spec, [iset(1, 5), iset(2, 6)])
    assert ok
    assert store.domain(0) == iset(1)
    assert store.domain(1) == iset(2)


def test_among_zero_forbids_membership():
    spec = PropagatorSpec("Among", (0, 1),
                          {"vars": [0, 1], "values": [1, 2],
                           "lo": 0, "hi": 0, "count_var": None})
    ok, store = run_root(spec, [iset(1, 5), iset(2, 6)])
    assert ok
    assert store.domain(0) == iset(5)
    assert store.domain(1) == iset(6)


def test_among_count_variable_clamped():
    spec = PropagatorSpec("Among", (0, 1, 2),
                          {"vars": [0, 1], "values": [3],
                           "lo": None, "hi": None, "count_var": 2})
    ok, store = run_root(spec, [iset(3), iset(0, 3), iset(0, 1, 2, 3)])
    assert ok
    assert store.domain(2) == iset(1, 2)


def test_atleast_forces_when_tight():
    spec = PropagatorSpec("AtLeast", (0, 1),
                          {"vars": [0, 1], "values": [4],
                           "lo": 2, "hi": None, "count_var": None})
    ok, store = run_root(spec, [iset(4, 7), iset(4, 9)])
    assert ok
    assert store.domain(0) == iset(4)
    assert store.domain(1) == iset(4)


def test_atmost_blocks_when_saturated():
    spec = PropagatorSpec("AtMost", (0, 1, 2),
                          {"vars": [0, 1, 2], "values": [4],
                           "lo": None, "hi": 1, "count_var": None})
    ok, store = run_root(spec, [iset(4), iset(4, 5), iset(4, 6)])
    assert ok
    assert store.domain(1) == iset(5)
    assert store.domain(2) == iset(6)


def test_atleast_impossible_fails():
    spec = PropagatorSpec("AtLeast", (0, 1),
                          {"vars": [0, 1], "values": [4],
                           "lo": 2, "hi": None, "count_var": None})
    ok, _ = run_root(spec, [iset(4, 7), iset(9)])
    assert not ok


@st.composite
def _counting_calls(draw):
    """A counting global over up to four variables with domains of at most
    3 values in 0..3, bounded by constants as its kind allows or, for
    Among and GlobalCardinality, by a count variable over 0..4."""
    kind = draw(st.sampled_from(["Among", "AtLeast", "AtMost", "GlobalCardinality"]))
    n = draw(st.integers(1, 4))
    width = 3 if kind == "Among" else 1
    values = draw(st.lists(st.integers(0, 3), min_size=1, max_size=width, unique=True))
    data = {"vars": list(range(n)), "values": values,
            "lo": None, "hi": None, "count_var": None}
    domain = st.sets(st.integers(0, 3), min_size=1, max_size=3)
    domains = [draw(domain) for _ in range(n)]
    bound = st.integers(0, n + 1)
    if kind == "AtLeast":
        data["lo"] = draw(bound)
    elif kind == "AtMost":
        data["hi"] = draw(bound)
    elif draw(st.booleans()):
        data["lo"] = data["hi"] = draw(bound)
    else:
        data["count_var"] = n
        domains.append(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)))
    return kind, data, domains


def _counts_fit(data, assignment):
    count = sum(assignment[v] in data["values"] for v in data["vars"])
    if data["count_var"] is not None:
        return count == assignment[data["count_var"]]
    return ((data["lo"] is None or data["lo"] <= count)
            and (data["hi"] is None or count <= data["hi"]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_counting_calls())
def test_counting_call_matches_brute_force(call):
    # one call removes no value that a solution uses, fails only when
    # nothing satisfies, and is subsumed only when every completion of the
    # domains it leaves satisfies
    kind, data, domains = call
    scope = tuple(range(len(domains)))
    solutions = [c for c in completions(scope, domains) if _counts_fit(data, c)]
    store = DomainStore([IntegerSet.from_values(d) for d in domains])
    outcome = build_propagator(PropagatorSpec(kind, scope, data)).prune(store)
    if outcome == FAILED:
        assert not solutions
        return
    after = [set(d) for d in store.snapshot()]
    for solution in solutions:
        assert all(value in after[v] for v, value in enumerate(solution))
    if outcome == SUBSUMED:
        assert all(_counts_fit(data, c) for c in completions(scope, after))


# -- element ------------------------------------------------------------------


def _element_spec(index, table, value, base=1):
    scope = tuple(t.index for t in [index] + table + [value] if isinstance(t, VarRef))
    return PropagatorSpec("Element", scope,
                          {"index": index, "table": table, "value": value,
                           "base": base})


def test_element_prunes_index_and_value():
    spec = _element_spec(VarRef(0), [5, 7], VarRef(1))
    ok, store = run_root(spec, [iset(0, 1, 2, 3), iset(5, 9)])
    assert ok
    assert store.domain(0) == iset(1)  # only table[1]=5 can match value
    assert store.domain(1) == iset(5)


def test_element_assigned_index_channels_equality():
    spec = _element_spec(VarRef(0), [VarRef(1), VarRef(2)], VarRef(3))
    ok, store = run_root(spec, [iset(2), iset(1, 2), iset(4, 5), iset(5, 6)])
    assert ok
    assert store.domain(2) == iset(5)
    assert store.domain(3) == iset(5)


@pytest.mark.parametrize("table", [[3, 1], [VarRef(1), 1]])
def test_element_index_fixed_by_its_own_value_update_checks_its_cell(table):
    # J[ c1 c2 ] = J with J in 1..3 and c1 in {3}: the index becomes 2 ->
    # {1, 2}, the value then {1}, so the index is fixed at 1 whose cell
    # does not hold 1; no value of J satisfies the constraint
    spec = _element_spec(VarRef(0), table, VarRef(0))
    prop = build_propagator(spec)
    store = DomainStore([IntegerSet.interval(1, 3), iset(3)])
    assert prop.prune(store) == FAILED


def test_element_out_of_range_index_fails():
    spec = _element_spec(9, [5], VarRef(0))
    ok, _ = run_root(spec, [iset(5)])
    assert not ok


def count_range_scans(monkeypatch):
    """Make the IntegerSet operations that walk ranges add up the ranges
    each call may walk; returns a two-item list: the sum for membership,
    union and intersection, then the sum for the n-ary `union_all`."""
    scanned = [0, 0]

    def counted(operation):
        def call(self, other):
            scanned[0] += len(self.ranges) + len(getattr(other, "ranges", ()))
            return operation(self, other)
        return call

    def counted_union_all(cls, sets):
        sets = list(sets)
        scanned[1] += sum(len(s.ranges) for s in sets)
        return union_all(cls, sets)

    for name in ("__contains__", "union", "intersect"):
        monkeypatch.setattr(IntegerSet, name, counted(getattr(IntegerSet, name)))
    union_all = IntegerSet.union_all.__func__
    monkeypatch.setattr(IntegerSet, "union_all", classmethod(counted_union_all))
    return scanned


def test_element_root_call_on_a_wide_table_is_fast(monkeypatch):
    # 2,000 variable cells of two scattered values each, every index valid:
    # the reachable values come from one sort, not from one union per cell,
    # so the ranges walked grow with the table and not with its square
    rng = random.Random(3)
    n = 2000
    cells = [iset(*rng.sample(range(10 ** 6), 2)) for _ in range(n)]
    domains = [IntegerSet.interval(1, n)] + cells + [IntegerSet.interval(0, 10 ** 6)]
    spec = _element_spec(VarRef(0), [VarRef(j + 1) for j in range(n)], VarRef(n + 1))
    engine = Engine(Problem(domains, [spec]))
    scanned = count_range_scans(monkeypatch)
    assert engine.propagate_fixpoint()
    assert scanned[0] <= 8 * n
    # each of the two calls reads each cell's two ranges once
    assert scanned[1] <= 4 * n
    store = engine.store
    assert store.domain(0) == IntegerSet.interval(1, n)
    assert [store.domain(j + 1) for j in range(n)] == cells
    assert store.domain(n + 1) == IntegerSet.from_values(v for c in cells for v in c)


def test_element_root_call_on_a_fragmented_index_is_fast(monkeypatch):
    # an index over every other one of 8,000 cells: the cells come from one
    # intersection with the table's index range, not a membership test of
    # each table index, which would walk the index's 4,000 ranges each time
    rng = random.Random(5)
    n = 8000
    cells = [iset(*rng.sample(range(10 ** 6), 2)) for _ in range(n)]
    index = IntegerSet.from_values(range(1, n + 1, 2))
    domains = [index] + cells + [IntegerSet.interval(0, 10 ** 6)]
    spec = _element_spec(VarRef(0), [VarRef(j + 1) for j in range(n)], VarRef(n + 1))
    engine = Engine(Problem(domains, [spec]))
    scanned = count_range_scans(monkeypatch)
    assert engine.propagate_fixpoint()
    assert scanned[0] <= 8 * n
    # each of the two calls reads the two ranges of each valid cell once
    assert scanned[1] <= 2 * n
    store = engine.store
    assert store.domain(0) == index
    assert [store.domain(j + 1) for j in range(n)] == cells
    assert store.domain(n + 1) == IntegerSet.from_values(
        v for c in cells[::2] for v in c)


# -- global cardinality -------------------------------------------------------


def gcc_root(domains, parameters):
    """Root propagation of one global_cardinality, compiled from XML."""
    names = ["V%d" % i for i in range(len(domains))]
    xml = instance_xml(list(zip(names, domains)),
                       [{"name": "c0", "scope": names,
                         "reference": "global:global_cardinality",
                         "parameters": parameters}])
    _, problem = load(xml)
    engine = Engine(problem)
    return engine.propagate_fixpoint(), engine.store, problem


def test_gcc_exact_counts():
    ok, store, problem = gcc_root([[1], [1, 2], [1, 2]],
                                  "[ V0 V1 V2 ] [ { 1 2 } { 2 1 } ]")
    assert [s.kind for s in problem.propagators] == ["GlobalCardinality"] * 2
    assert ok
    # value 1 already appears once; exactly one of the others takes it,
    # and the remaining one must take 2: no immediate decision possible
    assert store.domain(1) == iset(1, 2)


def test_gcc_saturation_prunes():
    ok, store, _ = gcc_root([[3], [3, 4]], "[ V0 V1 ] [ { 3 1 } ]")
    assert ok
    assert store.domain(1) == iset(4)


def test_gcc_count_variable():
    ok, store, _ = gcc_root([[3], [3], [0, 1, 2, 3]], "[ V0 V1 ] [ { 3 V2 } ]")
    assert ok
    assert store.domain(2) == iset(2)


# -- cumulative ---------------------------------------------------------------


def test_cumulative_overload_fails():
    spec = PropagatorSpec("Cumulative", (0, 1), {
        "tasks": [[VarRef(0), 2, 2], [VarRef(1), 2, 2]],
        "capacity": 3})
    ok, _ = run_root(spec, [iset(0), iset(0)])
    assert not ok


def test_cumulative_timetable_prunes_start():
    # fixed task occupies [0,2) at height 2; moving task (d=2, h=2, C=3)
    # cannot start before 2
    spec = PropagatorSpec("Cumulative", (0, 1), {
        "tasks": [[VarRef(0), 2, 2], [VarRef(1), 2, 2]],
        "capacity": 3})
    ok, store = run_root(spec, [iset(0), iset(0, 1, 2, 3)])
    assert ok
    assert store.domain(1) == iset(2, 3)


def test_cumulative_rechecks_after_own_pruning():
    # pruning inside one call can assign every start; the completed
    # schedule must then be checked against the capacity, not the
    # profile computed on entry (V0=4,V1=3,V2=1 overloads t=4)
    spec = PropagatorSpec("Cumulative", (0, 1, 2), {
        "tasks": [[VarRef(0), 2, 2], [VarRef(1), 3, 1], [VarRef(2), 1, 2]],
        "capacity": 2})
    ok, _ = run_root(spec, [iset(0, 1, 3, 4), iset(1, 3), iset(1, 3)])
    assert not ok


def test_cumulative_work_does_not_grow_with_the_horizon():
    # horizon 10^6, capacity 2; V0 is fixed at full height on
    # [500000, 501000), V3 has the compulsory part [100500, 101000) at full
    # height, so V1 (d=10) and V2 (d=300000) may not overlap either
    spec = PropagatorSpec("Cumulative", (0, 1, 2, 3), {
        "tasks": [[VarRef(0), 1000, 2], [VarRef(1), 10, 1],
                  [VarRef(2), 300000, 1], [VarRef(3), 1000, 2]],
        "capacity": 2})
    horizon = IntegerSet.interval(0, 10 ** 6)
    ok, store = run_root(spec, [iset(500000), horizon, horizon,
                                IntegerSet.interval(100000, 100500)])
    assert ok
    assert store.domain(1) == IntegerSet.from_intervals(
        [(0, 100490), (101000, 499990), (501000, 10 ** 6)])
    assert store.domain(2) == IntegerSet.from_intervals(
        [(101000, 200000), (501000, 10 ** 6)])
    assert store.domain(3) == IntegerSet.interval(100000, 100500)


def test_cumulative_task_taller_than_capacity_fails():
    spec = PropagatorSpec("Cumulative", (0,), {
        "tasks": [[VarRef(0), 1, 3]], "capacity": 2})
    ok, _ = run_root(spec, [IntegerSet.interval(0, 10 ** 9)])
    assert not ok


def test_cumulative_zero_height_is_free():
    spec = PropagatorSpec("Cumulative", (0, 1), {
        "tasks": [[VarRef(0), 2, 0], [VarRef(1), 2, 1]],
        "capacity": 1})
    ok, store = run_root(spec, [iset(0, 1), iset(0, 1)])
    assert ok
    assert store.domain(0) == iset(0, 1)


def unit_tasks(count, duration=2, height=1):
    return [[VarRef(i), duration, height] for i in range(count)]


def test_cumulative_energy_overload_without_compulsory_parts_fails():
    # starts in 0..2 with d=2 leave no compulsory part for the profile, but
    # all four tasks lie in [0, 4]: energy 8 > capacity 1 x 4
    spec = PropagatorSpec("Cumulative", (0, 1, 2, 3), {
        "tasks": unit_tasks(4), "capacity": 1})
    store = DomainStore([iset(0, 1, 2)] * 4)
    assert build_propagator(spec).prune(store) == FAILED


def test_cumulative_energy_at_capacity_does_not_fail():
    # energy 4 = capacity 1 x window [0, 4]: V0=0, V1=2 fits exactly
    spec = PropagatorSpec("Cumulative", (0, 1), {
        "tasks": unit_tasks(2), "capacity": 1})
    ok, store = run_root(spec, [iset(0, 1, 2)] * 2)
    assert ok
    assert [store.domain(v) for v in (0, 1)] == [iset(0, 1, 2)] * 2


def test_cumulative_zero_duration_and_zero_height_add_no_energy():
    # the two unit tasks fill [0, 4] exactly; V2 (d=0, h=1) and V3 (d=2,
    # h=0) take no energy, so the window must not be reported as overloaded
    spec = PropagatorSpec("Cumulative", (0, 1, 2, 3), {
        "tasks": unit_tasks(2) + [[VarRef(2), 0, 1], [VarRef(3), 2, 0]],
        "capacity": 1})
    domains = [iset(0, 1, 2), iset(0, 1, 2), iset(0, 2, 4), iset(0, 1, 2)]
    ok, store = run_root(spec, domains)
    assert ok
    assert [store.domain(v) for v in range(4)] == domains


def test_cumulative_energy_unsat_schedule_fails_at_the_root():
    # twelve tasks of energy 56 on capacity 3 over the horizon [0, 18],
    # which holds 54: no compulsory part exists, and the time-table alone
    # searches more than the node limit without proving it
    tasks = [(3, 2), (2, 1), (4, 3), (1, 2), (3, 1), (2, 2),
             (4, 1), (2, 3), (3, 2), (1, 3), (2, 1), (3, 2)]
    spec = PropagatorSpec("Cumulative", tuple(range(12)), {
        "tasks": [[VarRef(i), d, h] for i, (d, h) in enumerate(tasks)],
        "capacity": 3})
    problem = Problem([IntegerSet.interval(0, 18 - d) for d, _ in tasks], [spec])
    result = Engine(problem).solve(limit=None, node_limit=1000)
    assert result.complete
    assert result.solutions == []
    assert (result.stats.nodes, result.stats.failures) == (0, 1)


# -- lex ----------------------------------------------------------------------


def test_lex_less_single_position_strict():
    spec = PropagatorSpec("LexLess", (0, 1),
                          {"xs": [VarRef(0)], "ys": [VarRef(1)]})
    ok, store = run_root(spec, [iset(0, 1), iset(0, 1)])
    assert ok
    assert store.domain(0) == iset(0)
    assert store.domain(1) == iset(1)


def test_lex_lesseq_forced_equality_chain():
    spec = PropagatorSpec("LexLessEq", (0, 1, 2, 3), {
        "xs": [VarRef(0), VarRef(1)],
        "ys": [VarRef(2), VarRef(3)]})
    ok, store = run_root(spec, [iset(1), iset(0, 5), iset(0, 1), iset(0)])
    assert ok
    assert store.domain(2) == iset(1)  # y0 < 1 would violate the prefix
    assert store.domain(1) == iset(0)  # tie at 0 forces x1 <= y1 = 0


def test_lex_less_equal_vectors_fail():
    spec = PropagatorSpec("LexLess", (0, 1),
                          {"xs": [VarRef(0), 3],
                           "ys": [VarRef(1), 3]})
    ok, _ = run_root(spec, [iset(2), iset(2)])
    assert not ok


def test_lex_lesseq_equal_vectors_ok():
    spec = PropagatorSpec("LexLessEq", (0, 1),
                          {"xs": [VarRef(0), 3],
                           "ys": [VarRef(1), 3]})
    ok, store = run_root(spec, [iset(2), iset(2)])
    assert ok


def test_lex_strict_needed_when_tail_blocked():
    # x = [a, 5], y = [b, 3]: tail forces a < b
    spec = PropagatorSpec("LexLess", (0, 1),
                          {"xs": [VarRef(0), 5],
                           "ys": [VarRef(1), 3]})
    ok, store = run_root(spec, [iset(0, 1), iset(0, 1)])
    assert ok
    assert store.domain(0) == iset(0)
    assert store.domain(1) == iset(1)


# -- expression check ---------------------------------------------------------


def _ne_expr(a, b):
    return Apply("ne", (VarRef(a), VarRef(b)))


def test_exprcheck_prunes_last_variable():
    spec = PropagatorSpec("ExprCheck", (0, 1), {"expr": _ne_expr(0, 1)})
    ok, store = run_root(spec, [iset(4), iset(3, 4, 5)])
    assert ok
    assert store.domain(1) == iset(3, 5)


def test_exprcheck_no_pruning_with_two_unassigned():
    spec = PropagatorSpec("ExprCheck", (0, 1), {"expr": _ne_expr(0, 1)})
    ok, store = run_root(spec, [iset(3, 4), iset(3, 4)])
    assert ok
    assert store.domain(0) == iset(3, 4)


def test_exprcheck_prunes_on_error():
    # div(5, x) == 2: x=0 errors, a violation like x=1 (5) and x=3 (1)...
    body = Apply("eq", (Apply("div", (IntLiteral(5), VarRef(0))), IntLiteral(2)))
    spec = PropagatorSpec("ExprCheck", (0,), {"expr": body})
    store = DomainStore([iset(0, 1, 2, 3)])
    assert build_propagator(spec).prune(store) == SUBSUMED
    assert store.domain(0) == iset(2)

    # ...and so is a full assignment that errors
    ok, _ = run_root(spec, [iset(0)])
    assert not ok


def test_exprcheck_full_assignment_check():
    spec = PropagatorSpec("ExprCheck", (0, 1), {"expr": _ne_expr(0, 1)})
    ok, _ = run_root(spec, [iset(2), iset(2)])
    assert not ok
    ok, _ = run_root(spec, [iset(2), iset(3)])
    assert ok


class CountingStore(DomainStore):
    updates = saves = 0

    def update(self, i, new):
        self.updates += 1
        return super().update(i, new)

    def save(self, owner, key, value):
        self.saves += 1
        return super().save(owner, key, value)


def test_exprcheck_prunes_a_wide_domain_in_one_update():
    # eq(mod(x, 7), y) with y fixed: one domain update, not one per removed
    # value, whose cost grew with the square of the domain
    body = Apply("eq", (Apply("mod", (VarRef(0), IntLiteral(7))), VarRef(1)))
    spec = PropagatorSpec("ExprCheck", (0, 1), {"expr": body})
    store = CountingStore([IntegerSet.interval(0, 20000), iset(3)])
    assert build_propagator(spec).prune(store) == SUBSUMED
    assert store.updates == 1
    assert store.domain(0) == IntegerSet.from_values(range(3, 20001, 7))


def test_alldifferent_updates_each_free_variable_at_most_once():
    # two taken values leave one update per free variable, not one per value
    spec = PropagatorSpec("AllDifferent", tuple(range(5)), {})
    store = CountingStore([iset(1), iset(2)] + [IntegerSet.interval(0, 9)] * 3)
    assert build_propagator(spec).prune(store) == OK
    assert store.updates <= 3
    assert [store.domain(v) for v in (2, 3, 4)] == [iset(0, 3, 4, 5, 6, 7, 8, 9)] * 3


def test_alldifferent_pigeonhole_over_many_ranges():
    # four variables over three scattered values fail; over four they do not
    spec = PropagatorSpec("AllDifferent", tuple(range(4)), {})
    domains = [iset(0, 10), iset(10, 20), iset(0, 20), iset(0, 20)]
    assert build_propagator(spec).prune(DomainStore(domains)) == FAILED
    domains[3] = iset(0, 30)
    assert build_propagator(spec).prune(DomainStore(domains)) == OK


class ReadCountingStore(DomainStore):
    """Counts the reads of each variable's domain."""

    def __init__(self, domains):
        super().__init__(domains)
        self.reads = [0] * len(domains)

    def domain(self, i):
        self.reads[i] += 1
        return super().domain(i)

    def assigned(self, i):
        self.reads[i] += 1
        return super().assigned(i)


def test_alldifferent_call_after_a_fixing_reads_only_the_free_variables(monkeypatch):
    # 30 variables over 0..29, V0 fixed and handled by an earlier call:
    # fixing V1 then costs one difference per still-free variable, and
    # the handled V0 is not read again
    n = 30
    spec = PropagatorSpec("AllDifferent", tuple(range(n)), {})
    store = ReadCountingStore([IntegerSet.interval(0, n - 1)] * n)
    prop = build_propagator(spec)
    store.assign(0, 0)
    assert prop.prune(store) == OK
    store.assign(1, 1)
    store.reads = [0] * n
    differences = [0]
    difference = IntegerSet.difference

    def counted(self, other):
        differences[0] += 1
        return difference(self, other)

    monkeypatch.setattr(IntegerSet, "difference", counted)
    assert prop.prune(store) == OK
    assert differences[0] <= n - 2
    assert store.reads[0] == 0
    assert [store.domain(v) for v in range(2, n)] == [IntegerSet.interval(2, n - 1)] * (n - 2)


def test_alldifferent_free_variables_are_trailed():
    spec = PropagatorSpec("AllDifferent", (0, 1, 2), {})
    store = DomainStore([iset(1, 2, 3)] * 3)
    prop = build_propagator(spec)
    store.push()
    store.assign(0, 1)
    assert prop.prune(store) == OK
    assert prop.free == [1, 2]
    store.push()
    store.assign(1, 2)
    assert prop.prune(store) == OK
    assert prop.free == [2] and store.domain(2) == iset(3)
    assert prop.prune(store) == SUBSUMED
    store.undo()
    assert prop.free == [1, 2]
    store.undo()
    assert prop.free is spec.scope


def test_counting_reads_a_fixed_variable_without_scanning_its_ranges(monkeypatch):
    # ten fixed variables, half on a counted value: one set lookup each
    spec = PropagatorSpec("Among", tuple(range(10)), {
        "vars": list(range(10)), "values": [1, 3, 5], "lo": 5, "hi": 5,
        "count_var": None})
    store = DomainStore([iset(v) for v in (1, 2, 3, 4, 5, 6, 1, 8, 3, 0)])
    scanned = count_range_scans(monkeypatch)
    assert build_propagator(spec).prune(store) == SUBSUMED
    assert scanned == [0, 0]


def test_conflicts_prune_the_last_variable_in_one_update():
    tuples = [(4, v) for v in range(0, 100, 2)]
    spec = PropagatorSpec("TableConflicts", (0, 1), {"tuples": tuples})
    store = CountingStore([iset(4), IntegerSet.interval(0, 99)])
    assert build_propagator(spec).prune(store) == SUBSUMED
    assert store.updates == 1
    assert store.domain(1) == IntegerSet.from_values(range(1, 100, 2))
    # a conflict on every value left empties the domain
    store = CountingStore([iset(4), iset(0, 2)])
    assert build_propagator(spec).prune(store) == FAILED
    assert store.updates == 1


# -- expression-check memo ----------------------------------------------------


def _mod_expr():
    # eq(mod(x, 3), y)
    return Apply("eq", (Apply("mod", (VarRef(0), IntLiteral(3))), VarRef(1)))


@pytest.fixture
def evaluations(monkeypatch):
    """The values of every evaluation of a lowered check, as tuples."""
    seen = []
    lower = ex.lower
    depth = []

    def counted(expr, slots):
        # `lower` recurses through this name too; wrap only the whole tree
        depth.append(expr)
        try:
            check = lower(expr, slots)
        finally:
            depth.pop()
        if depth:
            return check

        def counting(values):
            seen.append(tuple(values))
            return check(values)
        return counting

    monkeypatch.setattr(ex, "lower", counted)
    return seen


def test_exprcheck_evaluates_each_value_once_per_key(evaluations):
    prop = build_propagator(PropagatorSpec("ExprCheck", (0, 1), {"expr": _mod_expr()}))
    x09 = IntegerSet.interval(0, 9)
    states = [  # (x, y, free position, evaluations, x or y afterwards)
        (x09, iset(1), 0, 10, iset(1, 4, 7)),
        (x09, iset(1), 0, 0, iset(1, 4, 7)),
        (IntegerSet.interval(5, 14), iset(1), 0, 5, iset(7, 10, 13)),
        (iset(2, 4), iset(1), 0, 0, iset(4)),
        (iset(4), IntegerSet.interval(0, 2), 1, 3, iset(1)),
        (x09, iset(2), 0, 10, iset(2, 5, 8)),
    ]
    pairs = set()
    for x, y, free, count, after in states:
        evaluations.clear()
        store = DomainStore([x, y])
        assert prop.prune(store) == SUBSUMED
        assert store.domain(free) == after
        assert len(evaluations) == count
        domain = (x, y)[free]
        for values in evaluations:
            assert values[free] in domain
            key = values[:free] + (None,) + values[free + 1:]
            assert (key, values[free]) not in pairs
            pairs.add((key, values[free]))


def test_exprcheck_memo_rejects_erring_values():
    # eq(div(6, x), y) with y = 3: x = 0 errs, so the memo rejects it with
    # x = 1 and x = 3, and every call is subsumed
    body = Apply("eq", (Apply("div", (IntLiteral(6), VarRef(0))), VarRef(1)))
    prop = build_propagator(PropagatorSpec("ExprCheck", (0, 1), {"expr": body}))
    for x in [iset(0, 1, 2), iset(2, 3), iset(0, 2, 3)]:
        store = DomainStore([x, iset(3)])
        assert prop.prune(store) == SUBSUMED
        assert store.domain(0) == iset(2)
    (tested, rejected), = prop.memo.values()
    assert (tested, rejected) == (iset(0, 1, 2, 3), iset(0, 1, 3))


def test_exprcheck_memo_is_cleared_past_its_bound():
    # eq(mod(sub(x, z), 2), y): one key per value of z, each entry about 50
    # ranges, so that 200 keys exceed the bound
    body = Apply("eq", (Apply("mod", (Apply("sub", (VarRef(0), VarRef(2))),
                                      IntLiteral(2))), VarRef(1)))
    prop = build_propagator(PropagatorSpec("ExprCheck", (0, 1, 2), {"expr": body}))
    x = IntegerSet.interval(0, 99)
    for z in list(range(200)) + [0, 1]:
        store = DomainStore([x, iset(0), iset(z)])
        assert prop.prune(store) == SUBSUMED
        assert store.domain(0) == IntegerSet.from_values(range(z % 2, 100, 2))
        held = sum(len(s.ranges) for entry in prop.memo.values() for s in entry)
        assert prop.memo_ranges == held <= MEMO_RANGES
    assert len(prop.memo) < 200


def test_exprcheck_leaves_a_domain_over_the_bound_to_the_full_check():
    spec = PropagatorSpec("ExprCheck", (0, 1), {"expr": _mod_expr()})
    prop = build_propagator(spec)
    wide = IntegerSet.interval(0, MAX_CHECK_VALUES)
    store = CountingStore([wide, iset(1)])
    assert prop.prune(store) == OK
    assert store.updates == 0 and store.domain(0) == wide
    assert prop.check is None  # nothing was evaluated
    # a domain that spans more values than the bound but holds few is checked
    store = DomainStore([iset(0, 4, 10 ** 6), iset(1)])
    assert prop.prune(store) == SUBSUMED
    assert store.domain(0) == iset(4, 10 ** 6)
    # and the full-assignment check still decides
    ok, _ = run_root(spec, [iset(10 ** 6 + 1), iset(1)])
    assert not ok


def test_exprcheck_memo_entry_stays_within_the_bound(monkeypatch):
    monkeypatch.setattr(propagators, "MAX_CHECK_VALUES", 8)
    prop = build_propagator(PropagatorSpec("ExprCheck", (0, 1), {"expr": _mod_expr()}))
    for lo in (0, 8, 4, 0):
        store = DomainStore([IntegerSet.interval(lo, lo + 7), iset(1)])
        assert prop.prune(store) == SUBSUMED
        assert store.domain(0) == IntegerSet.from_values(
            v for v in range(lo, lo + 8) if v % 3 == 1)
        (tested, rejected), = prop.memo.values()
        assert tested.size() <= 8
        assert rejected.size() < tested.size()


_OPERANDS = st.one_of(st.sampled_from([VarRef(0), VarRef(1), VarRef(2)]),
                      st.integers(-1, 2).map(IntLiteral))
_EXPRS = st.recursive(_OPERANDS, lambda kids: st.one_of(
    st.builds(lambda op, a, b: Apply(op, (a, b)),
              st.sampled_from(["add", "sub", "mul", "div", "mod", "pow", "min",
                               "eq", "lt", "or"]), kids, kids),
    st.builds(lambda op, a: Apply(op, (a,)), st.sampled_from(["abs", "not"]), kids),
), max_leaves=6)
_CHECKS = st.builds(lambda op, a, b: Apply(op, (a, b)),
                    st.sampled_from(["eq", "ne", "le", "gt"]), _EXPRS, _EXPRS)
# a variable divisor errs wherever it is 0
_DIVISIONS = st.builds(lambda op, a, v, b: Apply("eq", (Apply(op, (a, v)), b)),
                       st.sampled_from(["div", "mod"]), _EXPRS,
                       st.sampled_from([VarRef(0), VarRef(1), VarRef(2)]), _EXPRS)


@st.composite
def _store_states(draw):
    """Up to 12 states of three domains, in each of which the variables but
    one are fixed to 0 or 1, so that the same fixed values come back with
    another domain of the free one."""
    states = []
    for _ in range(draw(st.integers(1, 12))):
        domains = [{draw(st.integers(0, 1))} for _ in range(3)]
        domains[draw(st.integers(0, 2))] = draw(st.sets(st.integers(-1, 2), min_size=2))
        states.append(domains)
    return states


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_CHECKS, _DIVISIONS), _store_states(), st.booleans())
def test_memoized_exprcheck_matches_a_fresh_one(body, states, tight):
    """One propagator kept across calls against a new one per call, through
    the same store states; division and modulo by zero make some values
    err. `tight` shrinks both bounds so that entries are cut and the memo is
    cleared."""
    spec = PropagatorSpec("ExprCheck", (0, 1, 2), {"expr": body})
    with pytest.MonkeyPatch.context() as mp:
        if tight:
            mp.setattr(propagators, "MAX_CHECK_VALUES", 3)
            mp.setattr(propagators, "MEMO_RANGES", 4)
        memoized = build_propagator(spec)
        for domains in states:
            kept = DomainStore([IntegerSet.from_values(d) for d in domains])
            fresh = DomainStore([IntegerSet.from_values(d) for d in domains])
            assert memoized.prune(kept) == build_propagator(spec).prune(fresh)
            assert kept.snapshot() == fresh.snapshot()
