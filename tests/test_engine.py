import dataclasses
import pathlib
import random
import time
import types

import pytest

from xcsolve import BranchStrategy, Engine, verify_solution
from xcsolve import expr as ex
from xcsolve import search
from xcsolve.compiler import Problem, PropagatorSpec, linear_spec
from xcsolve.intset import IntegerSet
from xcsolve.search import VAL_HEURISTICS, VAR_HEURISTICS
from xcsolve.store import DomainStore, Wipeout

from helpers import (ERRING_XML, TINY_ALLDIFF, brute_force, instance_xml,
                     latin_xml, load, pigeonhole_xml, queens_xml)

CORPUS = pathlib.Path(__file__).parent / "corpus"


def iset(*values):
    return IntegerSet.from_values(values)


def not_equal(x, y):
    return linear_spec({x: 1, y: -1}, "ne", 0)


# -- domain store -------------------------------------------------------------


def test_store_update_and_trail():
    store = DomainStore([iset(1, 2, 3), iset(4, 5)])
    before = store.snapshot()
    store.push()
    assert store.remove_value(0, 2)
    assert store.assign(1, 4)
    assert store.domain(0) == iset(1, 3)
    assert store.domain(1).value() == 4
    store.undo()
    assert store.snapshot() == before
    assert not store.failed


def test_store_nested_undo_restores_exactly():
    store = DomainStore([iset(1, 2, 3, 4)])
    store.push()
    store.remove_value(0, 1)
    mid = store.snapshot()
    store.push()
    store.remove_value(0, 3)
    store.remove_value(0, 4)
    store.undo()
    assert store.snapshot() == mid
    store.undo()
    assert store.domain(0) == iset(1, 2, 3, 4)


def test_store_empty_domain_sets_failed():
    # emptying a domain raises, after trailing the change and setting `failed`
    store = DomainStore([iset(7)])
    store.push()
    with pytest.raises(Wipeout):
        store.remove_value(0, 7)
    assert store.failed
    assert store.domain(0).is_empty()
    store.undo()
    assert not store.failed
    assert store.domain(0) == iset(7)


def test_one_trail_restores_every_frame():
    # domain updates and `save`s on a list and on `vars(obj)` share one
    # trail; each undo must give back exactly the state of its push
    class Holder:
        pass

    rng = random.Random(5)
    for _ in range(40):
        store = DomainStore([IntegerSet.interval(0, 5) for _ in range(4)])
        flags = [True] * 3
        holder = Holder()
        holder.valid, holder.count = (0, 1, 2), 0

        def state():
            return store.snapshot(), list(flags), dict(vars(holder)), store.failed

        frames = []
        for _ in range(300):
            if not frames or (not store.failed and rng.random() < 0.2):
                frames.append(state())
                store.push()
            elif store.failed or rng.random() < 0.2:
                store.undo()
                assert state() == frames.pop()
            else:
                i, v = rng.randrange(4), rng.randint(-1, 6)
                op = rng.randrange(5)
                wiped = False
                try:
                    if op == 0:
                        store.update(i, store.domain(i).clamp(lo=v))
                    elif op == 1:
                        store.remove_value(i, v)
                    elif op == 2:
                        store.assign(i, v)
                    elif op == 3:
                        store.save(flags, rng.randrange(3), rng.random() < 0.5)
                    else:
                        key = rng.choice(("valid", "count"))
                        store.save(vars(holder), key, (v,) if key == "valid" else v)
                except Wipeout:
                    wiped = True
                # an update raises exactly when it empties its domain
                assert wiped == store.failed == store.domain(i).is_empty()
        while frames:
            store.undo()
            assert state() == frames.pop()
        assert store.depth() == 0


# -- propagation --------------------------------------------------------------


def test_alldifferent_prunes_assigned_value():
    # after assigning A1=1: A2 loses 1
    _, problem = load(TINY_ALLDIFF)
    engine = Engine(problem)
    engine.store.assign(0, 1)
    assert engine.propagate_fixpoint()
    assert engine.store.domain(1) == iset(2)


def test_empty_initial_domain_fails_before_branching():
    problem = Problem([IntegerSet(())])
    result = Engine(problem).solve()
    assert result.solutions == [] and result.complete


def test_empty_supports_table_fails_at_root():
    spec = PropagatorSpec("TableSupports", (0, 1), {"tuples": []})
    problem = Problem([iset(1, 2), iset(1, 2)], [spec])
    engine = Engine(problem)
    assert not engine.propagate_fixpoint()
    assert engine.stats.failures == 1


def test_table_supports_is_gac():
    spec = PropagatorSpec("TableSupports", (0, 1), {"tuples": [[1, 2], [2, 1]]})
    problem = Problem([iset(1, 2), iset(2)], [spec])
    engine = Engine(problem)
    assert engine.propagate_fixpoint()
    assert engine.store.domain(0) == iset(1)


def test_linear_bounds_tighten():
    spec = PropagatorSpec("LinearRel", (0, 1),
                          {"terms": [[0, 1], [1, 1]], "op": "eq", "rhs": 5})
    problem = Problem([iset(0, 1, 2, 3), iset(0, 1, 2, 3)], [spec])
    engine = Engine(problem)
    assert engine.propagate_fixpoint()
    assert engine.store.domain(0) == iset(2, 3)
    assert engine.store.domain(1) == iset(2, 3)


def test_alldifferent_all_unassigned_no_change():
    spec = PropagatorSpec("AllDifferent", (0, 1, 2), {})
    doms = [iset(1, 2, 3), iset(1, 2, 3), iset(1, 2, 3)]
    problem = Problem(doms, [spec])
    engine = Engine(problem)
    before = engine.store.snapshot()
    assert engine.propagate_fixpoint()
    assert engine.store.snapshot() == before


def test_fixpoint_idempotent():
    specs = [
        PropagatorSpec("LinearRel", (0, 1),
                       {"terms": [[0, 1], [1, 1]], "op": "eq", "rhs": 5}),
        not_equal(1, 2),
    ]
    problem = Problem([iset(0, 1, 2, 3), iset(0, 1, 2, 3), iset(3)], specs)
    engine = Engine(problem)
    assert engine.propagate_fixpoint()
    snapshot = engine.store.snapshot()
    assert engine.propagate_fixpoint()
    assert engine.store.snapshot() == snapshot


def test_subsumed_propagator_reactivates_on_backtrack():
    spec = not_equal(0, 1)
    problem = Problem([iset(1, 2), iset(1, 2)], [spec])
    engine = Engine(problem)
    engine.store.push()
    engine.store.assign(0, 1)
    assert engine.propagate_fixpoint()
    assert engine.active == [False]
    engine.store.undo()
    assert engine.active == [True]


# -- search -------------------------------------------------------------------


def test_tiny_alldiff_first_solution():
    _, problem = load(TINY_ALLDIFF)
    result = Engine(problem).solve()
    assert result.solutions == [[1, 2]]
    assert result.complete


def test_tiny_alldiff_all_solutions_in_order():
    _, problem = load(TINY_ALLDIFF)
    result = Engine(problem).solve(limit=None)
    assert result.solutions == [[1, 2], [2, 1]]


def test_limit_is_prefix_of_enumeration():
    _, problem = load(TINY_ALLDIFF)
    limited = Engine(problem).solve(limit=1)
    every = Engine(problem).solve(limit=None)
    assert limited.solutions == every.solutions[:1]
    assert Engine(problem).solve().solutions == limited.solutions


def test_pigeonhole_unsat():
    _, problem = load(pigeonhole_xml(2))
    result = Engine(problem).solve(limit=None)
    assert result.solutions == [] and result.complete


def test_forced_assignment_no_failures():
    problem = Problem([iset(5)])
    result = Engine(problem).solve()
    assert result.solutions == [[5]]
    assert result.stats.failures == 0


def test_everything_forbidden():
    tuples = [[1, 1], [1, 2], [2, 1], [2, 2]]
    spec = PropagatorSpec("TableConflicts", (0, 1), {"tuples": tuples})
    problem = Problem([iset(1, 2), iset(1, 2)], [spec])
    assert Engine(problem).solve(limit=None).solutions == []


def test_store_restored_after_search():
    _, problem = load(pigeonhole_xml(3))
    engine = Engine(problem)
    before = engine.store.snapshot()
    engine.solve(limit=None)
    assert engine.store.snapshot() == before
    assert engine.store.depth() == 0


def test_an_engine_with_an_empty_domain_answers_alike_twice():
    # the root failure outlives the first search's unwinding
    engine = Engine(Problem([IntegerSet(())]))
    first = engine.solve(limit=None)
    assert first.solutions == [] and first.complete
    assert engine.solve(limit=None) == first
    assert engine.store.failed


@pytest.mark.parametrize("name", sorted(
    path.name for path in CORPUS.glob("*.xml") if not path.name.startswith("reject_")))
def test_an_engine_answers_alike_twice_on_each_corpus_file(name):
    _, problem = load((CORPUS / name).read_text())
    engine = Engine(problem)
    before = engine.store.snapshot()
    first = engine.solve(limit=None)
    assert engine.store.snapshot() == before
    assert engine.solve(limit=None) == first
    assert engine.store.snapshot() == before


def test_determinism():
    xml = instance_xml(
        [("A", [0, 1, 2]), ("B", [0, 1, 2]), ("C", [0, 1, 2])],
        [{"name": "c0", "scope": ["A", "B", "C"],
          "reference": "global:not_all_equal"}],
    )
    _, problem = load(xml)
    r1 = Engine(problem).solve(limit=None)
    r2 = Engine(problem).solve(limit=None)
    assert r1.solutions == r2.solutions
    assert r1.stats == r2.stats


def test_value_heuristic_max():
    _, problem = load(TINY_ALLDIFF)
    result = Engine(problem, BranchStrategy(val_heuristic="max")).solve()
    assert result.solutions == [[2, 1]]


def test_min_dom_heuristic_picks_smallest_domain():
    problem = Problem([iset(1, 2, 3), iset(7, 8)])
    strategy = BranchStrategy(var_heuristic="min-dom")
    store = DomainStore(problem.domains)
    var, value = strategy.select(store, [0, 0])
    assert (var, value) == (1, 7)


def test_max_deg_heuristic_prefers_constrained_variable():
    specs = [not_equal(1, 2), not_equal(1, 0)]
    problem = Problem([iset(1, 2), iset(1, 2), iset(1, 2)], specs)
    engine = Engine(problem, BranchStrategy(var_heuristic="max-deg"))
    var, _ = engine.strategy.select(engine.store, engine.degrees)
    assert var == 1


def test_input_scan_stops_at_the_first_free_variable():
    store = DomainStore([iset(1)] * 10 + [iset(1, 2)] * 20)
    read = []
    assigned = store.assigned
    store.assigned = lambda i: read.append(i) or assigned(i)
    assert BranchStrategy().select(store, [0] * 30) == (10, 1)
    assert read == list(range(11))


def test_equal_keys_pick_the_lowest_free_index():
    store = DomainStore([iset(1), iset(1, 2, 3), iset(4, 5), iset(6, 7)])
    degrees = [5, 1, 3, 3]
    for heuristic in ("min-dom", "max-deg"):
        assert BranchStrategy(heuristic).select(store, degrees) == (2, 4)


def test_node_budget_yields_incomplete():
    _, problem = load(pigeonhole_xml(6))
    result = Engine(problem).solve(limit=None, node_limit=0)
    assert not result.complete
    assert result.solutions == []


def test_zero_time_budget_yields_incomplete():
    _, problem = load(TINY_ALLDIFF)
    result = Engine(problem).solve(time_limit=0.0)
    assert not result.complete
    assert result.solutions == []


@pytest.mark.parametrize("budget", [
    {"limit": 0}, {"limit": -5}, {"node_limit": -1},
    {"time_limit": -0.5}, {"time_limit": float("nan")},
])
def test_a_budget_solve_cannot_honour_is_rejected(budget):
    _, problem = load(TINY_ALLDIFF)
    engine = Engine(problem)
    with pytest.raises(ValueError):
        engine.solve(**budget)
    assert engine.store.depth() == 0


def test_deadline_inside_a_fixpoint_unwinds_to_the_root():
    # X - Y = 1 and Y - X = 1 over 0..10^6 move one bound per propagation,
    # so the root fixpoint runs far past the budget unless it reads the clock
    specs = [linear_spec({0: 1, 1: -1}, "eq", 1),
             linear_spec({1: 1, 0: -1}, "eq", 1)]
    problem = Problem([IntegerSet.interval(0, 10**6)] * 2, specs)
    engine = Engine(problem)
    before = engine.store.snapshot()
    start = time.monotonic()
    result = engine.solve(time_limit=0.05)
    assert time.monotonic() - start < 1.0
    assert not result.complete
    assert result.solutions == []
    assert result.stats.failures == 0
    assert result.stats.propagations > 0
    assert engine.store.snapshot() == before
    assert engine.store.depth() == 0
    assert engine.deadline is None


def test_no_propagation_starts_after_the_clock_read_that_passes_the_deadline(
        monkeypatch):
    # the same chain under a clock that stands still for 40 reads and then
    # jumps past the budget; each read notes the propagations made so far.
    # solve() reads it twice before the root fixpoint, which then reads it
    # before each propagation
    specs = [linear_spec({0: 1, 1: -1}, "eq", 1),
             linear_spec({1: 1, 0: -1}, "eq", 1)]
    engine = Engine(Problem([IntegerSet.interval(0, 10**6)] * 2, specs))
    reads = []

    def monotonic():
        reads.append(engine.stats.propagations)
        return 0.0 if len(reads) < 40 else 1e9

    monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=monotonic))
    result = engine.solve(time_limit=1.0)
    assert not result.complete
    assert reads == [0, 0] + list(range(38))
    assert result.stats.propagations == 37
    assert engine.store.depth() == 0


def test_constraints_sharing_a_relation_share_its_tuples():
    # the table propagator shrinks its own valid-tuple list on the trail;
    # the relation both constraints read must stay as parsed
    xml = instance_xml(
        [("A", [0, 1, 2]), ("B", [0, 1, 2]), ("C", [0, 1, 2])],
        [{"name": "c0", "scope": ["A", "B"], "reference": "r0"},
         {"name": "c1", "scope": ["B", "C"], "reference": "r0"}],
        relations=[{"name": "r0", "arity": 2, "semantics": "supports",
                    "tuples": [(0, 1), (1, 2), (2, 0), (1, 0), (0, 2)]}],
    )
    instance, problem = load(xml)
    relation = instance.constraints[0].ref.relation
    parsed = list(relation.tuples)
    first, second = problem.propagators
    assert first.data["tuples"] is relation.tuples
    assert second.data["tuples"] is relation.tuples
    engine = Engine(problem)
    root = engine.store.snapshot()
    r1 = engine.solve(limit=None)
    assert engine.store.snapshot() == root
    r2 = engine.solve(limit=None)
    assert engine.store.snapshot() == root
    assert engine.store.depth() == 0
    assert relation.tuples == parsed
    assert all(p.valid is relation.tuples for p in engine.props)
    assert r1.solutions == r2.solutions
    assert sorted(r1.solutions) == sorted(brute_force(instance))
    assert r1.solutions


def test_a_repeated_scope_variable_is_watched_and_counted_once():
    # alldifferent over [X X Y] compiles to the scope (0, 0, 1): X is in one
    # constraint, and the repeat alone still makes the instance UNSAT
    xml = instance_xml([("X", [1, 2]), ("Y", [1, 2]), ("Z", [1, 2])], [
        {"name": "c0", "scope": ["X", "Y"], "reference": "global:alldifferent",
         "parameters": "[ X X Y ]"},
        {"name": "c1", "scope": ["Y", "Z"], "reference": "global:alldifferent"}])
    _, problem = load(xml)
    assert problem.propagators[0].scope == (0, 0, 1)
    engine = Engine(problem)
    assert engine.degrees == [1, 2, 1]
    for lists in (engine.watchers, engine.fix_watchers):
        assert all(len(set(watching)) == len(watching) for watching in lists)
    result = engine.solve(limit=None)
    assert result.solutions == [] and result.complete


@pytest.mark.parametrize("var", VAR_HEURISTICS)
@pytest.mark.parametrize("val", VAL_HEURISTICS)
def test_an_erring_predicate_matches_brute_force_under_every_heuristic(var, val):
    instance, problem = load(ERRING_XML)
    result = Engine(problem, BranchStrategy(var, val)).solve(limit=None)
    assert sorted(result.solutions) == brute_force(instance)
    assert len(result.solutions) == 30


@pytest.mark.parametrize("var", VAR_HEURISTICS)
@pytest.mark.parametrize("val", VAL_HEURISTICS)
def test_a_repeated_alldifferent_variable_is_unsat_under_every_heuristic(var, val):
    xml = instance_xml([("X", [1, 2, 3]), ("Y", [1, 2, 3])], [
        {"name": "c0", "scope": ["X", "Y"], "reference": "global:alldifferent",
         "parameters": "[ X X Y ]"}])
    _, problem = load(xml)
    result = Engine(problem, BranchStrategy(var, val)).solve(limit=None)
    assert result.solutions == [] and result.complete


def test_alldifferent_free_variables_are_restored_after_solve():
    # a 3x3 latin square, rows and columns alldifferent: 12 solutions
    _, problem = load(latin_xml(3))
    engine = Engine(problem, BranchStrategy("min-dom", "max"))
    first = engine.solve(limit=None)
    counts = dataclasses.astuple(first.stats)
    assert len(first.solutions) == 12
    assert all(p.free is p.spec.scope for p in engine.props)
    second = engine.solve(limit=None)
    assert all(p.free is p.spec.scope for p in engine.props)
    assert second.solutions == first.solutions
    # each call counts its own search, and leaves the first result's counts
    assert dataclasses.astuple(second.stats) == counts
    assert dataclasses.astuple(first.stats) == counts
    assert second.stats is not first.stats and engine.stats is second.stats


@pytest.mark.parametrize("kind, after_y, after_x, valid_x", [
    # supports keep the values a valid tuple uses; Y = 2 leaves X the one
    # open column, so the table is subsumed and the X = 2 step skips it
    ("TableSupports", [iset(1, 2), iset(2), iset(1)], [iset(2), iset(2), iset(1)],
     [(1, 2, 1), (2, 2, 1)]),
    # conflicts prune only their last free variable
    ("TableConflicts", [iset(1, 2, 3), iset(2), iset(1, 2)],
     [iset(2), iset(2), iset(2)], [(2, 2, 1)]),
], ids=["supports", "conflicts"])
def test_table_reduction_is_undone_on_backtrack(kind, after_y, after_x, valid_x):
    spec = PropagatorSpec(kind, (0, 1, 2), {
        "tuples": [(1, 1, 1), (1, 2, 1), (2, 2, 1), (3, 1, 2)]})
    problem = Problem([iset(1, 2, 3), iset(1, 2), iset(1, 2)], [spec])
    engine = Engine(problem)
    prop = engine.props[0]
    assert engine.propagate_fixpoint()
    assert prop.valid is spec.data["tuples"]
    engine.store.push()
    engine.store.assign(1, 2)
    assert engine.propagate_fixpoint()
    assert prop.valid == [(1, 2, 1), (2, 2, 1)]
    assert list(engine.store.snapshot()) == after_y
    assert engine.active[0] == (kind == "TableConflicts")
    engine.store.push()
    engine.store.assign(0, 2)
    assert engine.propagate_fixpoint()
    assert prop.valid == valid_x
    assert list(engine.store.snapshot()) == after_x
    engine.store.undo()
    assert prop.valid == [(1, 2, 1), (2, 2, 1)]
    assert list(engine.store.snapshot()) == after_y
    engine.store.undo()
    assert engine.active[0]
    assert prop.valid is spec.data["tuples"]
    assert list(engine.store.snapshot()) == problem.domains


def test_decision_wakes_only_watchers_of_the_changed_variable():
    specs = [not_equal(0, 1), not_equal(2, 3)]
    problem = Problem([iset(1, 2, 3)] * 4, specs)
    result = Engine(problem).solve()
    assert result.solutions == [[1, 2, 1, 2]]
    # the root runs both; W=1 and Y=1 each wake one propagator, which is
    # then subsumed; X=2 and Z=2 wake none (waking every active one: 6)
    assert result.stats.propagations == 4


@pytest.mark.parametrize("z_values, solutions, failures", [
    ((0, 1, 2), [[0, 0, 1], [1, 1, 2]], 0),  # Y = 1 prunes Z to 2
    ((0, 1), [[0, 0, 1]], 1),  # Y = 1 leaves Z nothing
])
def test_expr_check_wakes_when_a_propagator_fixes_its_variable(
        z_values, solutions, failures):
    # X decides, the table fixes Y = X, and only then can Z = Y + 1 act:
    # the check must wake on a variable fixed by pruning, not only by a
    # decision, or search would branch on Z
    body = ex.parse_functional("eq(add(Y,1),Z)", ["Y", "Z"])
    specs = [PropagatorSpec("ExprCheck", (1, 2), {
                 "expr": ex.substitute(body, ["Y", "Z"], [ex.VarRef(1), ex.VarRef(2)])}),
             PropagatorSpec("TableSupports", (0, 1), {"tuples": [(0, 0), (1, 1)]})]
    problem = Problem([iset(0, 1), iset(0, 1), iset(*z_values)], specs)
    # a fix watcher still counts towards the degree
    assert Engine(problem).degrees == [1, 2, 1]
    result = Engine(problem).solve(limit=None)
    assert result.solutions == solutions
    assert (result.stats.nodes, result.stats.failures) == (2, failures)


def test_expr_checks_wake_only_on_fixed_variables():
    instance, problem = load(queens_xml(8))
    engine = Engine(problem)
    assert engine.degrees == [7] * 8
    assert engine.watchers == [[]] * 8
    result = engine.solve(limit=None)
    assert len(result.solutions) == len(set(map(tuple, result.solutions))) == 92
    assert result.solutions[0] == [0, 4, 7, 5, 2, 6, 1, 3]
    assert all(verify_solution(instance, values) for values in result.solutions)
    # waking on every domain change: the same 830 nodes and 324 failures
    # with 7,240 propagations
    stats = result.stats
    assert (stats.nodes, stats.failures, stats.propagations) == (830, 324, 3924)


@pytest.mark.parametrize("kind, root, limit, first", [
    ("TableSupports", iset(-10 ** 12, 0, 5), None,
     [[-10 ** 12, 0], [0, 10 ** 12], [5, 5]]),
    # two free variables prune nothing at the root; x = -10^12 then
    # removes 0 from y, and x != -10^12 filters the tuples on a domain
    # of 2 * 10^12 values
    ("TableConflicts", IntegerSet.interval(-10 ** 12, 10 ** 12), 3,
     [[-10 ** 12, 5], [-10 ** 12, 10 ** 12], [-10 ** 12 + 1, 0]]),
], ids=["supports", "conflicts"])
def test_table_work_is_bounded_by_the_table_not_the_domain_width(
        kind, root, limit, first):
    wide = IntegerSet.interval(-10 ** 12, 10 ** 12)
    spec = PropagatorSpec(kind, (0, 1),
                          {"tuples": [(0, 10 ** 12), (-10 ** 12, 0), (5, 5)]})
    problem = Problem([wide, iset(0, 5, 10 ** 12)], [spec])
    started = time.monotonic()
    engine = Engine(problem)
    assert engine.propagate_fixpoint()
    assert engine.store.domain(0) == root
    result = Engine(problem).solve(limit=limit)
    assert time.monotonic() - started < 1.0
    assert result.solutions == first
