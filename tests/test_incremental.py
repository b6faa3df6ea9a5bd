"""Every propagator call a real search makes matches a fresh call.

Four kinds of state outlive a call: a table's `(valid, seen)` and
`AllDifferentProp.free`, which the store trails; the engine's `active`
flags, trailed too; and the `ExprCheck` memo, which is no search state.
These tests wrap `Propagator.prune` during whole searches, every solution
under each of the six heuristic pairs. Before each call they build the
same propagator afresh, over a store that holds a copy of the current
domains. Both calls must return the same outcome and, unless both fail,
leave the same domains. So a wrong restore on backtracking shows at the
first call it misleads, not only in a final solution set."""

import pathlib
import random
from collections import Counter
from contextlib import contextmanager

from hypothesis import given, settings

from xcsolve import BranchStrategy, Engine
from xcsolve.propagators import FAILED, PROPAGATOR_CLASSES, Propagator, build_propagator
from xcsolve.search import VAL_HEURISTICS, VAR_HEURISTICS
from xcsolve.store import DomainStore

from helpers import FAMILIES, load, random_instance
from test_differential import instances, mixed_instances

CORPUS = pathlib.Path(__file__).parent / "corpus"


@contextmanager
def calls_checked_against_fresh_ones():
    """Inside the block every `Propagator.prune` call is checked; yields
    the number of calls checked per propagator kind."""
    prune = Propagator.prune
    calls = Counter()

    def checked(self, store):
        before = store.snapshot()
        fresh_store = DomainStore(before)
        expected = prune(build_propagator(self.spec), fresh_store)
        outcome = prune(self, store)
        assert outcome == expected, (self.spec, before)
        if outcome != FAILED:
            assert store.snapshot() == fresh_store.snapshot(), (self.spec, before)
        calls[self.spec.kind] += 1
        return outcome

    Propagator.prune = checked
    try:
        yield calls
    finally:
        Propagator.prune = prune


def search_every_way(problem):
    """Enumerate every solution under each heuristic pair."""
    for var in VAR_HEURISTICS:
        for val in VAL_HEURISTICS:
            engine = Engine(problem, BranchStrategy(var, val))
            assert engine.solve(limit=None).complete
            assert engine.deadline is None and engine.store.depth() == 0


def test_each_call_on_single_constraint_families_matches_a_fresh_one():
    rng = random.Random(31)
    with calls_checked_against_fresh_ones() as calls:
        for family in FAMILIES:
            for _ in range(80):
                search_every_way(load(random_instance(family, rng))[1])
    assert set(calls) == set(PROPAGATOR_CLASSES)


def test_each_call_on_the_corpus_matches_a_fresh_one():
    with calls_checked_against_fresh_ones() as calls:
        for path in sorted(CORPUS.glob("*.xml")):
            if not path.name.startswith("reject_"):
                search_every_way(load(path.read_text())[1])
    assert set(calls) == set(PROPAGATOR_CLASSES)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(instances())
def test_each_call_on_drawn_multi_constraint_instances_matches_a_fresh_one(xml):
    with calls_checked_against_fresh_ones():
        search_every_way(load(xml)[1])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mixed_instances())
def test_each_call_on_drawn_instances_of_every_family_matches_a_fresh_one(drawn):
    xml, base = drawn
    with calls_checked_against_fresh_ones():
        search_every_way(load(xml, element_base=base)[1])
