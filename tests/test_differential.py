"""Differential test on random multi-constraint instances: supports and
conflicts tables, predicates, alldifferent, cumulative and disjunctive over
overlapping scopes, so that one propagator's pruning wakes another and table
reductions are undone on backtracking. The engine must find exactly the
brute-force solution set, and every solution must pass the oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from xcsolve import BranchStrategy, Engine, verify_solution
from xcsolve.search import VAL_HEURISTICS, VAR_HEURISTICS

from helpers import brute_force, instance_xml, load

VALUES = range(4)

PREDICATES = {
    2: ["ne(P0,P1)", "lt(P0,P1)", "ne(add(P0,1),P1)", "eq(abs(sub(P0,P1)),1)",
        "or(eq(P0,P1),gt(P0,2))", "ne(mod(add(P0,P1),3),0)"],
    3: ["le(add(P0,P1),P2)", "ne(mul(P0,P1),P2)",
        "or(lt(P0,P1),eq(P1,P2))", "eq(max(P0,P1),P2)"],
}


@st.composite
def instances(draw):
    n = draw(st.integers(3, 5))
    names = ["V%d" % i for i in range(n)]
    variables = [(name, draw(st.lists(st.sampled_from(VALUES), min_size=1,
                                      max_size=4, unique=True)))
                 for name in names]

    def scope(lo, hi):
        return draw(st.lists(st.sampled_from(names), min_size=lo,
                             max_size=min(hi, n), unique=True))

    constraints, relations, predicates = [], [], []
    for c in range(draw(st.integers(2, 5))):
        family = draw(st.sampled_from(
            ["supports", "conflicts", "predicate", "alldifferent",
             "cumulative", "disjunctive"]))
        name = "c%d" % c
        if family in ("supports", "conflicts"):
            vs = scope(2, 3)
            same_shape = [r for r in relations
                          if r["arity"] == len(vs) and r["semantics"] == family]
            if same_shape and draw(st.booleans()):
                relation = draw(st.sampled_from(same_shape))
            else:
                tuples = draw(st.lists(
                    st.tuples(*[st.sampled_from(VALUES)] * len(vs)), max_size=20))
                relation = {"name": "r%d" % len(relations), "arity": len(vs),
                            "semantics": family, "tuples": tuples}
                relations.append(relation)
            constraints.append({"name": name, "scope": vs,
                                "reference": relation["name"]})
        elif family == "predicate":
            vs = scope(2, 3)
            body = draw(st.sampled_from(PREDICATES[len(vs)]))
            formals = ["P%d" % i for i in range(len(vs))]
            predicates.append({"name": "p%d" % len(predicates),
                               "params": formals, "body": body})
            constraints.append({"name": name, "scope": vs,
                                "reference": predicates[-1]["name"],
                                "parameters": " ".join(vs)})
        elif family == "alldifferent":
            constraints.append({"name": name, "scope": scope(2, 4),
                                "reference": "global:alldifferent"})
        else:
            vs = scope(2, 4)
            durations = [draw(st.integers(0, 3)) for _ in vs]
            if family == "cumulative":
                tasks = ["{ %s %d %d }" % (v, d, draw(st.integers(0, 2)))
                         for v, d in zip(vs, durations)]
                params = "[ %s ] %d" % (" ".join(tasks), draw(st.integers(1, 3)))
            else:
                params = "[ %s ]" % " ".join(
                    "{ %s %d }" % (v, d) for v, d in zip(vs, durations))
            constraints.append({"name": name, "scope": vs,
                                "reference": "global:" + family,
                                "parameters": params})
    return instance_xml(variables, constraints, relations, predicates)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(instances(), st.sampled_from(VAR_HEURISTICS), st.sampled_from(VAL_HEURISTICS))
def test_search_matches_brute_force_on_multi_constraint_instances(xml, var, val):
    instance, problem = load(xml)
    result = Engine(problem, BranchStrategy(var, val)).solve(limit=None)
    assert result.complete
    assert sorted(result.solutions) == sorted(brute_force(instance))
    for values in result.solutions:
        assert verify_solution(instance, values)
