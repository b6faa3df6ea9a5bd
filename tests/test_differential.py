"""Differential tests on random multi-constraint instances over
overlapping scopes, so that one propagator's pruning wakes another and
trailed propagator state (table reductions, alldifferent's free list) is
undone on backtracking. The first mixes supports and conflicts tables,
predicates, alldifferent, cumulative and disjunctive; the second draws from
every family of `helpers.FAMILIES`, with repeated variables, constants and
count variables in the parameter lists and either element base. The engine
must find exactly the brute-force solution set, and every solution must
pass the oracle. A seeded test also holds both to a `weightedSum`
solution set that it computes with code of its own."""

import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from xcsolve import BranchStrategy, Engine, verify_solution
from xcsolve.search import VAL_HEURISTICS, VAR_HEURISTICS

from helpers import FAMILIES, brute_force, instance_xml, load

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


# values near the edges of 64 bits, where a sum of two may overflow, and
# small ones, where none does; predicates with sums, differences, scaled
# terms and negation, the linear shape among them
EDGE_VALUES = [-2 ** 62 - 1, -2 ** 62, -1, 0, 1, 2 ** 62 - 1, 2 ** 62]
EDGE_PREDICATES = {
    2: ["ge(add(P0,P1),0)", "lt(sub(P0,P1),1)", "ne(neg(P0),P1)",
        "le(add(mul(2,P0),P1),P1)", "eq(add(P0,P0),P1)", "ne(mul(P0,P1),0)"],
    3: ["ge(add(add(P0,P1),P2),0)", "le(sub(P0,P1),P2)", "ne(add(P0,P1),P2)",
        "gt(add(mul(-3,P0),P1),sub(P2,1))", "eq(max(add(P0,P1),P2),P2)"],
}


@st.composite
def edge_instances(draw):
    """2-4 variables over values near the 64-bit edges and 2-4 predicates
    over them, so that some assignments overflow an intermediate sum."""
    n = draw(st.integers(2, 4))
    names = ["V%d" % i for i in range(n)]
    variables = [(name, draw(st.lists(st.sampled_from(EDGE_VALUES), min_size=1,
                                      max_size=3, unique=True)))
                 for name in names]
    constraints, predicates = [], []
    for c in range(draw(st.integers(2, 4))):
        vs = draw(st.lists(st.sampled_from(names), min_size=2,
                           max_size=min(3, n), unique=True))
        formals = ["P%d" % i for i in range(len(vs))]
        predicates.append({"name": "p%d" % c, "params": formals,
                           "body": draw(st.sampled_from(EDGE_PREDICATES[len(vs)]))})
        constraints.append({"name": "c%d" % c, "scope": vs, "reference": "p%d" % c,
                            "parameters": " ".join(vs)})
    return instance_xml(variables, constraints, predicates=predicates)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(edge_instances())
def test_search_matches_brute_force_where_sums_leave_64_bits(xml):
    instance, problem = load(xml)
    expected = sorted(brute_force(instance))
    for var in VAR_HEURISTICS:
        for val in VAL_HEURISTICS:
            result = Engine(problem, BranchStrategy(var, val)).solve(limit=None)
            assert result.complete
            assert sorted(result.solutions) == expected


# -- weightedSum against a definition written out here ------------------------

# what a weightedSum means, computed without the package: the products
# c*t added in a tree split in halves, the left half the shorter, and an
# assignment where some product or partial sum leaves 64 bits is no solution
RELATIONS = {"eq": int.__eq__, "ne": int.__ne__, "ge": int.__ge__,
             "gt": int.__gt__, "le": int.__le__, "lt": int.__lt__}


def _fits64(v):
    return -2 ** 63 <= v < 2 ** 63


def _halved_sum(products):
    """The sum of `products`, or None where a partial sum leaves 64 bits."""
    if not products:
        return 0
    if len(products) == 1:
        return products[0]
    mid = len(products) // 2
    left, right = _halved_sum(products[:mid]), _halved_sum(products[mid:])
    if left is None or right is None or not _fits64(left + right):
        return None
    return left + right


def _weighted_sum_holds(terms, op, rhs, values):
    products = [c * (values[t] if isinstance(t, str) else t) for c, t in terms]
    if not all(map(_fits64, products)):
        return False
    total = _halved_sum(products)
    return total is not None and RELATIONS[op](total, rhs)


def _weighted_sum_case(rng):
    """(variables, terms, op, rhs): 1-4 variables over 1-3 values, small
    ones or ones near 2^62, and up to 5 terms, which may repeat a variable
    or be constants."""
    values = [-2 ** 62, -3, -1, 0, 1, 2, 2 ** 62 - 1, 2 ** 62]
    variables = [("V%d" % i, sorted(rng.sample(values, rng.randint(1, 3))))
                 for i in range(rng.randint(1, 4))]
    names = [name for name, _ in variables]
    terms = [(rng.choice([-2, -1, -1, 0, 1, 1, 2]),
              rng.choice(names + [rng.choice([-2, 3, 2 ** 62])]))
             for _ in range(rng.randint(0, 5))]
    return variables, terms, rng.choice(sorted(RELATIONS)), rng.choice([-1, 0, 2, 2 ** 62])


# A + B - C >= 0 over {0, 2^62}: the halved sum adds B - C first, so
# A = B = C = 2^62 is a solution, where a left fold would overflow
ABC_CASE = ([(name, [0, 2 ** 62]) for name in "ABC"],
            [(1, "A"), (1, "B"), (-1, "C")], "ge", 0)


def test_weighted_sums_match_a_definition_written_out():
    rng = random.Random(25)
    cases = [ABC_CASE] + [_weighted_sum_case(rng) for _ in range(300)]
    for k, (variables, terms, op, rhs) in enumerate(cases):
        names = [name for name, _ in variables]
        scope = list(dict.fromkeys(t for _, t in terms if t in names)) or names[:1]
        xml = instance_xml(variables, [{
            "name": "c0", "scope": scope, "reference": "global:weightedSum",
            "parameters": "[ %s ] %s %d" % (" ".join("{ %d %s }" % w for w in terms),
                                           op, rhs)}])
        expected = [list(point) for point in product(*(d for _, d in variables))
                    if _weighted_sum_holds(terms, op, rhs, dict(zip(names, point)))]
        if k == 0:
            assert [2 ** 62] * 3 in expected
        instance, problem = load(xml)
        assert brute_force(instance) == expected, xml
        for var in VAR_HEURISTICS:
            for val in VAL_HEURISTICS:
                result = Engine(problem, BranchStrategy(var, val)).solve(limit=None)
                assert result.complete
                assert sorted(result.solutions) == expected, xml


@st.composite
def mixed_instances(draw):
    """(xml, element_base): 3-5 variables over subsets of 0..3 and 2-4
    constraints, each from any of the 16 families. Parameter lists may
    repeat a variable and, where the family takes terms, hold constants;
    a counting constraint's count variable may also be one it counts."""
    n = draw(st.integers(3, 5))
    names = ["V%d" % i for i in range(n)]
    variables = [(name, draw(st.lists(st.sampled_from(VALUES), min_size=1,
                                      max_size=4, unique=True)))
                 for name in names]
    var = st.sampled_from(names)
    term = st.one_of(var, var, st.sampled_from(VALUES).map(str))
    value = st.sampled_from(VALUES).map(str)

    def seq(strategy, lo, hi):
        return draw(st.lists(strategy, min_size=lo, max_size=hi))

    constraints, relations, predicates = [], [], []
    for c in range(draw(st.integers(2, 4))):
        family = draw(st.sampled_from(FAMILIES))
        name = "c%d" % c
        parameters = None
        reference = "global:" + family
        if family in ("supports", "conflicts"):
            tokens = draw(st.lists(var, min_size=2, max_size=3, unique=True))
            tuples = draw(st.lists(st.tuples(*[st.sampled_from(VALUES)] * len(tokens)),
                                   max_size=12))
            reference = "r%d" % len(relations)
            relations.append({"name": reference, "arity": len(tokens),
                              "semantics": family, "tuples": tuples})
        elif family == "intension":
            tokens = seq(term, 2, 3)
            formals = ["P%d" % i for i in range(len(tokens))]
            reference = "p%d" % len(predicates)
            predicates.append({"name": reference, "params": formals,
                               "body": draw(st.sampled_from(PREDICATES[len(tokens)]))})
            parameters = " ".join(tokens)
        elif family in ("alldifferent", "not_all_equal"):
            tokens = seq(var, 2, 4)
            parameters = "[ %s ]" % " ".join(tokens)
        elif family == "among":
            counted = seq(var, 1, 3)
            count = draw(st.one_of(var, st.integers(0, 3).map(str)))
            tokens = [count] + counted
            parameters = "%s [ %s ] [ %s ]" % (count, " ".join(counted),
                                               " ".join(seq(value, 1, 3)))
        elif family in ("atleast", "atmost"):
            tokens = seq(var, 1, 4)
            parameters = "%d [ %s ] %s" % (draw(st.integers(0, len(tokens))),
                                           " ".join(tokens), draw(value))
        elif family == "global_cardinality":
            counted = seq(var, 1, 3)
            tokens = list(counted)
            pairs = []
            for v in draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=2,
                                   unique=True)):
                occurrences = draw(st.one_of(var, st.integers(0, 3).map(str)))
                tokens.append(occurrences)
                pairs.append("{ %d %s }" % (v, occurrences))
            parameters = "[ %s ] [ %s ]" % (" ".join(counted), " ".join(pairs))
        elif family == "element":
            table = seq(term, 1, 4)
            index, result = draw(term), draw(term)
            tokens = [index] + table + [result]
            parameters = "%s [ %s ] %s" % (index, " ".join(table), result)
        elif family in ("cumulative", "disjunctive"):
            origins = seq(term, 1, 3)
            tokens = origins
            if family == "cumulative":
                parameters = "[ %s ] %d" % (" ".join(
                    "{ %s %d %d }" % (o, draw(st.integers(0, 3)), draw(st.integers(0, 2)))
                    for o in origins), draw(st.integers(1, 3)))
            else:
                parameters = "[ %s ]" % " ".join(
                    "{ %s %d }" % (o, draw(st.integers(0, 3))) for o in origins)
        elif family == "diffn":
            boxes = [[draw(term), draw(term), draw(term), draw(term)]
                     for _ in range(draw(st.integers(2, 3)))]
            tokens = [t for box in boxes for t in box]
            parameters = "[ %s ]" % " ".join("{ %s }" % " ".join(b) for b in boxes)
        elif family in ("lex_less", "lex_lesseq"):
            length = draw(st.integers(1, 3))
            xs, ys = seq(term, length, length), seq(term, length, length)
            tokens = xs + ys
            parameters = "[ %s ] [ %s ]" % (" ".join(xs), " ".join(ys))
        else:
            assert family == "weightedsum"
            weighted = [(draw(st.sampled_from([-2, -1, 1, 2])), t) for t in seq(term, 1, 3)]
            tokens = [t for _, t in weighted]
            parameters = "[ %s ] %s %d" % (
                " ".join("{ %d %s }" % w for w in weighted),
                draw(st.sampled_from(["eq", "ne", "ge", "gt", "le", "lt"])),
                draw(st.integers(-3, 6)))
        scope = list(dict.fromkeys(t for t in tokens if t in names))
        if not scope:
            # an all-constant parameter list: declare one variable anyway
            scope = [draw(var)]
        constraints.append({"name": name, "scope": scope, "reference": reference,
                            "parameters": parameters})
    return instance_xml(variables, constraints, relations, predicates), \
        draw(st.sampled_from([0, 1]))


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(mixed_instances())
def test_search_matches_brute_force_on_instances_mixing_every_family(drawn):
    xml, base = drawn
    instance, problem = load(xml, element_base=base)
    expected = sorted(brute_force(instance, element_base=base))
    for var in VAR_HEURISTICS:
        for val in VAL_HEURISTICS:
            result = Engine(problem, BranchStrategy(var, val)).solve(limit=None)
            assert result.complete
            assert sorted(result.solutions) == expected
            for values in result.solutions:
                assert verify_solution(instance, values, element_base=base)
