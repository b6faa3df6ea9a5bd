import pathlib
import random
from itertools import product

import pytest

from xcsolve import CompileError, Engine, compile_instance
from xcsolve.expr import VarRef, satisfied
from xcsolve.intset import IntegerSet
from xcsolve.propagators import PROPAGATOR_CLASSES

from helpers import TINY_ALLDIFF, brute_force, instance_xml, load


def test_tiny_alldiff_instance_compiles_to_one_alldifferent():
    _, problem = load(TINY_ALLDIFF)
    assert len(problem.domains) == 2
    assert all(d == IntegerSet.from_intervals([(1, 2)]) for d in problem.domains)
    [spec] = problem.propagators
    assert spec.kind == "AllDifferent"
    assert spec.scope == (0, 1)


def test_corpus_reaches_every_propagator_kind():
    # a kind that no input compiles to is dead code
    emitted = set()
    for path in (pathlib.Path(__file__).parent / "corpus").glob("*.xml"):
        if not path.name.startswith("reject_"):
            _, problem = load(path.read_text())
            emitted.update(spec.kind for spec in problem.propagators)
    assert emitted == set(PROPAGATOR_CLASSES)


def test_zero_constraints():
    _, problem = load(instance_xml([("X", [1, 2])], []))
    assert problem.propagators == []


def test_declaration_order_preserved():
    xml = instance_xml(
        [("X", [0, 1]), ("Y", [0, 1])],
        [
            {"name": "c0", "scope": ["X", "Y"], "reference": "r0"},
            {"name": "c1", "scope": ["X", "Y"], "reference": "p0",
             "parameters": "X Y"},
        ],
        relations=[{"name": "r0", "arity": 2, "semantics": "supports",
                    "tuples": [(0, 1)]}],
        predicates=[{"name": "p0", "params": ["A", "B"],
                     "body": "and(le(A,B),le(B,A))"}],
    )
    _, problem = load(xml)
    assert [s.kind for s in problem.propagators] == ["TableSupports", "ExprCheck"]


# -- extension ----------------------------------------------------------------


def test_supports_solution_set():
    xml = instance_xml(
        [("X", [1, 2]), ("Y", [1, 2])],
        [{"name": "c0", "scope": ["X", "Y"], "reference": "r0"}],
        relations=[{"name": "r0", "arity": 2, "semantics": "supports",
                    "tuples": [(1, 2), (2, 1)]}],
    )
    instance, problem = load(xml)
    assert problem.propagators[0].kind == "TableSupports"
    assert brute_force(instance) == [[1, 2], [2, 1]]


def test_empty_conflicts_forbids_nothing():
    xml = instance_xml(
        [("X", [1, 2]), ("Y", [1, 2])],
        [{"name": "c0", "scope": ["X", "Y"], "reference": "r0"}],
        relations=[{"name": "r0", "arity": 2, "semantics": "conflicts",
                    "tuples": []}],
    )
    instance, problem = load(xml)
    assert problem.propagators[0].kind == "TableConflicts"
    assert len(brute_force(instance)) == 4


def test_conflicts_diagonal_equals_alldifferent():
    xml = instance_xml(
        [("X", [1, 2]), ("Y", [1, 2])],
        [{"name": "c0", "scope": ["X", "Y"], "reference": "r0"}],
        relations=[{"name": "r0", "arity": 2, "semantics": "conflicts",
                    "tuples": [(1, 1), (2, 2)]}],
    )
    instance, _ = load(xml)
    assert brute_force(instance) == [[1, 2], [2, 1]]


# -- intension ----------------------------------------------------------------


def _intension(body, params, variables, scope, effective):
    return instance_xml(
        variables,
        [{"name": "c0", "scope": scope, "reference": "p0",
          "parameters": effective}],
        predicates=[{"name": "p0", "params": params, "body": body}],
    )


def test_ne_upgrades_to_linearrel():
    xml = _intension("ne(P0,P1)", ["P0", "P1"],
                     [("X", [1, 2]), ("Y", [1, 2])], ["X", "Y"], "Y X")
    _, problem = load(xml)
    [spec] = problem.propagators
    assert spec.kind == "LinearRel"
    assert spec.scope == (0, 1)
    assert spec.data == {"terms": [[0, -1], [1, 1]], "op": "ne", "rhs": 0}


def test_linear_sum_upgrades_to_linearrel():
    xml = _intension("eq(add(P0,P1),P2)", ["P0", "P1", "P2"],
                     [("X", [0, 1, 2, 3]), ("Y", [0, 1, 2, 3])],
                     ["X", "Y"], "X Y 5")
    _, problem = load(xml)
    [spec] = problem.propagators
    assert spec.kind == "LinearRel"
    assert spec.data == {"terms": [[0, 1], [1, 1]], "op": "eq", "rhs": 5}


def test_nonlinear_stays_exprcheck():
    xml = _intension("and(gt(P0,P1),gt(P1,P2))", ["P0", "P1", "P2"],
                     [("X", [0, 1, 2]), ("Y", [0, 1, 2]), ("Z", [0, 1, 2])],
                     ["X", "Y", "Z"], "X Y Z")
    _, problem = load(xml)
    [spec] = problem.propagators
    assert spec.kind == "ExprCheck"
    assert set(spec.scope) == {0, 1, 2}


@pytest.mark.parametrize("body, values, kind", [
    ("ge(add(P0,P1),0)", list(range(11)), "LinearRel"),
    ("ge(add(P0,P1),0)", [0, 2 ** 62 - 1], "LinearRel"),
    ("ge(add(P0,P1),0)", [0, 2 ** 62], "ExprCheck"),
    ("ge(sub(P0,P1),0)", [-2 ** 62, 2 ** 62 - 1], "LinearRel"),
    ("ge(sub(P0,P1),0)", [-2 ** 62, 2 ** 62], "ExprCheck"),
    ("ge(0,mul(3,P0))", [-2 ** 61, 2 ** 61], "LinearRel"),
    ("ge(0,mul(5,P0))", [-2 ** 61, 2 ** 61], "ExprCheck"),
    ("ge(neg(P0),P1)", [-2 ** 63, 0], "ExprCheck"),
])
def test_a_predicate_is_linear_only_while_its_arithmetic_fits_in_64_bits(
        body, values, kind):
    # beyond 64 bits the evaluator raises, so the oracle rejects the values
    xml = _intension(body, ["P0", "P1"], [("A", values), ("B", values)],
                     ["A", "B"], "A B")
    _, problem = load(xml)
    [spec] = problem.propagators
    assert spec.kind == kind


# literals and domains at the edge of 64 bits, where an inner node of a
# side can overflow while the side's own value fits
_LITERALS = [0, 1, -1, 2, -3, 2 ** 62, -2 ** 62, 2 ** 62 - 1]
_DOMAINS = [[0, 1, 2], [-1, 3], [5], [0, 2 ** 62], [-2 ** 62, 2 ** 62 - 1],
            [-2 ** 62, 0, 2 ** 62 - 1]]
_HOLDS = {"eq": int.__eq__, "ne": int.__ne__, "ge": int.__ge__,
          "gt": int.__gt__, "le": int.__le__, "lt": int.__lt__}


def _side(rng, formals, depth):
    """A side over `formals` of neg, abs, add, sub and mul by a literal."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(formals) if rng.random() < 0.6 else str(rng.choice(_LITERALS))
    op = rng.choice(["neg", "abs", "add", "add", "sub", "sub", "mul"])
    if op in ("neg", "abs"):
        return "%s(%s)" % (op, _side(rng, formals, depth - 1))
    args = [_side(rng, formals, depth - 1) for _ in range(2)]
    if op == "mul":
        args[rng.randrange(2)] = str(rng.choice(_LITERALS))
    return "%s(%s)" % (op, ",".join(args))


def test_a_linearrel_accepts_exactly_what_its_predicate_accepts():
    # the sum over unbounded integers must agree with `satisfied`, which
    # rejects an assignment once any node leaves 64 bits
    rng = random.Random(27)
    linear = 0
    for _ in range(3000):
        variables = [("X%d" % i, rng.choice(_DOMAINS)) for i in range(rng.randint(1, 3))]
        formals = ["P%d" % i for i in range(rng.randint(1, 3))]
        effective = [rng.choice(variables)[0] for _ in formals]
        body = "%s(%s,%s)" % (rng.choice(sorted(_HOLDS)), _side(rng, formals, 3),
                              _side(rng, formals, 3))
        xml = _intension(body, formals, variables, list(dict.fromkeys(effective)),
                         " ".join(effective))
        instance, problem = load(xml)
        [spec] = problem.propagators
        if spec.kind != "LinearRel":
            continue
        linear += 1
        holds, ground = _HOLDS[spec.data["op"]], instance.constraints[0].ref.body
        for point in product(*(values for _, values in variables)):
            total = sum(c * point[v] for v, c in spec.data["terms"])
            assert holds(total, spec.data["rhs"]) == satisfied(ground, point), xml
    assert linear >= 500


def test_repeated_formal_merges_coefficients():
    xml = _intension("eq(add(P0,P0),P1)", ["P0", "P1"],
                     [("X", [0, 1, 2, 3])], ["X"], "X 4")
    _, problem = load(xml)
    [spec] = problem.propagators
    assert spec.kind == "LinearRel"
    assert spec.data["terms"] == [[0, 2]]
    assert spec.data["rhs"] == 4


def test_mul_by_variable_not_linear():
    xml = _intension("eq(mul(P0,P1),4)", ["P0", "P1"],
                     [("X", [1, 2, 4]), ("Y", [1, 2, 4])], ["X", "Y"], "X Y")
    _, problem = load(xml)
    assert problem.propagators[0].kind == "ExprCheck"


def test_predicate_arity_mismatch_is_resolution_error():
    xml = _intension("ne(P0,P1)", ["P0", "P1"],
                     [("X", [1, 2])], ["X"], "X")
    from xcsolve import ResolutionError, parse_instance, resolve_references
    message = "constraint 'c0': predicate expects 2 parameter(s), got 1"
    with pytest.raises(ResolutionError) as caught:
        resolve_references(parse_instance(xml))
    assert str(caught.value) == message


# -- globals ------------------------------------------------------------------


def test_not_all_equal_single_variable_rejected():
    xml = instance_xml(
        [("X", [1, 2])],
        [{"name": "c0", "scope": ["X"], "reference": "global:not_all_equal"}],
    )
    from xcsolve import parse_instance, resolve_references
    resolved = resolve_references(parse_instance(xml))
    with pytest.raises(CompileError, match="at least 2"):
        compile_instance(resolved)


def test_weighted_sum_compiles_to_linearrel():
    xml = instance_xml(
        [("X", [0, 1, 2, 3]), ("Y", [0, 1, 2, 3])],
        [{"name": "c0", "scope": ["X", "Y"], "reference": "global:weightedSum",
          "parameters": "[ { 2 X } { 3 Y } ] le 10"}],
    )
    instance, problem = load(xml)
    [spec] = problem.propagators
    assert spec.kind == "LinearRel"
    assert spec.data == {"terms": [[0, 2], [1, 3]], "op": "le", "rhs": 10}
    # per row y=0..3: 4 + 4 + 3 + 1 satisfying x values
    assert len(brute_force(instance)) == 12


def test_weighted_sum_embedded_relop_element():
    # competition files write the operator as an empty XML element
    xml = instance_xml(
        [("X", [0, 1]), ("Y", [0, 1])],
        [{"name": "c0", "scope": ["X", "Y"], "reference": "global:weightedSum",
          "parameters": "[ { 1 X } { 1 Y } ] PLACEHOLDER 1"}],
    ).replace("PLACEHOLDER", "<eq/>")
    _, problem = load(xml)
    assert problem.propagators[0].data["op"] == "eq"


def test_disjunctive_decomposes_pairwise():
    # the tasks of positive duration share one unit resource; only a pair
    # of a zero-duration and a positive-duration task is checked pairwise
    domain = [0, 1, 2, 3, 4]
    xml = instance_xml(
        [("A", domain), ("B", domain), ("C", domain), ("D", domain)],
        [{"name": "c0", "scope": ["A", "B", "C", "D"],
          "reference": "global:disjunctive",
          "parameters": "[ { A 1 } { B 2 } { C 0 } { D 0 } ]"}],
    )
    instance, problem = load(xml)
    assert [s.kind for s in problem.propagators] == ["Cumulative"] + ["ExprCheck"] * 4
    cumulative = problem.propagators[0]
    assert cumulative.scope == (0, 1)
    assert cumulative.data == {"tasks": [(VarRef(0), 1, 1), (VarRef(1), 2, 1)],
                               "capacity": 1}
    assert [s.scope for s in problem.propagators[1:]] == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert sorted(Engine(problem).solve(limit=None).solutions) == brute_force(instance)


@pytest.mark.parametrize("reference, parameters", [
    ("among", "N [ N X ] [ 1 ]"),
    ("atmost", "1 [ X N X ] 1"),
    ("global_cardinality", "[ N X ] [ { 1 N } { 0 X } ]"),
    ("element", "N [ X N 2 ] X"),
    ("lex_lesseq", "[ N X ] [ X N ]"),
    ("cumulative", "[ { N 1 1 } { X 1 1 } { N 1 1 } ] 2"),
])
def test_counting_scopes_hold_each_variable_once(reference, parameters):
    # a variable the parameters name twice, such as one both counted and
    # counting, is watched once by the engine and adds one to its degree
    xml = instance_xml(
        [("N", [0, 1, 2]), ("X", [0, 1])],
        [{"name": "c0", "scope": ["N", "X"], "reference": "global:" + reference,
          "parameters": parameters}],
    )
    instance, problem = load(xml)
    engine = Engine(problem)
    assert engine.degrees == [len(problem.propagators)] * 2
    for watched in engine.watchers + engine.fix_watchers:
        assert len(watched) == len(set(watched))
    assert sorted(engine.solve(limit=None).solutions) == brute_force(instance)


def test_malformed_global_parameters_report_signature():
    xml = instance_xml(
        [("X", [0, 1])],
        [{"name": "c0", "scope": ["X"], "reference": "global:among",
          "parameters": "[ X ]"}],
    )
    from xcsolve import ResolutionError, parse_instance, resolve_references
    with pytest.raises(ResolutionError, match=r"N \[x1 \.\.\. xn\]"):
        resolve_references(parse_instance(xml))


def test_element_base_override():
    def solutions(base):
        xml = instance_xml(
            [("I", [0, 1, 2, 3]), ("V", [5, 6, 7])],
            [{"name": "c0", "scope": ["I", "V"], "reference": "global:element",
              "parameters": "I [ 5 6 7 ] V"}],
        )
        instance, problem = load(xml, element_base=base)
        expected = brute_force(instance, element_base=base)
        assert Engine(problem).solve(limit=None).solutions == expected
        return expected

    assert solutions(1) == [[1, 5], [2, 6], [3, 7]]
    assert solutions(0) == [[0, 5], [1, 6], [2, 7]]

