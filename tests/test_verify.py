import random
import time

from xcsolve import expr as ex
from xcsolve import model, verify
from xcsolve import parse_instance, resolve_references, verify_solution

from helpers import TINY_ALLDIFF, instance_xml


def resolve(xml):
    return resolve_references(parse_instance(xml))


def test_tiny_alldiff_instance_accepts_and_rejects():
    instance = resolve(TINY_ALLDIFF)
    assert verify_solution(instance, [1, 2])
    assert verify_solution(instance, [2, 1])
    assert not verify_solution(instance, [1, 1])


def test_wrong_length_rejected():
    instance = resolve(TINY_ALLDIFF)
    assert not verify_solution(instance, [1])
    assert not verify_solution(instance, [1, 2, 1])


def test_out_of_domain_value_rejected():
    instance = resolve(TINY_ALLDIFF)
    assert not verify_solution(instance, [1, 3])


def test_zero_constraints_vacuously_true():
    instance = resolve(instance_xml([("X", [4, 5])], []))
    assert verify_solution(instance, [4])
    assert verify_solution(instance, [5])


def test_relation_semantics():
    def with_semantics(semantics, tuples=((1, 2),)):
        return resolve(instance_xml(
            [("X", [1, 2]), ("Y", [1, 2])],
            [{"name": "c0", "scope": ["X", "Y"], "reference": "r0"}],
            relations=[{"name": "r0", "arity": 2, "semantics": semantics,
                        "tuples": list(tuples)}],
        ))

    supports = with_semantics("supports")
    conflicts = with_semantics("conflicts")
    assert verify_solution(supports, [1, 2])
    assert not verify_solution(supports, [2, 1])
    assert not verify_solution(conflicts, [1, 2])
    assert verify_solution(conflicts, [2, 1])
    # a tuple listed twice forbids the same point, and nothing else
    twice = with_semantics("conflicts", [(1, 2), (2, 2), (1, 2)])
    points = [[1, 1], [1, 2], [2, 1], [2, 2]]
    assert [verify_solution(twice, p) for p in points] == [True, False, True, False]
    assert twice.constraints[0].ref.members == {(1, 2), (2, 2)}


def test_predicate_with_constant_parameter():
    instance = resolve(instance_xml(
        [("X", [0, 1, 2])],
        [{"name": "c0", "scope": ["X"], "reference": "p0", "parameters": "X 1"}],
        predicates=[{"name": "p0", "params": ["A", "B"], "body": "gt(A,B)"}],
    ))
    assert not verify_solution(instance, [0])
    assert not verify_solution(instance, [1])
    assert verify_solution(instance, [2])


def test_predicates_are_ground_once_per_instance(monkeypatch):
    calls = []
    substitute = ex.substitute
    monkeypatch.setattr(ex, "substitute",
                        lambda *args: calls.append(1) or substitute(*args))

    def threshold(k):
        return resolve(instance_xml(
            [("X", [0, 1, 2]), ("Y", [0, 1, 2])],
            [{"name": "c0", "scope": ["X"], "reference": "p0", "parameters": "X %d" % k},
             {"name": "c1", "scope": ["X", "Y"], "reference": "p0"}],
            predicates=[{"name": "p0", "params": ["A", "B"], "body": "gt(A,B)"}],
        ))

    above0, above1 = threshold(0), threshold(1)
    # resolving grounds each constraint once, and checking grounds nothing
    assert len(calls) == 4
    assert [verify_solution(above0, [x, 0]) for x in range(3)] == [False, True, True]
    assert [verify_solution(above1, [x, 0]) for x in range(3)] == [False, False, True]
    assert [verify_solution(above0, [x, 0]) for x in range(3)] == [False, True, True]
    assert len(calls) == 4


def count_evaluations(monkeypatch):
    """The assignments the oracle judges a predicate on, in call order."""
    points = []
    satisfied = ex.satisfied
    monkeypatch.setattr(ex, "satisfied", lambda e, assignment: points.append(
        tuple(sorted(assignment.items()))) or satisfied(e, assignment))
    return points


def test_predicate_verdicts_follow_parameters_outside_the_scope(monkeypatch):
    # the scope is X alone, but the body reads Y through <parameters>
    instance = resolve(instance_xml(
        [("X", [0, 1, 2]), ("Y", [0, 1, 2])],
        [{"name": "c0", "scope": ["X"], "reference": "p0", "parameters": "X Y"}],
        predicates=[{"name": "p0", "params": ["A", "B"], "body": "gt(A,B)"}],
    ))
    points = count_evaluations(monkeypatch)
    answers = [verify_solution(instance, [2, y]) for y in (1, 2, 1, 0, 2)]
    assert answers == [True, False, True, True, False]
    assert points == [((0, 2), (1, 1)), ((0, 2), (1, 2)), ((0, 2), (1, 0))]


def test_predicate_verdicts_start_fresh_for_another_instance(monkeypatch):
    def above(k):
        return resolve(instance_xml(
            [("X", [0, 1, 2])],
            [{"name": "c0", "scope": ["X"], "reference": "p0", "parameters": "X %d" % k}],
            predicates=[{"name": "p0", "params": ["A", "B"], "body": "gt(A,B)"}],
        ))

    above0, above1 = above(0), above(1)
    points = count_evaluations(monkeypatch)
    for _ in range(2):
        assert verify_solution(above0, [1]) and verify_solution(above0, [1])
        assert not verify_solution(above1, [1]) and not verify_solution(above1, [1])
    # each instance keeps its own verdicts, however the checks alternate
    assert len(points) == 2


def test_predicate_verdicts_equal_plain_evaluation(monkeypatch):
    rng = random.Random(7)
    instance = resolve(instance_xml(
        [("V%d" % i, list(range(-2, 3))) for i in range(5)],
        [{"name": "c0", "scope": ["V0", "V1", "V2"], "reference": "p0",
          "parameters": "V0 V1 V2 V4"},
         {"name": "c1", "scope": ["V1", "V3"], "reference": "p0",
          "parameters": "V3 V1 2 V1"},
         {"name": "c2", "scope": ["V1", "V2", "V3", "V4"], "reference": "p0"}],
        predicates=[{"name": "p0", "params": ["A", "B", "C", "D"],
                     "body": "and(ne(div(A,B),C),or(eq(mod(C,B),0),lt(A,D)))"}],
    ))
    satisfied = ex.satisfied
    grounded = []
    for c in instance.constraints:
        predicate = c.ref.predicate
        effective = (c.parameters if c.parameters is not None
                     else [ex.VarRef(i) for i in c.scope])
        grounded.append(ex.substitute(predicate.body, predicate.formal_params,
                                      list(effective)))
    refs = [ex.var_refs(b) for b in grounded]
    keys, answers = set(), set()
    points = count_evaluations(monkeypatch)
    for _ in range(600):
        values = [rng.randint(-1, 1) for _ in range(5)]
        assignment = dict(enumerate(values))
        expected = all(satisfied(b, assignment) for b in grounded)
        assert verify_solution(instance, values) == expected
        answers.add(expected)
        keys.update((k, tuple(values[v] for v in r)) for k, r in enumerate(refs))
    # at most one evaluation per constraint and values of the variables it
    # reads, where evaluating c0 on every call would take 600 alone
    assert len(points) <= len(keys)
    assert len(points) < 600
    assert answers == {True, False}


def test_predicate_verdicts_are_bounded(monkeypatch):
    monkeypatch.setattr(verify, "MAX_VERDICTS", 2)
    instance = resolve(instance_xml(
        [("X", list(range(6)))],
        [{"name": "c0", "scope": ["X"], "reference": "p0", "parameters": "X 2"}],
        predicates=[{"name": "p0", "params": ["A", "B"], "body": "gt(A,B)"}],
    ))
    for _ in range(2):
        assert [verify_solution(instance, [x]) for x in range(6)] == [x > 2 for x in range(6)]
    assert len(instance.constraints[0].ref.verdicts) <= 2


def test_global_parameters_are_parsed_once_per_instance(monkeypatch):
    calls = []
    parse = model.parse_global
    monkeypatch.setattr(model, "parse_global",
                        lambda c: calls.append(c.ref.name) or parse(c))

    def globals_with_rhs(rhs):
        return resolve(instance_xml(
            [("X", [1, 2]), ("Y", [1, 2])],
            [{"name": "gcc", "scope": ["X", "Y"], "reference": "global:global_cardinality",
              "parameters": "[ X Y ] [ { 1 1 } ]"},
             {"name": "sum", "scope": ["X", "Y"], "reference": "global:weightedSum",
              "parameters": "[ { 1 X } { 1 Y } ] eq %d" % rhs}],
        ))

    points = [[1, 1], [1, 2], [2, 1], [2, 2]]
    three, four = globals_with_rhs(3), globals_with_rhs(4)
    # resolving parses each global once, and checking parses nothing
    assert calls == ["global_cardinality", "weightedsum"] * 2
    assert [verify_solution(three, p) for p in points] == [False, True, True, False]
    assert [verify_solution(four, p) for p in points] == [False, False, False, False]
    assert [verify_solution(three, p) for p in points] == [False, True, True, False]
    assert calls == ["global_cardinality", "weightedsum"] * 2


def test_predicate_defaults_parameters_to_scope():
    instance = resolve(instance_xml(
        [("X", [0, 1]), ("Y", [0, 1])],
        [{"name": "c0", "scope": ["X", "Y"], "reference": "p0"}],
        predicates=[{"name": "p0", "params": ["A", "B"], "body": "lt(A,B)"}],
    ))
    assert verify_solution(instance, [0, 1])
    assert not verify_solution(instance, [1, 0])


def test_predicate_evaluation_error_means_unsatisfied():
    instance = resolve(instance_xml(
        [("X", [0, 1])],
        [{"name": "c0", "scope": ["X"], "reference": "p0", "parameters": "X"}],
        predicates=[{"name": "p0", "params": ["A"],
                     "body": "eq(div(4,A),4)"}],
    ))
    assert not verify_solution(instance, [0])  # division by zero
    assert verify_solution(instance, [1])


def _single_global(reference, variables, parameters):
    scope = [name for name, _ in variables]
    return resolve(instance_xml(variables, [{
        "name": "c0", "scope": scope, "reference": reference,
        "parameters": parameters}]))


def test_weightedsum_definition():
    instance = _single_global(
        "global:weightedSum",
        [("X", [0, 1, 2, 3]), ("Y", [0, 1, 2, 3])],
        "[ { 2 X } { 3 Y } ] le 10")
    assert verify_solution(instance, [2, 2])   # 4 + 6 = 10
    assert not verify_solution(instance, [2, 3])


def test_among_definition():
    instance = _single_global(
        "global:among",
        [("X", [0, 1]), ("Y", [0, 1])],
        "1 [ X Y ] [ 1 ]")
    assert verify_solution(instance, [1, 0])
    assert not verify_solution(instance, [1, 1])
    assert not verify_solution(instance, [0, 0])


def test_element_definition_respects_base():
    instance = _single_global(
        "global:element",
        [("I", [1, 2]), ("V", [5, 6])],
        "I [ 5 6 ] V")
    assert verify_solution(instance, [1, 5])
    assert not verify_solution(instance, [1, 6])
    assert verify_solution(instance, [2, 6], element_base=1)
    assert not verify_solution(instance, [2, 6], element_base=0)


def test_element_out_of_range_index_unsatisfied():
    instance = _single_global(
        "global:element",
        [("I", [0, 1]), ("V", [5])],
        "I [ 5 ] V")
    assert not verify_solution(instance, [0, 5])
    assert verify_solution(instance, [0, 5], element_base=0)


def test_global_cardinality_exact_counts():
    instance = _single_global(
        "global:global_cardinality",
        [("X", [1, 2]), ("Y", [1, 2]), ("Z", [1, 2])],
        "[ X Y Z ] [ { 1 2 } ]")
    assert verify_solution(instance, [1, 1, 2])
    assert not verify_solution(instance, [1, 1, 1])
    assert not verify_solution(instance, [1, 2, 2])


def test_cumulative_definition():
    instance = _single_global(
        "global:cumulative",
        [("A", [0, 1, 2]), ("B", [0, 1, 2])],
        "[ { A 2 2 } { B 2 2 } ] 3")
    assert verify_solution(instance, [0, 2])
    assert not verify_solution(instance, [0, 1])


def test_cumulative_check_does_not_walk_the_durations():
    instance = _single_global(
        "global:cumulative",
        [("A", [0, 1]), ("B", [0, 1])],
        "[ { A 1000000000 1 } { B 1000000000 1 } ] 2")
    started = time.monotonic()
    assert verify_solution(instance, [0, 1])
    assert time.monotonic() - started < 0.1
    tight = _single_global(
        "global:cumulative",
        [("A", [0, 1]), ("B", [0, 1])],
        "[ { A 1000000000 1 } { B 1000000000 1 } ] 1")
    assert not verify_solution(tight, [1, 0])


def test_cumulative_check_matches_the_load_at_every_time_unit():
    rng = random.Random(11)
    names = ["T%d" % k for k in range(4)]
    for _ in range(200):
        tasks = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in names]
        capacity = rng.randint(0, 4)
        instance = _single_global(
            "global:cumulative", [(name, [0, 1, 2, 3]) for name in names],
            "[ %s ] %d" % (" ".join("{ %s %d %d }" % (name, d, h)
                                    for name, (d, h) in zip(names, tasks)), capacity))
        starts = [rng.randint(0, 3) for _ in names]
        load = [sum(h for s, (d, h) in zip(starts, tasks) if s <= t < s + d)
                for t in range(6)]
        assert verify_solution(instance, starts) == (max(load) <= capacity)


def test_disjunctive_definition():
    instance = _single_global(
        "global:disjunctive",
        [("A", [0, 1, 2]), ("B", [0, 1, 2])],
        "[ { A 2 } { B 1 } ]")
    assert verify_solution(instance, [0, 2])
    assert verify_solution(instance, [1, 0])
    assert not verify_solution(instance, [0, 1])


def test_diffn_definition():
    instance = _single_global(
        "global:diffn",
        [("X1", [0, 1]), ("Y1", [0, 1]), ("X2", [0, 1]), ("Y2", [0, 1])],
        "[ { X1 Y1 1 1 } { X2 Y2 1 1 } ]")
    assert verify_solution(instance, [0, 0, 1, 0])
    assert verify_solution(instance, [0, 0, 0, 1])
    assert not verify_solution(instance, [0, 0, 0, 0])


def test_lex_definitions():
    strict = _single_global(
        "global:lex_less",
        [("X1", [0, 1]), ("X2", [0, 1]), ("Y1", [0, 1]), ("Y2", [0, 1])],
        "[ X1 X2 ] [ Y1 Y2 ]")
    weak = _single_global(
        "global:lex_lesseq",
        [("X1", [0, 1]), ("X2", [0, 1]), ("Y1", [0, 1]), ("Y2", [0, 1])],
        "[ X1 X2 ] [ Y1 Y2 ]")
    assert verify_solution(strict, [0, 1, 1, 0])
    assert not verify_solution(strict, [0, 1, 0, 1])
    assert verify_solution(weak, [0, 1, 0, 1])
    assert not verify_solution(weak, [1, 0, 0, 1])


def test_not_all_equal_definition():
    instance = _single_global(
        "global:not_all_equal",
        [("X", [1, 2]), ("Y", [1, 2]), ("Z", [1, 2])], None)
    assert verify_solution(instance, [1, 1, 2])
    assert not verify_solution(instance, [2, 2, 2])


def test_atleast_atmost_definitions():
    atleast = _single_global("global:atleast",
                             [("X", [0, 1]), ("Y", [0, 1])], "1 [ X Y ] 1")
    atmost = _single_global("global:atmost",
                            [("X", [0, 1]), ("Y", [0, 1])], "1 [ X Y ] 1")
    assert verify_solution(atleast, [1, 0])
    assert not verify_solution(atleast, [0, 0])
    assert verify_solution(atmost, [0, 0])
    assert not verify_solution(atmost, [1, 1])
