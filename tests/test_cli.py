import io
import itertools
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

import xcsolve
from xcsolve import (BranchStrategy, Engine, cli, parse_instance, resolve_references,
                     verify_solution)
from xcsolve.cli import (
    EXIT_BAD_SOLUTION,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_UNKNOWN,
    RunConfig,
)
from xcsolve.errors import CLIP
from xcsolve.expr import MAX_DEPTH
from xcsolve.search import VAL_HEURISTICS, VAR_HEURISTICS

from helpers import (ERRING_XML, TINY_ALLDIFF, brute_force, instance_xml, latin_xml,
                     load, pigeonhole_xml)

CORPUS = pathlib.Path(__file__).parent / "corpus"


def write(tmp_path, xml, name="instance.xml"):
    path = tmp_path / name
    path.write_text(xml)
    return str(path)


def run_cli(config):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(config, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# -- output grammar -----------------------------------------------------------


def check_grammar(stdout, nb_vars=None):
    lines = stdout.splitlines()
    assert all(re.match(r"^(s|v|c) ", line) for line in lines)
    s_lines = [l for l in lines if l.startswith("s ")]
    assert len(s_lines) == 1
    assert s_lines[0] in ("s SATISFIABLE", "s UNSATISFIABLE", "s UNKNOWN")
    if nb_vars is not None:
        for line in lines:
            if line.startswith("v "):
                assert len(line.split()) == 1 + nb_vars
    return s_lines[0]


def test_tiny_alldiff_first_solution(tmp_path):
    path = write(tmp_path, TINY_ALLDIFF)
    code, out, _ = run_cli(RunConfig(path))
    assert code == EXIT_OK
    assert check_grammar(out, nb_vars=2) == "s SATISFIABLE"
    assert "v 1 2" in out.splitlines()


def test_tiny_alldiff_all_solutions(tmp_path):
    path = write(tmp_path, TINY_ALLDIFF)
    code, out, _ = run_cli(RunConfig(path, mode="all"))
    assert code == EXIT_OK
    v_lines = [l for l in out.splitlines() if l.startswith("v ")]
    assert v_lines == ["v 1 2", "v 2 1"]


def test_limit_caps_reported_solutions(tmp_path):
    path = write(tmp_path, TINY_ALLDIFF)
    code, out, _ = run_cli(RunConfig(path, mode="all", limit=1))
    assert code == EXIT_OK
    v_lines = [l for l in out.splitlines() if l.startswith("v ")]
    assert v_lines == ["v 1 2"]


def test_unsatisfiable(tmp_path):
    path = write(tmp_path, pigeonhole_xml(3))
    code, out, _ = run_cli(RunConfig(path))
    assert code == EXIT_OK
    assert check_grammar(out) == "s UNSATISFIABLE"
    assert "v " not in out


@pytest.mark.parametrize("parameters", [None, "", "[ ]"])
def test_optional_alldifferent_list_stands_for_the_scope(tmp_path, parameters):
    # four variables over three values cannot all differ
    xml = instance_xml(
        [(v, [0, 1, 2]) for v in "XYZW"],
        [{"name": "c0", "scope": list("XYZW"), "reference": "global:alldifferent",
          "parameters": parameters}],
    )
    code, out, _ = run_cli(RunConfig(write(tmp_path, xml), mode="all"))
    assert code == EXIT_OK
    assert check_grammar(out) == "s UNSATISFIABLE"


def test_stats_lines(tmp_path):
    path = write(tmp_path, TINY_ALLDIFF)
    code, out, _ = run_cli(RunConfig(path, stats=True))
    assert code == EXIT_OK
    keys = [l.split()[1] for l in out.splitlines() if l.startswith("c ")]
    assert keys == ["nodes", "failures", "propagations", "peak_depth",
                    "solutions", "time"]


# -- exit codes ---------------------------------------------------------------


def test_missing_file_is_input_error(tmp_path):
    code, out, err = run_cli(RunConfig(str(tmp_path / "absent.xml")))
    assert code == EXIT_ERROR
    assert out == ""
    assert "error:" in err


def test_malformed_xml_is_input_error(tmp_path):
    path = write(tmp_path, "<instance><domains>")
    code, out, err = run_cli(RunConfig(path))
    assert code == EXIT_ERROR
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("xml, message", [
    ("<instance><domains>", "no element found (line 1, column 19)"),
    ("<instance>\n<domains></instance>", "mismatched tag (line 2, column 11)"),
])
def test_a_malformed_xml_line_states_its_position_once(tmp_path, xml, message):
    code, out, err = run_cli(RunConfig(write(tmp_path, xml)))
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: malformed XML: %s\n" % message


def test_latin1_document_with_declared_encoding_solves(tmp_path):
    xml = TINY_ALLDIFF.replace("<instance>", '<?xml version="1.0" '
                               'encoding="ISO-8859-1"?>\n<instance>', 1)
    xml = xml.replace("A1", "\u00c91").replace("A2", "\u00e92")
    path = tmp_path / "latin1.xml"
    path.write_bytes(xml.encode("latin-1"))
    code, out, err = run_cli(RunConfig(str(path), mode="all"))
    assert code == EXIT_OK
    assert out == "s SATISFIABLE\nv 1 2\nv 2 1\n"
    assert err == ""


def test_unknown_declared_encoding_is_input_error(tmp_path):
    xml = '<?xml version="1.0" encoding="no-such-codec"?>\n' + TINY_ALLDIFF
    path = write(tmp_path, xml)
    code, out, err = run_cli(RunConfig(path))
    assert code == EXIT_ERROR
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "no-such-codec" in err


def nested_abs_xml(depth):
    """eq(abs(abs(...abs(X)...)), 1): operators nested `depth` deep."""
    body = "eq(%sX%s,1)" % ("abs(" * (depth - 1), ")" * (depth - 1))
    return instance_xml([("X", [-1, 0, 1])],
                        [{"name": "c0", "scope": ["X"], "reference": "p0",
                          "parameters": "X"}],
                        predicates=[{"name": "p0", "params": ["X"], "body": body}])


def test_expression_at_the_nesting_limit_solves(tmp_path):
    path = write(tmp_path, nested_abs_xml(MAX_DEPTH))
    code, out, err = run_cli(RunConfig(path, mode="all", verify=True))
    assert code == EXIT_OK
    assert out == "s SATISFIABLE\nv -1\nv 1\n"
    assert err == ""


def test_expression_beyond_the_nesting_limit_is_input_error(tmp_path):
    for depth in (MAX_DEPTH + 1, 5000):
        path = write(tmp_path, nested_abs_xml(depth))
        code, out, err = run_cli(RunConfig(path, mode="all", verify=True))
        assert code == EXIT_ERROR
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "nested deeper than %d" % MAX_DEPTH in err
        assert "predicate 'p0'" in err


def nested_parameters_xml(depth, open_, close):
    """A weightedSum whose one term sits `depth` groups deep; at depth 2
    it is the well-formed `[ [ 1 X ] ] eq 1`."""
    params = "%s 1 X %s eq 1" % (open_ * depth, close * depth)
    return instance_xml([("X", [0, 1])],
                        [{"name": "sum", "scope": ["X"], "reference": "global:weightedSum",
                          "parameters": params}])


@pytest.mark.parametrize("open_, close", [("[", "]"), ("{", "}")])
def test_parameters_beyond_the_nesting_limit_are_input_error(tmp_path, open_, close):
    path = write(tmp_path, nested_parameters_xml(2, open_, close))
    assert run_cli(RunConfig(path)) == (EXIT_OK, "s SATISFIABLE\nv 1\n", "")
    path = write(tmp_path, nested_parameters_xml(MAX_DEPTH, open_, close))
    assert "nest deeper" not in run_cli(RunConfig(path))[2]
    for depth in (MAX_DEPTH + 1, 1000):
        path = write(tmp_path, nested_parameters_xml(depth, open_, close))
        code, out, err = run_cli(RunConfig(path))
        assert code == EXIT_ERROR
        assert out == ""
        assert err == ("error: constraint 'sum': parameters nest deeper than %d\n"
                       % MAX_DEPTH)


def test_unknown_operator_names_its_predicate(tmp_path):
    xml = instance_xml([("X", [0, 1])],
                       [{"name": "c0", "scope": ["X"], "reference": "P",
                         "parameters": "X"}],
                       predicates=[{"name": "P", "params": ["A"], "body": "eq(foo(A),1)"}])
    code, out, err = run_cli(RunConfig(write(tmp_path, xml)))
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: predicate 'P': unknown operator 'foo'\n"


def test_abridged_text_errors_name_their_element(tmp_path):
    two_relations = instance_xml(
        [("X", [1, 2]), ("Y", [1, 2])],
        [{"name": "c0", "scope": ["X", "Y"], "reference": "R0"},
         {"name": "c1", "scope": ["X", "Y"], "reference": "R1"}],
        relations=[{"name": "R0", "arity": 2, "semantics": "supports",
                    "tuples": [(1, 2), (2, 1)]},
                   {"name": "R1", "arity": 2, "semantics": "supports",
                    "tuples": [(1, 1), (2,)]}])
    bad_domain = instance_xml([("X", [1, 2])], []).replace(
        '"d0" nbValues="2">1 2<', '"D" nbValues="2">1 x<').replace('"d0"', '"D"')
    bad_parameters = instance_xml(
        [("X", [0, 1]), ("Y", [0, 1])],
        [{"name": "sum", "scope": ["X", "Y"], "reference": "global:weightedSum",
          "parameters": "[ { 1 X } { 1 Y } eq 1"}])
    cases = [
        (two_relations, "error: relation 'R1': tuple 1 has 1 value(s), expected arity 2\n"),
        (bad_domain, "error: domain 'D': bad integer token 'x'\n"),
        (bad_parameters, "error: constraint 'sum': unbalanced bracket in parameters\n"),
    ]
    for xml, message in cases:
        code, out, err = run_cli(RunConfig(write(tmp_path, xml)))
        assert code == EXIT_ERROR
        assert out == ""
        assert err == message


HUGE = "9" * 5000  # over the interpreter's 4,300-digit limit for int()
ONE_VARIABLE = instance_xml([("X", [0, 1])], [])
CLIPPED = "'%s'... (5000 characters)" % HUGE[:CLIP]


@pytest.mark.parametrize("xml, message", [
    (instance_xml([("X", [0, 1])],
                  [{"name": "c0", "scope": ["X"], "reference": "p0", "parameters": "X"}],
                  predicates=[{"name": "p0", "params": ["A"], "body": "eq(A,%s)" % HUGE}]),
     "predicate 'p0': integer %s is too large" % CLIPPED),
    (instance_xml([("X", [0, 1])],
                  [{"name": "c0", "scope": ["X"], "reference": "global:atmost",
                    "parameters": "%s [ X ] 1" % HUGE}]),
     "constraint 'c0': integer %s is too large" % CLIPPED),
    (ONE_VARIABLE.replace(">0 1<", ">1 %s<" % HUGE),
     "domain 'd0': integer %s is too large" % CLIPPED),
    (ONE_VARIABLE.replace(">0 1<", ">0..%s<" % HUGE),
     "domain 'd0': integer in range '0..%s'... (5003 characters) is too large"
     % HUGE[:CLIP - 3]),
    (ONE_VARIABLE.replace('nbValues="2"', 'nbValues="%s"' % HUGE),
     "attribute nbValues=%s is too large" % CLIPPED),
    (instance_xml([("X", [0, 1]), ("Y", [0, 1])],
                  [{"name": "c0", "scope": ["X", "Y"], "reference": "r0"}],
                  relations=[{"name": "r0", "arity": 2, "semantics": "supports",
                              "tuples": [(0, 1), (1, HUGE)]}]),
     "relation 'r0': tuple 1: integer %s is too large" % CLIPPED),
], ids=["predicate", "parameters", "domain", "range", "attribute", "tuple"])
def test_too_large_integer_is_one_short_error_line(tmp_path, xml, message):
    code, out, err = run_cli(RunConfig(write(tmp_path, xml)))
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: %s\n" % message
    assert len(err) < 2 * CLIP + 80


LONG = "N" * 5000
LONG_CLIPPED = "'%s'... (5000 characters)" % LONG[:CLIP]


@pytest.mark.parametrize("xml, message", [
    (instance_xml([("X", [0, 1])],
                  [{"name": "c0", "scope": ["X"], "reference": "global:atmost",
                    "parameters": "1 [ %s ] 1" % LONG}]),
     "constraint 'c0': parameter token %s names no declared variable" % LONG_CLIPPED),
    (instance_xml([("X", [0, 1])],
                  [{"name": "c0", "scope": [LONG], "reference": "global:alldifferent"}]),
     "constraint 'c0' references undeclared variable %s" % LONG_CLIPPED),
    (instance_xml([("X", [0, 1])],
                  [{"name": "c0", "scope": ["X"], "reference": "p0", "parameters": "X"}],
                  predicates=[{"name": "p0", "params": ["A"], "body": "eq(A,%s)" % LONG}]),
     "predicate 'p0': identifier %s is not a declared parameter" % LONG_CLIPPED),
    (instance_xml([("X", [0, 1])],
                  [{"name": LONG, "scope": ["X", "X"], "reference": "global:alldifferent"}]),
     "constraint %s repeats variable 'X' in its scope" % LONG_CLIPPED),
    (instance_xml([("X", [0, 1]), ("Y", [0, 1])],
                  [{"name": "c0", "scope": ["X", "Y"], "reference": LONG}],
                  relations=[{"name": LONG, "arity": 2, "semantics": "supports",
                              "tuples": [(1, 1), (2,)]}]),
     "relation %s: tuple 1 has 1 value(s), expected arity 2" % LONG_CLIPPED),
    (instance_xml([("X", [0, 1])],
                  [{"name": LONG, "scope": ["X"], "reference": "global:atmost",
                    "parameters": "[ X ] 1"}]),
     "constraint %s (global:atmost): malformed parameters; "
     "expected parameters: k [x1 ... xn] v" % LONG_CLIPPED),
    (instance_xml([("X", [0, 1])],
                  [{"name": "c0", "scope": ["X"], "reference": LONG, "parameters": "[ X ]"}],
                  predicates=[{"name": LONG, "params": ["A"], "body": "eq(A,1)"}]),
     "constraint 'c0' (%s): predicate parameters must be variables or integers; "
     "expected parameters: v-or-int per formal parameter" % LONG_CLIPPED),
], ids=["parameters", "scope", "predicate", "repeated", "relation", "compile",
        "reference"])
def test_long_names_are_clipped_in_errors(tmp_path, xml, message):
    code, out, err = run_cli(RunConfig(write(tmp_path, xml)))
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: %s\n" % message
    assert len(err) < 200


def test_wide_not_all_equal_stays_shallow(tmp_path):
    # its disjunction of 999 `ne` must not nest 999 deep
    names = ["X%d" % i for i in range(1000)]
    xml = instance_xml([(v, [0, 1]) for v in names],
                       [{"name": "c0", "scope": names,
                         "reference": "global:not_all_equal"}])
    code, out, err = run_cli(RunConfig(write(tmp_path, xml), verify=True))
    assert code == EXIT_OK
    assert out == "s SATISFIABLE\nv %s 1\n" % " ".join(["0"] * 999)
    assert err == ""


def test_values_far_apart_solve_at_once(tmp_path):
    # each domain spans 10**12 or more, so it is stored as intervals; what
    # propagation derives is narrow and lies 10**12 from the rest
    far = 10 ** 12
    xml = instance_xml(
        [("X", [0, far]), ("Y", [0, far]), ("Z", [-far, 0, far])],
        [{"name": "c0", "scope": ["X", "Y", "Z"], "reference": "global:alldifferent"},
         {"name": "c1", "scope": ["X", "Y"], "reference": "p0", "parameters": "X Y"}],
        predicates=[{"name": "p0", "params": ["A", "B"], "body": "eq(add(A,B),%d)" % far}])
    started = time.perf_counter()
    code, out, err = run_cli(RunConfig(write(tmp_path, xml), mode="all", verify=True))
    assert time.perf_counter() - started < 5
    assert code == EXIT_OK
    assert out == "s SATISFIABLE\nv 0 %d %d\nv %d 0 %d\n" % (far, -far, far, -far)
    assert err == ""


@pytest.mark.parametrize("semantics, tuples, solutions", [
    ("supports", [], 0), ("conflicts", [(), ()], 0), ("supports", [(), ()], 9)])
def test_a_table_over_no_variables_is_filtered(tmp_path, semantics, tuples, solutions):
    # the relation's text is empty, or `|`: the empty tuple, read twice; a
    # table that allows no tuple, or forbids the empty one, has no solution
    xml = instance_xml(
        [("X", [0, 1, 2]), ("Y", [0, 1, 2])],
        [{"name": "c0", "scope": [], "reference": "r0"}],
        [{"name": "r0", "arity": 0, "semantics": semantics, "tuples": tuples}])
    code, out, err = run_cli(RunConfig(write(tmp_path, xml), mode="all", verify=True))
    assert (code, err) == (EXIT_OK, "")
    status = check_grammar(out, nb_vars=2)
    assert status == ("s SATISFIABLE" if solutions else "s UNSATISFIABLE")
    assert out.count("\nv ") == solutions


def test_unsupported_extension_is_input_error():
    code, out, err = run_cli(RunConfig(str(CORPUS / "reject_wcsp.xml")))
    assert code == EXIT_ERROR
    assert out == ""
    assert "unsupported extension" in err

    code, out, err = run_cli(RunConfig(str(CORPUS / "reject_qcsp.xml")))
    assert code == EXIT_ERROR
    assert out == ""
    assert "unsupported extension" in err


def test_zero_time_budget_is_unknown(tmp_path):
    path = write(tmp_path, TINY_ALLDIFF)
    code, out, _ = run_cli(RunConfig(path, time_limit=0.0))
    assert code == EXIT_UNKNOWN
    assert check_grammar(out) == "s UNKNOWN"


WIDE_MOD = """<instance>
<presentation format="XCSP 2.1"/>
<domains nbDomains="2">
<domain name="dx" nbValues="10000001">0..10000000</domain>
<domain name="dy" nbValues="1">3</domain>
</domains>
<variables nbVariables="2">
<variable name="X" domain="dx"/>
<variable name="Y" domain="dy"/>
</variables>
<predicates nbPredicates="1">
<predicate name="p0"><parameters>int A int B</parameters>
<expression><functional>eq(mod(A,7),B)</functional></expression></predicate>
</predicates>
<constraints nbConstraints="1">
<constraint name="c0" arity="2" scope="X Y" reference="p0"/>
</constraints>
</instance>
"""


def test_wide_expression_check_honours_the_time_limit(tmp_path):
    # X has ten million values: the check leaves them to the full-assignment
    # check instead of evaluating each one at the root
    path = write(tmp_path, WIDE_MOD)
    start = time.monotonic()
    code, out, _ = run_cli(RunConfig(path, time_limit=0.05))
    assert time.monotonic() - start < 1.0
    assert code in (EXIT_OK, EXIT_UNKNOWN)
    if code == EXIT_OK:
        assert "v 3 3" in out.splitlines()


SLOW_FIXPOINT = """<instance>
<presentation format="XCSP 2.1"/>
<domains nbDomains="1">
<domain name="d" nbValues="1000001">0..1000000</domain>
</domains>
<variables nbVariables="2">
<variable name="X" domain="d"/>
<variable name="Y" domain="d"/>
</variables>
<predicates nbPredicates="1">
<predicate name="p0"><parameters>int A int B</parameters>
<expression><functional>eq(A,add(B,1))</functional></expression></predicate>
</predicates>
<constraints nbConstraints="2">
<constraint name="c0" arity="2" scope="X Y" reference="p0"/>
<constraint name="c1" arity="2" scope="Y X" reference="p0"/>
</constraints>
</instance>
"""


def test_time_limit_holds_inside_one_fixpoint(tmp_path):
    # X = Y + 1 and Y = X + 1: bounds reasoning moves each bound by one per
    # propagation, so the root fixpoint alone would take a million of them
    path = write(tmp_path, SLOW_FIXPOINT)
    start = time.monotonic()
    code, out, _ = run_cli(RunConfig(path, time_limit=0.1, stats=True))
    assert time.monotonic() - start < 1.0
    assert code == EXIT_UNKNOWN
    assert check_grammar(out) == "s UNKNOWN"
    assert "c nodes 0" in out.splitlines()
    assert "c failures 0" in out.splitlines()


def test_node_budget_is_unknown(tmp_path):
    # pairwise disequalities don't fail at the root, so hitting the node
    # budget mid-search must surface as UNKNOWN
    from helpers import instance_xml

    n = 6
    variables = [("V%d" % i, list(range(1, n + 1))) for i in range(n + 1)]
    names = [v for v, _ in variables]
    constraints = [
        {"name": "c%d_%d" % (i, j), "scope": [names[i], names[j]],
         "reference": "p0", "parameters": "%s %s" % (names[i], names[j])}
        for i in range(n + 1) for j in range(i + 1, n + 1)]
    xml = instance_xml(variables, constraints,
                       predicates=[{"name": "p0", "params": ["A", "B"],
                                    "body": "ne(A,B)"}])
    path = write(tmp_path, xml)
    code, out, _ = run_cli(RunConfig(path, node_limit=3))
    assert code == EXIT_UNKNOWN
    assert check_grammar(out) == "s UNKNOWN"


def test_verify_passes_on_correct_engine(tmp_path):
    path = write(tmp_path, TINY_ALLDIFF)
    code, out, _ = run_cli(RunConfig(path, mode="all", verify=True))
    assert code == EXIT_OK
    assert "v 1 2" in out


def test_verify_catches_injected_fault(tmp_path, monkeypatch):
    # break the alldifferent filter so the engine reports a non-solution;
    # --verify must catch it, exit 3, and print no s/v lines
    from xcsolve import propagators

    monkeypatch.setattr(propagators.AllDifferentProp, "prune",
                        lambda self, store: propagators.SUBSUMED)
    path = write(tmp_path, TINY_ALLDIFF)
    code, out, err = run_cli(RunConfig(path, verify=True))
    assert code == EXIT_BAD_SOLUTION
    assert out == ""
    assert "non-solution" in err

    code, out, _ = run_cli(RunConfig(path, verify=False))
    assert code == EXIT_OK  # without --verify the wrong answer sails through
    assert "v 1 1" in out


def test_missing_constraints_section_is_one_error_line(tmp_path):
    xml = TINY_ALLDIFF.split("<constraints")[0] + "</instance>\n"
    code, out, err = run_cli(RunConfig(write(tmp_path, xml)))
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: missing mandatory <constraints> section\n"


FORBID_00 = instance_xml(
    [("X", [0, 1]), ("Y", [0, 1])],
    [{"name": "c0", "scope": ["X", "Y"], "reference": "r0"}],
    relations=[{"name": "r0", "arity": 2, "semantics": "conflicts", "tuples": [(0, 0)]}])


def test_a_second_section_is_one_error_line_not_dropped(tmp_path):
    assert run_cli(RunConfig(write(tmp_path, FORBID_00))) == (EXIT_OK, "s SATISFIABLE\nv 0 1\n", "")
    xml = FORBID_00.replace("<constraints", '<constraints nbConstraints="0"/><constraints')
    code, out, err = run_cli(RunConfig(write(tmp_path, xml), verify=True))
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: duplicate <constraints> section\n"


def test_a_misspelt_constraint_draws_a_warning_and_leaves_stdout(tmp_path):
    # stdout is as before: every assignment, the dropped constraint unread
    xml = FORBID_00.replace("<constraint ", "<constrant ")
    code, out, err = run_cli(RunConfig(write(tmp_path, xml), mode="all"))
    assert code == EXIT_OK
    assert out == "s SATISFIABLE\nv 0 0\nv 0 1\nv 1 0\nv 1 1\n"
    assert err == ("warning: ignoring unknown element <constrant> in <constraints>\n"
                   "warning: nbConstraints=1 but 0 constraint(s) declared\n")


@pytest.mark.parametrize("old, new, message", [
    ('arity="2" ', "", "<relation> is missing mandatory attribute 'arity'"),
    ('arity="2" ', 'arity="2x" ', "attribute arity='2x' is not an integer"),
    ('arity="2" ', 'arity="-2" ', "relation 'r0' has negative arity -2"),
    ('semantics="conflicts"', "", "<relation> is missing mandatory attribute 'semantics'"),
    ("0 0<", "0 0<x/><", "relation 'r0': unexpected element <x> inside its text"),
    (">0 1<", ">0<x/> 1<", "domain 'd0': unexpected element <x> inside its text"),
])
def test_a_malformed_relation_header_is_one_error_line(tmp_path, old, new, message):
    xml = FORBID_00.replace(old, new, 1)
    assert xml != FORBID_00
    assert run_cli(RunConfig(write(tmp_path, xml))) == (EXIT_ERROR, "", "error: %s\n" % message)


def test_count_drift_is_one_warning_line(tmp_path):
    xml = instance_xml(
        [("X", [1, 2]), ("Y", [1, 2])],
        [{"name": "c0", "scope": ["X", "Y"], "reference": "r0"}],
        relations=[{"name": "r%d" % i, "arity": 2, "semantics": "supports",
                    "tuples": [(1, 2)]} for i in range(2)],
    ).replace('nbRelations="2"', 'nbRelations="3"')
    code, out, err = run_cli(RunConfig(write(tmp_path, xml)))
    assert code == EXIT_OK
    assert check_grammar(out) == "s SATISFIABLE"
    assert err == "warning: nbRelations=3 but 2 relation(s) declared\n"


def test_diagnostics_go_to_stderr_not_stdout(tmp_path):
    xml = TINY_ALLDIFF.replace('nbValues="2"', 'nbValues="9"')
    path = write(tmp_path, xml)
    code, out, err = run_cli(RunConfig(path))
    assert code == EXIT_OK
    assert "nbValues" in err
    check_grammar(out)


# -- determinism --------------------------------------------------------------


def test_repeated_runs_byte_identical(tmp_path):
    path = write(tmp_path, pigeonhole_xml(4))
    outputs = {run_cli(RunConfig(path, mode="all"))[1] for _ in range(3)}
    assert len(outputs) == 1


# -- argument parsing ---------------------------------------------------------


def test_arg_parsing_round_trip():
    parser = cli.build_parser()
    args = parser.parse_args(["foo.xml", "--all", "--limit", "3",
                              "--var-heuristic", "min-dom",
                              "--val-heuristic", "max",
                              "--time-limit", "1.5", "--node-limit", "100",
                              "--verify", "--stats", "--element-base", "0"])
    config = cli.config_from_args(args)
    assert config == RunConfig("foo.xml", mode="all", limit=3,
                               var_heuristic="min-dom", val_heuristic="max",
                               time_limit=1.5, node_limit=100, verify=True,
                               stats=True, element_base=0)


def test_bad_limit_rejected():
    parser = cli.build_parser()
    args = parser.parse_args(["foo.xml", "--limit", "0"])
    with pytest.raises(ValueError):
        cli.config_from_args(args)


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_bad_time_limit_rejected(value):
    # nan compares false with everything, so `nan < 0` would let it through
    # and the search would never time out
    args = cli.build_parser().parse_args(["foo.xml", "--time-limit", value])
    with pytest.raises(ValueError, match="^--time-limit must be nonnegative$"):
        cli.config_from_args(args)


@pytest.mark.parametrize("argv", [
    ["foo.xml", "--limit", "0"], ["foo.xml", "--time-limit", "nan"],
    ["foo.xml", "--bogus"], []])
def test_usage_error_exits_with_the_input_error_code(argv, capsys):
    # argparse's own code, 2, is UNKNOWN's
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: xcsolve") and "xcsolve: error: " in err


def test_help_exits_ok(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--help"])
    assert exit_.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: xcsolve")


def test_console_entry_point(tmp_path):
    path = write(tmp_path, TINY_ALLDIFF)
    # the child imports the package this test imported, however pytest
    # found it
    src = str(pathlib.Path(xcsolve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "xcsolve.cli", path, "--all"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK
    assert check_grammar(proc.stdout, nb_vars=2) == "s SATISFIABLE"


# -- pinned search counts -----------------------------------------------------

HEURISTIC_PAIRS = [(var, val) for var in VAR_HEURISTICS for val in VAL_HEURISTICS]


def _weighted_sum(name, scope, terms, op, rhs):
    body = "[ %s ] <%s/> %d" % (
        " ".join("{ %d %s }" % term for term in terms), op, rhs)
    return {"name": name, "scope": scope, "reference": "global:weightedSum",
            "parameters": body}


def _lex(name, global_, scope, xs, ys):
    return {"name": name, "scope": scope, "reference": "global:" + global_,
            "parameters": "[ %s ] [ %s ]" % (" ".join(xs), " ".join(ys))}


# one weightedSum per relop, each with a negative coefficient and a constant
# term, and lex_less / lex_lesseq with a constant in each vector, the second
# with one variable at position 0 of both vectors
LINEAR_LEX = instance_xml(
    [("A", [0, 1, 2, 3]), ("B", [-1, 0, 1, 2]), ("C", [0, 1, 2, 3]),
     ("D", [-2, -1, 0, 1]), ("E", [0, 1, 2])],
    [_weighted_sum("c0", list("AB"), [(2, "A"), (-1, "B"), (3, 1)], "lt", 7),
     _weighted_sum("c1", list("CD"), [(-2, "C"), (1, "D"), (1, 2)], "le", 0),
     _weighted_sum("c2", list("AE"), [(-3, "A"), (2, "E"), (-1, 3)], "gt", -9),
     _weighted_sum("c3", list("BCE"),
                   [(1, "B"), (-2, "C"), (-2, 1), (1, "E")], "ge", -6),
     _weighted_sum("c4", list("ACD"),
                   [(1, "A"), (-1, "C"), (2, "D"), (2, 1)], "eq", 2),
     _weighted_sum("c5", list("BD"), [(-3, "B"), (1, "D"), (1, 4)], "ne", 2),
     _lex("c6", "lex_less", list("ABCD"), ["A", "2", "B"], ["C", "D", "1"]),
     _lex("c7", "lex_lesseq", list("EBD"), ["E", "B", "1"], ["E", "D", "0"])],
)


def _element(name, scope, parameters):
    return {"name": name, "scope": scope, "reference": "global:element",
            "parameters": parameters}


# element with variable and constant cells, a constant index, a constant
# value, an index that is also the value (c1) and a cell that is the value
# (c2); its --all search fails under every heuristic pair
ELEMENTS = instance_xml(
    [("I", [1, 2, 3, 4]), ("V", [0, 1, 2, 3, 4]), ("A", [0, 1, 2, 3, 4]),
     ("B", [0, 1, 2, 3]), ("C", [1, 2, 3]), ("D", [0, 2, 4]),
     ("J", [1, 2, 3]), ("K", [1, 2, 3])],
    [_element("c0", list("IABCV"), "I [ A 3 B C ] V"),
     _element("c1", list("JA"), "J [ A 1 3 ] J"),
     _element("c2", list("KBVD"), "K [ B V D ] V"),
     _element("c3", list("CDA"), "2 [ C D ] A"),
     _element("c4", list("KCA"), "K [ C 2 A ] 3")],
)


def _conflicts_xml():
    # adjacent variables differ and each triple sums to a multiple of 3,
    # both said by conflicts tables; forward checking fails under every
    # heuristic pair
    names = list("ABCDEF")
    relations = [
        {"name": "same", "arity": 2, "semantics": "conflicts",
         "tuples": [(a, a) for a in range(5)]},
        {"name": "sum", "arity": 3, "semantics": "conflicts",
         "tuples": [t for t in itertools.product(range(5), repeat=3) if sum(t) % 3]}]
    pairs = ["AB", "BC", "CD", "DE", "EF", "FA", "AD"]
    triples = ["ACE", "BDF", "ABE"]
    constraints = (
        [{"name": "p" + s, "scope": list(s), "reference": "same"} for s in pairs]
        + [{"name": "t" + s, "scope": list(s), "reference": "sum"} for s in triples])
    return instance_xml([(n, list(range(5))) for n in names], constraints, relations)


def _supports_xml():
    # nine variables of four values in 0..5 and sixteen binary supports
    # tables, each allowing about 60% of its pairs, drawn from one seed;
    # 49 solutions, and STR's search fails under every heuristic pair
    rng = random.Random(5)
    variables = [("V%d" % i, sorted(rng.sample(range(6), 4))) for i in range(9)]
    domains = dict(variables)
    pairs = rng.sample(list(itertools.combinations(domains, 2)), 16)
    relations = [{"name": "r%d" % i, "arity": 2, "semantics": "supports",
                  "tuples": [t for t in itertools.product(domains[a], domains[b])
                             if rng.random() < 0.6]}
                 for i, (a, b) in enumerate(pairs)]
    constraints = [{"name": "c%d" % i, "scope": [a, b], "reference": "r%d" % i}
                   for i, (a, b) in enumerate(pairs)]
    return instance_xml(variables, constraints, relations)


GENERATED = {"latin4": latin_xml(4, globals_=True), "linear_lex": LINEAR_LEX,
             "elements": ELEMENTS, "erring": ERRING_XML,
             "conflicts": _conflicts_xml(), "supports": _supports_xml()}

# (nodes, failures, propagations) under --all, one triple per heuristic pair
# in HEURISTIC_PAIRS order, for every corpus instance and a few generated
# ones; a change that keeps filtering and subsumption as they are keeps
# every one of them
SEARCH_COUNTS = {
    "alldifferent.xml": [(2, 0, 5)] * 6,
    "counting.xml": [(16, 0, 33), (16, 0, 36)] * 3,
    "cumulative.xml": [(2, 0, 6)] * 6,
    "diffn.xml": [(22, 0, 15)] * 6,
    "disjunctive.xml": [(6, 0, 10), (6, 0, 11)] * 3,
    "element.xml": [(4, 0, 6)] * 6,
    "global_cardinality.xml": [(4, 0, 13)] * 6,
    "lex.xml": [(8, 0, 16)] * 6,
    "not_all_equal.xml": [(10, 0, 7)] * 6,
    "predicate.xml": [(18, 0, 9), (18, 0, 7)] * 3,
    "relations_mixed.xml": [(10, 0, 11)] * 6,
    "weightedsum.xml": [(22, 0, 8), (22, 0, 7)] * 3,
    "conflicts": [(246, 56, 523), (246, 56, 523), (182, 24, 433),
                  (182, 24, 433), (230, 48, 615), (230, 48, 615)],
    "elements": [(52, 7, 116), (66, 14, 134), (40, 1, 97), (42, 2, 107),
                 (52, 7, 112), (66, 14, 123)],
    # an evaluation that raises rejects its value in the one-free-variable
    # check too; keeping such values for the full check had given
    # [(92, 17, 78)] * 4 + [(92, 17, 59)] * 2, with the same 30 solutions
    "erring": [(58, 0, 19)] * 4 + [(60, 1, 11)] * 2,
    "latin4": [(196, 3, 2617), (196, 3, 2610), (192, 1, 2510), (192, 1, 2503),
               (206, 8, 2381), (212, 11, 2603)],
    "linear_lex": [(16, 3, 70), (16, 3, 67), (16, 3, 58), (16, 3, 60),
                   (16, 3, 74), (18, 4, 85)],
    "supports": [(106, 5, 461), (106, 5, 473), (106, 5, 289), (104, 4, 282),
                 (100, 2, 224), (100, 2, 243)],
}


@pytest.mark.parametrize("name", sorted(SEARCH_COUNTS))
def test_search_counts_are_pinned(tmp_path, name):
    if name in GENERATED:
        path = write(tmp_path, GENERATED[name])
    else:
        path = str(CORPUS / name)
    counts = []
    for var, val in HEURISTIC_PAIRS:
        code, out, _ = run_cli(RunConfig(path, mode="all", var_heuristic=var,
                                         val_heuristic=val, stats=True))
        assert code == EXIT_OK
        stats = dict(line.split()[1:] for line in out.splitlines()
                     if line.startswith("c "))
        counts.append(tuple(int(stats[key])
                            for key in ("nodes", "failures", "propagations")))
    assert counts == SEARCH_COUNTS[name]


@pytest.mark.parametrize("name", sorted(SEARCH_COUNTS))
def test_solving_leaves_every_reference_as_resolved(name):
    # a global's propagator reads the very object the oracle reads, so no
    # search or check may write into it
    xml = GENERATED[name] if name in GENERATED else (CORPUS / name).read_bytes()
    instance, problem = load(xml)
    for var, val in HEURISTIC_PAIRS:
        for values in Engine(problem, BranchStrategy(var, val)).solve(limit=None).solutions:
            assert verify_solution(instance, values)
    fresh = resolve_references(parse_instance(xml))
    assert [c.ref for c in instance.constraints] == [c.ref for c in fresh.constraints]


def _predicate_xml(variables, body):
    scope = [name for name, _ in variables]
    return instance_xml(
        variables,
        [{"name": "c0", "scope": scope, "reference": "p0", "parameters": " ".join(scope)}],
        predicates=[{"name": "p0", "params": [name.lower() for name in scope],
                     "body": body}])


# linear predicates whose sums leave 64 bits for some values of the root
# domains: the evaluator raises there, so those values are no solution
OVERFLOWS = [
    _predicate_xml([("A", [0, 2 ** 62]), ("B", [0, 2 ** 62])], "ge(add(a,b),0)"),
    _predicate_xml([("A", [0, 1, 2, 3])],
                   "ge(add(mul(5000000000000000000,a),mul(-5000000000000000000,a)),0)"),
]


@pytest.mark.parametrize("var, val", HEURISTIC_PAIRS)
@pytest.mark.parametrize("xml", OVERFLOWS, ids=["sum", "product"])
def test_a_sum_beyond_64_bits_is_a_violation(tmp_path, xml, var, val):
    path = write(tmp_path, xml)
    code, out, err = run_cli(RunConfig(path, mode="all", var_heuristic=var,
                                       val_heuristic=val, verify=True))
    assert (code, err) == (EXIT_OK, "")
    found = [[int(v) for v in line.split()[1:]] for line in out.splitlines()
             if line.startswith("v ")]
    instance, _ = load(xml)
    assert sorted(found) == sorted(brute_force(instance))


# A + B >= 0 over {0, 2^62}, as a predicate and as a weightedSum: both keep
# the evaluator's 64-bit rule, so A = B = 2^62 is no solution of either
SUM_FORMS = [
    OVERFLOWS[0],
    instance_xml([("A", [0, 2 ** 62]), ("B", [0, 2 ** 62])],
                 [_weighted_sum("c0", ["A", "B"], [(1, "A"), (1, "B")], "ge", 0)]),
]


@pytest.mark.parametrize("var, val", HEURISTIC_PAIRS)
def test_a_weighted_sum_beyond_64_bits_is_its_predicate(tmp_path, var, val):
    found = []
    for k, xml in enumerate(SUM_FORMS):
        path = write(tmp_path, xml, "form%d.xml" % k)
        code, out, err = run_cli(RunConfig(path, mode="all", var_heuristic=var,
                                           val_heuristic=val, verify=True))
        assert (code, err) == (EXIT_OK, "")
        found.append(sorted(line for line in out.splitlines() if line.startswith("v ")))
    assert found[0] == found[1] == ["v 0 0", "v 0 %d" % 2 ** 62, "v %d 0" % 2 ** 62]


def _long_sum_xml(count, top):
    names = ["X%d" % i for i in range(count)]
    return instance_xml([(name, [0, 1, top]) for name in names],
                        [_weighted_sum("c0", names, [(1, name) for name in names],
                                       "le", 5 * count)])


# a sum that may leave 64 bits is an expression check whose halved sum
# nests log n deep, so no length reaches the nesting limit
@pytest.mark.parametrize("count, top", [
    (1200, 5),  # a LinearRel of any length
    (MAX_DEPTH - 1, 2 ** 62),
    (5000, 2 ** 62),
])
def test_a_long_weighted_sum_solves(tmp_path, count, top):
    path = write(tmp_path, _long_sum_xml(count, top))
    got, out, err = run_cli(RunConfig(path, verify=True))
    assert (got, err) == (EXIT_OK, "")
    assert out.splitlines()[:2] == ["s SATISFIABLE", "v" + " 0" * count]
