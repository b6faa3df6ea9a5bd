import random
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcsolve import (
    FormatError,
    ResolutionError,
    StructuralError,
    UnsupportedExtensionError,
    XmlError,
    parse_instance,
    parse_integer_set,
    parse_tuples,
    resolve_references,
)
from xcsolve.errors import integer_error
from xcsolve.expr import Apply, VarRef
from xcsolve.intset import IntegerSet
from xcsolve import model
from xcsolve.model import TUPLE_MEMO, GlobalRef, PredicateRef, RelationRef

from helpers import TINY_ALLDIFF, instance_xml


# -- abridged text content ----------------------------------------------------


def test_integer_set_range():
    assert parse_integer_set("1..2") == IntegerSet.from_intervals([(1, 2)])


def test_integer_set_singleton():
    assert parse_integer_set("5").ranges == ((5, 5),)


def test_integer_set_union_merges():
    assert parse_integer_set("1 3 2..4 7").ranges == ((1, 4), (7, 7))


def test_integer_set_negative():
    assert parse_integer_set("-3..-1 -7").ranges == ((-7, -7), (-3, -1))


def test_integer_set_canonical_idempotent():
    s = parse_integer_set("9 1..3 2 5..6")
    assert IntegerSet.from_intervals(s.ranges) == s


def test_integer_set_bad_range():
    with pytest.raises(FormatError):
        parse_integer_set("5..2")


def test_integer_set_bad_token():
    with pytest.raises(FormatError):
        parse_integer_set("1 x 3")


def test_tuples_basic():
    assert parse_tuples("1 2|2 1", 2) == [(1, 2), (2, 1)]


def test_tuples_empty():
    assert parse_tuples("", 3) == []
    assert parse_tuples("   ", 3) == []


def test_tuples_order_and_negatives():
    assert parse_tuples("0 0 0|1 -1 2|3 3 3", 3) == [(0, 0, 0), (1, -1, 2), (3, 3, 3)]


def test_tuples_arity_mismatch_names_group():
    with pytest.raises(FormatError, match="tuple 1"):
        parse_tuples("1 2|3|4 5", 2)


def per_tuple_reference(text, arity):
    """The tuple-list parser with neither the bulk pass nor the memo: one
    group at a time, which is also how every error is worded."""
    if not text.strip():
        return []
    tuples = []
    for i, group in enumerate(text.split("|")):
        values = []
        for tok in group.split():
            try:
                values.append(int(tok))
            except ValueError:
                raise FormatError("tuple %d: %s" % (i, integer_error(tok))) from None
        if len(values) != arity:
            raise FormatError(
                "tuple %d has %d value(s), expected arity %d" % (i, len(values), arity)
            )
        tuples.append(tuple(values))
    return tuples


GAPS = ["", " ", "\t", "\n", "\r", "\r\n", " \t "]
OVER_DIGIT_LIMIT = "9" * 4301


@st.composite
def integer_tokens(draw):
    value = draw(st.one_of(st.integers(-1000, 1000),
                           st.sampled_from([2**63, -2**63 - 1, 10**99, -10**4000])))
    text = str(value)
    style = draw(st.sampled_from(["plain", "plus", "underscore"]))
    if style == "plus" and value >= 0:
        text = "+" + text
    elif style == "underscore" and abs(value) >= 10:
        text = text[:-1] + "_" + text[-1]
    return text


@st.composite
def tuple_lists(draw):
    """(text, arity): a well-formed list, or one with a single mutation."""
    arity = draw(st.integers(1, 4))
    groups = draw(st.lists(st.lists(integer_tokens(), min_size=arity,
                                    max_size=arity), min_size=1, max_size=6))
    mutation = draw(st.sampled_from(
        [None, None, "drop", "extra", "empty group", "leading", "trailing",
         "double bar", "non-integer", "over digit limit"]))
    g = draw(st.integers(0, len(groups) - 1))
    t = draw(st.integers(0, arity - 1))
    if mutation == "drop":
        del groups[g][t]
    elif mutation == "extra":
        groups[g].insert(t, "7")
    elif mutation == "non-integer":
        groups[g][t] = draw(st.sampled_from(["x", "1.5", "0x1", "--1", "1-"]))
    elif mutation == "over digit limit":
        groups[g][t] = OVER_DIGIT_LIMIT
    elif mutation == "empty group":
        groups.insert(g, [])
    texts = [draw(st.sampled_from(GAPS[1:])).join(group) for group in groups]
    if mutation == "double bar":
        texts.insert(g, "")
    if mutation == "leading":
        texts.insert(0, "")
    if mutation == "trailing":
        texts.append("")
    pieces = [draw(st.sampled_from(GAPS)) + text + draw(st.sampled_from(GAPS))
              for text in texts]
    return "|".join(pieces), arity


def outcome(parse, text, arity):
    try:
        return parse(text, arity)
    except FormatError as e:
        return "FormatError: %s" % e


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(tuple_lists())
def test_tuples_match_the_per_tuple_loop(case):
    text, arity = case
    got = outcome(parse_tuples, text, arity)
    assert got == outcome(per_tuple_reference, text, arity)
    if isinstance(got, list):
        assert all(type(t) is tuple for t in got)


@st.composite
def list_sequences(draw):
    """The tuple lists of one document: drawn lists, then each again, some
    under another arity, so that a shared memo meets its own groups."""
    cases = draw(st.lists(tuple_lists(), min_size=1, max_size=4))
    again = [(text, arity + draw(st.sampled_from([0, 0, 1, -1])))
             for text, arity in cases]
    return cases + again


PARSE_GROUP = model._parse_group


def record_groups(monkeypatch):
    """The numbers of the groups the per-tuple parser reads, as it reads them."""
    read = []

    def parse_group(group, i, arity):
        read.append(i)
        return PARSE_GROUP(group, i, arity)

    monkeypatch.setattr(model, "_parse_group", parse_group)
    return read


# memos with room for six new groups, for one, and for none
PARTLY_FULL_MEMO = dict.fromkeys(range(12 - TUPLE_MEMO, 0))
NEARLY_FULL_MEMO = dict.fromkeys(range(2 - TUPLE_MEMO, 0))
FULL_MEMO = dict.fromkeys(range(-TUPLE_MEMO, 0))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(list_sequences())
def test_a_shared_memo_matches_the_per_tuple_loop(cases):
    expected = [outcome(per_tuple_reference, text, arity) for text, arity in cases]
    # an empty memo reads every list through it, a partly full one the
    # first lists until the next has no room, a nearly full one only a
    # one-group list, and a full one sends each list down the bulk path
    for seen in ({}, PARTLY_FULL_MEMO.copy(), NEARLY_FULL_MEMO.copy(),
                 FULL_MEMO.copy()):
        got = []
        for text, arity in cases:
            got.append(outcome(partial(parse_tuples, seen=seen), text, arity))
            assert len(seen) <= TUPLE_MEMO
        assert got == expected
    parsed = [t for tuples in got if isinstance(tuples, list) for t in tuples]
    assert all(type(t) is tuple for t in parsed)


def test_a_memo_keeps_one_object_per_distinct_tuple():
    seen = {}
    first = parse_tuples("0 1|1 0", 2, seen)
    second = parse_tuples(" 0  1 |+1\t0|0 1", 2, seen)
    assert second == [(0, 1), (1, 0), (0, 1)]
    assert second[0] is first[0] and second[2] is first[0]
    assert second[1] is first[1]


def test_a_full_memo_grows_no_further(monkeypatch):
    # a list the memo has no room for, at two entries per group, is read
    # wholly in one pass: the memo is left as it was, and a well-formed
    # list never reaches the per-tuple parser
    seen = NEARLY_FULL_MEMO.copy()
    assert parse_tuples("1 2", 2, seen) == [(1, 2)]
    assert len(seen) == TUPLE_MEMO
    read = record_groups(monkeypatch)
    for memo, text in [(FULL_MEMO, "1 2"), (NEARLY_FULL_MEMO, "1 2|3 4"),
                       (NEARLY_FULL_MEMO, "1 2|1 2")]:
        seen = memo.copy()
        assert parse_tuples(text, 2, seen) == per_tuple_reference(text, 2)
        assert seen == memo
    assert read == []


def test_a_list_that_fills_the_memo_reads_each_group_once(monkeypatch):
    # the memo has no room for four groups, so the one-pass read takes the
    # whole list; when it meets the bad group 2, the per-tuple loop words
    # the error, numbering groups from the list's start
    read = record_groups(monkeypatch)
    with pytest.raises(FormatError, match=r"^tuple 2: "):
        parse_tuples("1 2|3 4|5 x|7 8", 2, NEARLY_FULL_MEMO.copy())
    assert read == [0, 1, 2]


def test_tuples_edge_cases_match_the_per_tuple_loop():
    cases = [("1 2|3 4", 0), ("1|2", -1), ("|", 1), ("||", 2), ("1 2 3 4", 2),
             ("1 2 | 3 4 |", 2), ("1 2 3|4", 2), ("1|2 3|4", 2), ("1|2 3 4", 2),
             (OVER_DIGIT_LIMIT + " 1", 2), ("\u0663 1_0|+5 -0", 2)]
    for text, arity in cases:
        assert outcome(parse_tuples, text, arity) == outcome(per_tuple_reference, text, arity)


# -- parse_instance -----------------------------------------------------------


def test_tiny_alldiff_example_counts():
    model = parse_instance(TINY_ALLDIFF)
    assert len(model.domains) == 1
    assert len(model.variables) == 2
    assert len(model.relations) == 0
    assert len(model.predicates) == 0
    assert len(model.constraints) == 1
    assert model.constraints[0].reference == "global:alldifferent"
    assert model.domains[0].values == IntegerSet.from_intervals([(1, 2)])


def test_relations_share_their_equal_tuples():
    rng = random.Random(0)
    pairs = list(product(range(3), repeat=2))
    relations = [{"name": "r%d" % k, "arity": 2, "semantics": "supports",
                  "tuples": rng.sample(pairs, rng.randint(1, 9))}
                 for k in range(50)]
    model = parse_instance(instance_xml([("A", [0, 1, 2])], [], relations))
    assert [r.tuples for r in model.relations] == [r["tuples"] for r in relations]
    # each relation owns its list; the tuples in the lists are shared
    assert len({id(r.tuples) for r in model.relations}) == 50
    objects = {id(t): t for r in model.relations for t in r.tuples}
    assert len(objects) <= 9
    assert all(type(t) is tuple for t in objects.values())


def test_parse_accepts_bytes():
    model = parse_instance(TINY_ALLDIFF.encode("utf-8"))
    assert len(model.variables) == 2


def test_zero_constraints_is_fine():
    xml = instance_xml([("X", [5])], [])
    model = parse_instance(xml)
    assert model.constraints == []


def test_malformed_xml_reports_position():
    with pytest.raises(XmlError) as info:
        parse_instance("<instance><domains>")
    assert info.value.line is not None


def test_missing_variables_section():
    with pytest.raises(StructuralError, match="variables"):
        parse_instance("<instance><constraints nbConstraints=\"0\"/></instance>")


def test_missing_constraints_section():
    with pytest.raises(StructuralError, match="constraints"):
        parse_instance(
            '<instance><variables nbVariables="0"></variables></instance>')


@pytest.mark.parametrize("attr", ["nbDomains", "nbVariables"])
def test_missing_required_count_is_an_error(attr):
    xml = TINY_ALLDIFF.replace(' %s="' % attr, ' dropped="')
    with pytest.raises(StructuralError, match=attr):
        parse_instance(xml)


FIVE_SECTIONS = instance_xml(
    [("X", [0, 1]), ("Y", [0, 1])],
    [{"name": "c0", "scope": ["X", "Y"], "reference": "r0"},
     {"name": "c1", "scope": ["X", "Y"], "reference": "p0"}],
    relations=[{"name": "r%d" % i, "arity": 2, "semantics": "supports",
                "tuples": [(0, 1), (1, 0)]} for i in range(2)],
    predicates=[{"name": "p%d" % i, "params": ["A", "B"], "body": "ne(A,B)"}
                for i in range(2)],
)


@pytest.mark.parametrize("attr", ["nbRelations", "nbPredicates", "nbConstraints"])
def test_missing_optional_count_is_no_error(attr):
    xml = FIVE_SECTIONS.replace(' %s="2"' % attr, "")
    assert xml != FIVE_SECTIONS
    model = parse_instance(xml)
    assert model.diagnostics == []
    assert len(model.constraints) == 2


@pytest.mark.parametrize("item", ["domain", "variable", "relation", "predicate",
                                  "constraint"])
def test_count_drift_warns_once_per_section(item):
    attr = "nb%ss" % item.capitalize()
    xml = FIVE_SECTIONS.replace('%s="2"' % attr, '%s="3"' % attr)
    assert xml != FIVE_SECTIONS
    model = parse_instance(xml)
    assert model.diagnostics == ["warning: %s=3 but 2 %s(s) declared" % (attr, item)]


def test_duplicate_variable_name():
    xml = TINY_ALLDIFF.replace('name="A2"', 'name="A1"')
    with pytest.raises(StructuralError, match="A1"):
        parse_instance(xml)


def test_duplicate_formal_parameter_names_the_first_repeat():
    def formals(params):
        xml = instance_xml([("X", [0])], [], predicates=[
            {"name": "p0", "params": params, "body": "eq(%s,0)" % params[0]}])
        return parse_instance(xml).predicates[0].formal_params

    assert formals(["c", "a", "b"]) == ["c", "a", "b"]
    with pytest.raises(StructuralError,
                       match=r"^predicate 'p0': duplicate formal parameter 'b'$"):
        formals(["c", "b", "a", "b", "c"])


def test_scope_arity_mismatch():
    xml = TINY_ALLDIFF.replace('arity="2"', 'arity="3"')
    with pytest.raises(StructuralError, match="arity"):
        parse_instance(xml)


def test_count_drift_is_diagnostic_not_error():
    xml = TINY_ALLDIFF.replace('nbValues="2"', 'nbValues="9"')
    model = parse_instance(xml)
    assert any("nbValues" in d for d in model.diagnostics)
    assert model.domains[0].values.size() == 2


def test_unknown_attribute_warns():
    xml = TINY_ALLDIFF.replace('name="A1"', 'name="A1" shiny="yes"')
    model = parse_instance(xml)
    assert any("shiny" in d for d in model.diagnostics)


def test_wcsp_type_rejected():
    xml = TINY_ALLDIFF.replace('format="XCSP 2.1"', 'format="XCSP 2.1" type="WCSP"')
    with pytest.raises(UnsupportedExtensionError, match="unsupported extension"):
        parse_instance(xml)


def test_qcsp_quantification_rejected():
    xml = TINY_ALLDIFF.replace(
        "<constraints", "<quantification/><constraints")
    with pytest.raises(UnsupportedExtensionError, match="unsupported extension"):
        parse_instance(xml)


def test_soft_relation_rejected():
    xml = instance_xml(
        [("X", [1, 2])],
        [{"name": "c0", "scope": ["X"], "reference": "r0"}],
        relations=[{"name": "r0", "arity": 1, "semantics": "supports",
                    "tuples": [(1,)]}],
    ).replace('semantics="supports"', 'semantics="soft"')
    with pytest.raises(UnsupportedExtensionError):
        parse_instance(xml)


def test_parse_keeps_a_long_relation():
    tuples = [(i % 40, (7 * i) % 40 - 20) for i in range(600)]
    xml = instance_xml(
        [("X", list(range(40))), ("Y", list(range(-20, 20)))],
        [{"name": "c0", "scope": ["X", "Y"], "reference": "r0"}],
        relations=[{"name": "r0", "arity": 2, "semantics": "supports",
                    "tuples": tuples}],
    )
    parsed = parse_instance(xml).relations[0].tuples
    assert parsed == tuples
    assert all(type(t) is tuple for t in parsed)


def test_tuple_count_drift_is_diagnostic_not_error():
    xml = instance_xml(
        [("X", [1, 2]), ("Y", [1, 2])],
        [{"name": "c0", "scope": ["X", "Y"], "reference": "r0"}],
        relations=[{"name": "r0", "arity": 2, "semantics": "supports",
                    "tuples": [(1, 2), (2, 1)]}],
    ).replace('nbTuples="2"', 'nbTuples="3"')
    model = parse_instance(xml)
    assert model.diagnostics == [
        "warning: relation 'r0' declares nbTuples=3 but holds 2"]
    assert model.relations[0].tuples == [(1, 2), (2, 1)]


# -- resolution ---------------------------------------------------------------


def test_resolve_tiny_alldiff():
    instance = resolve_references(parse_instance(TINY_ALLDIFF))
    assert instance.names == ["A1", "A2"]
    c = instance.constraints[0]
    assert c.scope == [0, 1]
    assert isinstance(c.ref, GlobalRef) and c.ref.name == "alldifferent"


def test_resolve_classifies_references():
    xml = instance_xml(
        [("X", [0, 1]), ("Y", [0, 1])],
        [
            {"name": "c0", "scope": ["X", "Y"], "reference": "r0"},
            {"name": "c1", "scope": ["X", "Y"], "reference": "p0",
             "parameters": "X 3"},
        ],
        relations=[{"name": "r0", "arity": 2, "semantics": "supports",
                    "tuples": [(0, 1)]}],
        predicates=[{"name": "p0", "params": ["P0", "P1"], "body": "ne(P0,P1)"}],
    )
    instance = resolve_references(parse_instance(xml))
    assert isinstance(instance.constraints[0].ref, RelationRef)
    assert isinstance(instance.constraints[1].ref, PredicateRef)
    assert instance.constraints[1].parameters == [VarRef(0), 3]


def test_resolve_repeated_scope_variable():
    xml = TINY_ALLDIFF.replace('scope="A1 A2"', 'scope="A1 A1"')
    with pytest.raises(ResolutionError, match="repeats"):
        resolve_references(parse_instance(xml))
    # the first variable seen again is the one named
    xml = instance_xml(
        [("A", [1]), ("B", [1]), ("C", [1])],
        [{"name": "c0", "scope": ["C", "B", "A", "B", "C"],
          "reference": "global:alldifferent"}],
    )
    with pytest.raises(ResolutionError,
                       match=r"^constraint 'c0' repeats variable 'B' in its scope$"):
        resolve_references(parse_instance(xml))


def test_resolve_relation_arity_mismatch():
    xml = instance_xml(
        [("X", [0, 1]), ("Y", [0, 1])],
        [{"name": "c0", "scope": ["X", "Y"], "reference": "r0"}],
        relations=[{"name": "r0", "arity": 3, "semantics": "supports",
                    "tuples": [(0, 1, 0)]}],
    )
    with pytest.raises(ResolutionError, match="arity"):
        resolve_references(parse_instance(xml))


def test_resolve_dangling_reference():
    xml = instance_xml([("X", [0, 1])],
                       [{"name": "c0", "scope": ["X"], "reference": "nowhere"}])
    with pytest.raises(ResolutionError, match="nowhere"):
        resolve_references(parse_instance(xml))


def test_resolve_unsupported_global_lists_supported():
    xml = instance_xml([("X", [0, 1])],
                       [{"name": "c0", "scope": ["X"],
                         "reference": "global:circuit"}])
    with pytest.raises(ResolutionError, match="alldifferent"):
        resolve_references(parse_instance(xml))


def test_resolve_rejects_a_predicate_parameter_group():
    xml = instance_xml(
        [("X", [0, 1])],
        [{"name": "c0", "scope": ["X"], "reference": "p0", "parameters": "[ X ]"}],
        predicates=[{"name": "p0", "params": ["A"], "body": "eq(A,1)"}],
    )
    with pytest.raises(ResolutionError) as caught:
        resolve_references(parse_instance(xml))
    assert str(caught.value) == (
        "constraint 'c0' ('p0'): predicate parameters must be variables or "
        "integers; expected parameters: v-or-int per formal parameter")


def test_resolve_reports_malformed_alldifferent_with_its_signature():
    xml = instance_xml(
        [("X", [0, 1]), ("Y", [0, 1])],
        [{"name": "c0", "scope": ["X", "Y"], "reference": "global:alldifferent",
          "parameters": "X Y"}],
    )
    with pytest.raises(ResolutionError) as caught:
        resolve_references(parse_instance(xml))
    assert str(caught.value) == (
        "constraint 'c0' (global:alldifferent): malformed parameters; "
        "expected parameters: (optional) [x1 ... xn]")


X, Y, Z, W = (VarRef(i) for i in range(4))

# each global's signature text, as its errors quote it
SIGNATURES = {
    "alldifferent": "(optional) [x1 ... xn]",
    "not_all_equal": "(optional) [x1 ... xn]",
    "among": "N [x1 ... xn] [v1 ... vk]",
    "atleast": "k [x1 ... xn] v",
    "atmost": "k [x1 ... xn] v",
    "element": "i [t1 ... tn] v",
    "global_cardinality": "[x1 ... xn] [ {v1 o1} {v2 o2} ... ]",
    "cumulative": "[ {origin duration height} ... ] capacity",
    "disjunctive": "[ {origin duration} ... ]",
    "diffn": "[ {x y width height} ... ]",
    "lex_less": "[x1 ... xn] [y1 ... yn]",
    "lex_lesseq": "[x1 ... xn] [y1 ... yn]",
    "weightedsum": "[ {c1 x1} {c2 x2} ... ] <relop/> K",
}

# (global, <parameters> body or None for none, the sig it parses into or
# None when it is rejected); the scope is X Y Z W, and an empty body or no
# body stands for it where the list is optional
GLOBAL_PARAMETER_CASES = [
    ("alldifferent", None, [0, 1, 2, 3]),
    ("alldifferent", "", [0, 1, 2, 3]),
    ("alldifferent", "[ ]", []),
    ("alldifferent", "[ X Z ]", [0, 2]),
    ("alldifferent", "X Y", None),
    ("alldifferent", "[ X ] [ Y ]", None),
    ("alldifferent", "[ X 1 ]", None),
    ("not_all_equal", None, [0, 1, 2, 3]),
    ("not_all_equal", "", [0, 1, 2, 3]),
    ("not_all_equal", "[ ]", []),
    ("not_all_equal", "[ W Y ]", [3, 1]),
    ("not_all_equal", "[ [ X ] ]", None),
    ("among", "2 [ X Y ] [ 1 2 ]", [model.CountingSig([0, 1], [1, 2], 2, 2, None)]),
    ("among", "Z [ X Y ] [ 1 ]", [model.CountingSig([0, 1], [1], None, None, 2)]),
    ("among", "-1 [ ] [ ]", [model.CountingSig([], [], -1, -1, None)]),
    ("among", None, None),
    ("among", "[ X Y ] [ 1 ]", None),
    ("among", "2 [ X 1 ] [ 1 ]", None),
    ("among", "2 [ X ] [ Y ]", None),
    ("among", "[ 1 ] [ X ] [ 1 ]", None),
    ("atleast", "1 [ X Y ] 2", [model.CountingSig([0, 1], [2], 1, None, None)]),
    ("atleast", "1 [ X Y ]", None),
    ("atleast", "Z [ X Y ] 2", None),
    ("atleast", "1 [ X Y ] Z", None),
    ("atmost", "1 [ X Y ] 2", [model.CountingSig([0, 1], [2], None, 1, None)]),
    ("atmost", "-1 [ ] 0", [model.CountingSig([], [0], None, -1, None)]),
    ("atmost", "1 [ X Y ] 2 3", None),
    ("atmost", "1 [ X 2 ] 2", None),
    ("atmost", "1 [ X Y ] [ 2 ]", None),
    ("element", "X [ Y 3 Z ] W", model.ElementSig(X, [Y, 3, Z], W)),
    ("element", "1 [ 2 ] -3", model.ElementSig(1, [2], -3)),
    ("element", "X [ ] W", None),
    ("element", "X [ Y ]", None),
    ("element", "[ X ] [ Y ] W", None),
    ("element", "X [ [ Y ] ] W", None),
    ("element", "X [ Y ] le", None),
    ("global_cardinality", "[ X Y ] [ { 1 1 } { 2 Z } ]",
     [model.CountingSig([0, 1], [1], 1, 1, None),
      model.CountingSig([0, 1], [2], None, None, 2)]),
    ("global_cardinality", "[ X Y ] [ ]", []),
    ("global_cardinality", "[ X Y ]", None),
    ("global_cardinality", "[ X Y ] [ { Z 1 } ]", None),
    ("global_cardinality", "[ X Y ] [ { 1 1 2 } ]", None),
    ("global_cardinality", "[ X 1 ] [ { 1 1 } ]", None),
    ("cumulative", "[ { X 2 1 } { 3 1 2 } ] 2",
     model.CumulativeSig([(X, 2, 1), (3, 1, 2)], 2)),
    ("cumulative", "[ { X 0 0 } ] -1", model.CumulativeSig([(X, 0, 0)], -1)),
    ("cumulative", "[ ] 0", model.CumulativeSig([], 0)),
    ("cumulative", "[ { X -1 1 } ] 2", None),
    ("cumulative", "[ { X 1 -1 } ] 2", None),
    ("cumulative", "[ { X Y 1 } ] 2", None),
    ("cumulative", "[ { X 1 1 } ] Z", None),
    ("cumulative", "[ { X 1 1 } ]", None),
    ("cumulative", "[ { X 1 } ] 2", None),
    ("disjunctive", "[ { X 2 } { 1 0 } ]", model.DisjunctiveSig([(X, 2), (1, 0)])),
    ("disjunctive", "[ ]", model.DisjunctiveSig([])),
    ("disjunctive", "[ { X -1 } ]", None),
    ("disjunctive", "[ { X Y } ]", None),
    ("disjunctive", "[ { X 1 } ] 2", None),
    ("disjunctive", None, None),
    ("diffn", "[ { X Y 1 2 } { 0 0 Z W } ]",
     model.DiffnSig([(X, Y, 1, 2), (0, 0, Z, W)])),
    ("diffn", "[ { X Y 1 } ]", None),
    ("diffn", "[ { X Y [ 1 ] 2 } ]", None),
    ("diffn", "[ { X Y 1 2 } ] [ ]", None),
    ("lex_less", "[ X 1 ] [ Y Z ]", model.LexSig([X, 1], [Y, Z])),
    ("lex_less", "[ X ] [ Y Z ]", None),
    ("lex_less", "[ ] [ ]", None),
    ("lex_less", "[ X ]", None),
    ("lex_lesseq", "[ X Y ] [ 0 W ]", model.LexSig([X, Y], [0, W])),
    ("lex_lesseq", "[ X Y ] [ Z ]", None),
    ("lex_lesseq", "[ X ] [ { Y } ]", None),
    ("weightedsum", "[ { 1 X } { -2 3 } ] <le/> 4",
     model.WeightedSumSig([(1, X), (-2, 3)], "le", 4)),
    ("weightedsum", "[ ] ge -1", model.WeightedSumSig([], "ge", -1)),
    ("weightedsum", "[ { 1 X } ] 4 4", None),
    ("weightedsum", "[ { 1 X } ] X 4", None),
    ("weightedsum", "[ { X 1 } ] eq 4", None),
    ("weightedsum", "[ { 1 X } ] eq Y", None),
    ("weightedsum", "[ { 1 X } ] eq", None),
    ("weightedsum", "[ { 1 X 2 } ] eq 4", None),
]


@pytest.mark.parametrize("name, parameters, expected", GLOBAL_PARAMETER_CASES)
def test_global_parameters_accept_or_reject_at_their_boundaries(name, parameters, expected):
    xml = instance_xml(
        [(v, [0, 1, 2]) for v in "XYZW"],
        [{"name": "c0", "scope": list("XYZW"), "reference": "global:" + name,
          "parameters": parameters}],
    )
    if expected is None:
        with pytest.raises(ResolutionError) as caught:
            resolve_references(parse_instance(xml))
        message = str(caught.value)
        assert message.startswith("constraint 'c0' (global:%s): " % name)
        assert message.endswith("; expected parameters: " + SIGNATURES[name])
    else:
        (c,) = resolve_references(parse_instance(xml)).constraints
        assert c.ref.sig == expected


def test_resolve_binds_parameters_once():
    xml = instance_xml(
        [("X", [0, 1]), ("Y", [0, 1])],
        [
            {"name": "c0", "scope": ["X", "Y"], "reference": "r0"},
            {"name": "c1", "scope": ["Y", "X"], "reference": "r0"},
            {"name": "c2", "scope": ["X"], "reference": "p0", "parameters": "Y X"},
            {"name": "c3", "scope": ["X", "Y"], "reference": "global:alldifferent"},
        ],
        relations=[{"name": "r0", "arity": 2, "semantics": "supports",
                    "tuples": [(0, 1)]}],
        predicates=[{"name": "p0", "params": ["P0", "P1"], "body": "ne(P0,P1)"}],
    )
    c0, c1, c2, c3 = resolve_references(parse_instance(xml)).constraints
    # constraints on one relation share its reference
    assert c0.ref is c1.ref
    assert c2.ref.body == Apply("ne", (VarRef(1), VarRef(0)))
    assert c2.ref.refs == [1, 0]
    assert c3.ref.sig == [0, 1]


def test_resolve_indices_dense_and_in_range():
    xml = instance_xml(
        [("A", [1]), ("B", [1, 2]), ("C", [2, 3])],
        [{"name": "c0", "scope": ["C", "A"], "reference": "global:alldifferent"}],
    )
    instance = resolve_references(parse_instance(xml))
    assert instance.names == ["A", "B", "C"]
    for c in instance.constraints:
        assert all(0 <= v < len(instance.names) for v in c.scope)
    assert instance.constraints[0].scope == [2, 0]
