import pathlib
import random
import re
import tracemalloc
import xml.etree.ElementTree as ET
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
from xcsolve.expr import Apply, IntLiteral as Literal, VarRef
from xcsolve.intset import IntegerSet
from xcsolve import model
from xcsolve.model import TUPLE_MEMO, XML_SLICE, GlobalRef, PredicateRef, RelationRef

from helpers import TINY_ALLDIFF, instance_xml

CORPUS = pathlib.Path(__file__).parent / "corpus"


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


def memo_entries(seen):
    return sum(map(len, seen.values()))


def filled_memo(entries):
    """A document's memo holding `entries` filler entries under an arity
    that no list here has, so that no list reads or writes them."""
    filler = model._TupleMemo(99)
    filler.update(dict.fromkeys(range(-entries, 0)))
    return {99: filler}


# memos with room for six new groups, for one, and for none
PARTLY_FULL_MEMO = filled_memo(TUPLE_MEMO - 12)
NEARLY_FULL_MEMO = filled_memo(TUPLE_MEMO - 2)
FULL_MEMO = filled_memo(TUPLE_MEMO)


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
            assert memo_entries(seen) <= TUPLE_MEMO
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
    assert memo_entries(seen) == TUPLE_MEMO
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


def test_each_distinct_group_text_is_read_once(monkeypatch):
    rng = random.Random(26)
    pairs = list(product(range(40), repeat=2))
    relations = [{"name": "r%d" % k, "arity": 2, "semantics": "supports",
                  "tuples": rng.sample(pairs, rng.randint(1, 30))}
                 for k in range(200)]
    xml = instance_xml([("A", list(range(40)))], [], relations)
    read = []

    def parse_group(group, i, arity):
        read.append(group)
        return PARSE_GROUP(group, i, arity)

    monkeypatch.setattr(model, "_parse_group", parse_group)
    parsed = parse_instance(xml)
    assert [r.tuples for r in parsed.relations] == [r["tuples"] for r in relations]
    texts = [g for el in ET.fromstring(xml).iter("relation")
             for g in el.text.split("|")]
    assert sorted(read) == sorted(set(texts))
    assert len(read) < len(texts)


def test_a_memo_hit_never_crosses_arities():
    seen = {}
    assert parse_tuples("1 2|3 4", 2, seen) == [(1, 2), (3, 4)]
    with pytest.raises(FormatError) as raised:
        parse_tuples("1 2", 3, seen)
    assert str(raised.value) == "tuple 0 has 2 value(s), expected arity 3"


@pytest.mark.parametrize("bad, message", [
    ("5 x", "tuple %d: bad integer token 'x'"),
    ("5", "tuple %d has 1 value(s), expected arity 2"),
])
def test_a_bad_group_after_memo_hits_is_numbered_from_the_list_start(bad, message):
    seen = {}
    parse_tuples("1 2|3 4|5 6", 2, seen)
    for k in range(4):
        text = "|".join(["1 2", "3 4", "5 6"][:k] + [bad, "7 8"])
        with pytest.raises(FormatError) as raised:
            parse_tuples(text, 2, seen)
        assert str(raised.value) == message % k


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


# -- the reader: relations read as they close, errors in section order ----------


TWO_RELATIONS = instance_xml(
    [("X", [0, 1]), ("Y", [0, 1])],
    [{"name": "c0", "scope": ["X", "Y"], "reference": "r0"},
     {"name": "c1", "scope": ["X", "Y"], "reference": "r1"}],
    relations=[{"name": "r%d" % i, "arity": 2, "semantics": "supports",
                "tuples": [(0, 1), (1, 0)]} for i in range(2)],
)
BAD_LIST = TWO_RELATIONS.replace(">0 1|1 0</relation>", ">0 1|1 x</relation>", 1)


def relations_xml(n: int, groups: int = 8000) -> str:
    """`n` binary supports relations of `groups` tuples each, over 0..9."""
    rng = random.Random(n)
    texts = ["%d %d" % t for t in product(range(10), repeat=2)]
    lines = ['<instance>', '<domains nbDomains="1">',
             '<domain name="D" nbValues="10">0..9</domain>', '</domains>',
             '<variables nbVariables="0"/>', '<relations nbRelations="%d">' % n]
    lines += ['<relation name="r%d" arity="2" nbTuples="%d" semantics="supports">%s'
              '</relation>' % (k, groups, "|".join(rng.choices(texts, k=groups)))
              for k in range(n)]
    lines += ['</relations>', '<constraints nbConstraints="0"/>', '</instance>']
    return "\n".join(lines)


def parse_excess(document) -> int:
    """The peak traced memory inside `parse_instance`, minus what the model
    it returns holds."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model_ = parse_instance(document)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model_.relations) > 0 and held > base
    return peak - held


def test_the_parse_peak_does_not_grow_with_the_relations():
    # reading one list holds its groups as strings, many times its text, so
    # the bound is on how the excess grows: 56 more relations of 32 kB text
    # each may add less than one relation's text
    text = len(re.search(r">([^<]*)</relation>", relations_xml(1)).group(1))
    few, many = parse_excess(relations_xml(8)), parse_excess(relations_xml(64))
    assert many - few < text


def parse_outcome(document):
    try:
        return parse_instance(document)
    except (FormatError, StructuralError, XmlError, UnsupportedExtensionError) as e:
        return type(e), str(e)


def file_outcomes(tmp_path, documents):
    """The outcome of parsing each of the byte `documents` from a file."""
    outcomes = []
    for k, document in enumerate(documents):
        path = tmp_path / ("%d.xml" % k)
        path.write_bytes(document)
        with open(path, "rb") as handle:
            outcomes.append(parse_outcome(model.file_document(handle)))
    return outcomes


@pytest.mark.parametrize("size", [1, 7, 100, 4096])
def test_a_document_read_in_slices_of_any_size_parses_alike(monkeypatch, tmp_path, size):
    texts = [TINY_ALLDIFF, FIVE_SECTIONS, BAD_LIST, relations_xml(3, 50)]
    texts += [path.read_text() for path in sorted(CORPUS.glob("*.xml"))]
    encoded = [text.encode() for text in texts]
    documents = texts + encoded
    whole = list(map(parse_outcome, documents))
    monkeypatch.setattr(model, "XML_SLICE", size)
    assert list(map(parse_outcome, documents)) == whole
    assert file_outcomes(tmp_path, encoded) == whole[len(texts):]


def boundary_xml(size, encoding):
    """A document of `size` bytes in `encoding`, UTF-8 or UTF-16, padded
    with a comment."""
    xml = '<?xml version="1.0" encoding="%s"?>\n<!--%%s-->%s' % (encoding, TINY_ALLDIFF)
    unit = 2 if encoding == "UTF-16" else 1
    xml %= "x" * ((size - len((xml % "").encode(encoding))) // unit)
    assert len(xml.encode(encoding)) == size
    return xml


@pytest.mark.parametrize("size, encoding", [
    (XML_SLICE - 1, "UTF-8"), (XML_SLICE, "UTF-8"), (XML_SLICE + 1, "UTF-8"),
    # a UTF-16 document has an even number of bytes
    (XML_SLICE - 2, "UTF-16"), (XML_SLICE, "UTF-16"), (XML_SLICE + 2, "UTF-16"),
])
def test_a_document_on_the_one_slice_boundary_parses_alike(tmp_path, size, encoding):
    xml = boundary_xml(size, encoding)
    document = xml.encode(encoding)
    outcomes = [parse_outcome(xml), parse_outcome(document)]
    outcomes += file_outcomes(tmp_path, [document])
    assert outcomes == [parse_instance(TINY_ALLDIFF)] * 3


class LaggingParser(ET.XMLPullParser):
    """A pull parser that hands expat each slice only when the next one
    comes, and the last one when it is closed, as expat 2.6 and later may
    do with a token split across slices: the last events come from
    `close()`."""

    held = None

    def feed(self, data):
        if self.held is not None:
            super().feed(self.held)
        self.held = data

    def close(self):
        if self.held is not None:
            super().feed(self.held)
        return super().close()


@pytest.mark.parametrize("size", [1, 7, 100])
def test_events_held_back_until_close_are_read(monkeypatch, size):
    documents = [TINY_ALLDIFF, TWO_RELATIONS, BAD_LIST, relations_xml(3, 50)]
    documents += [document.encode() for document in documents]
    whole = list(map(parse_outcome, documents))
    monkeypatch.setattr(model, "XML_SLICE", size)
    monkeypatch.setattr(ET, "XMLPullParser", LaggingParser)
    assert list(map(parse_outcome, documents)) == whole


def test_each_relation_is_read_once(monkeypatch):
    texts = []
    real = model.parse_tuples
    monkeypatch.setattr(model, "parse_tuples",
                        lambda text, *args: texts.append(text) or real(text, *args))
    parsed = parse_instance(TWO_RELATIONS)
    assert texts == ["0 1|1 0", "0 1|1 0"]
    assert [r.tuples for r in parsed.relations] == [[(0, 1), (1, 0)]] * 2


def test_malformed_xml_after_a_bad_list_is_the_xml_error():
    xml = BAD_LIST.replace("</constraints>", "</constraint>")
    with pytest.raises(XmlError, match="mismatched tag"):
        parse_instance(xml)
    with pytest.raises(FormatError, match=r"^relation 'r0': tuple 1: bad integer token 'x'$"):
        parse_instance(BAD_LIST)


def test_a_bad_domain_before_a_bad_list_is_the_domain_error():
    xml = BAD_LIST.replace('nbValues="2">0 1<', 'nbValues="2">0 y<', 1)
    with pytest.raises(FormatError, match=r"^domain 'd0': bad integer token 'y'$"):
        parse_instance(xml)


def test_a_duplicate_relation_name_holding_a_bad_list_is_the_duplicate_name():
    xml = TWO_RELATIONS.replace('name="r1"', 'name="r0"').replace(
        ">0 1|1 0</relation>\n</relations>", ">0 1|1 x</relation>\n</relations>")
    assert xml.count("1 x") == 1 and xml.count('name="r0"') == 2
    with pytest.raises(StructuralError, match=r"^duplicate relation name 'r0'$"):
        parse_instance(xml)


@pytest.mark.parametrize("arity, message", [
    (None, "<relation> is missing mandatory attribute 'arity'"),
    ("two", "attribute arity='two' is not an integer"),
    ("-1", "relation 'r0' has negative arity -1"),
])
def test_a_missing_or_malformed_arity_is_a_structural_error(arity, message):
    replacement = "" if arity is None else 'arity="%s"' % arity
    xml = BAD_LIST.replace('arity="2"', replacement, 1)
    with pytest.raises(StructuralError) as info:
        parse_instance(xml)
    assert str(info.value) == message


@pytest.mark.parametrize("section", ["presentation", "domains", "variables", "relations",
                                     "predicates", "constraints"])
def test_a_repeated_section_is_an_error(section):
    second = {"presentation": '<presentation format="XCSP 2.1"/>'}.get(
        section, '<%s nb%s="0"/>' % (section, section[:-1].capitalize() + "s"))
    xml = FIVE_SECTIONS.replace("</instance>", second + "</instance>")
    with pytest.raises(StructuralError, match="^duplicate <%s> section$" % section):
        parse_instance(xml)


@pytest.mark.parametrize("old, new", [
    ("<parameters>", "<parameters>int Z</parameters><parameters>"),
    ("<expression>", "<expression/><expression>"),
    ("<functional>", "<functional>eq(A,B)</functional><functional>"),
])
def test_a_repeated_part_of_a_predicate_is_an_error(old, new):
    xml = FIVE_SECTIONS.replace(old, new, 1)
    with pytest.raises(StructuralError,
                       match=r"^duplicate %s in predicate 'p0'$" % old):
        parse_instance(xml)


def test_a_repeated_constraint_parameters_is_an_error():
    xml = instance_xml([("X", [0, 1])], [{"name": "c0", "scope": ["X"],
                                         "reference": "global:alldifferent",
                                         "parameters": "[ X ]"}])
    xml = xml.replace("</parameters>", "</parameters><parameters/>")
    with pytest.raises(StructuralError,
                       match=r"^duplicate <parameters> in constraint 'c0'$"):
        parse_instance(xml)


@pytest.mark.parametrize("old, new, message", [
    (">0 1|1 0</relation>", ">0 1<x/>|1 0</relation>",
     "relation 'r0': unexpected element <x> inside its text"),
    ('nbValues="2">0 1<', 'nbValues="2">0<x/> 1<',
     "domain 'd0': unexpected element <x> inside its text"),
    ("<parameters>int A", "<parameters><y/>int A",
     "predicate 'p0': unexpected element <y> inside its text"),
    ("<functional>ne(A,B)", "<functional>ne(A,<z/>B)",
     "predicate 'p0': unexpected element <z> inside its text"),
])
def test_an_element_inside_a_text_is_an_error(old, new, message):
    xml = FIVE_SECTIONS.replace(old, new, 1)
    assert xml != FIVE_SECTIONS
    with pytest.raises(StructuralError) as info:
        parse_instance(xml)
    assert str(info.value) == message


@pytest.mark.parametrize("parent, element, tag", [
    ("instance", "<notes>x</notes>", "notes"),
    ("domains", "<domian/>", "domian"),
    ("variables", "<varible/>", "varible"),
    ("relations", "<relaton/>", "relaton"),
    ("predicates", "<predicat/>", "predicat"),
    ("constraints", '<constrant name="c9" arity="0" scope="" reference="r0"/>',
     "constrant"),
])
def test_an_unknown_element_warns(parent, element, tag):
    end = "</%s>" % parent
    parsed = parse_instance(FIVE_SECTIONS.replace(end, element + end, 1))
    assert parsed.diagnostics == ["warning: ignoring unknown element <%s> in <%s>"
                                  % (tag, parent)]
    assert parsed == parse_instance(FIVE_SECTIONS)


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


def product_of(coeff, term):
    return Apply("mul", (Literal(coeff), term))


def counted(vars_, values, lo, hi, count_var):
    """The dict a counting global builds for one counted group."""
    return {"vars": vars_, "values": values, "lo": lo, "hi": hi,
            "count_var": count_var}


# (global, <parameters> body or None for none, the sig it parses into or
# None when it is rejected); the scope is X Y Z W, and no body, an empty one
# or `[ ]` stands for it where the list is optional
GLOBAL_PARAMETER_CASES = [
    ("alldifferent", None, [0, 1, 2, 3]),
    ("alldifferent", "", [0, 1, 2, 3]),
    ("alldifferent", "[ ]", [0, 1, 2, 3]),
    ("alldifferent", "[ X Z ]", [0, 2]),
    ("alldifferent", "X Y", None),
    ("alldifferent", "[ X ] [ Y ]", None),
    ("alldifferent", "[ X 1 ]", None),
    ("not_all_equal", None, [0, 1, 2, 3]),
    ("not_all_equal", "", [0, 1, 2, 3]),
    ("not_all_equal", "[ ]", [0, 1, 2, 3]),
    ("not_all_equal", "[ W Y ]", [3, 1]),
    ("not_all_equal", "[ [ X ] ]", None),
    ("among", "2 [ X Y ] [ 1 2 ]", [counted([0, 1], [1, 2], 2, 2, None)]),
    ("among", "Z [ X Y ] [ 1 ]", [counted([0, 1], [1], None, None, 2)]),
    ("among", "-1 [ ] [ ]", [counted([], [], -1, -1, None)]),
    ("among", None, None),
    ("among", "[ X Y ] [ 1 ]", None),
    ("among", "2 [ X 1 ] [ 1 ]", None),
    ("among", "2 [ X ] [ Y ]", None),
    ("among", "[ 1 ] [ X ] [ 1 ]", None),
    ("atleast", "1 [ X Y ] 2", [counted([0, 1], [2], 1, None, None)]),
    ("atleast", "1 [ X Y ]", None),
    ("atleast", "Z [ X Y ] 2", None),
    ("atleast", "1 [ X Y ] Z", None),
    ("atmost", "1 [ X Y ] 2", [counted([0, 1], [2], None, 1, None)]),
    ("atmost", "-1 [ ] 0", [counted([], [0], None, -1, None)]),
    ("atmost", "1 [ X Y ] 2 3", None),
    ("atmost", "1 [ X 2 ] 2", None),
    ("atmost", "1 [ X Y ] [ 2 ]", None),
    ("element", "X [ Y 3 Z ] W", {"index": X, "table": [Y, 3, Z], "value": W}),
    ("element", "1 [ 2 ] -3", {"index": 1, "table": [2], "value": -3}),
    ("element", "X [ ] W", None),
    ("element", "X [ Y ]", None),
    ("element", "[ X ] [ Y ] W", None),
    ("element", "X [ [ Y ] ] W", None),
    ("element", "X [ Y ] le", None),
    ("global_cardinality", "[ X Y ] [ { 1 1 } { 2 Z } ]",
     [counted([0, 1], [1], 1, 1, None),
      counted([0, 1], [2], None, None, 2)]),
    ("global_cardinality", "[ X Y ] [ ]", []),
    ("global_cardinality", "[ X Y ]", None),
    ("global_cardinality", "[ X Y ] [ { Z 1 } ]", None),
    ("global_cardinality", "[ X Y ] [ { 1 1 2 } ]", None),
    ("global_cardinality", "[ X 1 ] [ { 1 1 } ]", None),
    ("cumulative", "[ { X 2 1 } { 3 1 2 } ] 2",
     {"tasks": [(X, 2, 1), (3, 1, 2)], "capacity": 2}),
    ("cumulative", "[ { X 0 0 } ] -1", {"tasks": [(X, 0, 0)], "capacity": -1}),
    ("cumulative", "[ ] 0", {"tasks": [], "capacity": 0}),
    ("cumulative", "[ { X -1 1 } ] 2", None),
    ("cumulative", "[ { X 1 -1 } ] 2", None),
    ("cumulative", "[ { X Y 1 } ] 2", None),
    ("cumulative", "[ { X 1 1 } ] Z", None),
    ("cumulative", "[ { X 1 1 } ]", None),
    ("cumulative", "[ { X 1 } ] 2", None),
    ("disjunctive", "[ { X 2 } { 1 0 } ]", [(X, 2), (1, 0)]),
    ("disjunctive", "[ ]", []),
    ("disjunctive", "[ { X -1 } ]", None),
    ("disjunctive", "[ { X Y } ]", None),
    ("disjunctive", "[ { X 1 } ] 2", None),
    ("disjunctive", None, None),
    ("diffn", "[ { X Y 1 2 } { 0 0 Z W } ]", [(X, Y, 1, 2), (0, 0, Z, W)]),
    ("diffn", "[ { X Y 1 } ]", None),
    ("diffn", "[ { X Y [ 1 ] 2 } ]", None),
    ("diffn", "[ { X Y 1 2 } ] [ ]", None),
    ("lex_less", "[ X 1 ] [ Y Z ]", {"xs": [X, 1], "ys": [Y, Z]}),
    ("lex_less", "[ X ] [ Y Z ]", None),
    ("lex_less", "[ ] [ ]", None),
    ("lex_less", "[ X ]", None),
    ("lex_lesseq", "[ X Y ] [ 0 W ]", {"xs": [X, Y], "ys": [0, W]}),
    ("lex_lesseq", "[ X Y ] [ Z ]", None),
    ("lex_lesseq", "[ X ] [ { Y } ]", None),
    # a weightedSum builds its predicate, the sum split in halves
    ("weightedsum", "[ { 1 X } { -2 3 } ] <le/> 4",
     Apply("le", (Apply("add", (product_of(1, X), product_of(-2, Literal(3)))),
                  Literal(4)))),
    ("weightedsum", "[ { 1 X } { 1 Y } { -1 Z } ] ge 0",
     Apply("ge", (Apply("add", (product_of(1, X), Apply("add", (
         product_of(1, Y), product_of(-1, Z))))), Literal(0)))),
    ("weightedsum", "[ ] ge -1", Apply("ge", (Literal(0), Literal(-1)))),
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
