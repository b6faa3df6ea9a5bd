"""XCSP 2.1 instance model: XML parsing and resolution, which also parses
each global's parameters and grounds each predicate.

Supports the fully-tagged XML representation with abridged text content
inside tags (``1..2`` integer sets, ``1 2|2 1`` tuple lists, functional
predicate expressions). WCSP and QCSP extensions are detected and rejected.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from . import expr as ex
from .errors import (
    EvalError,
    FormatError,
    ResolutionError,
    StructuralError,
    UnsupportedExtensionError,
    XmlError,
    clip,
    integer_error,
    well_formed_integer,
)
from .intset import IntegerSet

# relational keywords that may appear as bare tokens in <parameters>
RELOPS = ("eq", "ne", "ge", "gt", "le", "lt")

# attributes we understand, per element; anything else draws a diagnostic
_KNOWN_ATTRS = {
    "instance": set(),
    "presentation": {"name", "maxConstraintArity", "minViolatedConstraints",
                     "nbSolutions", "solution", "format", "type"},
    "domains": {"nbDomains"},
    "domain": {"name", "nbValues"},
    "variables": {"nbVariables"},
    "variable": {"name", "domain"},
    "relations": {"nbRelations"},
    "relation": {"name", "arity", "nbTuples", "semantics"},
    "predicates": {"nbPredicates"},
    "predicate": {"name"},
    "constraints": {"nbConstraints"},
    "constraint": {"name", "arity", "scope", "reference"},
    "parameters": set(),
    "expression": set(),
    "functional": set(),
}

# the most entries (group texts and distinct tuples) one document's tuple
# memo takes; a list it has no room for is read by the one-pass bulk path
TUPLE_MEMO = 1 << 16

# Nested parameter tokens: int literal, bare name, or a bracketed group.
ParamToken = Union[int, str, List["ParamToken"]]


# -- data model ---------------------------------------------------------------


@dataclass
class DomainDef:
    name: str
    values: IntegerSet


@dataclass
class VariableDef:
    name: str
    domain_ref: str


@dataclass
class RelationDef:
    name: str
    arity: int
    semantics: str  # "supports" | "conflicts"
    tuples: List[Tuple[int, ...]]


@dataclass
class PredicateDef:
    name: str
    formal_params: List[str]
    body: ex.Expr


@dataclass
class ConstraintDef:
    name: str
    arity: int
    scope: List[str]
    reference: str
    parameters: Optional[List[ParamToken]] = None


@dataclass
class InstanceModel:
    domains: List[DomainDef] = field(default_factory=list)
    variables: List[VariableDef] = field(default_factory=list)
    relations: List[RelationDef] = field(default_factory=list)
    predicates: List[PredicateDef] = field(default_factory=list)
    constraints: List[ConstraintDef] = field(default_factory=list)
    diagnostics: List[str] = field(default_factory=list, compare=False)


@dataclass
class RelationRef:
    """One per relation, shared by the constraints that use it."""
    relation: RelationDef
    # the oracle's set of the tuples, built at its first check
    members: Optional[FrozenSet[Tuple[int, ...]]] = field(default=None, compare=False)


@dataclass
class PredicateRef:
    """One per constraint: the predicate ground on its parameters."""
    predicate: PredicateDef
    body: Optional[ex.Expr] = None
    refs: List[int] = field(default_factory=list)  # the variables `body` reads
    # the oracle's verdicts, keyed on the values of `refs`
    verdicts: Dict[Tuple[int, ...], bool] = field(default_factory=dict, compare=False)


@dataclass
class GlobalRef:
    name: str
    sig: object = None  # the parsed parameters, as GLOBAL_PARSERS returns them


ConstraintRef = Union[RelationRef, PredicateRef, GlobalRef]


@dataclass
class ResolvedConstraint:
    name: str
    scope: List[int]
    ref: ConstraintRef
    parameters: Optional[List[ParamToken]] = None  # names resolved to VarRef


@dataclass
class ResolvedInstance:
    names: List[str]
    domains: List[IntegerSet]
    constraints: List[ResolvedConstraint]
    diagnostics: List[str] = field(default_factory=list, compare=False)


# -- abridged text content ----------------------------------------------------


def parse_integer_set(text: str) -> IntegerSet:
    """Parse whitespace-separated integers and ``a..b`` ranges into canonical
    form."""
    intervals = []
    for token in text.split():
        if ".." in token:
            lo_text, _, hi_text = token.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                if well_formed_integer(lo_text) and well_formed_integer(hi_text):
                    raise FormatError("integer in range %s is too large"
                                      % clip(token)) from None
                raise FormatError("bad range token %s" % clip(token)) from None
            if lo > hi:
                raise FormatError("empty range %s (lower bound exceeds upper)"
                                  % clip(token))
            intervals.append((lo, hi))
        else:
            try:
                v = int(token)
            except ValueError:
                raise FormatError(integer_error(token)) from None
            intervals.append((v, v))
    return IntegerSet.from_intervals(intervals)


def parse_tuples(text: str, arity: int,
                 seen: Optional[dict] = None) -> List[Tuple[int, ...]]:
    """Parse the abridged ``|``-separated tuple-list notation, in document
    order, duplicates preserved.

    `seen` is a memo shared by the lists of one document. It maps each
    group's raw text to its tuple, and each tuple to itself, so every
    distinct group text is read once and equal tuples are one object. A
    list is read through it only when it has room for the whole list, at
    two entries per group; any other list is read without it."""
    if not text.strip():
        return []
    groups = text.count("|") + 1
    if seen is not None and len(seen) + 2 * groups <= TUPLE_MEMO:
        tuples: List[Tuple[int, ...]] = []
        for i, group in enumerate(text.split("|")):
            t = seen.get(group)
            if t is None or len(t) != arity:
                t = _parse_group(group, i, arity)
                t = seen[group] = seen.setdefault(t, t)
            tuples.append(t)
        return tuples
    # one pass when the shape is exact: `groups` groups of `arity` tokens,
    # a separator at every (arity+1)-th position
    tokens = text.replace("|", " | ").split()
    if (arity > 0 and len(tokens) == groups * (arity + 1) - 1
            and tokens[arity::arity + 1].count("|") == groups - 1):
        del tokens[arity::arity + 1]
        try:
            return list(zip(*[map(int, tokens)] * arity))
        except ValueError:
            pass
    # the per-tuple loop words every error
    return [_parse_group(group, i, arity) for i, group in enumerate(text.split("|"))]


def _parse_group(group: str, i: int, arity: int) -> Tuple[int, ...]:
    """One tuple of a list, the `i`-th; words every error."""
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
    return tuple(values)


def _tokenize_params(text: str) -> List[ParamToken]:
    """Tokenize a <parameters> body into a nested token list; ``[ ]`` and
    ``{ }`` both delimit groups, at most `expr.MAX_DEPTH` deep."""
    text = text.replace("[", " [ ").replace("]", " ] ")
    text = text.replace("{", " { ").replace("}", " } ")
    stack: List[List[ParamToken]] = [[]]
    for tok in text.split():
        if tok in ("[", "{"):
            if len(stack) > ex.MAX_DEPTH:
                raise FormatError("parameters nest deeper than %d" % ex.MAX_DEPTH)
            group: List[ParamToken] = []
            stack[-1].append(group)
            stack.append(group)
        elif tok in ("]", "}"):
            if len(stack) == 1:
                raise FormatError("unbalanced bracket in parameters")
            stack.pop()
        else:
            try:
                stack[-1].append(int(tok))
            except ValueError:
                if well_formed_integer(tok):
                    raise FormatError(integer_error(tok)) from None
                stack[-1].append(tok)
    if len(stack) != 1:
        raise FormatError("unbalanced bracket in parameters")
    return stack[0]


# -- XML parsing --------------------------------------------------------------


def _local(tag: str) -> str:
    return tag.rpartition("}")[2]


def _check_attrs(el, diagnostics: List[str]):
    known = _KNOWN_ATTRS.get(_local(el.tag))
    if known is None:
        return
    for attr in el.attrib:
        if attr not in known:
            diagnostics.append(
                "warning: ignoring unknown attribute %s on <%s>" % (clip(attr), _local(el.tag))
            )


def _require_attr(el, attr: str) -> str:
    value = el.get(attr)
    if value is None:
        raise StructuralError("<%s> is missing mandatory attribute %r" % (_local(el.tag), attr))
    return value


def _int_attr(el, attr: str, required: bool) -> Optional[int]:
    value = _require_attr(el, attr) if required else el.get(attr)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        problem = "is too large" if well_formed_integer(value) else "is not an integer"
        raise StructuralError("attribute %s=%s %s" % (attr, clip(value), problem)) from None


def _child(root, tag: str):
    for el in root:
        if _local(el.tag) == tag:
            return el
    return None


def _parameters_text(el) -> str:
    # mixed content: embedded elements such as <le/> become bare tokens
    parts = [el.text or ""]
    for child in el:
        parts.append(" %s " % _local(child.tag))
        parts.append(child.tail or "")
    return "".join(parts)


def _reject_extensions(root):
    presentation = _child(root, "presentation")
    if presentation is not None:
        kind = presentation.get("type")
        if kind is not None and kind.upper() != "CSP":
            raise UnsupportedExtensionError(
                "unsupported extension: instance type %s (only CSP is supported)" % clip(kind)
            )
    for el in root.iter():
        tag = _local(el.tag)
        if tag in ("weightedConstraints", "quantification", "quantifiers"):
            raise UnsupportedExtensionError(
                "unsupported extension: <%s> (WCSP/QCSP content is not supported)" % tag
            )
        if tag == "relation" and el.get("semantics") == "soft":
            raise UnsupportedExtensionError(
                "unsupported extension: soft relation %s" % clip(el.get("name", ""))
            )


def _items(root, diagnostics: List[str], item: str, mandatory: bool = False,
           count_required: bool = False):
    """Yield each <item> of `root`'s section of <item>s with its name, after
    checking its attributes and that the name is unique; once all are read,
    warn if the section's declared count is off."""
    section = _child(root, item + "s")
    if section is None:
        if mandatory:
            raise StructuralError("missing mandatory <%ss> section" % item)
        return
    _check_attrs(section, diagnostics)
    count_attr = "nb%ss" % item.capitalize()
    declared = _int_attr(section, count_attr, required=count_required)
    names: set = set()
    for el in section:
        if _local(el.tag) != item:
            continue
        _check_attrs(el, diagnostics)
        name = _require_attr(el, "name")
        if name in names:
            raise StructuralError("duplicate %s name %s" % (item, clip(name)))
        names.add(name)
        yield el, name
    if declared is not None and declared != len(names):
        diagnostics.append("warning: %s=%d but %d %s(s) declared"
                           % (count_attr, declared, len(names), item))


def parse_instance(document) -> InstanceModel:
    """Parse an XCSP 2.1 document (bytes or str) into an InstanceModel.

    Bytes go to expat undecoded, so that it honours the declared encoding.
    Raises XmlError for malformed XML or an unknown declared encoding,
    StructuralError for schema violations, UnsupportedExtensionError for
    WCSP/QCSP content. Count drift (nb* attributes vs. actual content) only
    adds diagnostics.
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as e:
        line, column = e.position
        raise XmlError("malformed XML: %s" % e.msg if hasattr(e, "msg") else str(e),
                       line=line, column=column) from None
    except LookupError as e:
        raise XmlError("malformed XML: %s" % e) from None
    if _local(root.tag) != "instance":
        raise StructuralError("root element must be <instance>, found <%s>" % _local(root.tag))
    _reject_extensions(root)

    model = InstanceModel()
    diag = model.diagnostics
    _check_attrs(root, diag)
    presentation = _child(root, "presentation")
    if presentation is not None:
        _check_attrs(presentation, diag)

    for el, name in _items(root, diag, "domain", count_required=True):
        count = _int_attr(el, "nbValues", required=True)
        try:
            values = parse_integer_set(el.text or "")
        except FormatError as e:
            raise FormatError("domain %s: %s" % (clip(name), e)) from None
        if values.size() != count:
            diag.append(
                "warning: domain %s declares nbValues=%d but holds %d value(s)"
                % (clip(name), count, values.size())
            )
        model.domains.append(DomainDef(name, values))

    for el, name in _items(root, diag, "variable", mandatory=True, count_required=True):
        model.variables.append(VariableDef(name, _require_attr(el, "domain")))

    tuple_memo: dict = {}
    for el, name in _items(root, diag, "relation"):
        arity = _int_attr(el, "arity", required=True)
        semantics = _require_attr(el, "semantics")
        if semantics not in ("supports", "conflicts"):
            raise StructuralError(
                "relation %s has unknown semantics %s" % (clip(name), clip(semantics))
            )
        try:
            tuples = parse_tuples(el.text or "", arity, tuple_memo)
        except FormatError as e:
            raise FormatError("relation %s: %s" % (clip(name), e)) from None
        declared = _int_attr(el, "nbTuples", required=False)
        if declared is not None and declared != len(tuples):
            diag.append(
                "warning: relation %s declares nbTuples=%d but holds %d"
                % (clip(name), declared, len(tuples))
            )
        model.relations.append(RelationDef(name, arity, semantics, tuples))

    for el, name in _items(root, diag, "predicate"):
        params_el = _child(el, "parameters")
        if params_el is None:
            raise StructuralError("predicate %s is missing <parameters>" % clip(name))
        formals = _parse_formal_params(name, params_el.text or "")
        expression_el = _child(el, "expression")
        functional_el = _child(expression_el, "functional") if expression_el is not None else None
        if functional_el is None:
            raise StructuralError(
                "predicate %s is missing <expression><functional>" % clip(name)
            )
        try:
            body = ex.parse_functional(functional_el.text or "", formals)
        except FormatError as e:
            raise FormatError("predicate %s: %s" % (clip(name), e)) from None
        model.predicates.append(PredicateDef(name, formals, body))

    for el, name in _items(root, diag, "constraint", mandatory=True):
        arity = _int_attr(el, "arity", required=True)
        scope = _require_attr(el, "scope").split()
        if len(scope) != arity:
            raise StructuralError(
                "constraint %s: scope has %d variable(s) but arity=%d"
                % (clip(name), len(scope), arity)
            )
        reference = _require_attr(el, "reference")
        params_el = _child(el, "parameters")
        parameters = None
        if params_el is not None:
            try:
                parameters = _tokenize_params(_parameters_text(params_el))
            except FormatError as e:
                raise FormatError("constraint %s: %s" % (clip(name), e)) from None
        model.constraints.append(ConstraintDef(name, arity, scope, reference, parameters))

    return model


def _parse_formal_params(pred_name: str, text: str) -> List[str]:
    tokens = text.split()
    if len(tokens) % 2 != 0:
        raise StructuralError("predicate %s: malformed formal parameter list" % clip(pred_name))
    formals: Dict[str, None] = {}
    for type_name, param in zip(tokens[::2], tokens[1::2]):
        if type_name != "int":
            raise StructuralError(
                "predicate %s: unsupported parameter type %s" % (clip(pred_name), clip(type_name))
            )
        if param in formals:
            raise StructuralError(
                "predicate %s: duplicate formal parameter %s" % (clip(pred_name), clip(param))
            )
        formals[param] = None
    return list(formals)


# -- parameter shapes ---------------------------------------------------------
#
# Accepted <parameters> grammar per global (vars may be names, values ints;
# ``{ }`` and ``[ ]`` both group):
#
#     alldifferent        (none) | [x1 ... xn]
#     among               N [x1 ... xn] [v1 ... vk]        (N int or variable)
#     atleast             k [x1 ... xn] v
#     atmost              k [x1 ... xn] v
#     element             i [t1 ... tn] v                  (t, v var or int)
#     global_cardinality  [x1 ... xn] [ {v1 o1} ... ]      (o int or variable)
#     cumulative          [ {o d h} ... ] C                (o var or int; d, h, C ints)
#     disjunctive         [ {o d} ... ]
#     diffn               [ {x y w h} ... ]                (2-dimensional boxes)
#     lex_less/lex_lesseq [x1 ... xn] [y1 ... yn]
#     not_all_equal       (none) | [x1 ... xn]
#     weightedSum         [ {c1 x1} ... ] <relop/> K


# a variable or a constant, as resolution left the token: ex.VarRef or int
Term = Union[ex.VarRef, int]


def term_expr(term: Term) -> ex.Expr:
    return term if isinstance(term, ex.VarRef) else ex.IntLiteral(term)


def _fail(c: ResolvedConstraint, message: str, signature: str):
    if isinstance(c.ref, GlobalRef):
        reference = "global:" + c.ref.name
    else:
        reference = clip(c.ref.predicate.name)
    raise ResolutionError(
        "constraint %s (%s): %s; expected parameters: %s"
        % (clip(c.name), reference, message, signature)
    )


def _is_term(tok: ParamToken) -> bool:
    return isinstance(tok, (ex.VarRef, int))


def _var_list(tok: ParamToken) -> Optional[List[int]]:
    if not isinstance(tok, list) or not all(isinstance(item, ex.VarRef) for item in tok):
        return None
    return [item.index for item in tok]


def _int_list(tok: ParamToken) -> Optional[List[int]]:
    if not isinstance(tok, list) or not all(isinstance(i, int) for i in tok):
        return None
    return tok


def _term_list(tok: ParamToken) -> Optional[List[Term]]:
    if not isinstance(tok, list) or not all(_is_term(item) for item in tok):
        return None
    return tok


def _group_list(tok: ParamToken, width: int) -> Optional[List[List[ParamToken]]]:
    if not isinstance(tok, list) or not all(
            isinstance(item, list) and len(item) == width for item in tok):
        return None
    return tok


@dataclass
class CountingSig:
    vars: List[int]
    values: List[int]
    lo: Optional[int]
    hi: Optional[int]
    count_var: Optional[int]


@dataclass
class ElementSig:
    index: Term
    table: List[Term]
    value: Term


@dataclass
class CumulativeSig:
    tasks: List[Tuple[Term, int, int]]  # (origin, duration, height)
    capacity: int


@dataclass
class DisjunctiveSig:
    tasks: List[Tuple[Term, int]]  # (origin, duration)


@dataclass
class DiffnSig:
    boxes: List[Tuple[Term, Term, Term, Term]]  # (x, y, width, height)


@dataclass
class LexSig:
    xs: List[Term]
    ys: List[Term]


@dataclass
class WeightedSumSig:
    terms: List[Tuple[int, Term]]  # (coefficient, variable-or-constant)
    op: str
    rhs: int


def scope_vars(c: ResolvedConstraint) -> List[int]:
    sig = "(optional) [x1 ... xn]"
    p = c.parameters
    if p is None or p == []:
        return list(c.scope)
    if len(p) == 1:
        vs = _var_list(p[0])
        if vs is not None:
            return vs
    _fail(c, "malformed parameters", sig)


def _exactly(vars_: List[int], values: List[int], count: Term) -> CountingSig:
    """Exactly `count` of `vars_` take a value in `values`."""
    if isinstance(count, int):
        return CountingSig(vars_, values, count, count, None)
    return CountingSig(vars_, values, None, None, count.index)


def parse_counting_params(c: ResolvedConstraint) -> List[CountingSig]:
    name = c.ref.name
    p = c.parameters
    if name == "among":
        sig = "N [x1 ... xn] [v1 ... vk]"
        if p is None or len(p) != 3:
            _fail(c, "among takes 3 parameters", sig)
        vars_ = _var_list(p[1])
        values = _int_list(p[2])
        if vars_ is None or values is None:
            _fail(c, "malformed variable or value list", sig)
        if not _is_term(p[0]):
            _fail(c, "count must be an integer or a variable", sig)
        return [_exactly(vars_, values, p[0])]
    # atleast / atmost: k [x...] v
    sig = "k [x1 ... xn] v"
    if p is None or len(p) != 3 or not isinstance(p[0], int) or not isinstance(p[2], int):
        _fail(c, "%s takes: count, variable list, value" % name, sig)
    vars_ = _var_list(p[1])
    if vars_ is None:
        _fail(c, "malformed variable list", sig)
    if name == "atleast":
        return [CountingSig(vars_, [p[2]], p[0], None, None)]
    return [CountingSig(vars_, [p[2]], None, p[0], None)]


def parse_element_params(c: ResolvedConstraint) -> ElementSig:
    sig = "i [t1 ... tn] v"
    p = c.parameters
    if p is None or len(p) != 3:
        _fail(c, "element takes: index, table, value", sig)
    index, table, value = p
    if not (_is_term(index) and _term_list(table) and _is_term(value)):
        _fail(c, "malformed index, table, or value", sig)
    return ElementSig(index, table, value)


def parse_gcc_params(c: ResolvedConstraint) -> List[CountingSig]:
    """One counting signature per `{value occurrences}` pair."""
    sig = "[x1 ... xn] [ {v1 o1} {v2 o2} ... ]"
    p = c.parameters
    if p is None or len(p) != 2:
        _fail(c, "global_cardinality takes: variable list, value/count pairs", sig)
    vars_ = _var_list(p[0])
    pairs = _group_list(p[1], 2)
    if vars_ is None or pairs is None:
        _fail(c, "malformed variable list or pairs", sig)
    if not all(isinstance(value, int) and _is_term(occ) for value, occ in pairs):
        _fail(c, "each pair is {value occurrences}", sig)
    return [_exactly(vars_, [value], occ) for value, occ in pairs]


def parse_cumulative_params(c: ResolvedConstraint) -> CumulativeSig:
    sig = "[ {origin duration height} ... ] capacity"
    p = c.parameters
    if p is None or len(p) != 2 or not isinstance(p[1], int):
        _fail(c, "cumulative takes: task list, capacity", sig)
    groups = _group_list(p[0], 3)
    if groups is None:
        _fail(c, "each task is {origin duration height}", sig)
    tasks = []
    for origin, duration, height in groups:
        if not _is_term(origin) or not isinstance(duration, int) or not isinstance(height, int):
            _fail(c, "task fields must be origin (var/int), duration int, height int", sig)
        if duration < 0 or height < 0:
            _fail(c, "duration and height must be nonnegative", sig)
        tasks.append((origin, duration, height))
    return CumulativeSig(tasks, p[1])


def parse_disjunctive_params(c: ResolvedConstraint) -> DisjunctiveSig:
    sig = "[ {origin duration} ... ]"
    p = c.parameters
    if p is None or len(p) != 1:
        _fail(c, "disjunctive takes a task list", sig)
    groups = _group_list(p[0], 2)
    if groups is None:
        _fail(c, "each task is {origin duration}", sig)
    if not all(_is_term(origin) and isinstance(duration, int) and duration >= 0
               for origin, duration in groups):
        _fail(c, "task fields must be origin (var/int) and nonnegative duration", sig)
    return DisjunctiveSig([tuple(group) for group in groups])


def parse_diffn_params(c: ResolvedConstraint) -> DiffnSig:
    sig = "[ {x y width height} ... ]"
    p = c.parameters
    if p is None or len(p) != 1:
        _fail(c, "diffn takes a box list", sig)
    groups = _group_list(p[0], 4)
    if groups is None:
        _fail(c, "each box is {x y width height}", sig)
    if not all(_term_list(group) for group in groups):
        _fail(c, "box fields must be variables or integers", sig)
    return DiffnSig([tuple(group) for group in groups])


def parse_lex_params(c: ResolvedConstraint) -> LexSig:
    sig = "[x1 ... xn] [y1 ... yn]"
    p = c.parameters
    if p is None or len(p) != 2:
        _fail(c, "lex takes two vectors", sig)
    xs = _term_list(p[0])
    ys = _term_list(p[1])
    if xs is None or ys is None or len(xs) != len(ys) or not xs:
        _fail(c, "vectors must be nonempty and of equal length", sig)
    return LexSig(xs, ys)


def parse_weighted_sum_params(c: ResolvedConstraint) -> WeightedSumSig:
    sig = "[ {c1 x1} {c2 x2} ... ] <relop/> K"
    p = c.parameters
    if p is None or len(p) != 3 or p[1] not in RELOPS or not isinstance(p[2], int):
        _fail(c, "weightedSum takes: weighted terms, relational operator, constant", sig)
    groups = _group_list(p[0], 2)
    if groups is None:
        _fail(c, "each term is {coefficient variable}", sig)
    if not all(isinstance(coeff, int) and _is_term(term) for coeff, term in groups):
        _fail(c, "each term is {coefficient variable}", sig)
    return WeightedSumSig([tuple(group) for group in groups], p[1], p[2])


# what each supported global's parameters parse into; the order is that of
# the "supported:" list in the error for any other name
GLOBAL_PARSERS = {
    "alldifferent": scope_vars,
    "among": parse_counting_params,
    "atleast": parse_counting_params,
    "atmost": parse_counting_params,
    "cumulative": parse_cumulative_params,
    "diffn": parse_diffn_params,
    "disjunctive": parse_disjunctive_params,
    "element": parse_element_params,
    "global_cardinality": parse_gcc_params,
    "lex_less": parse_lex_params,
    "lex_lesseq": parse_lex_params,
    "not_all_equal": scope_vars,
    "weightedsum": parse_weighted_sum_params,
}
SUPPORTED_GLOBALS = tuple(GLOBAL_PARSERS)


def _ground(c: ResolvedConstraint) -> None:
    """Substitute `c`'s parameters, or else its scope, into its predicate's
    body, and note the variables the result reads."""
    ref = c.ref
    if c.parameters is None:
        effective: List = [ex.VarRef(i) for i in c.scope]
    else:
        effective = c.parameters
        if not all(isinstance(tok, (ex.VarRef, int)) for tok in effective):
            _fail(c, "predicate parameters must be variables or integers",
                  "v-or-int per formal parameter")
    try:
        ref.body = ex.substitute(ref.predicate.body, ref.predicate.formal_params, effective)
    except EvalError as e:
        raise ResolutionError("constraint %s: %s" % (clip(c.name), e)) from None
    ref.refs = ex.var_refs(ref.body)


# -- resolution ---------------------------------------------------------------


def _resolve_params(tokens: List[ParamToken], var_index: Dict[str, int],
                    context: str) -> List[ParamToken]:
    out: List[ParamToken] = []
    for tok in tokens:
        if isinstance(tok, list):
            out.append(_resolve_params(tok, var_index, context))
        elif isinstance(tok, str):
            if tok in var_index:
                out.append(ex.VarRef(var_index[tok]))
            elif tok in RELOPS:
                out.append(tok)
            else:
                raise ResolutionError(
                    "%s: parameter token %s names no declared variable"
                    % (context, clip(tok))
                )
        else:
            out.append(tok)
    return out


def resolve_references(model: InstanceModel) -> ResolvedInstance:
    """Map all by-name references to dense 0-based variable indices, parse
    each global's parameters and ground each predicate on its parameters.

    Raises ResolutionError for dangling names, repeated scope variables,
    relation/constraint arity mismatches, unsupported globals, and
    parameters that do not fit their global or predicate; the first
    constraint in declaration order with a fault is the one reported.
    """
    domain_by_name = {d.name: d for d in model.domains}
    relation_refs = {r.name: RelationRef(r) for r in model.relations}
    predicate_by_name = {p.name: p for p in model.predicates}
    var_index: Dict[str, int] = {}
    domains: List[IntegerSet] = []
    names: List[str] = []
    for i, v in enumerate(model.variables):
        if v.domain_ref not in domain_by_name:
            raise ResolutionError(
                "variable %s references undeclared domain %s" % (clip(v.name), clip(v.domain_ref))
            )
        var_index[v.name] = i
        names.append(v.name)
        # IntegerSet is immutable, so sharing is as good as copying
        domains.append(domain_by_name[v.domain_ref].values)

    constraints: List[ResolvedConstraint] = []
    for c in model.constraints:
        scope: Dict[int, None] = {}
        for var_name in c.scope:
            if var_name not in var_index:
                raise ResolutionError(
                    "constraint %s references undeclared variable %s"
                    % (clip(c.name), clip(var_name))
                )
            idx = var_index[var_name]
            if idx in scope:
                raise ResolutionError(
                    "constraint %s repeats variable %s in its scope"
                    % (clip(c.name), clip(var_name))
                )
            scope[idx] = None

        ref: ConstraintRef
        if c.reference.startswith("global:"):
            global_name = c.reference[len("global:"):].strip().lower()
            if global_name not in SUPPORTED_GLOBALS:
                raise ResolutionError(
                    "unsupported global constraint %s; supported: %s"
                    % (clip(global_name), ", ".join(SUPPORTED_GLOBALS))
                )
            ref = GlobalRef(global_name)
        elif c.reference in relation_refs:
            ref = relation_refs[c.reference]
            relation = ref.relation
            if relation.arity != c.arity:
                raise ResolutionError(
                    "constraint %s has arity %d but relation %s has arity %d"
                    % (clip(c.name), c.arity, clip(relation.name), relation.arity)
                )
        elif c.reference in predicate_by_name:
            ref = PredicateRef(predicate_by_name[c.reference])
        else:
            raise ResolutionError(
                "constraint %s references unknown relation/predicate %s"
                % (clip(c.name), clip(c.reference))
            )

        parameters = None
        if c.parameters is not None:
            parameters = _resolve_params(c.parameters, var_index,
                                         "constraint %s" % clip(c.name))
        resolved = ResolvedConstraint(c.name, list(scope), ref, parameters)
        if isinstance(ref, GlobalRef):
            ref.sig = GLOBAL_PARSERS[ref.name](resolved)
        elif isinstance(ref, PredicateRef):
            _ground(resolved)
        constraints.append(resolved)

    return ResolvedInstance(names, domains, constraints,
                            diagnostics=list(model.diagnostics))
