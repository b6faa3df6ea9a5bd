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
# memo takes; the list that fills it, and every later one, is read by the
# one-pass bulk path instead
TUPLE_MEMO = 1 << 16

# Nested parameter tokens: int literal, bare name, or a bracketed group.
ParamToken = Union[int, str, List["ParamToken"]]


# -- data model ---------------------------------------------------------------


@dataclass
class DomainDef:
    name: str
    values: IntegerSet
    declared_count: int


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
    nb_domains: Optional[int] = None
    nb_variables: Optional[int] = None
    nb_relations: Optional[int] = None
    nb_predicates: Optional[int] = None
    nb_constraints: Optional[int] = None
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
    distinct group text is read once and equal tuples are one object. Once
    it holds `TUPLE_MEMO` entries, the list that filled it and every later
    one are read without it."""
    if not text.strip():
        return []
    if seen is not None and len(seen) < TUPLE_MEMO:
        tuples = []
        for i, group in enumerate(text.split("|")):
            t = seen.get(group)
            if t is None or len(t) != arity:
                if len(seen) >= TUPLE_MEMO:
                    break  # full: read this list without the memo
                t = _parse_group(group, i, arity)
                t = seen[group] = seen.setdefault(t, t)
            tuples.append(t)
        else:
            return tuples
    # one pass over the whole list when its shape is exact: n groups of
    # `arity` tokens, the n-1 separators at every (arity+1)-th position
    tokens = text.replace("|", " | ").split()
    separators = text.count("|")
    if (arity > 0 and len(tokens) == (separators + 1) * (arity + 1) - 1
            and tokens[arity::arity + 1].count("|") == separators):
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


def _children(parent, tag: str):
    return [el for el in parent if _local(el.tag) == tag]


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


def _unique(name: str, seen: set, section: str):
    if name in seen:
        raise StructuralError("duplicate %s name %s" % (section, clip(name)))
    seen.add(name)


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

    domains_el = _child(root, "domains")
    if domains_el is not None:
        _check_attrs(domains_el, diag)
        model.nb_domains = _int_attr(domains_el, "nbDomains", required=True)
        seen: set = set()
        for el in _children(domains_el, "domain"):
            _check_attrs(el, diag)
            name = _require_attr(el, "name")
            _unique(name, seen, "domain")
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
            model.domains.append(DomainDef(name, values, count))
        if model.nb_domains != len(model.domains):
            diag.append(
                "warning: nbDomains=%d but %d domain(s) declared"
                % (model.nb_domains, len(model.domains))
            )

    variables_el = _child(root, "variables")
    if variables_el is None:
        raise StructuralError("missing mandatory <variables> section")
    _check_attrs(variables_el, diag)
    model.nb_variables = _int_attr(variables_el, "nbVariables", required=True)
    seen = set()
    for el in _children(variables_el, "variable"):
        _check_attrs(el, diag)
        name = _require_attr(el, "name")
        _unique(name, seen, "variable")
        model.variables.append(VariableDef(name, _require_attr(el, "domain")))
    if model.nb_variables != len(model.variables):
        diag.append(
            "warning: nbVariables=%d but %d variable(s) declared"
            % (model.nb_variables, len(model.variables))
        )

    relations_el = _child(root, "relations")
    if relations_el is not None:
        _check_attrs(relations_el, diag)
        model.nb_relations = _int_attr(relations_el, "nbRelations", required=False)
        seen = set()
        tuple_memo = {}
        for el in _children(relations_el, "relation"):
            _check_attrs(el, diag)
            name = _require_attr(el, "name")
            _unique(name, seen, "relation")
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
        if model.nb_relations is not None and model.nb_relations != len(model.relations):
            diag.append("warning: nbRelations mismatch")

    predicates_el = _child(root, "predicates")
    if predicates_el is not None:
        _check_attrs(predicates_el, diag)
        model.nb_predicates = _int_attr(predicates_el, "nbPredicates", required=False)
        seen = set()
        for el in _children(predicates_el, "predicate"):
            _check_attrs(el, diag)
            name = _require_attr(el, "name")
            _unique(name, seen, "predicate")
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
        if model.nb_predicates is not None and model.nb_predicates != len(model.predicates):
            diag.append("warning: nbPredicates mismatch")

    constraints_el = _child(root, "constraints")
    if constraints_el is None:
        raise StructuralError("missing mandatory <constraints> section")
    _check_attrs(constraints_el, diag)
    model.nb_constraints = _int_attr(constraints_el, "nbConstraints", required=False)
    seen = set()
    for el in _children(constraints_el, "constraint"):
        _check_attrs(el, diag)
        name = _require_attr(el, "name")
        _unique(name, seen, "constraint")
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
    if model.nb_constraints is not None and model.nb_constraints != len(model.constraints):
        diag.append("warning: nbConstraints mismatch")

    return model


def _parse_formal_params(pred_name: str, text: str) -> List[str]:
    tokens = text.split()
    if len(tokens) % 2 != 0:
        raise StructuralError("predicate %s: malformed formal parameter list" % clip(pred_name))
    formals = []
    for type_name, param in zip(tokens[::2], tokens[1::2]):
        if type_name != "int":
            raise StructuralError(
                "predicate %s: unsupported parameter type %s" % (clip(pred_name), clip(type_name))
            )
        if param in formals:
            raise StructuralError(
                "predicate %s: duplicate formal parameter %s" % (clip(pred_name), clip(param))
            )
        formals.append(param)
    return formals


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


# ("var", index) or ("const", value), as a two-item list
Term = List


def var_term(i: int) -> Term:
    return ["var", i]


def const_term(v: int) -> Term:
    return ["const", v]


def term_vars(term: Term) -> List[int]:
    return [term[1]] if term[0] == "var" else []


def term_expr(term: Term) -> ex.Expr:
    return ex.VarRef(term[1]) if term[0] == "var" else ex.IntLiteral(term[1])


def _fail(c: ResolvedConstraint, message: str, signature: str):
    if isinstance(c.ref, GlobalRef):
        reference = "global:" + c.ref.name
    else:
        reference = clip(c.ref.predicate.name)
    raise ResolutionError(
        "constraint %s (%s): %s; expected parameters: %s"
        % (clip(c.name), reference, message, signature)
    )


def _as_term(tok: ParamToken) -> Optional[Term]:
    if isinstance(tok, ex.VarRef):
        return var_term(tok.index)
    if isinstance(tok, int):
        return const_term(tok)
    return None


def _as_var(tok: ParamToken) -> Optional[int]:
    return tok.index if isinstance(tok, ex.VarRef) else None


def _var_list(tok: ParamToken) -> Optional[List[int]]:
    if not isinstance(tok, list):
        return None
    out = []
    for item in tok:
        v = _as_var(item)
        if v is None:
            return None
        out.append(v)
    return out


def _int_list(tok: ParamToken) -> Optional[List[int]]:
    if not isinstance(tok, list) or not all(isinstance(i, int) for i in tok):
        return None
    return list(tok)


def _term_list(tok: ParamToken) -> Optional[List[Term]]:
    if not isinstance(tok, list):
        return None
    out = []
    for item in tok:
        t = _as_term(item)
        if t is None:
            return None
        out.append(t)
    return out


def _group_list(tok: ParamToken, width: int) -> Optional[List[List[ParamToken]]]:
    if not isinstance(tok, list):
        return None
    groups = []
    for item in tok:
        if not isinstance(item, list) or len(item) != width:
            return None
        groups.append(item)
    return groups


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
class GccSig:
    vars: List[int]
    entries: List[Tuple[int, Term]]  # (counted value, occurrence term)


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


def parse_counting_params(c: ResolvedConstraint) -> CountingSig:
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
        if isinstance(p[0], int):
            return CountingSig(vars_, values, p[0], p[0], None)
        count = _as_var(p[0])
        if count is None:
            _fail(c, "count must be an integer or a variable", sig)
        return CountingSig(vars_, values, None, None, count)
    # atleast / atmost: k [x...] v
    sig = "k [x1 ... xn] v"
    if p is None or len(p) != 3 or not isinstance(p[0], int) or not isinstance(p[2], int):
        _fail(c, "%s takes: count, variable list, value" % name, sig)
    vars_ = _var_list(p[1])
    if vars_ is None:
        _fail(c, "malformed variable list", sig)
    if name == "atleast":
        return CountingSig(vars_, [p[2]], p[0], None, None)
    return CountingSig(vars_, [p[2]], None, p[0], None)


def parse_element_params(c: ResolvedConstraint) -> ElementSig:
    sig = "i [t1 ... tn] v"
    p = c.parameters
    if p is None or len(p) != 3:
        _fail(c, "element takes: index, table, value", sig)
    index = _as_term(p[0])
    table = _term_list(p[1])
    value = _as_term(p[2])
    if index is None or table is None or value is None or not table:
        _fail(c, "malformed index, table, or value", sig)
    return ElementSig(index, table, value)


def parse_gcc_params(c: ResolvedConstraint) -> GccSig:
    sig = "[x1 ... xn] [ {v1 o1} {v2 o2} ... ]"
    p = c.parameters
    if p is None or len(p) != 2:
        _fail(c, "global_cardinality takes: variable list, value/count pairs", sig)
    vars_ = _var_list(p[0])
    pairs = _group_list(p[1], 2)
    if vars_ is None or pairs is None:
        _fail(c, "malformed variable list or pairs", sig)
    entries = []
    for value, occ in pairs:
        occ_term = _as_term(occ)
        if not isinstance(value, int) or occ_term is None:
            _fail(c, "each pair is {value occurrences}", sig)
        entries.append((value, occ_term))
    return GccSig(vars_, entries)


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
        origin_term = _as_term(origin)
        if origin_term is None or not isinstance(duration, int) or not isinstance(height, int):
            _fail(c, "task fields must be origin (var/int), duration int, height int", sig)
        if duration < 0 or height < 0:
            _fail(c, "duration and height must be nonnegative", sig)
        tasks.append((origin_term, duration, height))
    return CumulativeSig(tasks, p[1])


def parse_disjunctive_params(c: ResolvedConstraint) -> DisjunctiveSig:
    sig = "[ {origin duration} ... ]"
    p = c.parameters
    if p is None or len(p) != 1:
        _fail(c, "disjunctive takes a task list", sig)
    groups = _group_list(p[0], 2)
    if groups is None:
        _fail(c, "each task is {origin duration}", sig)
    tasks = []
    for origin, duration in groups:
        origin_term = _as_term(origin)
        if origin_term is None or not isinstance(duration, int) or duration < 0:
            _fail(c, "task fields must be origin (var/int) and nonnegative duration", sig)
        tasks.append((origin_term, duration))
    return DisjunctiveSig(tasks)


def parse_diffn_params(c: ResolvedConstraint) -> DiffnSig:
    sig = "[ {x y width height} ... ]"
    p = c.parameters
    if p is None or len(p) != 1:
        _fail(c, "diffn takes a box list", sig)
    groups = _group_list(p[0], 4)
    if groups is None:
        _fail(c, "each box is {x y width height}", sig)
    boxes = []
    for group in groups:
        terms = [_as_term(tok) for tok in group]
        if any(t is None for t in terms):
            _fail(c, "box fields must be variables or integers", sig)
        boxes.append(tuple(terms))
    return DiffnSig(boxes)


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
    terms = []
    for coeff, tok in groups:
        term = _as_term(tok)
        if not isinstance(coeff, int) or term is None:
            _fail(c, "each term is {coefficient variable}", sig)
        terms.append((coeff, term))
    return WeightedSumSig(terms, p[1], p[2])


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
        scope = []
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
            scope.append(idx)

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
        resolved = ResolvedConstraint(c.name, scope, ref, parameters)
        if isinstance(ref, GlobalRef):
            ref.sig = GLOBAL_PARSERS[ref.name](resolved)
        elif isinstance(ref, PredicateRef):
            _ground(resolved)
        constraints.append(resolved)

    return ResolvedInstance(names, domains, constraints,
                            diagnostics=list(model.diagnostics))
