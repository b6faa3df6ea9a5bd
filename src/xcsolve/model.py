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
    sig: object = None  # the parsed parameters, as parse_global builds them


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


# -- global parameters --------------------------------------------------------


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


def _fits(tok: ParamToken, kind) -> bool:
    """Whether `tok` is of `kind`: "var", "int", "nat" (a nonnegative int),
    "term" (a var or an int) or "relop"; ``[kind]`` is a list of that kind,
    and a tuple of kinds a list of groups with one field per kind."""
    if isinstance(kind, tuple):
        return isinstance(tok, list) and all(
            isinstance(group, list) and len(group) == len(kind)
            and all(map(_fits, group, kind)) for group in tok)
    if isinstance(kind, list):
        return isinstance(tok, list) and all(_fits(item, kind[0]) for item in tok)
    if kind == "var":
        return isinstance(tok, ex.VarRef)
    if kind == "term":
        return isinstance(tok, (ex.VarRef, int))
    if kind == "relop":
        return tok in RELOPS
    return isinstance(tok, int) and (kind == "int" or tok >= 0)


def _indices(xs: List[ex.VarRef]) -> List[int]:
    return [x.index for x in xs]


def _exactly(xs: List[ex.VarRef], values: List[int], count: Term) -> CountingSig:
    """Exactly `count` of `xs` take a value in `values`."""
    if isinstance(count, int):
        return CountingSig(_indices(xs), values, count, count, None)
    return CountingSig(_indices(xs), values, None, None, count.index)


def _lex(xs: List[Term], ys: List[Term]) -> Optional[LexSig]:
    return LexSig(xs, ys) if xs and len(xs) == len(ys) else None


# each supported global: its signature, the kind of each parameter, and what
# the parameters build (None when they fit their kinds but not the global);
# the order is that of the "supported:" list in the error for any other name
GLOBALS = {
    "alldifferent": ("(optional) [x1 ... xn]", (["var"],), _indices),
    "among": ("N [x1 ... xn] [v1 ... vk]", ("term", ["var"], ["int"]),
              lambda n, xs, values: [_exactly(xs, values, n)]),
    "atleast": ("k [x1 ... xn] v", ("int", ["var"], "int"),
                lambda k, xs, v: [CountingSig(_indices(xs), [v], k, None, None)]),
    "atmost": ("k [x1 ... xn] v", ("int", ["var"], "int"),
               lambda k, xs, v: [CountingSig(_indices(xs), [v], None, k, None)]),
    "cumulative": ("[ {origin duration height} ... ] capacity",
                   (("term", "nat", "nat"), "int"),
                   lambda tasks, capacity: CumulativeSig(list(map(tuple, tasks)), capacity)),
    "diffn": ("[ {x y width height} ... ]", (("term",) * 4,),
              lambda boxes: DiffnSig(list(map(tuple, boxes)))),
    "disjunctive": ("[ {origin duration} ... ]", (("term", "nat"),),
                    lambda tasks: DisjunctiveSig(list(map(tuple, tasks)))),
    "element": ("i [t1 ... tn] v", ("term", ["term"], "term"),
                lambda i, table, v: ElementSig(i, table, v) if table else None),
    "global_cardinality": ("[x1 ... xn] [ {v1 o1} {v2 o2} ... ]",
                           (["var"], ("int", "term")),
                           lambda xs, pairs: [_exactly(xs, [v], o) for v, o in pairs]),
    "lex_less": ("[x1 ... xn] [y1 ... yn]", (["term"], ["term"]), _lex),
    "lex_lesseq": ("[x1 ... xn] [y1 ... yn]", (["term"], ["term"]), _lex),
    "not_all_equal": ("(optional) [x1 ... xn]", (["var"],), _indices),
    "weightedsum": ("[ {c1 x1} {c2 x2} ... ] <relop/> K",
                    (("int", "term"), "relop", "int"),
                    lambda terms, op, rhs: WeightedSumSig(list(map(tuple, terms)), op, rhs)),
}
SUPPORTED_GLOBALS = tuple(GLOBALS)


def parse_global(c: ResolvedConstraint):
    """What `c`'s parameters build, checked against its global's kinds; an
    optional list that is absent or empty stands for the scope."""
    signature, kinds, build = GLOBALS[c.ref.name]
    p = c.parameters
    if not p and signature.startswith("(optional)"):
        return list(c.scope)
    if p is not None and len(p) == len(kinds) and all(map(_fits, p, kinds)):
        sig = build(*p)
        if sig is not None:
            return sig
    _fail(c, "malformed parameters", signature)


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
            ref.sig = parse_global(resolved)
        elif isinstance(ref, PredicateRef):
            _ground(resolved)
        constraints.append(resolved)

    return ResolvedInstance(names, domains, constraints,
                            diagnostics=list(model.diagnostics))
