"""Lower resolved constraints into propagator specifications.

Each constraint becomes one or more `PropagatorSpec`s over dense variable
indices. An intensional constraint of a recognizable linear shape, binary
disequality `ne(X,Y)` included, compiles to a `LinearRel`, as `weightedSum`
does; other predicates become expression checks. Each `{value occurrences}`
pair of `global_cardinality` becomes an `among`-shaped counter, and
`disjunctive` a `Cumulative` of capacity 1; `diffn` and `not_all_equal` are
decomposed into generic expression checks, the other globals get a
dedicated propagator kind.

Accepted <parameters> grammar per global (vars may be names, values ints;
``{ }`` and ``[ ]`` both group):

    alldifferent        (none) | [x1 ... xn]
    among               N [x1 ... xn] [v1 ... vk]        (N int or variable)
    atleast             k [x1 ... xn] v
    atmost              k [x1 ... xn] v
    element             i [t1 ... tn] v                  (t, v var or int)
    global_cardinality  [x1 ... xn] [ {v1 o1} ... ]      (o int or variable)
    cumulative          [ {o d h} ... ] C                (o var or int; d, h, C ints)
    disjunctive         [ {o d} ... ]
    diffn               [ {x y w h} ... ]                (2-dimensional boxes)
    lex_less/lex_lesseq [x1 ... xn] [y1 ... yn]
    not_all_equal       (none) | [x1 ... xn]
    weightedSum         [ {c1 x1} ... ] <relop/> K
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import expr as ex
from .errors import CompileError, clip
from .intset import IntegerSet
from .model import (
    GlobalRef,
    ParamToken,
    PredicateRef,
    RelationRef,
    ResolvedConstraint,
    ResolvedInstance,
)

_RELOPS = ("eq", "ne", "ge", "gt", "le", "lt")

# ("var", index) or ("const", value); list-shaped so JSON round-trips cleanly
Term = List


def var_term(i: int) -> Term:
    return ["var", i]


def const_term(v: int) -> Term:
    return ["const", v]


def term_vars(term: Term) -> List[int]:
    return [term[1]] if term[0] == "var" else []


def term_expr(term: Term) -> ex.Expr:
    return ex.VarRef(term[1]) if term[0] == "var" else ex.IntLiteral(term[1])


@dataclass
class PropagatorSpec:
    kind: str
    scope: Tuple[int, ...]
    data: dict

    def to_obj(self) -> dict:
        data = dict(self.data)
        if "expr" in data:
            data["expr"] = ex.to_obj(data["expr"])
        return {"kind": self.kind, "scope": list(self.scope), "data": data}

    @classmethod
    def from_obj(cls, obj: dict) -> "PropagatorSpec":
        data = dict(obj["data"])
        if "expr" in data:
            data["expr"] = ex.from_obj(data["expr"])
        return cls(obj["kind"], tuple(obj["scope"]), data)


@dataclass
class Problem:
    names: List[str]
    domains: List[IntegerSet]
    propagators: List[PropagatorSpec] = field(default_factory=list)


@dataclass
class CompileOptions:
    element_base: int = 1  # benchmark corpora index element tables from 1


# -- parameter shapes ---------------------------------------------------------


def _fail(c: ResolvedConstraint, message: str, signature: str):
    raise CompileError(
        "constraint %s (%s): %s; expected parameters: %s"
        % (clip(c.name), _ref_name(c), message, signature)
    )


def _ref_name(c: ResolvedConstraint) -> str:
    if isinstance(c.ref, GlobalRef):
        return "global:" + c.ref.name
    if isinstance(c.ref, RelationRef):
        return clip(c.ref.relation.name)
    return clip(c.ref.predicate.name)


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


def scope_vars(c: ResolvedConstraint, sig: str) -> List[int]:
    p = c.parameters
    if p is None or p == []:
        return list(c.scope)
    if len(p) == 1:
        vs = _var_list(p[0])
        if vs is not None:
            return vs
    _fail(c, "malformed parameters", sig)


def parse_counting_params(c: ResolvedConstraint, name: str) -> CountingSig:
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
    if p is None or len(p) != 3 or p[1] not in _RELOPS or not isinstance(p[2], int):
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


# -- linear-shape recognition -------------------------------------------------


def _linear_terms(e: ex.Expr) -> Optional[Tuple[Dict[int, int], int]]:
    """Return (coefficients by variable, constant) when `e` is linear."""
    if isinstance(e, ex.IntLiteral):
        return {}, e.value
    if isinstance(e, ex.VarRef):
        return {e.index: 1}, 0
    if not isinstance(e, ex.Apply):
        return None
    if e.op == "neg":
        inner = _linear_terms(e.args[0])
        if inner is None:
            return None
        coeffs, const = inner
        return {v: -c for v, c in coeffs.items()}, -const
    if e.op in ("add", "sub"):
        left = _linear_terms(e.args[0])
        right = _linear_terms(e.args[1])
        if left is None or right is None:
            return None
        sign = 1 if e.op == "add" else -1
        coeffs = dict(left[0])
        for v, c in right[0].items():
            coeffs[v] = coeffs.get(v, 0) + sign * c
        return coeffs, left[1] + sign * right[1]
    if e.op == "mul":
        left = _linear_terms(e.args[0])
        right = _linear_terms(e.args[1])
        if left is None or right is None:
            return None
        if not left[0]:
            factor, linear = left[1], right
        elif not right[0]:
            factor, linear = right[1], left
        else:
            return None
        return {v: factor * c for v, c in linear[0].items()}, factor * linear[1]
    return None


def _recognize_linear(ground: ex.Expr) -> Optional[PropagatorSpec]:
    if not (isinstance(ground, ex.Apply) and ground.op in _RELOPS):
        return None
    left = _linear_terms(ground.args[0])
    right = _linear_terms(ground.args[1])
    if left is None or right is None:
        return None
    terms = [(c, var_term(v)) for v, c in left[0].items()]
    terms += [(-c, var_term(v)) for v, c in right[0].items()]
    return linear_spec(terms, ground.op, right[1] - left[1])


def linear_spec(terms: Sequence[Tuple[int, Term]], op: str, rhs: int) -> PropagatorSpec:
    """Build a LinearRel from (coefficient, term) pairs, folding constants."""
    coeffs: Dict[int, int] = {}
    for coeff, term in terms:
        if term[0] == "const":
            rhs -= coeff * term[1]
        else:
            coeffs[term[1]] = coeffs.get(term[1], 0) + coeff
    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    pairs = sorted(coeffs.items())
    return PropagatorSpec(
        "LinearRel",
        tuple(v for v, _ in pairs),
        {"terms": [[v, c] for v, c in pairs], "op": op, "rhs": rhs},
    )


# -- per-constraint lowering --------------------------------------------------


def compile_extension(c: ResolvedConstraint, relation) -> PropagatorSpec:
    kind = "TableSupports" if relation.semantics == "supports" else "TableConflicts"
    # shared, not copied: propagators only read it
    return PropagatorSpec(kind, tuple(c.scope), {"tuples": relation.tuples})


def compile_intension(c: ResolvedConstraint, predicate) -> PropagatorSpec:
    if c.parameters is None:
        effective: List = [ex.VarRef(i) for i in c.scope]
    else:
        effective = []
        for tok in c.parameters:
            if isinstance(tok, (ex.VarRef, int)):
                effective.append(tok)
            else:
                _fail(c, "predicate parameters must be variables or integers",
                      "v-or-int per formal parameter")
    try:
        ground = ex.substitute(predicate.body, predicate.formal_params, effective)
    except ex.EvalError as e:
        raise CompileError("constraint %s: %s" % (clip(c.name), e)) from None
    upgraded = _recognize_linear(ground)
    if upgraded is not None:
        return upgraded
    return PropagatorSpec("ExprCheck", tuple(ex.var_refs(ground)), {"expr": ground})


def _expr_check(e: ex.Expr) -> PropagatorSpec:
    return PropagatorSpec("ExprCheck", tuple(ex.var_refs(e)), {"expr": e})


def _or_all(parts: List[ex.Expr]) -> ex.Expr:
    # balanced, so that the nesting grows with the log of the part count
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return ex.Apply("or", (_or_all(parts[:mid]), _or_all(parts[mid:])))


def _no_overlap_1d(a_start: ex.Expr, a_len: ex.Expr, b_start: ex.Expr,
                   b_len: ex.Expr) -> List[ex.Expr]:
    return [
        ex.Apply("le", (ex.Apply("add", (a_start, a_len)), b_start)),
        ex.Apply("le", (ex.Apply("add", (b_start, b_len)), a_start)),
    ]


def compile_global(c: ResolvedConstraint, options: CompileOptions) -> List[PropagatorSpec]:
    name = c.ref.name
    if name == "alldifferent":
        vars_ = scope_vars(c, "(optional) [x1 ... xn]")
        return [PropagatorSpec("AllDifferent", tuple(vars_), {})]
    if name in ("among", "atleast", "atmost"):
        sig = parse_counting_params(c, name)
        kind = {"among": "Among", "atleast": "AtLeast", "atmost": "AtMost"}[name]
        scope = tuple(sig.vars) + ((sig.count_var,) if sig.count_var is not None else ())
        return [PropagatorSpec(kind, scope, {
            "vars": sig.vars, "values": sig.values,
            "lo": sig.lo, "hi": sig.hi, "count_var": sig.count_var,
        })]
    if name == "element":
        sig = parse_element_params(c)
        scope = _unique_vars([sig.index] + sig.table + [sig.value])
        return [PropagatorSpec("Element", tuple(scope), {
            "index": sig.index, "table": sig.table, "value": sig.value,
            "base": options.element_base,
        })]
    if name == "global_cardinality":
        sig = parse_gcc_params(c)
        specs = []
        for value, occ in sig.entries:
            count = occ[1] if occ[0] == "const" else None
            count_var = occ[1] if occ[0] == "var" else None
            scope = tuple(dict.fromkeys(sig.vars + term_vars(occ)))
            specs.append(PropagatorSpec("GlobalCardinality", scope, {
                "vars": sig.vars, "values": [value],
                "lo": count, "hi": count, "count_var": count_var,
            }))
        return specs
    if name == "cumulative":
        sig = parse_cumulative_params(c)
        return [_cumulative_spec(sig.tasks, sig.capacity)]
    if name == "disjunctive":
        # the tasks that take time share a resource of capacity 1; a task of
        # duration 0 may still not fall strictly inside another one, which a
        # profile cannot see, so each such pair keeps its own check
        sig = parse_disjunctive_params(c)
        proper = [(o, d, 1) for o, d in sig.tasks if d > 0]
        specs = [_cumulative_spec(proper, 1)] if len(proper) >= 2 else []
        for i, (oi, di) in enumerate(sig.tasks):
            for oj, dj in sig.tasks[i + 1:]:
                if (di == 0) != (dj == 0):
                    parts = _no_overlap_1d(term_expr(oi), ex.IntLiteral(di),
                                           term_expr(oj), ex.IntLiteral(dj))
                    specs.append(_expr_check(_or_all(parts)))
        return specs
    if name == "diffn":
        sig = parse_diffn_params(c)
        specs = []
        for i in range(len(sig.boxes)):
            for j in range(i + 1, len(sig.boxes)):
                (xi, yi, wi, hi) = sig.boxes[i]
                (xj, yj, wj, hj) = sig.boxes[j]
                parts = _no_overlap_1d(term_expr(xi), term_expr(wi),
                                       term_expr(xj), term_expr(wj))
                parts += _no_overlap_1d(term_expr(yi), term_expr(hi),
                                        term_expr(yj), term_expr(hj))
                specs.append(_expr_check(_or_all(parts)))
        return specs
    if name in ("lex_less", "lex_lesseq"):
        sig = parse_lex_params(c)
        kind = "LexLess" if name == "lex_less" else "LexLessEq"
        scope = _unique_vars(sig.xs + sig.ys)
        return [PropagatorSpec(kind, tuple(scope), {"xs": sig.xs, "ys": sig.ys})]
    if name == "not_all_equal":
        vars_ = scope_vars(c, "(optional) [x1 ... xn]")
        if len(vars_) < 2:
            raise CompileError(
                "constraint %s: not_all_equal needs at least 2 variables, got %d"
                % (clip(c.name), len(vars_))
            )
        parts = [ex.Apply("ne", (ex.VarRef(vars_[0]), ex.VarRef(v)))
                 for v in vars_[1:]]
        return [_expr_check(_or_all(parts))]
    if name == "weightedsum":
        sig = parse_weighted_sum_params(c)
        return [linear_spec(sig.terms, sig.op, sig.rhs)]
    raise CompileError("unsupported global constraint %s" % clip(name))


def _cumulative_spec(tasks: List[Tuple[Term, int, int]],
                     capacity: int) -> PropagatorSpec:
    scope = _unique_vars([origin for origin, _, _ in tasks])
    return PropagatorSpec("Cumulative", tuple(scope), {
        "tasks": [[origin, d, h] for origin, d, h in tasks],
        "capacity": capacity,
    })


def _unique_vars(terms: List[Term]) -> List[int]:
    return list(dict.fromkeys(v for term in terms for v in term_vars(term)))


def compile_constraint(c: ResolvedConstraint,
                       options: CompileOptions) -> List[PropagatorSpec]:
    if isinstance(c.ref, RelationRef):
        return [compile_extension(c, c.ref.relation)]
    if isinstance(c.ref, PredicateRef):
        return [compile_intension(c, c.ref.predicate)]
    return compile_global(c, options)


def compile_instance(instance: ResolvedInstance,
                     options: Optional[CompileOptions] = None) -> Problem:
    """Compile every resolved constraint, in declaration order."""
    options = options or CompileOptions()
    problem = Problem(list(instance.names), list(instance.domains))
    for c in instance.constraints:
        try:
            specs = compile_constraint(c, options)
        except CompileError:
            raise
        except Exception as e:  # surface the constraint name on any lowering bug
            raise CompileError("constraint %s: %s" % (clip(c.name), e)) from e
        n = len(problem.domains)
        for spec in specs:
            if any(not (0 <= v < n) for v in spec.scope):
                raise CompileError("constraint %s: scope index out of range" % clip(c.name))
        problem.propagators.extend(specs)
    return problem
