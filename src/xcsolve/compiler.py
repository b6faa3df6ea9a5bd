"""Lower resolved constraints into propagator specifications.

Each constraint becomes one or more `PropagatorSpec`s over dense variable
indices. An intensional constraint of a recognizable linear shape, binary
disequality `ne(X,Y)` included, compiles to a `LinearRel`, as `weightedSum`
does; other predicates become expression checks. Each `{value occurrences}`
pair of `global_cardinality` becomes an `among`-shaped counter, and
`disjunctive` a `Cumulative` of capacity 1; `diffn` and `not_all_equal` are
decomposed into generic expression checks, the other globals get a
dedicated propagator kind.

The compiler reads what `model.resolve_references` bound to each
constraint: a predicate's ground body, or a global's parsed parameters
(the grammar is the `model.GLOBALS` table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import expr as ex
from .errors import CompileError, clip
from .intset import IntegerSet
from .model import (
    RELOPS,
    PredicateRef,
    RelationRef,
    ResolvedConstraint,
    ResolvedInstance,
    Term,
    term_expr,
)


@dataclass
class PropagatorSpec:
    kind: str
    scope: Tuple[int, ...]
    data: dict


@dataclass
class Problem:
    names: List[str]
    domains: List[IntegerSet]
    propagators: List[PropagatorSpec] = field(default_factory=list)


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
    if not (isinstance(ground, ex.Apply) and ground.op in RELOPS):
        return None
    left = _linear_terms(ground.args[0])
    right = _linear_terms(ground.args[1])
    if left is None or right is None:
        return None
    terms = [(c, ex.VarRef(v)) for v, c in left[0].items()]
    terms += [(-c, ex.VarRef(v)) for v, c in right[0].items()]
    return linear_spec(terms, ground.op, right[1] - left[1])


def linear_spec(terms: Sequence[Tuple[int, Term]], op: str, rhs: int) -> PropagatorSpec:
    """Build a LinearRel from (coefficient, term) pairs, folding constants."""
    coeffs: Dict[int, int] = {}
    for coeff, term in terms:
        if isinstance(term, ex.VarRef):
            coeffs[term.index] = coeffs.get(term.index, 0) + coeff
        else:
            rhs -= coeff * term
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


def compile_intension(c: ResolvedConstraint) -> PropagatorSpec:
    ground = c.ref.body
    upgraded = _recognize_linear(ground)
    if upgraded is not None:
        return upgraded
    return PropagatorSpec("ExprCheck", tuple(c.ref.refs), {"expr": ground})


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


def compile_global(c: ResolvedConstraint, element_base: int) -> List[PropagatorSpec]:
    name, sig = c.ref.name, c.ref.sig
    if name == "alldifferent":
        return [PropagatorSpec("AllDifferent", tuple(sig), {})]
    if name in ("among", "atleast", "atmost", "global_cardinality"):
        kind = {"among": "Among", "atleast": "AtLeast", "atmost": "AtMost",
                "global_cardinality": "GlobalCardinality"}[name]
        specs = []
        for s in sig:
            watched = s.vars if s.count_var is None else s.vars + [s.count_var]
            specs.append(PropagatorSpec(kind, tuple(watched), {
                "vars": s.vars, "values": s.values,
                "lo": s.lo, "hi": s.hi, "count_var": s.count_var,
            }))
        return specs
    if name == "element":
        scope = _var_indices([sig.index] + sig.table + [sig.value])
        return [PropagatorSpec("Element", scope, {
            "index": sig.index, "table": sig.table, "value": sig.value,
            "base": element_base,
        })]
    if name == "cumulative":
        return [_cumulative_spec(sig.tasks, sig.capacity)]
    if name == "disjunctive":
        # the tasks that take time share a resource of capacity 1; a task of
        # duration 0 may still not fall strictly inside another one, which a
        # profile cannot see, so each such pair keeps its own check
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
        kind = "LexLess" if name == "lex_less" else "LexLessEq"
        return [PropagatorSpec(kind, _var_indices(sig.xs + sig.ys),
                               {"xs": sig.xs, "ys": sig.ys})]
    if name == "not_all_equal":
        if len(sig) < 2:
            raise CompileError(
                "constraint %s: not_all_equal needs at least 2 variables, got %d"
                % (clip(c.name), len(sig))
            )
        parts = [ex.Apply("ne", (ex.VarRef(sig[0]), ex.VarRef(v)))
                 for v in sig[1:]]
        return [_expr_check(_or_all(parts))]
    if name == "weightedsum":
        return [linear_spec(sig.terms, sig.op, sig.rhs)]
    raise CompileError("unsupported global constraint %s" % clip(name))


def _cumulative_spec(tasks: List[Tuple[Term, int, int]],
                     capacity: int) -> PropagatorSpec:
    scope = _var_indices([origin for origin, _, _ in tasks])
    return PropagatorSpec("Cumulative", scope, {"tasks": tasks, "capacity": capacity})


def _var_indices(terms: List[Term]) -> Tuple[int, ...]:
    # repeats kept: Engine watches each distinct variable once
    return tuple(t.index for t in terms if isinstance(t, ex.VarRef))


def compile_constraint(c: ResolvedConstraint,
                       element_base: int) -> List[PropagatorSpec]:
    if isinstance(c.ref, RelationRef):
        return [compile_extension(c, c.ref.relation)]
    if isinstance(c.ref, PredicateRef):
        return [compile_intension(c)]
    return compile_global(c, element_base)


def compile_instance(instance: ResolvedInstance, element_base: int = 1) -> Problem:
    """Compile every resolved constraint, in declaration order.

    `element_base` is the index of an `element` table's first entry;
    benchmark corpora index from 1.
    """
    problem = Problem(list(instance.names), list(instance.domains))
    for c in instance.constraints:
        try:
            specs = compile_constraint(c, element_base)
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
