"""Lower resolved constraints into propagator specifications.

Each constraint becomes one or more `PropagatorSpec`s over dense variable
indices. An intensional constraint of a recognizable linear shape, binary
disequality `ne(X,Y)` included, compiles to a `LinearRel` when its
arithmetic cannot leave 64 bits over the root domains; other predicates
become expression checks. A `weightedSum` arrives as the ground predicate
it stands for and is lowered the same way. Each `{value occurrences}`
pair of `global_cardinality` becomes an `among`-shaped counter, and
`disjunctive` a `Cumulative` of capacity 1; `diffn` and `not_all_equal` are
decomposed into generic expression checks, the other globals get a
dedicated propagator kind.

The compiler reads what `model.resolve_references` bound to each
constraint: a predicate's ground body, or a global's parsed parameters
(the grammar is the `model.GLOBALS` table). A global with a propagator of
its own takes those parameters as its spec's data; `element` adds its
index base to a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Tuple

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
    domains: List[IntegerSet]
    propagators: List[PropagatorSpec] = field(default_factory=list)


# -- linear-shape recognition -------------------------------------------------


# the sign of each argument of an operator whose value is their signed sum
_SIGNS = {"neg": (-1,), "add": (1, 1), "sub": (1, -1)}


def _linear(e: ex.Expr, domains: List[IntegerSet]
            ) -> Optional[Tuple[Dict[int, int], int, int, int]]:
    """(coefficients by variable, constant, least value, greatest value) of
    `e` when it is linear. The values come from interval arithmetic over
    `domains`; None also when some `neg`, `add`, `sub` or `mul` node may
    leave the 64-bit range, where the evaluator raises."""
    if isinstance(e, ex.IntLiteral):
        return {}, e.value, e.value, e.value
    if isinstance(e, ex.VarRef):
        d = domains[e.index]
        return {e.index: 1}, 0, d.min_value(), d.max_value()
    if not (isinstance(e, ex.Apply) and (e.op in _SIGNS or e.op == "mul")):
        return None
    forms = [_linear(a, domains) for a in e.args]
    if None in forms:
        return None
    if e.op == "mul":
        # one side must be constant, a single value: it scales the other
        (terms, k, a, b), (fixed, factor, _, _) = forms[::-1] if forms[1][0] else forms
        if fixed:
            return None
        coeffs = {v: factor * c for v, c in terms.items()}
        const = factor * k
        lo, hi = sorted((factor * a, factor * b))
    else:
        coeffs, const, lo, hi = {}, 0, 0, 0
        for sign, (terms, k, a, b) in zip(_SIGNS[e.op], forms):
            for v, c in terms.items():
                coeffs[v] = coeffs.get(v, 0) + sign * c
            const += sign * k
            lo, hi = (lo + a, hi + b) if sign > 0 else (lo - b, hi - a)
    if ex.INT64_MIN <= lo and hi <= ex.INT64_MAX:
        return coeffs, const, lo, hi
    return None


def linear_spec(coeffs: Dict[int, int], op: str, rhs: int) -> PropagatorSpec:
    """Build a LinearRel from coefficients by variable; zeros drop out."""
    pairs = sorted((v, c) for v, c in coeffs.items() if c != 0)
    return PropagatorSpec("LinearRel", tuple(v for v, _ in pairs),
                          {"terms": [[v, c] for v, c in pairs], "op": op, "rhs": rhs})


# -- per-constraint lowering --------------------------------------------------


def _expr_check(e: ex.Expr) -> PropagatorSpec:
    return PropagatorSpec("ExprCheck", tuple(ex.var_refs(e)), {"expr": e})


def _predicate(ground: ex.Expr, refs: List[int],
               domains: List[IntegerSet]) -> PropagatorSpec:
    """A LinearRel when `ground` relates two sides that `_linear` reads:
    beyond 64 bits the evaluator, and so the oracle, rejects what a sum over
    unbounded integers would accept. Else an expression check over `refs`,
    the variables `ground` reads."""
    if isinstance(ground, ex.Apply) and ground.op in RELOPS:
        left = _linear(ground.args[0], domains)
        right = left and _linear(ground.args[1], domains)
        if right:
            coeffs = dict(left[0])
            for v, c in right[0].items():
                coeffs[v] = coeffs.get(v, 0) - c
            return linear_spec(coeffs, ground.op, right[1] - left[1])
    return PropagatorSpec("ExprCheck", tuple(refs), {"expr": ground})


def _no_overlap_1d(a_start: ex.Expr, a_len: ex.Expr, b_start: ex.Expr,
                   b_len: ex.Expr) -> List[ex.Expr]:
    return [
        ex.Apply("le", (ex.Apply("add", (a_start, a_len)), b_start)),
        ex.Apply("le", (ex.Apply("add", (b_start, b_len)), a_start)),
    ]


def compile_global(c: ResolvedConstraint, element_base: int,
                   domains: List[IntegerSet]) -> List[PropagatorSpec]:
    name, sig = c.ref.name, c.ref.sig
    if name == "alldifferent":
        return [PropagatorSpec("AllDifferent", tuple(sig), {})]
    if name in ("among", "atleast", "atmost", "global_cardinality"):
        kind = {"among": "Among", "atleast": "AtLeast", "atmost": "AtMost",
                "global_cardinality": "GlobalCardinality"}[name]
        return [PropagatorSpec(kind, tuple(s["vars"] if s["count_var"] is None
                                           else s["vars"] + [s["count_var"]]), s)
                for s in sig]
    if name == "element":
        scope = _var_indices([sig["index"], *sig["table"], sig["value"]])
        return [PropagatorSpec("Element", scope, dict(sig, base=element_base))]
    if name == "cumulative":
        return [_cumulative_spec(sig)]
    if name == "disjunctive":
        # the tasks that take time share a resource of capacity 1; a task of
        # duration 0 may still not fall strictly inside another one, which a
        # profile cannot see, so each such pair keeps its own check
        proper = [(o, d, 1) for o, d in sig if d > 0]
        specs = ([_cumulative_spec({"tasks": proper, "capacity": 1})]
                 if len(proper) >= 2 else [])
        for (oi, di), (oj, dj) in combinations(sig, 2):
            if (di == 0) != (dj == 0):
                parts = _no_overlap_1d(term_expr(oi), ex.IntLiteral(di),
                                       term_expr(oj), ex.IntLiteral(dj))
                specs.append(_expr_check(ex.balanced("or", parts)))
        return specs
    if name == "diffn":
        specs = []
        for (xi, yi, wi, hi), (xj, yj, wj, hj) in combinations(sig, 2):
            parts = _no_overlap_1d(term_expr(xi), term_expr(wi),
                                   term_expr(xj), term_expr(wj))
            parts += _no_overlap_1d(term_expr(yi), term_expr(hi),
                                    term_expr(yj), term_expr(hj))
            specs.append(_expr_check(ex.balanced("or", parts)))
        return specs
    if name in ("lex_less", "lex_lesseq"):
        kind = "LexLess" if name == "lex_less" else "LexLessEq"
        return [PropagatorSpec(kind, _var_indices(sig["xs"] + sig["ys"]), sig)]
    if name == "not_all_equal":
        if len(sig) < 2:
            raise CompileError(
                "constraint %s: not_all_equal needs at least 2 variables, got %d"
                % (clip(c.name), len(sig))
            )
        parts = [ex.Apply("ne", (ex.VarRef(sig[0]), ex.VarRef(v)))
                 for v in sig[1:]]
        return [_expr_check(ex.balanced("or", parts))]
    assert name == "weightedsum"
    return [_predicate(sig, ex.var_refs(sig), domains)]


def _cumulative_spec(data: dict) -> PropagatorSpec:
    scope = _var_indices([origin for origin, _, _ in data["tasks"]])
    return PropagatorSpec("Cumulative", scope, data)


def _var_indices(terms: List[Term]) -> Tuple[int, ...]:
    # repeats kept: Engine watches each distinct variable once
    return tuple(t.index for t in terms if isinstance(t, ex.VarRef))


def compile_constraint(c: ResolvedConstraint, element_base: int,
                       domains: List[IntegerSet]) -> List[PropagatorSpec]:
    ref = c.ref
    if isinstance(ref, RelationRef):
        kind = "TableSupports" if ref.relation.semantics == "supports" else "TableConflicts"
        # shared, not copied: propagators only read it
        return [PropagatorSpec(kind, tuple(c.scope), {"tuples": ref.relation.tuples})]
    if isinstance(ref, PredicateRef):
        return [_predicate(ref.body, ref.refs, domains)]
    return compile_global(c, element_base, domains)


def compile_instance(instance: ResolvedInstance, element_base: int = 1) -> Problem:
    """Compile every resolved constraint, in declaration order.

    `element_base` is the index of an `element` table's first entry;
    benchmark corpora index from 1. The root domains decide whether a
    linear predicate's arithmetic fits in 64 bits.
    """
    problem = Problem(list(instance.domains))
    for c in instance.constraints:
        try:
            specs = compile_constraint(c, element_base, instance.domains)
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
