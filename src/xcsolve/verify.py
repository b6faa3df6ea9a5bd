"""Independent semantic oracle: check a total assignment against constraint
definitions, never against propagators.

Relations are checked by tuple membership, predicates by expression
evaluation, globals by their catalog definitions written out directly.
The compiler's parameter-shape parsers are reused, but no filtering code
is."""

from __future__ import annotations

import weakref
from typing import List

from . import expr as ex
from .compiler import (
    parse_counting_params,
    parse_cumulative_params,
    parse_diffn_params,
    parse_disjunctive_params,
    parse_element_params,
    parse_gcc_params,
    parse_lex_params,
    parse_weighted_sum_params,
    scope_vars,
)
from .model import (
    GlobalRef,
    PredicateRef,
    RelationRef,
    ResolvedConstraint,
    ResolvedInstance,
)


def _term_value(term, values: List[int]) -> int:
    return values[term[1]] if term[0] == "var" else term[1]


def _prepare(c: ResolvedConstraint):
    """What checking `c` needs beyond the values: a predicate's ground body
    with the variables it reads and an empty verdict cache, or a global's
    parameters, parsed as its definition below reads them."""
    if isinstance(c.ref, PredicateRef):
        predicate = c.ref.predicate
        if c.parameters is None:
            effective = [ex.VarRef(i) for i in c.scope]
        else:
            effective = list(c.parameters)
        body = ex.substitute(predicate.body, predicate.formal_params, effective)
        return body, ex.var_refs(body), {}
    name = c.ref.name
    if name in ("alldifferent", "not_all_equal"):
        return scope_vars(c, "[x...]")
    if name in ("among", "atleast", "atmost"):
        return parse_counting_params(c, name)
    if name == "element":
        return parse_element_params(c)
    if name == "global_cardinality":
        return parse_gcc_params(c)
    if name == "cumulative":
        return parse_cumulative_params(c)
    if name == "disjunctive":
        return parse_disjunctive_params(c)
    if name == "diffn":
        return parse_diffn_params(c)
    if name in ("lex_less", "lex_lesseq"):
        return parse_lex_params(c)
    if name == "weightedsum":
        return parse_weighted_sum_params(c)
    raise ValueError("unknown global %r" % name)


def _check_global(name: str, sig, values: List[int], element_base: int) -> bool:
    if name == "alldifferent":
        vs = [values[v] for v in sig]
        return len(set(vs)) == len(vs)
    if name in ("among", "atleast", "atmost"):
        counted = set(sig.values)
        count = sum(1 for v in sig.vars if values[v] in counted)
        if sig.count_var is not None:
            return count == values[sig.count_var]
        if sig.lo is not None and count < sig.lo:
            return False
        if sig.hi is not None and count > sig.hi:
            return False
        return True
    if name == "element":
        i = _term_value(sig.index, values) - element_base
        if not (0 <= i < len(sig.table)):
            return False
        return _term_value(sig.table[i], values) == _term_value(sig.value, values)
    if name == "global_cardinality":
        for counted, occ in sig.entries:
            count = sum(1 for v in sig.vars if values[v] == counted)
            if count != _term_value(occ, values):
                return False
        return True
    if name == "cumulative":
        usage = {}
        for origin, duration, height in sig.tasks:
            start = _term_value(origin, values)
            for t in range(start, start + duration):
                usage[t] = usage.get(t, 0) + height
        return all(h <= sig.capacity for h in usage.values())
    if name == "disjunctive":
        spans = [(_term_value(o, values), d) for o, d in sig.tasks]
        for i in range(len(spans)):
            for j in range(i + 1, len(spans)):
                (si, di), (sj, dj) = spans[i], spans[j]
                if not (si + di <= sj or sj + dj <= si):
                    return False
        return True
    if name == "diffn":
        boxes = [tuple(_term_value(t, values) for t in box) for box in sig.boxes]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                (xi, yi, wi, hi) = boxes[i]
                (xj, yj, wj, hj) = boxes[j]
                if not (xi + wi <= xj or xj + wj <= xi
                        or yi + hi <= yj or yj + hj <= yi):
                    return False
        return True
    if name in ("lex_less", "lex_lesseq"):
        xs = tuple(_term_value(t, values) for t in sig.xs)
        ys = tuple(_term_value(t, values) for t in sig.ys)
        return xs < ys if name == "lex_less" else xs <= ys
    if name == "not_all_equal":
        vs = [values[v] for v in sig]
        return len(set(vs)) > 1
    assert name == "weightedsum"
    total = sum(coeff * _term_value(t, values) for coeff, t in sig.terms)
    return {
        "eq": total == sig.rhs, "ne": total != sig.rhs,
        "ge": total >= sig.rhs, "gt": total > sig.rhs,
        "le": total <= sig.rhs, "lt": total < sig.rhs,
    }[sig.op]


# a weak reference to the instance checked last, and what `_prepare` made
# for its constraints, by position: a search checks many solutions of one
# instance, and the cache must not keep a large one alive
_prepared = (None, {})
# the most verdicts one predicate keeps before its cache is cleared
MAX_VERDICTS = 1 << 16


def _prepared_for(instance: ResolvedInstance) -> dict:
    global _prepared
    last, entries = _prepared
    if last is None or last() is not instance:
        entries = {}
        _prepared = (weakref.ref(instance), entries)
    return entries


def verify_solution(instance: ResolvedInstance, values: List[int],
                    element_base: int = 1) -> bool:
    """True iff `values` (in declaration order) satisfies every constraint."""
    if len(values) != len(instance.domains):
        return False
    if any(v not in d for v, d in zip(values, instance.domains)):
        return False
    prepared = _prepared_for(instance)
    for k, c in enumerate(instance.constraints):
        if isinstance(c.ref, RelationRef):
            relation = c.ref.relation
            point = tuple(values[v] for v in c.scope)
            member = point in relation.tuples
            ok = member if relation.semantics == "supports" else not member
        else:
            if k not in prepared:
                prepared[k] = _prepare(c)
            if isinstance(c.ref, PredicateRef):
                # the body reads only `refs`, which `<parameters>` may take
                # from outside the scope, so their values decide the verdict
                body, refs, verdicts = prepared[k]
                point = tuple(values[v] for v in refs)
                ok = verdicts.get(point)
                if ok is None:
                    if len(verdicts) >= MAX_VERDICTS:
                        verdicts.clear()
                    ok = verdicts[point] = ex.satisfied(body, dict(zip(refs, point)))
            else:
                assert isinstance(c.ref, GlobalRef)
                ok = _check_global(c.ref.name, prepared[k], values, element_base)
        if not ok:
            return False
    return True
