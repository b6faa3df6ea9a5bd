"""Independent semantic oracle: check a total assignment against constraint
definitions, never against propagators.

Relations are checked by tuple membership, predicates by expression
evaluation, globals by their catalog definitions written out directly,
except `weightedSum`, which is the predicate `model.GLOBALS` builds.
The oracle reads each predicate's ground body and each global's parsed
parameters from the reference `resolve_references` made for it; it
imports nothing from the compiler or the propagators."""

from __future__ import annotations

from itertools import combinations
from typing import List

from . import expr as ex
from .model import PredicateRef, RelationRef, ResolvedInstance

# the most verdicts one predicate keeps before its cache is cleared
MAX_VERDICTS = 1 << 16


def _term_value(term, values: List[int]) -> int:
    return values[term.index] if isinstance(term, ex.VarRef) else term


def _check_global(name: str, sig, values: List[int], element_base: int) -> bool:
    if name == "alldifferent":
        vs = [values[v] for v in sig]
        return len(set(vs)) == len(vs)
    if name in ("among", "atleast", "atmost", "global_cardinality"):
        for s in sig:
            counted = set(s["values"])
            count = sum(1 for v in s["vars"] if values[v] in counted)
            if s["count_var"] is not None and count != values[s["count_var"]]:
                return False
            if ((s["lo"] is not None and count < s["lo"])
                    or (s["hi"] is not None and count > s["hi"])):
                return False
        return True
    if name == "element":
        i = _term_value(sig["index"], values) - element_base
        if not (0 <= i < len(sig["table"])):
            return False
        return _term_value(sig["table"][i], values) == _term_value(sig["value"], values)
    if name == "cumulative":
        # heights are nonnegative, so the load can only rise where a task
        # starts: checking it at every start checks it everywhere
        tasks = [(_term_value(o, values), d, h) for o, d, h in sig["tasks"] if d > 0]
        return all(sum(h for s, d, h in tasks if s <= start < s + d) <= sig["capacity"]
                   for start, _, _ in tasks)
    if name == "disjunctive":
        spans = [(_term_value(o, values), d) for o, d in sig]
        return all(si + di <= sj or sj + dj <= si
                   for (si, di), (sj, dj) in combinations(spans, 2))
    if name == "diffn":
        boxes = [tuple(_term_value(t, values) for t in box) for box in sig]
        return all(xi + wi <= xj or xj + wj <= xi or yi + hi <= yj or yj + hj <= yi
                   for (xi, yi, wi, hi), (xj, yj, wj, hj) in combinations(boxes, 2))
    if name in ("lex_less", "lex_lesseq"):
        xs = tuple(_term_value(t, values) for t in sig["xs"])
        ys = tuple(_term_value(t, values) for t in sig["ys"])
        return xs < ys if name == "lex_less" else xs <= ys
    if name == "not_all_equal":
        vs = [values[v] for v in sig]
        return len(set(vs)) > 1
    assert name == "weightedsum"
    return ex.satisfied(sig, values)  # the ground predicate it stands for


def verify_solution(instance: ResolvedInstance, values: List[int],
                    element_base: int = 1) -> bool:
    """True iff `values` (in declaration order) satisfies every constraint."""
    if len(values) != len(instance.domains):
        return False
    if any(v not in d for v, d in zip(values, instance.domains)):
        return False
    for c in instance.constraints:
        ref = c.ref
        if isinstance(ref, RelationRef):
            if ref.members is None:
                ref.members = frozenset(ref.relation.tuples)
            member = tuple(values[v] for v in c.scope) in ref.members
            ok = member if ref.relation.semantics == "supports" else not member
        elif isinstance(ref, PredicateRef):
            # the body reads only `refs`, which `<parameters>` may take
            # from outside the scope, so their values decide the verdict
            point = tuple(values[v] for v in ref.refs)
            verdicts = ref.verdicts
            ok = verdicts.get(point)
            if ok is None:
                if len(verdicts) >= MAX_VERDICTS:
                    verdicts.clear()
                ok = verdicts[point] = ex.satisfied(ref.body, dict(zip(ref.refs, point)))
        else:
            ok = _check_global(ref.name, ref.sig, values, element_base)
        if not ok:
            return False
    return True
