"""Shared test machinery: XML builders, a brute-force oracle, and random
single-constraint instance generators for every constraint family."""

from __future__ import annotations

import random
from itertools import product
from typing import List, Optional, Sequence, Tuple

from xcsolve import (
    compile_instance,
    parse_instance,
    resolve_references,
    verify_solution,
)
from xcsolve.expr import OPERATORS

TINY_ALLDIFF = """<instance>
<presentation format="XCSP 2.1"/>
<domains nbDomains="1">
  <domain name="d0" nbValues="2">1..2</domain>
</domains>
<variables nbVariables="2">
  <variable name="A1" domain="d0"/>
  <variable name="A2" domain="d0"/>
</variables>
<constraints nbConstraints="1">
  <constraint name="c0" arity="2" scope="A1 A2" reference="global:alldifferent"/>
</constraints>
</instance>
"""


def set_text(values: Sequence[int]) -> str:
    return " ".join(str(v) for v in sorted(set(values)))


def instance_xml(variables: List[Tuple[str, List[int]]],
                 constraints: List[dict],
                 relations: List[dict] = (),
                 predicates: List[dict] = ()) -> str:
    """Build a fully-tagged instance; one domain per variable."""
    lines = ['<instance>', '<presentation format="XCSP 2.1"/>']
    lines.append('<domains nbDomains="%d">' % len(variables))
    for i, (_, values) in enumerate(variables):
        lines.append('<domain name="d%d" nbValues="%d">%s</domain>'
                     % (i, len(set(values)), set_text(values)))
    lines.append('</domains>')
    lines.append('<variables nbVariables="%d">' % len(variables))
    for i, (name, _) in enumerate(variables):
        lines.append('<variable name="%s" domain="d%d"/>' % (name, i))
    lines.append('</variables>')
    if relations:
        lines.append('<relations nbRelations="%d">' % len(relations))
        for r in relations:
            body = "|".join(" ".join(str(v) for v in t) for t in r["tuples"])
            lines.append(
                '<relation name="%s" arity="%d" nbTuples="%d" semantics="%s">%s</relation>'
                % (r["name"], r["arity"], len(r["tuples"]), r["semantics"], body))
        lines.append('</relations>')
    if predicates:
        lines.append('<predicates nbPredicates="%d">' % len(predicates))
        for p in predicates:
            formals = " ".join("int %s" % f for f in p["params"])
            lines.append('<predicate name="%s">' % p["name"])
            lines.append('<parameters>%s</parameters>' % formals)
            lines.append('<expression><functional>%s</functional></expression>'
                         % p["body"])
            lines.append('</predicate>')
        lines.append('</predicates>')
    lines.append('<constraints nbConstraints="%d">' % len(constraints))
    for c in constraints:
        attrs = 'name="%s" arity="%d" scope="%s" reference="%s"' % (
            c["name"], len(c["scope"]), " ".join(c["scope"]), c["reference"])
        if c.get("parameters") is None:
            lines.append('<constraint %s/>' % attrs)
        else:
            lines.append('<constraint %s>' % attrs)
            lines.append('<parameters>%s</parameters>' % c["parameters"])
            lines.append('</constraint>')
    lines.append('</constraints>')
    lines.append('</instance>')
    return "\n".join(lines) + "\n"


def load(xml_text: str, element_base: int = 1):
    """Parse + resolve + compile; returns (resolved, problem)."""
    model = parse_instance(xml_text)
    instance = resolve_references(model)
    problem = compile_instance(instance, element_base=element_base)
    return instance, problem


def brute_force(instance, element_base: int = 1) -> List[List[int]]:
    """Every total assignment satisfying all constraints, definitionally."""
    doms = [list(d) for d in instance.domains]
    out = []
    for values in product(*doms):
        values = list(values)
        if verify_solution(instance, values, element_base=element_base):
            out.append(values)
    return out


def summarize(xml_text: str, element_base: int = 1) -> str:
    """Deterministic structural summary of an instance, used for the
    frozen corpus goldens: section sizes, one line per constraint, the
    compiled propagator kinds, and the brute-force solution count."""
    instance, problem = load(xml_text, element_base=element_base)
    lines = [
        "variables %s" % " ".join(instance.names),
        "constraints %d" % len(instance.constraints),
    ]
    for c in instance.constraints:
        ref = c.ref
        kind = type(ref).__name__.replace("Ref", "").lower()
        target = ref.name if hasattr(ref, "name") else \
            (ref.relation.name if kind == "relation" else ref.predicate.name)
        lines.append("constraint %s %s %s scope %s" % (
            c.name, kind, target,
            " ".join(instance.names[v] for v in c.scope)))
    lines.append("propagators %s" % " ".join(
        s.kind for s in problem.propagators))
    lines.append("solutions %d" % len(brute_force(instance, element_base)))
    return "\n".join(lines) + "\n"


# ge(div(4, A), B) on (Y, X) and (Z, Y) over 0..4: A = 0 makes the
# evaluation raise, which counts as a violation; 30 solutions
ERRING_XML = instance_xml(
    [("X", list(range(5))), ("Y", list(range(5))), ("Z", list(range(5)))],
    [{"name": "c0", "scope": ["Y", "X"], "reference": "p0", "parameters": "Y X"},
     {"name": "c1", "scope": ["Z", "Y"], "reference": "p0", "parameters": "Z Y"}],
    predicates=[{"name": "p0", "params": ["A", "B"], "body": "ge(div(4,A),B)"}],
)


def pigeonhole_xml(n: int, pairwise: bool = False) -> str:
    """n+1 variables over {1..n} under one alldifferent constraint, or,
    `pairwise`, under one `ne(A,B)` predicate per pair of variables."""
    variables = [("V%d" % i, list(range(1, n + 1))) for i in range(n + 1)]
    scope = [name for name, _ in variables]
    if not pairwise:
        return instance_xml(variables, [{
            "name": "c0", "scope": scope, "reference": "global:alldifferent",
        }])
    constraints = [{"name": "c%d_%d" % (i, j), "scope": [x, y], "reference": "ne",
                    "parameters": "%s %s" % (x, y)}
                   for i, x in enumerate(scope) for j, y in enumerate(scope) if i < j]
    return instance_xml(variables, constraints, predicates=[
        {"name": "ne", "params": ["A", "B"], "body": "ne(A,B)"}])


def latin_xml(n: int, globals_: bool = False) -> str:
    """An n x n latin square: alldifferent rows and columns over 1..n. With
    `globals_`, the diagonal also holds 1 exactly twice and 2 exactly O
    times (global_cardinality, O over 0..3), the first column 1 at most
    once (atmost), and the first row is at most the second (lex_lesseq)."""
    cells = [["L%d%d" % (r, c) for c in range(n)] for r in range(n)]
    lines = cells + [list(column) for column in zip(*cells)]
    constraints = [{"name": "c%d" % k, "scope": line, "reference": "global:alldifferent"}
                   for k, line in enumerate(lines)]
    variables = [(name, list(range(1, n + 1))) for row in cells for name in row]
    if globals_:
        diagonal = [cells[i][i] for i in range(n)]
        column = [row[0] for row in cells]
        variables.append(("O", [0, 1, 2, 3]))
        constraints += [
            {"name": "gcc", "scope": diagonal + ["O"],
             "reference": "global:global_cardinality",
             "parameters": "[ %s ] [ { 1 2 } { 2 O } ]" % " ".join(diagonal)},
            {"name": "most", "scope": column, "reference": "global:atmost",
             "parameters": "1 [ %s ] 1" % " ".join(column)},
            {"name": "lex", "scope": cells[0] + cells[1], "reference": "global:lex_lesseq",
             "parameters": "[ %s ] [ %s ]" % (" ".join(cells[0]), " ".join(cells[1]))}]
    return instance_xml(variables, constraints)


def queens_xml(n: int) -> str:
    """n-queens with one intension predicate per pair of rows."""
    names = ["Q%d" % i for i in range(n)]
    constraints = [{"name": "c%d_%d" % (i, j), "scope": [names[i], names[j]],
                    "reference": "noattack",
                    "parameters": "%s %s %d" % (names[i], names[j], j - i)}
                   for i in range(n) for j in range(i + 1, n)]
    return instance_xml([(name, list(range(n))) for name in names], constraints,
                        predicates=[{"name": "noattack", "params": ["X", "Y", "D"],
                                     "body": "and(ne(X,Y),ne(abs(sub(X,Y)),D))"}])


# -- random single-constraint instances ---------------------------------------

FAMILIES = (
    "supports", "conflicts", "intension",
    "alldifferent", "among", "atleast", "atmost", "cumulative", "diffn",
    "disjunctive", "element", "global_cardinality", "lex_less", "lex_lesseq",
    "not_all_equal", "weightedsum",
)

_BOOL_OPS = ["eq", "ne", "ge", "gt", "le", "lt", "and", "or", "xor", "iff", "not"]
_ANY_OPS = list(OPERATORS)


def _random_domain(rng: random.Random, lo=-3, hi=6, max_size=5) -> List[int]:
    size = rng.randint(1, max_size)
    return sorted(rng.sample(range(lo, hi + 1), size))


def _random_vars(rng: random.Random, count: int, lo=-3, hi=6, max_size=5):
    return [("V%d" % i, _random_domain(rng, lo, hi, max_size)) for i in range(count)]


def _random_expr(rng: random.Random, formals: List[str], depth: int,
                 used_ops: set) -> str:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return rng.choice(formals)
        return str(rng.randint(-3, 4))
    op = rng.choice(_ANY_OPS)
    used_ops.add(op)
    arity = OPERATORS[op]
    args = [_random_expr(rng, formals, depth - 1, used_ops) for _ in range(arity)]
    return "%s(%s)" % (op, ",".join(args))


def random_instance(family: str, rng: random.Random,
                    used_ops: Optional[set] = None) -> str:
    """One random single-constraint instance of the given family, as XML."""
    if family in ("supports", "conflicts"):
        n = rng.randint(2, 3)
        variables = _random_vars(rng, n)
        pool = sorted({v for _, values in variables for v in values})
        tuples = [tuple(rng.choice(pool) for _ in range(n))
                  for _ in range(rng.randint(0, 8))]
        return instance_xml(
            variables,
            [{"name": "c0", "scope": [v for v, _ in variables], "reference": "r0"}],
            relations=[{"name": "r0", "arity": n, "semantics": family,
                        "tuples": tuples}],
        )
    if family == "intension":
        n = rng.randint(2, 4)
        variables = _random_vars(rng, n, lo=-2, hi=4, max_size=4)
        formals = ["P%d" % i for i in range(n)]
        ops = used_ops if used_ops is not None else set()
        root = rng.choice(_BOOL_OPS)
        ops.add(root)
        arity = OPERATORS[root]
        body = "%s(%s)" % (root, ",".join(
            _random_expr(rng, formals, 2, ops) for _ in range(arity)))
        # mix variable and constant effective parameters
        effective = []
        scope = []
        for name, _ in variables:
            if rng.random() < 0.75 or not scope:
                effective.append(name)
                scope.append(name)
            else:
                effective.append(str(rng.randint(-2, 3)))
        return instance_xml(
            variables[:0] + [v for v in variables if v[0] in scope],
            [{"name": "c0", "scope": scope, "reference": "p0",
              "parameters": " ".join(effective)}],
            predicates=[{"name": "p0", "params": formals, "body": body}],
        )
    if family == "alldifferent":
        n = rng.randint(2, 4)
        variables = _random_vars(rng, n, lo=0, hi=5)
        scope = [v for v, _ in variables]
        params = "[ %s ]" % " ".join(scope) if rng.random() < 0.5 else None
        return instance_xml(variables, [{
            "name": "c0", "scope": scope, "reference": "global:alldifferent",
            "parameters": params}])
    if family == "among":
        n = rng.randint(2, 3)
        count_is_var = rng.random() < 0.4
        variables = _random_vars(rng, n, lo=0, hi=5)
        counted = [v for v, _ in variables]
        if count_is_var:
            variables.append(("N", list(range(0, n + 1))))
        values = sorted(rng.sample(range(0, 6), rng.randint(1, 3)))
        count = "N" if count_is_var else str(rng.randint(0, n))
        scope = [v for v, _ in variables]
        return instance_xml(variables, [{
            "name": "c0", "scope": scope, "reference": "global:among",
            "parameters": "%s [ %s ] [ %s ]" % (
                count, " ".join(counted), " ".join(map(str, values)))}])
    if family in ("atleast", "atmost"):
        n = rng.randint(2, 4)
        variables = _random_vars(rng, n, lo=0, hi=4)
        scope = [v for v, _ in variables]
        k = rng.randint(0, n)
        value = rng.randint(0, 4)
        return instance_xml(variables, [{
            "name": "c0", "scope": scope, "reference": "global:%s" % family,
            "parameters": "%d [ %s ] %d" % (k, " ".join(scope), value)}])
    if family == "element":
        table_len = rng.randint(2, 3)
        variables = [("I", _random_domain(rng, lo=0, hi=table_len + 1, max_size=3))]
        table = []
        for j in range(table_len):
            if rng.random() < 0.6:
                variables.append(("T%d" % j, _random_domain(rng, lo=0, hi=4,
                                                            max_size=3)))
                table.append("T%d" % j)
            else:
                table.append(str(rng.randint(0, 4)))
        # the value may alias the index, and a cell the value
        roll = rng.random()
        if roll < 0.2:
            value = "I"
        elif roll < 0.76:
            variables.append(("X", _random_domain(rng, lo=0, hi=4, max_size=3)))
            value = "X"
            if rng.random() < 0.3:
                table[rng.randrange(table_len)] = "X"
        else:
            value = str(rng.randint(0, 4))
        scope = [v for v, _ in variables]
        return instance_xml(variables, [{
            "name": "c0", "scope": scope, "reference": "global:element",
            "parameters": "I [ %s ] %s" % (" ".join(table), value)}])
    if family == "global_cardinality":
        n = rng.randint(2, 3)
        variables = _random_vars(rng, n, lo=0, hi=3, max_size=4)
        counted = [v for v, _ in variables]
        entries = []
        for value in rng.sample(range(0, 4), rng.randint(1, 2)):
            if rng.random() < 0.3:
                occ = "O%d" % value
                variables.append((occ, list(range(0, n + 1))))
            else:
                occ = str(rng.randint(0, n))
            entries.append("{ %d %s }" % (value, occ))
        scope = [v for v, _ in variables]
        return instance_xml(variables, [{
            "name": "c0", "scope": scope,
            "reference": "global:global_cardinality",
            "parameters": "[ %s ] [ %s ]" % (" ".join(counted), " ".join(entries))}])
    if family == "cumulative":
        n = rng.randint(2, 3)
        variables = _random_vars(rng, n, lo=0, hi=4, max_size=4)
        tasks = []
        for name, _ in variables:
            tasks.append("{ %s %d %d }" % (name, rng.randint(0, 3), rng.randint(0, 2)))
        scope = [v for v, _ in variables]
        return instance_xml(variables, [{
            "name": "c0", "scope": scope, "reference": "global:cumulative",
            "parameters": "[ %s ] %d" % (" ".join(tasks), rng.randint(1, 3))}])
    if family == "disjunctive":
        n = rng.randint(2, 3)
        variables = _random_vars(rng, n, lo=0, hi=4, max_size=4)
        tasks = ["{ %s %d }" % (name, rng.randint(0, 3)) for name, _ in variables]
        scope = [v for v, _ in variables]
        return instance_xml(variables, [{
            "name": "c0", "scope": scope, "reference": "global:disjunctive",
            "parameters": "[ %s ]" % " ".join(tasks)}])
    if family == "diffn":
        variables = _random_vars(rng, 4, lo=0, hi=3, max_size=3)
        names = [v for v, _ in variables]
        boxes = [
            "{ %s %s %d %d }" % (names[0], names[1], rng.randint(1, 2), rng.randint(1, 2)),
            "{ %s %s %d %d }" % (names[2], names[3], rng.randint(1, 2), rng.randint(1, 2)),
        ]
        return instance_xml(variables, [{
            "name": "c0", "scope": names, "reference": "global:diffn",
            "parameters": "[ %s ]" % " ".join(boxes)}])
    if family in ("lex_less", "lex_lesseq"):
        length = rng.randint(2, 2)
        variables = _random_vars(rng, 2 * length, lo=0, hi=3, max_size=3)
        names = [v for v, _ in variables]
        xs, ys = [], []
        scope = []
        for i in range(length):
            if rng.random() < 0.8:
                xs.append(names[i])
                scope.append(names[i])
            else:
                xs.append(str(rng.randint(0, 3)))
            if rng.random() < 0.8 or not scope:
                ys.append(names[length + i])
                scope.append(names[length + i])
            else:
                ys.append(str(rng.randint(0, 3)))
        variables = [v for v in variables if v[0] in scope]
        return instance_xml(variables, [{
            "name": "c0", "scope": scope, "reference": "global:%s" % family,
            "parameters": "[ %s ] [ %s ]" % (" ".join(xs), " ".join(ys))}])
    if family == "not_all_equal":
        n = rng.randint(2, 4)
        variables = _random_vars(rng, n, lo=0, hi=3, max_size=4)
        scope = [v for v, _ in variables]
        return instance_xml(variables, [{
            "name": "c0", "scope": scope, "reference": "global:not_all_equal",
            "parameters": None}])
    if family == "weightedsum":
        n = rng.randint(2, 3)
        variables = _random_vars(rng, n, lo=-2, hi=4, max_size=4)
        terms = []
        for name, _ in variables:
            coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            terms.append("{ %d %s }" % (coeff, name))
        op = rng.choice(["eq", "ne", "ge", "gt", "le", "lt"])
        scope = [v for v, _ in variables]
        return instance_xml(variables, [{
            "name": "c0", "scope": scope, "reference": "global:weightedSum",
            "parameters": "[ %s ] %s %d" % (" ".join(terms), op, rng.randint(-4, 8))}])
    raise ValueError("unknown family %r" % family)
