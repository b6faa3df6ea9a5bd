"""Seeded instance generators for the benchmark workloads.

Every generator returns a list of `Instance`s: the XCSP 2.1 text, the
command-line options the benchmark runs it with, and the expected answer.
The expected answer never comes from the solver; it is one of

* a published count (n-queens, OEIS A000170),
* a planted solution, or a planted box of solutions whose size is known,
* a count made by an independent enumerator written here, stopped at the
  solution limit,
* an energy certificate that proves a schedule unsatisfiable.

The same seed gives byte-identical instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations, product
from typing import Dict, List, Optional, Sequence, Tuple

SAT = "SATISFIABLE"
UNSAT = "UNSATISFIABLE"

# OEIS A000170: number of n-queens solutions.
QUEENS_COUNTS = {1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352,
                 10: 724, 11: 2680, 12: 14200}


@dataclass
class Expected:
    status: str
    count: int  # exact number of `v` lines the run must print
    solution: Optional[List[int]] = None  # the only acceptable `v` line
    certificate: str = ""


@dataclass
class Instance:
    name: str
    xml: str
    options: Dict[str, object]  # RunConfig fields other than `path`
    expected: Expected


# -- XML --------------------------------------------------------------------


class XmlBuilder:
    """Fully-tagged XCSP 2.1 text with shared domains."""

    def __init__(self):
        self.domains: List[Tuple[str, str]] = []
        self._domain_names: Dict[str, str] = {}
        self.variables: List[Tuple[str, str]] = []
        self.relations: List[str] = []
        self.predicates: List[str] = []
        self.constraints: List[Tuple[List[str], str, Optional[str]]] = []

    def domain(self, text: str) -> str:
        if text not in self._domain_names:
            name = "d%d" % len(self.domains)
            self._domain_names[text] = name
            self.domains.append((name, text))
        return self._domain_names[text]

    def variable(self, name: str, values: Sequence[int]) -> str:
        self.variables.append((name, self.domain(_set_text(values))))
        return name

    def relation(self, name: str, arity: int, semantics: str,
                 tuples: Sequence[Sequence[int]]) -> None:
        body = "|".join(" ".join(map(str, t)) for t in tuples)
        self.relations.append(
            '<relation name="%s" arity="%d" nbTuples="%d" semantics="%s">%s</relation>'
            % (name, arity, len(tuples), semantics, body))

    def predicate(self, name: str, params: Sequence[str], body: str) -> None:
        self.predicates.append(
            '<predicate name="%s">\n<parameters>%s</parameters>\n'
            '<expression><functional>%s</functional></expression>\n</predicate>'
            % (name, " ".join("int %s" % p for p in params), body))

    def constraint(self, scope: Sequence[str], reference: str,
                   parameters: Optional[str] = None):
        self.constraints.append((list(scope), reference, parameters))

    def text(self) -> str:
        out = ['<instance>', '<presentation format="XCSP 2.1"/>',
               '<domains nbDomains="%d">' % len(self.domains)]
        for name, text in self.domains:
            out.append('<domain name="%s" nbValues="%d">%s</domain>'
                       % (name, _count_values(text), text))
        out.append('</domains>')
        out.append('<variables nbVariables="%d">' % len(self.variables))
        out.extend('<variable name="%s" domain="%s"/>' % v for v in self.variables)
        out.append('</variables>')
        if self.relations:
            out.append('<relations nbRelations="%d">' % len(self.relations))
            out.extend(self.relations)
            out.append('</relations>')
        if self.predicates:
            out.append('<predicates nbPredicates="%d">' % len(self.predicates))
            out.extend(self.predicates)
            out.append('</predicates>')
        out.append('<constraints nbConstraints="%d">' % len(self.constraints))
        for k, (scope, reference, parameters) in enumerate(self.constraints):
            attrs = 'name="c%d" arity="%d" scope="%s" reference="%s"' % (
                k, len(scope), " ".join(scope), reference)
            if parameters is None:
                out.append("<constraint %s/>" % attrs)
            else:
                out.append("<constraint %s>\n<parameters>%s</parameters>\n"
                           "</constraint>" % (attrs, parameters))
        out.append('</constraints>')
        out.append('</instance>')
        return "\n".join(out) + "\n"


def _set_text(values: Sequence[int]) -> str:
    vs = sorted(set(values))
    if len(vs) > 1 and vs[-1] - vs[0] == len(vs) - 1:
        return "%d..%d" % (vs[0], vs[-1])
    return " ".join(map(str, vs))


def _count_values(text: str) -> int:
    if ".." in text:
        lo, hi = text.split("..")
        return int(hi) - int(lo) + 1
    return len(text.split())


# -- queens-all -------------------------------------------------------------


def queens(seed: int, n: int = 10) -> Instance:
    """n-queens with one intension predicate per pair of rows. The seed
    swaps the arguments of each predicate call, which leaves the solution
    set, the search tree and the propagation count unchanged."""
    rng = random.Random(seed)
    b = XmlBuilder()
    qs = [b.variable("Q%d" % i, range(n)) for i in range(n)]
    b.predicate("noattack", ["X", "Y", "D"], "and(ne(X,Y),ne(abs(sub(X,Y)),D))")
    for i in range(n):
        for j in range(i + 1, n):
            a, c = (i, j) if rng.random() < 0.5 else (j, i)
            b.constraint([qs[a], qs[c]], "noattack", "%s %s %d" % (qs[a], qs[c], j - i))
    count = QUEENS_COUNTS[n]
    return Instance("queens%d" % n, b.text(), {"mode": "all", "verify": True},
                    Expected(SAT if count else UNSAT, count,
                             certificate="OEIS A000170(%d) = %d" % (n, count)))


# -- tables-sat -------------------------------------------------------------


def regular_graph(rng: random.Random, n: int, degree: int) -> List[Tuple[int, int]]:
    """A random `degree`-regular simple graph on n (even) vertices, as the
    union of `degree` random perfect matchings with no repeated edge."""
    while True:
        edges = set()
        for _ in range(degree):
            perm = rng.sample(range(n), n)
            edges.update(tuple(sorted(perm[k:k + 2])) for k in range(0, n, 2))
        if len(edges) == n * degree // 2:
            return sorted(edges)


def random_tables(seed: int, n_vars: int = 30, d: int = 8, degree: int = 6,
                  n_tuples: int = 40, limit: int = 700, structure: int = 1) -> Instance:
    """Random binary `supports` tables on a random regular constraint graph,
    around a planted box of solutions.

    Each variable gets one or two planted values drawn at random; the
    two-valued ones are the last variables. Every relation holds all pairs
    of planted values of its scope, so every point of the box is a
    solution, and random other pairs, so that the search also meets
    solutions, prunings and dead ends outside the box. The box holds at
    least `limit` points, so a `--limit` run must print exactly `limit`
    distinct solutions. Random tables differ in search effort by up to 2x
    from one draw to the next, so `structure` seeds the graph, the planted
    values and the tuples, and `seed` only shuffles the order in which the
    constraints are declared."""
    shape = random.Random(structure)
    doubled = (limit - 1).bit_length()
    if doubled > n_vars:
        raise ValueError("planted box cannot reach the limit")
    planted = [sorted(shape.sample(range(d), 1 if i < n_vars - doubled else 2))
               for i in range(n_vars)]
    b = XmlBuilder()
    vs = [b.variable("V%d" % i, range(d)) for i in range(n_vars)]
    for k, (i, j) in enumerate(regular_graph(shape, n_vars, degree)):
        box = list(product(planted[i], planted[j]))
        rest = [t for t in product(range(d), repeat=2) if t not in box]
        if len(box) + len(rest) < n_tuples:
            raise ValueError("too few pairs for %d tuples" % n_tuples)
        tuples = sorted(box + shape.sample(rest, n_tuples - len(box)))
        b.relation("R%d" % k, 2, "supports", tuples)
        b.constraint([vs[i], vs[j]], "R%d" % k)
    random.Random(seed).shuffle(b.constraints)
    points = 2 ** doubled
    return Instance("tables%d" % n_vars, b.text(), {"mode": "all", "limit": limit},
                    Expected(SAT, min(points, limit),
                             certificate="planted box of %d solutions" % points))


# -- globals-mix ------------------------------------------------------------
#
# Random latin-square completions and random schedules differ in search
# effort by 2x to 50x from one draw to the next, so these three instances
# keep a fixed structure. The seed shuffles the order in which constraints
# (and cumulative tasks) are declared, which changes the text and the
# propagation order but not the search tree.


def latin_square(rng: random.Random, n: int) -> List[List[int]]:
    """A latin square isotopic to the cyclic one, with values 1..n."""
    rows = rng.sample(range(n), n)
    cols = rng.sample(range(n), n)
    symbols = rng.sample(range(1, n + 1), n)
    return [[symbols[(rows[r] + cols[c]) % n] for c in range(n)] for r in range(n)]


def count_latin_completions(n: int, givens: Dict[Tuple[int, int], int],
                            stop: int) -> int:
    """Completions of a partial latin square, counted up to `stop` by a
    bitmask depth-first search that shares no code with the solver."""
    full = (1 << n) - 1
    row_used = [0] * n
    col_used = [0] * n
    for (r, c), v in givens.items():
        row_used[r] |= 1 << (v - 1)
        col_used[c] |= 1 << (v - 1)
    count = 0

    def dfs(remaining: List[Tuple[int, int]]) -> None:
        nonlocal count
        if not remaining:
            count += 1
            return
        best, best_free = 0, full
        for k, (r, c) in enumerate(remaining):
            free = full & ~(row_used[r] | col_used[c])
            if not free:
                return
            if bin(free).count("1") < bin(best_free).count("1"):
                best, best_free = k, free
        r, c = remaining[best]
        rest = remaining[:best] + remaining[best + 1:]
        free = best_free
        while free and count < stop:
            bit = free & -free
            free ^= bit
            row_used[r] |= bit
            col_used[c] |= bit
            dfs(rest)
            row_used[r] ^= bit
            col_used[c] ^= bit

    dfs([(r, c) for r in range(n) for c in range(n) if (r, c) not in givens])
    return count


def latin_completion(seed: int, n: int = 9, open_share: float = 0.75,
                     limit: int = 300, structure: int = 8) -> Instance:
    """Completion of a planted latin square with `open_share` of its cells
    open, one alldifferent per row and column. `structure` seeds the square
    and the given cells; `seed` only shuffles the constraint order."""
    shape = random.Random(structure)
    square = latin_square(shape, n)
    cells = [(r, c) for r in range(n) for c in range(n)]
    given_cells = sorted(shape.sample(cells, round(n * n * (1 - open_share))))
    givens = {(r, c): square[r][c] for r, c in given_cells}
    b = XmlBuilder()
    grid = [[b.variable("L%d_%d" % (r, c),
                        [givens[r, c]] if (r, c) in givens else range(1, n + 1))
             for c in range(n)] for r in range(n)]
    for r in range(n):
        b.constraint(grid[r], "global:alldifferent")
    for c in range(n):
        b.constraint([grid[r][c] for r in range(n)], "global:alldifferent")
    random.Random(seed).shuffle(b.constraints)
    count = count_latin_completions(n, givens, limit)
    return Instance("latin%d" % n, b.text(), {"mode": "all", "limit": limit},
                    Expected(SAT, count,
                             certificate="independent completion count, capped at %d"
                             % limit))


def roster_ok(rows: Sequence[Sequence[int]], night: int) -> bool:
    """The rostering rules, checked on a full schedule (nurse x day)."""
    nurses, days = len(rows), len(rows[0])
    for d in range(days):
        if sorted(rows[n][d] for n in range(nurses)) != list(range(nurses)):
            return False
    for row in rows:
        if any(row[d] == night and row[d + 1] == night for d in range(days - 1)):
            return False
    return all(list(rows[n]) <= list(rows[n + 1]) for n in range(nurses - 1))


def count_rosters(nurses: int, night: int, stop: int) -> int:
    """Rosters counted up to `stop` by enumerating one permutation of the
    shifts per day, independently of the solver."""
    perms = list(permutations(range(nurses)))
    count = 0

    def extend(columns: List[Tuple[int, ...]]) -> None:
        nonlocal count
        if count >= stop:
            return
        if len(columns) == nurses:
            rows = [[col[n] for col in columns] for n in range(nurses)]
            count += roster_ok(rows, night)
            return
        for p in perms:
            if not columns or all(p[n] != night or columns[-1][n] != night
                                  for n in range(nurses)):
                extend(columns + [p])

    extend([])
    return count


def roster(seed: int, nurses: int = 4, limit: int = 3000) -> Instance:
    """Nurses x days shifts (days = nurses = shift values): each day every
    shift is covered once (global_cardinality), no nurse works the night
    shift, the highest value, on two days in a row (sliding atmost), and
    nurses are ordered lexicographically (lex_lesseq) to break their
    symmetry."""
    night = nurses - 1
    days = nurses
    b = XmlBuilder()
    x = [[b.variable("N%dD%d" % (n, d), range(nurses)) for d in range(days)]
         for n in range(nurses)]
    occurrences = " ".join("{ %d 1 }" % v for v in range(nurses))
    for d in range(days):
        column = [x[n][d] for n in range(nurses)]
        b.constraint(column, "global:global_cardinality",
                     "[ %s ] [ %s ]" % (" ".join(column), occurrences))
    for n in range(nurses):
        for d in range(days - 1):
            window = [x[n][d], x[n][d + 1]]
            b.constraint(window, "global:atmost",
                         "1 [ %s ] %d" % (" ".join(window), night))
    for n in range(nurses - 1):
        b.constraint(x[n] + x[n + 1], "global:lex_lesseq",
                     "[ %s ] [ %s ]" % (" ".join(x[n]), " ".join(x[n + 1])))
    random.Random(seed).shuffle(b.constraints)
    count = count_rosters(nurses, night, limit)
    return Instance("roster%d" % nurses, b.text(), {"mode": "all", "limit": limit},
                    Expected(SAT, count,
                             certificate="independent roster count, capped at %d"
                             % limit))


# (duration, height) per task; sum(d * h) = 91 > capacity 3 x horizon 22
SCHEDULE_TASKS = [(1, 1), (4, 2), (6, 3), (1, 1), (5, 2), (2, 3),
                  (5, 1), (3, 2), (3, 3), (5, 1), (5, 2), (4, 3)]
SCHEDULE_PRECEDENCES = [(2, 9), (6, 5)]  # (a, b): b starts after a ends
SCHEDULE_DISJUNCTIVE = [0, 1, 4]


def schedule(seed: int, capacity: int = 3, horizon: int = 22,
             tasks: Sequence[Tuple[int, int]] = SCHEDULE_TASKS,
             precedences: Sequence[Tuple[int, int]] = SCHEDULE_PRECEDENCES,
             disjunctive: Sequence[int] = SCHEDULE_DISJUNCTIVE) -> Instance:
    """Tasks (duration, height) sharing a cumulative resource, with
    precedences written as weightedSum and one disjunctive group. Total
    energy sum(d * h) exceeds capacity * horizon, which certifies that no
    schedule exists."""
    energy = sum(d * h for d, h in tasks)
    if energy <= capacity * horizon:
        raise ValueError("the energy certificate needs energy > capacity * horizon")
    rng = random.Random(seed)
    b = XmlBuilder()
    s = [b.variable("S%d" % k, range(horizon - d + 1)) for k, (d, _) in enumerate(tasks)]
    items = ["{ %s %d %d }" % (s[k], d, h) for k, (d, h) in enumerate(tasks)]
    rng.shuffle(items)
    b.constraint(s, "global:cumulative", "[ %s ] %d" % (" ".join(items), capacity))
    for a, c in precedences:
        b.constraint([s[a], s[c]], "global:weightedSum",
                     "[ { 1 %s } { -1 %s } ] <ge/> %d" % (s[c], s[a], tasks[a][0]))
    if disjunctive:
        b.constraint([s[k] for k in disjunctive], "global:disjunctive",
                     "[ %s ]" % " ".join("{ %s %d }" % (s[k], tasks[k][0])
                                         for k in disjunctive))
    rng.shuffle(b.constraints)
    return Instance("schedule%d" % len(tasks), b.text(), {"mode": "first"},
                    Expected(UNSAT, 0,
                             certificate="energy %d > capacity %d x horizon %d"
                             % (energy, capacity, horizon)))


# -- bulk-root --------------------------------------------------------------


def chain(seed: int, n_vars: int = 1000, d: int = 40, n_tuples: int = 600) -> Instance:
    """A chain V0 - V1 - ... of binary `supports` tables. V0 is fixed and
    each table holds exactly one tuple whose first value is the planted
    value of its first variable, so root arc consistency fixes every
    variable and the planted assignment is the only solution."""
    rng = random.Random(seed)
    planted = [rng.randrange(d) for _ in range(n_vars)]
    b = XmlBuilder()
    vs = [b.variable("V0", [planted[0]])]
    vs += [b.variable("V%d" % i, range(d)) for i in range(1, n_vars)]
    for i in range(n_vars - 1):
        others = [(x, y) for x in range(d) if x != planted[i] for y in range(d)]
        tuples = sorted([(planted[i], planted[i + 1])]
                        + rng.sample(others, n_tuples - 1))
        b.relation("R%d" % i, 2, "supports", tuples)
        b.constraint([vs[i], vs[i + 1]], "R%d" % i)
    return Instance("chain%d" % n_vars, b.text(), {"mode": "first"},
                    Expected(SAT, 1, solution=planted,
                             certificate="planted chain forced from V0"))


WORKLOADS = {
    "queens-all": lambda seed: [queens(seed)],
    "tables-sat": lambda seed: [random_tables(seed)],
    "globals-mix": lambda seed: [latin_completion(seed), roster(seed), schedule(seed)],
    "bulk-root": lambda seed: [chain(seed)],
}
