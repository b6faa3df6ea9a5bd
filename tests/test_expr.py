import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcsolve import expr as ex
from xcsolve.errors import EvalError, FormatError


def ground(text, **env):
    """Parse with the env keys as parameters, then bind them to VarRefs."""
    names = sorted(env)
    tree = ex.parse_functional(text, names)
    refs = [ex.VarRef(i) for i in range(len(names))]
    tree = ex.substitute(tree, names, refs)
    assignment = {i: env[name] for i, name in enumerate(names)}
    return tree, assignment


def run(text, **env):
    tree, assignment = ground(text, **env)
    return ex.evaluate(tree, assignment)


# -- parsing ------------------------------------------------------------------


def test_parse_minimal_binary():
    tree = ex.parse_functional("eq(X0,X1)", ["X0", "X1"])
    assert tree == ex.Apply("eq", (ex.Param("X0"), ex.Param("X1")))


def test_parse_whitespace_and_negatives():
    tree = ex.parse_functional(" add( X0 , -3 ) ", ["X0"])
    assert tree == ex.Apply("add", (ex.Param("X0"), ex.IntLiteral(-3)))


def test_parse_unknown_operator():
    with pytest.raises(FormatError, match="unknown operator"):
        ex.parse_functional("frob(X0,X1)", ["X0", "X1"])


def test_parse_digit_tokens_that_int_refuses():
    # a superscript counts as a digit to the tokenizer but not to int()
    with pytest.raises(FormatError, match=r"^bad integer token '²'$"):
        ex.parse_functional("eq(X0,²)", ["X0"])
    with pytest.raises(FormatError, match=r"^integer '-9{39}'\.\.\. \(5000 characters\) "
                                          r"is too large$"):
        ex.parse_functional("eq(X0,-%s)" % ("9" * 4999), ["X0"])


def test_parse_wrong_arity():
    with pytest.raises(FormatError, match="expects 2"):
        ex.parse_functional("add(X0)", ["X0"])
    with pytest.raises(FormatError, match="expects 1"):
        ex.parse_functional("abs(X0,X0)", ["X0"])


def test_parse_undeclared_identifier():
    with pytest.raises(FormatError, match="not a declared parameter"):
        ex.parse_functional("eq(X0,Y9)", ["X0"])


def test_parse_trailing_garbage():
    with pytest.raises(FormatError):
        ex.parse_functional("eq(X0,X1))", ["X0", "X1"])


# -- substitution -------------------------------------------------------------


class CountingIndex(int):
    """A variable index that counts the equality tests made on it."""
    comparisons = 0

    def __eq__(self, other):
        CountingIndex.comparisons += 1
        return int.__eq__(self, other)

    __hash__ = int.__hash__


def test_var_refs_is_linear_in_the_references():
    n = 2000
    refs = [ex.VarRef(CountingIndex(i % n)) for i in range(2 * n)]
    CountingIndex.comparisons = 0
    got = ex.var_refs(ex.Apply("add", tuple(reversed(refs))))
    assert got == list(reversed(range(n)))
    assert CountingIndex.comparisons <= 2 * len(refs)


def test_substitute_positional():
    body = ex.parse_functional("eq(P0,P1)", ["P0", "P1"])
    out = ex.substitute(body, ["P0", "P1"], [ex.VarRef(3), 7])
    assert out == ex.Apply("eq", (ex.VarRef(3), ex.IntLiteral(7)))


def test_substitute_repeated_formal():
    body = ex.parse_functional("add(P0,P0)", ["P0"])
    out = ex.substitute(body, ["P0"], [ex.VarRef(1)])
    assert out == ex.Apply("add", (ex.VarRef(1), ex.VarRef(1)))


def test_substitute_mixed():
    body = ex.parse_functional("and(eq(P0,P1),gt(P2,0))", ["P0", "P1", "P2"])
    out = ex.substitute(body, ["P0", "P1", "P2"], [ex.VarRef(0), 5, ex.VarRef(2)])
    assert out == ex.Apply("and", (
        ex.Apply("eq", (ex.VarRef(0), ex.IntLiteral(5))),
        ex.Apply("gt", (ex.VarRef(2), ex.IntLiteral(0))),
    ))


def test_substitute_length_mismatch():
    body = ex.parse_functional("eq(P0,P1)", ["P0", "P1"])
    with pytest.raises(EvalError):
        ex.substitute(body, ["P0", "P1"], [ex.VarRef(0)])


# -- evaluation ---------------------------------------------------------------


def test_eq_definitional():
    assert run("eq(2,2)") == 1
    assert run("eq(2,3)") == 0


def test_if_false_branch():
    assert run("if(0,10,20)") == 20
    assert run("if(3,10,20)") == 10


def test_if_as_absolute_value():
    assert run("if(gt(X0,0),X0,neg(X0))", X0=-3) == 3
    assert run("if(gt(X0,0),X0,neg(X0))", X0=5) == 5


def test_ne_matches_binary_alldifferent():
    # brute force over all four assignments of two {1,2} variables
    expected = {(1, 1): 0, (1, 2): 1, (2, 1): 1, (2, 2): 0}
    for (a, b), want in expected.items():
        assert run("ne(X0,X1)", X0=a, X1=b) == want


def test_truncating_division():
    assert run("div(7,2)") == 3
    assert run("div(-7,2)") == -3
    assert run("div(7,-2)") == -3
    assert run("mod(7,2)") == 1
    assert run("mod(-7,2)") == -1
    assert run("mod(7,-2)") == 1


def test_division_by_zero():
    with pytest.raises(EvalError):
        run("div(1,0)")
    with pytest.raises(EvalError):
        run("mod(1,0)")


def test_pow():
    assert run("pow(2,10)") == 1024
    assert run("pow(-2,3)") == -8
    assert run("pow(5,0)") == 1
    with pytest.raises(EvalError):
        run("pow(2,-1)")


def test_overflow_detected():
    big = 2 ** 62
    with pytest.raises(EvalError):
        run("mul(%d,4)" % big)
    with pytest.raises(EvalError):
        run("pow(2,70)")


def test_pow_cost_does_not_grow_with_the_exponent():
    # a loop of b multiplications would take hours on these exponents
    started = time.monotonic()
    assert run("pow(1,%d)" % 2 ** 62) == 1
    assert run("pow(-1,%d)" % (2 ** 62 + 1)) == -1
    assert run("pow(-1,%d)" % 2 ** 62) == 1
    assert run("pow(0,%d)" % 2 ** 62) == 0
    assert run("pow(0,0)") == 1
    with pytest.raises(EvalError):
        run("pow(2,%d)" % 2 ** 62)
    assert time.monotonic() - started < 1.0
    # the last value that fits, and the first that does not
    assert run("pow(2,62)") == 2 ** 62
    assert run("pow(-2,63)") == -2 ** 63
    assert run("pow(3,39)") == 3 ** 39
    for text in ("pow(2,63)", "pow(-2,64)", "pow(3,40)", "pow(1,-1)", "pow(0,-3)"):
        with pytest.raises(EvalError):
            run(text)


def test_pow_matches_repeated_multiplication():
    for a in range(-5, 6):
        for b in range(0, 30):
            want = a ** b
            if -2 ** 63 <= want < 2 ** 63:
                assert run("pow(%d,%d)" % (a, b)) == want


def test_boolean_nonzero_truth():
    assert run("and(5,-2)") == 1
    assert run("or(0,0)") == 0
    assert run("xor(3,0)") == 1
    assert run("iff(0,0)") == 1
    assert run("not(7)") == 0


def test_satisfied_treats_errors_as_false():
    tree, assignment = ground("eq(div(X0,0),1)", X0=4)
    assert ex.satisfied(tree, assignment) is False


# -- properties ---------------------------------------------------------------


def _reference_eval(node, assignment):
    """Straightforward recursive evaluator, kept independent of evaluate()."""
    if isinstance(node, ex.IntLiteral):
        return node.value
    if isinstance(node, ex.VarRef):
        return assignment[node.index]
    args = node.args
    if node.op == "if":
        return (_reference_eval(args[1], assignment)
                if _reference_eval(args[0], assignment) != 0
                else _reference_eval(args[2], assignment))
    vals = [_reference_eval(a, assignment) for a in args]

    def checked(v):
        if not (-(2 ** 63) <= v <= 2 ** 63 - 1):
            raise OverflowError
        return v

    table = {
        "neg": lambda: checked(-vals[0]),
        "abs": lambda: checked(abs(vals[0])),
        "not": lambda: int(vals[0] == 0),
        "add": lambda: checked(vals[0] + vals[1]),
        "sub": lambda: checked(vals[0] - vals[1]),
        "mul": lambda: checked(vals[0] * vals[1]),
        "min": lambda: min(vals),
        "max": lambda: max(vals),
        "eq": lambda: int(vals[0] == vals[1]),
        "ne": lambda: int(vals[0] != vals[1]),
        "ge": lambda: int(vals[0] >= vals[1]),
        "gt": lambda: int(vals[0] > vals[1]),
        "le": lambda: int(vals[0] <= vals[1]),
        "lt": lambda: int(vals[0] < vals[1]),
        "and": lambda: int(vals[0] != 0 and vals[1] != 0),
        "or": lambda: int(vals[0] != 0 or vals[1] != 0),
        "xor": lambda: int((vals[0] != 0) != (vals[1] != 0)),
        "iff": lambda: int((vals[0] != 0) == (vals[1] != 0)),
    }
    if node.op in ("div", "mod"):
        a, b = vals
        if b == 0:
            raise ZeroDivisionError
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return q if node.op == "div" else a - b * q
    if node.op == "pow":
        if vals[1] < 0:
            raise ZeroDivisionError
        return checked(vals[0] ** vals[1])
    return table[node.op]()


def _random_tree(rng, n_vars, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ex.VarRef(rng.randrange(n_vars))
        return ex.IntLiteral(rng.randint(-5, 5))
    op = rng.choice(list(ex.OPERATORS))
    arity = ex.OPERATORS[op]
    return ex.Apply(op, tuple(_random_tree(rng, n_vars, depth - 1)
                              for _ in range(arity)))


def test_evaluate_matches_reference_on_random_trees():
    rng = random.Random(42)
    for _ in range(500):
        tree = _random_tree(rng, 3, rng.randint(1, 4))
        assignment = {i: rng.randint(-6, 6) for i in range(3)}
        try:
            expected = _reference_eval(tree, assignment)
        except (ZeroDivisionError, OverflowError):
            with pytest.raises(EvalError):
                ex.evaluate(tree, assignment)
            continue
        assert ex.evaluate(tree, assignment) == expected


def test_double_negation_normalizes():
    rng = random.Random(9)
    for _ in range(200):
        tree = _random_tree(rng, 2, 3)
        assignment = {0: rng.randint(-4, 4), 1: rng.randint(-4, 4)}
        wrapped = ex.Apply("not", (ex.Apply("not", (tree,)),))
        try:
            inner = ex.evaluate(tree, assignment)
        except EvalError:
            continue
        assert ex.evaluate(wrapped, assignment) == (1 if inner != 0 else 0)


def test_evaluate_is_pure():
    tree, assignment = ground("add(mul(X0,X1),mod(X0,3))", X0=7, X1=-2)
    first = ex.evaluate(tree, assignment)
    assert all(ex.evaluate(tree, assignment) == first for _ in range(5))


# -- lowering -----------------------------------------------------------------

# a literal may lie beyond 64 bits, as the parser does not bound it
EDGES = [0, 1, -1, 2, -2, 63, 64, 2 ** 32, -2 ** 32, 2 ** 62, -2 ** 62,
         ex.INT64_MAX, ex.INT64_MIN, ex.INT64_MAX - 1, ex.INT64_MIN + 1, 2 ** 64]


def outcome(fn, *args):
    """The value `fn` returns, or EvalError when it raises one."""
    try:
        return fn(*args)
    except EvalError:
        return EvalError


def lowered_and_evaluated(tree, values):
    """Both outcomes on `values`, with variable i at position 2 - i so that
    the slot map is exercised."""
    check = ex.lower(tree, {i: 2 - i for i in range(3)})
    return (outcome(check, values[::-1]),
            outcome(ex.evaluate, tree, dict(enumerate(values))))


ground_trees = st.recursive(
    st.one_of(st.builds(ex.VarRef, st.integers(0, 2)),
              st.builds(ex.IntLiteral, st.sampled_from(EDGES))),
    lambda children: st.sampled_from(sorted(ex.OPERATORS)).flatmap(
        lambda op: st.builds(ex.Apply, st.just(op), st.tuples(
            *[children] * ex.OPERATORS[op]))),
    max_leaves=12)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(ground_trees, st.lists(st.sampled_from(EDGES), min_size=3, max_size=3))
def test_lowered_expression_matches_evaluate(tree, values):
    lowered, evaluated = lowered_and_evaluated(tree, values)
    assert lowered == evaluated
    assert type(lowered) is type(evaluated)


def test_every_operator_lowers():
    for op, arity in ex.OPERATORS.items():
        tree = ex.Apply(op, tuple(ex.VarRef(i) for i in range(arity)))
        for values in ([3, -2, 0], [0, 5, 7], [-7, 2, 1]):
            lowered, evaluated = lowered_and_evaluated(tree, values)
            assert lowered == evaluated, (op, values)


def test_both_evaluators_cover_every_operator():
    # `if` is the one operator `evaluate` reads outside the table
    assert set(ex.OPERATIONS) | {"if"} == set(ex.OPERATORS) == set(ex._LOWERED)


@pytest.mark.parametrize("text, expected", [
    ("if(1,5,div(1,0))", 5),
    ("if(0,div(1,0),6)", 6),
    ("and(0,div(1,0))", EvalError),
    ("or(1,mod(1,0))", EvalError),
    ("mul(4611686018427387904,2)", EvalError),
    ("neg(-9223372036854775808)", EvalError),
    ("abs(-9223372036854775808)", EvalError),
    ("neg(18446744073709551616)", EvalError),
    ("pow(2,-1)", EvalError),
    ("div(-9223372036854775808,-1)", EvalError),
    ("mod(-9223372036854775808,-1)", 0),
])
def test_lowering_edge_cases(text, expected):
    tree = ex.parse_functional(text, [])
    assert lowered_and_evaluated(tree, [0, 0, 0]) == (expected, expected)


def test_expression_at_the_nesting_limit_lowers():
    text = "eq(%sX%s,1)" % ("abs(" * (ex.MAX_DEPTH - 1), ")" * (ex.MAX_DEPTH - 1))
    tree = ex.substitute(ex.parse_functional(text, ["X"]), ["X"], [ex.VarRef(0)])
    for x, expected in ((-1, 1), (0, 0), (1, 1)):
        assert lowered_and_evaluated(tree, [x, 0, 0]) == (expected, expected)
