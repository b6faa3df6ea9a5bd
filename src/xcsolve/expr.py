"""Functional-notation expressions for intensional constraints.

Expression trees are immutable. Two leaf flavors exist: `Param` appears in
predicate bodies; after substitution only `VarRef` and `IntLiteral` leaves
remain (a "ground" expression). Evaluation is pure integer arithmetic with
booleans encoded as 1/0, `div`/`mod` truncating toward zero, and all results
confined to the signed 64-bit range (overflow raises `EvalError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Sequence, Tuple, Union

from .errors import EvalError, FormatError, clip, integer_error

# operator -> arity; the closed XCSP 2.1 functional vocabulary
OPERATORS: Dict[str, int] = {
    "neg": 1, "abs": 1, "not": 1,
    "add": 2, "sub": 2, "mul": 2, "div": 2, "mod": 2, "pow": 2,
    "min": 2, "max": 2,
    "eq": 2, "ne": 2, "ge": 2, "gt": 2, "le": 2, "lt": 2,
    "and": 2, "or": 2, "xor": 2, "iff": 2,
    "if": 3,
}

# deepest operator nesting accepted; every later pass over an expression
# recurses once per level
MAX_DEPTH = 256

INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1


@dataclass(frozen=True)
class IntLiteral:
    value: int


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class VarRef:
    index: int


@dataclass(frozen=True)
class Apply:
    op: str
    args: Tuple["Expr", ...]


Expr = Union[IntLiteral, Param, VarRef, Apply]


# -- parsing ------------------------------------------------------------------


def _tokenize(text: str) -> List[str]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "(),":
            tokens.append(c)
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        elif c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise FormatError("unexpected character %r in expression" % c)
    return tokens


def parse_functional(text: str, formal_params: Sequence[str]) -> Expr:
    """Parse functional notation such as ``and(eq(X0,X1),gt(X2,0))``.

    Identifiers must either be operators from the closed set or appear in
    `formal_params`; anything else is a parse error, and so is nesting
    operators more than `MAX_DEPTH` deep.
    """
    tokens = _tokenize(text)
    pos = 0
    params = set(formal_params)

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise FormatError("unexpected end of expression")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise FormatError("expected %r, found %s" % (expected, clip(tok)))
        pos += 1
        return tok

    def parse_expr(depth: int) -> Expr:
        tok = take()
        if tok.lstrip("-").isdigit():
            try:
                return IntLiteral(int(tok))
            except ValueError:
                raise FormatError(integer_error(tok)) from None
        if tok in "(),":
            raise FormatError("unexpected token %r" % tok)
        if peek() == "(":
            if tok not in OPERATORS:
                raise FormatError("unknown operator %s" % clip(tok))
            if depth == MAX_DEPTH:
                raise FormatError("expression nested deeper than %d operators"
                                  % MAX_DEPTH)
            take("(")
            args = [parse_expr(depth + 1)]
            while peek() == ",":
                take(",")
                args.append(parse_expr(depth + 1))
            take(")")
            want = OPERATORS[tok]
            if len(args) != want:
                raise FormatError(
                    "operator %r expects %d argument(s), got %d" % (tok, want, len(args))
                )
            return Apply(tok, tuple(args))
        if tok not in params:
            raise FormatError("identifier %s is not a declared parameter" % clip(tok))
        return Param(tok)

    result = parse_expr(0)
    if pos != len(tokens):
        raise FormatError("trailing tokens after expression: %s"
                          % clip(" ".join(tokens[pos:])))
    return result


# -- substitution -------------------------------------------------------------


def substitute(body: Expr, formal_params: Sequence[str],
               effective_params: Sequence[Union[VarRef, int]]) -> Expr:
    """Positionally replace each formal parameter; result is ground."""
    if len(formal_params) != len(effective_params):
        raise EvalError(
            "predicate expects %d parameter(s), got %d"
            % (len(formal_params), len(effective_params))
        )
    mapping: Dict[str, Expr] = {}
    for name, actual in zip(formal_params, effective_params):
        mapping[name] = actual if isinstance(actual, VarRef) else IntLiteral(int(actual))

    def walk(e: Expr) -> Expr:
        if isinstance(e, Param):
            return mapping[e.name]
        if isinstance(e, Apply):
            return Apply(e.op, tuple(walk(a) for a in e.args))
        return e

    return walk(body)


def balanced(op: str, parts: Sequence[Expr]) -> Expr:
    """`op` over one or more `parts`, split in halves so that the tree
    nests only as deep as the log of the part count."""
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return Apply(op, (balanced(op, parts[:mid]), balanced(op, parts[mid:])))


def var_refs(e: Expr) -> List[int]:
    """Distinct variable indices, in first-appearance order."""
    seen: Dict[int, None] = {}

    def walk(node: Expr):
        if isinstance(node, VarRef):
            seen[node.index] = None
        elif isinstance(node, Apply):
            for a in node.args:
                walk(a)

    walk(e)
    return list(seen)


# -- evaluation ---------------------------------------------------------------


def _check64(v: int) -> int:
    if not (INT64_MIN <= v <= INT64_MAX):
        raise EvalError("arithmetic overflow outside 64-bit range")
    return v


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _mod(a: int, b: int) -> int:
    return _check64(a - b * _trunc_div(a, b))


def _int_pow(a: int, b: int) -> int:
    if b < 0:
        raise EvalError("pow with negative exponent")
    # for |a| >= 2 any exponent of 64 or more overflows, and 0, 1 and -1 read
    # only whether it is 0 and its parity: 64 or 65 stands for a larger one
    return _check64(a ** min(b, 64 + (b & 1)))


# operator -> the function of its argument values. `if` is the one operator
# left out: `evaluate` reads only the branch its condition picks.
OPERATIONS: Dict[str, Callable[..., int]] = {
    "neg": lambda a: _check64(-a),
    "abs": lambda a: _check64(abs(a)),
    "not": lambda a: 0 if a != 0 else 1,
    "add": lambda a, b: _check64(a + b),
    "sub": lambda a, b: _check64(a - b),
    "mul": lambda a, b: _check64(a * b),
    # only INT64_MIN / -1 leaves the range; `_mod` has no such case
    "div": lambda a, b: _check64(_trunc_div(a, b)),
    "mod": _mod,
    "pow": _int_pow,
    "min": min,
    "max": max,
    "eq": lambda a, b: 1 if a == b else 0,
    "ne": lambda a, b: 1 if a != b else 0,
    "ge": lambda a, b: 1 if a >= b else 0,
    "gt": lambda a, b: 1 if a > b else 0,
    "le": lambda a, b: 1 if a <= b else 0,
    "lt": lambda a, b: 1 if a < b else 0,
    "and": lambda a, b: 1 if a != 0 and b != 0 else 0,
    "or": lambda a, b: 1 if a != 0 or b != 0 else 0,
    "xor": lambda a, b: 1 if (a != 0) != (b != 0) else 0,
    "iff": lambda a, b: 1 if (a != 0) == (b != 0) else 0,
}


def evaluate(expr: Expr, assignment: Union[Dict[int, int], List[int]]) -> int:
    """Evaluate a ground expression, reading variable `i` at
    `assignment[i]`; raises EvalError on div/mod by zero, overflow, or a
    negative pow exponent."""
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, VarRef):
        return assignment[expr.index]
    if isinstance(expr, Param):
        raise EvalError("unsubstituted parameter %r" % expr.name)

    op = expr.op
    if op == "if":
        cond = evaluate(expr.args[0], assignment)
        branch = expr.args[1] if cond != 0 else expr.args[2]
        return evaluate(branch, assignment)
    if op not in OPERATIONS:
        raise EvalError("unknown operator %r" % op)
    return OPERATIONS[op](*[evaluate(a, assignment) for a in expr.args])


# -- lowering -----------------------------------------------------------------

# operator -> factory that takes the closures of the arguments and returns
# the closure of the node. Each closure mirrors its row of `OPERATIONS`,
# argument order included. The 64-bit test is written inline, because a
# call per node is what lowering saves; only an out-of-range result goes
# on to `_check64`, for its error.
_LOWERED: Dict[str, Callable[..., Callable[[List[int]], int]]] = {
    "neg": lambda a: lambda v: (
        r if INT64_MIN <= (r := -a(v)) <= INT64_MAX else _check64(r)),
    "abs": lambda a: lambda v: (
        r if INT64_MIN <= (r := abs(a(v))) <= INT64_MAX else _check64(r)),
    "not": lambda a: lambda v: 0 if a(v) != 0 else 1,
    "add": lambda a, b: lambda v: (
        r if INT64_MIN <= (r := a(v) + b(v)) <= INT64_MAX else _check64(r)),
    "sub": lambda a, b: lambda v: (
        r if INT64_MIN <= (r := a(v) - b(v)) <= INT64_MAX else _check64(r)),
    "mul": lambda a, b: lambda v: (
        r if INT64_MIN <= (r := a(v) * b(v)) <= INT64_MAX else _check64(r)),
    "div": lambda a, b: lambda v: _check64(_trunc_div(a(v), b(v))),
    "mod": lambda a, b: lambda v: _mod(a(v), b(v)),
    "pow": lambda a, b: lambda v: _int_pow(a(v), b(v)),
    "min": lambda a, b: lambda v: min(a(v), b(v)),
    "max": lambda a, b: lambda v: max(a(v), b(v)),
    "eq": lambda a, b: lambda v: 1 if a(v) == b(v) else 0,
    "ne": lambda a, b: lambda v: 1 if a(v) != b(v) else 0,
    "ge": lambda a, b: lambda v: 1 if a(v) >= b(v) else 0,
    "gt": lambda a, b: lambda v: 1 if a(v) > b(v) else 0,
    "le": lambda a, b: lambda v: 1 if a(v) <= b(v) else 0,
    "lt": lambda a, b: lambda v: 1 if a(v) < b(v) else 0,
    # `&`, `|` and the comparisons of truth values evaluate both sides, as
    # `evaluate` does, so `and(0,div(1,0))` still raises
    "and": lambda a, b: lambda v: 1 if (a(v) != 0) & (b(v) != 0) else 0,
    "or": lambda a, b: lambda v: 1 if (a(v) != 0) | (b(v) != 0) else 0,
    "xor": lambda a, b: lambda v: 1 if (a(v) != 0) != (b(v) != 0) else 0,
    "iff": lambda a, b: lambda v: 1 if (a(v) != 0) == (b(v) != 0) else 0,
    "if": lambda c, t, e: lambda v: t(v) if c(v) != 0 else e(v),
}


def lower(expr: Expr, slots: Dict[int, int]) -> Callable[[List[int]], int]:
    """Lower a ground expression to a closure over a list of values, where
    variable `i` is read at position `slots[i]`.

    Calling the closure gives what `evaluate` gives for the same values,
    and raises EvalError in exactly the cases where `evaluate` does; the
    tree walk and the operator dispatch are paid once, here. A tree that
    is not ground, or has an operator outside `OPERATORS`, is an EvalError
    at once."""
    if isinstance(expr, IntLiteral):
        value = expr.value
        return lambda v: value
    if isinstance(expr, VarRef):
        return itemgetter(slots[expr.index])
    if isinstance(expr, Param):
        raise EvalError("unsubstituted parameter %r" % expr.name)
    if expr.op not in _LOWERED:
        raise EvalError("unknown operator %r" % expr.op)
    return _LOWERED[expr.op](*[lower(a, slots) for a in expr.args])


def satisfied(expr: Expr, assignment: Union[Dict[int, int], List[int]]) -> bool:
    """Constraint reading of an expression: true iff it evaluates to 1.

    An erroring evaluation (division by zero, overflow) counts as unsatisfied.
    """
    try:
        return evaluate(expr, assignment) == 1
    except EvalError:
        return False

