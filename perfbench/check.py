"""Correctness gate: one instance run against its expected answer.

A run fails on a nonzero exit code, an `s UNKNOWN` (or any status other
than the expected one), a solution count other than the expected one, a
duplicate `v` line, a `v` line that `verify_solution` rejects, a `v` line
other than the planted one where the solution is unique, or any line that
is not `s` or `v`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from generators import Expected


def check_output(expected: Expected, code: int, stdout: str,
                 verify: Callable[[List[int]], bool]) -> List[str]:
    """The reasons this run is wrong; empty when it is right."""
    problems = []
    if code != 0:
        problems.append("exit code %d" % code)
    lines = stdout.splitlines()
    status = lines[0][2:] if lines and lines[0].startswith("s ") else None
    if status != expected.status:
        problems.append("status %r, expected %r" % (status, expected.status))
    solutions = []
    seen = set()
    for line in lines[1:]:
        if not line.startswith("v "):
            problems.append("unexpected line %r" % line[:40])
            continue
        try:
            values = [int(tok) for tok in line[2:].split()]
        except ValueError:
            problems.append("malformed v line %r" % line[:40])
            continue
        key = tuple(values)
        if key in seen:
            problems.append("duplicate v line %r" % line[:40])
        seen.add(key)
        solutions.append(values)
    if len(solutions) != expected.count:
        problems.append("%d solutions, expected %d" % (len(solutions), expected.count))
    if expected.solution is not None and solutions and solutions[0] != expected.solution:
        problems.append("solution differs from the planted one")
    for values in solutions:
        if not verify(values):
            problems.append("verify_solution rejects %r" % " ".join(map(str, values))[:40])
            break
    return problems


def make_verifier(xcsolve, xml: str, options: dict) -> Callable[[List[int]], bool]:
    """`verify_solution` bound to one instance, parsed once."""
    instance = xcsolve.resolve_references(xcsolve.parse_instance(xml.encode()))
    base = options.get("element_base", 1)
    return lambda values: xcsolve.verify_solution(instance, values, element_base=base)


def count_failures(expected: Sequence[Expected], first: Sequence[dict],
                   digests: Sequence[Sequence[str]],
                   verifiers: Sequence[Callable[[List[int]], bool]],
                   reference: Optional[Sequence[str]] = None):
    """Failed instance runs of one child, and the reasons.

    `first` holds the first pass's outputs and `digests` every pass's
    stdout digests; a later pass fails when its stdout differs from the
    first one, and every pass fails when the first one is wrong or differs
    from `reference` (the untraced run's digests, for a traced run)."""
    reasons = []
    wrong = []
    for k, (exp, out, verify) in enumerate(zip(expected, first, verifiers)):
        problems = check_output(exp, out["code"], out["stdout"], verify)
        if reference is not None and digests[0][k] != reference[k]:
            problems.append("traced stdout differs from untraced stdout")
        wrong.append(bool(problems))
        reasons.extend("instance %d: %s" % (k, p) for p in problems)
    failed = 0
    for number, pass_digests in enumerate(digests):
        for k, digest in enumerate(pass_digests):
            if wrong[k] or digest != digests[0][k]:
                failed += 1
                if digest != digests[0][k]:
                    reasons.append("instance %d: pass %d stdout differs from pass 0"
                                   % (k, number))
    return failed, reasons
