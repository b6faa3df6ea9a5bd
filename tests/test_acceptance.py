"""Acceptance suite: seven end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines."""

import io
import pathlib
import random
import re
import time

from xcsolve import Engine, compile_instance, parse_instance, resolve_references
from xcsolve.cli import EXIT_ERROR, EXIT_OK, RunConfig, run
from xcsolve.expr import OPERATORS

from helpers import (
    FAMILIES,
    TINY_ALLDIFF,
    brute_force,
    load,
    pigeonhole_xml,
    random_instance,
    summarize,
)

CORPUS = pathlib.Path(__file__).parent / "corpus"


def report(number, title, ok):
    print("criterion %d (%s): %s" % (number, title, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (number, title)


def cli_run(config):
    out, err = io.StringIO(), io.StringIO()
    code = run(config, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_worked_example(tmp_path):
    path = tmp_path / "instance.xml"
    path.write_text(TINY_ALLDIFF)
    started = time.monotonic()
    code, out, _ = cli_run(RunConfig(str(path), mode="all"))
    elapsed = time.monotonic() - started
    v_lines = [l for l in out.splitlines() if l.startswith("v ")]
    ok = (code == EXIT_OK
          and "s SATISFIABLE" in out.splitlines()
          and v_lines == ["v 1 2", "v 2 1"]
          and elapsed < 0.1)
    report(1, "worked example", ok)


def test_criterion_2_oracle_equivalence():
    rng = random.Random(20260823)
    started = time.monotonic()
    mismatches = 0
    used_ops = set()
    for family in FAMILIES:
        for _ in range(500):
            xml = random_instance(family, rng, used_ops=used_ops)
            instance, problem = load(xml)
            got = sorted(Engine(problem).solve(limit=None).solutions)
            want = sorted(brute_force(instance))
            if got != want:
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and used_ops == set(OPERATORS) and elapsed < 300
    report(2, "oracle equivalence on 8000 random instances", ok)


def test_criterion_3_propagation_soundness():
    rng = random.Random(7)
    violations = 0
    for family in FAMILIES:
        for _ in range(25):
            xml = random_instance(family, rng)
            instance, problem = load(xml)
            solutions = brute_force(instance)
            engine = Engine(problem)
            if not engine.propagate_fixpoint():
                if solutions:
                    violations += 1
                continue
            for i, before in enumerate(problem.domains):
                after = engine.store.domain(i)
                for value in before:
                    if value in after:
                        continue
                    # a root-pruned value must have no support at all
                    if any(s[i] == value for s in solutions):
                        violations += 1
    report(3, "root pruning never removes a supported value", violations == 0)


def test_criterion_4_pigeonhole():
    ok = True
    for n in range(2, 7):
        resolved = resolve_references(parse_instance(pigeonhole_xml(n)))
        result = Engine(compile_instance(resolved)).solve(limit=None)
        ok = ok and result.complete and result.solutions == []
    native = Engine(load(pigeonhole_xml(6))[1]).solve(limit=None)
    decomposed = Engine(load(pigeonhole_xml(6, pairwise=True))[1]).solve(limit=None)
    ok = ok and decomposed.complete and decomposed.solutions == []
    ok = ok and native.stats.nodes < decomposed.stats.nodes
    report(4, "pigeonhole unsatisfiable, global beats decomposition", ok)


def test_criterion_5_parser_corpus():
    ok = True
    for path in sorted(CORPUS.glob("*.xml")):
        if path.name.startswith("reject_"):
            code, out, err = cli_run(RunConfig(str(path)))
            ok = ok and code == EXIT_ERROR and out == ""
            ok = ok and "unsupported extension" in err
        else:
            golden = path.with_suffix(".summary").read_text()
            ok = ok and summarize(path.read_text()) == golden
    report(5, "corpus summaries match goldens, extensions rejected", ok)


def test_criterion_6_output_conformance():
    ok = True
    for path in sorted(CORPUS.glob("*.xml")):
        if path.name.startswith("reject_"):
            continue
        nb_vars = len(resolve_references(
            parse_instance(path.read_text())).names)
        code, out, _ = cli_run(
            RunConfig(str(path), mode="all", verify=True, stats=True))
        lines = out.splitlines()
        ok = ok and code == EXIT_OK
        ok = ok and all(re.match(r"^(s|v|c) ", l) for l in lines)
        ok = ok and sum(l.startswith("s ") for l in lines) == 1
        ok = ok and all(len(l.split()) == 1 + nb_vars
                        for l in lines if l.startswith("v "))
    report(6, "competition output grammar and --verify on corpus", ok)


def test_criterion_7_determinism_and_backtrack_integrity(tmp_path):
    path = tmp_path / "instance.xml"
    path.write_text(pigeonhole_xml(4))
    first = cli_run(RunConfig(str(path), mode="all", verify=True))
    second = cli_run(RunConfig(str(path), mode="all", verify=True))
    ok = first == second

    rng = random.Random(99)
    for family in FAMILIES:
        for _ in range(5):
            _, problem = load(random_instance(family, rng))
            engine = Engine(problem)
            before = engine.store.snapshot()
            r1 = engine.solve(limit=None)
            ok = ok and engine.store.snapshot() == before
            ok = ok and engine.store.depth() == 0
            r2 = engine.solve(limit=None)  # engine is reusable
            ok = ok and r1.solutions == r2.solutions
    report(7, "deterministic output, search restores the store", ok)
