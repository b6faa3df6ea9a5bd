"""Tests of the benchmark itself: seeded generators, their independent
expected answers (checked by brute force on shrunken sizes), the
correctness gate, the tracer, and BENCHMARK.json."""

from __future__ import annotations

import io
import json
import re
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import xcsolve  # noqa: E402
import xcsolve.cli  # noqa: E402
import generators as g  # noqa: E402
from check import check_output, count_failures, make_verifier  # noqa: E402
from child import measure  # noqa: E402
from run import BenchError, check_kinds, unit_of  # noqa: E402
from tracing import KINDS, SetupClock, Tracer  # noqa: E402

SMALL = {
    "queens": lambda seed: g.queens(seed, n=5),
    "tables": lambda seed: g.random_tables(seed, n_vars=6, d=4, degree=2,
                                           n_tuples=8, limit=4, structure=seed),
    "latin": lambda seed: g.latin_completion(seed, n=4, open_share=0.4, limit=10**6,
                                             structure=seed),
    "roster": lambda seed: g.roster(seed, nurses=3, limit=10**6),
    "schedule": lambda seed: g.schedule(seed, capacity=2, horizon=3,
                                        tasks=[(2, 1), (2, 2), (1, 1)],
                                        precedences=[(2, 1)], disjunctive=[0, 2]),
    "chain": lambda seed: g.chain(seed, n_vars=5, d=4, n_tuples=6),
}


def resolved(inst):
    return xcsolve.resolve_references(xcsolve.parse_instance(inst.xml.encode()))


def brute_force(inst):
    """Every solution of the instance, by enumeration and verify_solution."""
    instance = resolved(inst)
    return [list(values) for values in product(*[list(d) for d in instance.domains])
            if xcsolve.verify_solution(instance, list(values))]


@pytest.mark.parametrize("name", sorted(g.WORKLOADS))
def test_workloads_are_deterministic_per_seed(name):
    if name == "bulk-root":
        make = lambda seed: [g.chain(seed, n_vars=60)]  # noqa: E731
    else:
        make = g.WORKLOADS[name]
    first, again, other = make(3), make(3), make(4)
    assert [i.xml for i in first] == [i.xml for i in again]
    assert [i.expected for i in first] == [i.expected for i in again]
    assert [i.xml for i in first] != [i.xml for i in other]


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("seed", [1, 2])
def test_expected_answer_matches_brute_force(name, seed):
    inst = SMALL[name](seed)
    solutions = brute_force(inst)
    expected = inst.expected
    assert expected.status == (g.SAT if solutions else g.UNSAT)
    if inst.options.get("limit") is not None:
        assert expected.count == min(len(solutions), inst.options["limit"])
    elif inst.options.get("mode") == "all":
        assert expected.count == len(solutions)
    else:
        assert expected.count == min(1, len(solutions))
    if expected.solution is not None:
        assert solutions == [expected.solution]


def test_queens_counts_match_brute_force():
    for n in range(1, 8):
        count = sum(1 for p in permutations(range(n))
                    if all(abs(p[i] - p[j]) != j - i
                           for i in range(n) for j in range(i + 1, n)))
        assert g.QUEENS_COUNTS[n] == count


def test_planted_box_is_at_least_the_limit():
    inst = g.random_tables(5, n_vars=6, d=4, degree=2, n_tuples=8, limit=5)
    assert inst.expected.count == 5
    assert len(brute_force(inst)) >= 8  # the box has 2**3 points


def test_latin_counter_counts_latin_squares():
    assert g.count_latin_completions(4, {}, 10**6) == 576  # OEIS A002860
    assert g.count_latin_completions(4, {}, 3) == 3
    assert g.count_latin_completions(3, {(0, 0): 1, (0, 1): 1}, 10) == 0


def test_schedule_energy_certificate():
    inst = g.schedule(1)
    energy = sum(d * h for d, h in g.SCHEDULE_TASKS)
    assert energy > 3 * 22
    assert inst.expected.status == g.UNSAT
    with pytest.raises(ValueError):
        g.schedule(1, capacity=2, horizon=3, tasks=[(1, 1), (1, 1)])


def run_cli(inst, tmp_path, run=None):
    path = tmp_path / "instance.xml"
    path.write_text(inst.xml)
    out = io.StringIO()
    code = (run or xcsolve.cli.run)(
        xcsolve.cli.RunConfig(path=str(path), **inst.options), out, io.StringIO())
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_solver_output_passes_the_gate(name, tmp_path):
    inst = SMALL[name](1)
    code, stdout = run_cli(inst, tmp_path)
    verify = make_verifier(xcsolve, inst.xml, inst.options)
    assert check_output(inst.expected, code, stdout, verify) == []


def test_wrong_output_raises_failed_ratio(tmp_path):
    inst = SMALL["tables"](1)
    code, stdout = run_cli(inst, tmp_path)
    verify = make_verifier(xcsolve, inst.xml, inst.options)
    lines = stdout.splitlines()
    first_v = lines[1].split()
    bad_value = " ".join(first_v[:-1] + [str(int(first_v[-1]) + 1)])
    broken = {
        "status": "\n".join(["s UNSATISFIABLE"] + lines[1:]),
        "unknown": "\n".join(["s UNKNOWN"] + lines[1:]),
        "duplicate": "\n".join(lines[:-1] + [lines[1]]),
        "wrong value": "\n".join(lines[:1] + [bad_value] + lines[2:]),
        "missing": "\n".join(lines[:-1]),
        "extra line": "\n".join(lines + ["c nodes 3"]),
    }
    for why, text in broken.items():
        assert check_output(inst.expected, code, text, verify), why
    assert check_output(inst.expected, 2, stdout, verify)

    outputs = [{"code": code, "stdout": stdout}]
    good = count_failures([inst.expected], outputs, [["a"], ["a"]], [verify])
    assert good == (0, [])
    bad = count_failures([inst.expected], [{"code": code, "stdout": broken["status"]}],
                         [["a"], ["a"]], [verify])
    assert bad[0] == 2
    drift = count_failures([inst.expected], outputs, [["a"], ["b"]], [verify])
    assert drift[0] == 1
    traced = count_failures([inst.expected], outputs, [["a"]], [verify], reference=["b"])
    assert traced[0] == 1


def test_tracer_counts_repeat_and_leave_stdout_unchanged(tmp_path):
    inst = g.latin_completion(1, n=5, limit=20)
    _, plain = run_cli(inst, tmp_path)
    tracer = Tracer()
    run = tracer.install(xcsolve)
    try:
        rounds = []
        for _ in range(2):
            tracer.reset()
            _, text = run_cli(inst, tmp_path, run)
            assert text == plain
            rounds.append(tracer.metrics())
    finally:
        tracer.uninstall()
    counts = {k: v for k, v in rounds[0].items() if isinstance(v, int)}
    assert counts == {k: v for k, v in rounds[1].items() if isinstance(v, int)}
    m = rounds[0]
    assert m["search.solutions"] == inst.expected.count > 0
    assert m["prop.AllDifferent.calls"] == m["search.propagations"]
    assert m["search.fixpoint.calls"] == m["search.nodes"] + 1
    assert m["compiler.specs"] == m["compiler.specs.AllDifferent"] == 10
    assert 0 < m["search.self_s"] < m["search.solve_s"]
    assert m["store.updates"] <= m["store.update.calls"]
    assert tracer.kinds_seen() == ["AllDifferent"]
    assert xcsolve.cli.Engine is xcsolve.search.Engine
    assert xcsolve.search.Engine.solve.__qualname__ == "Engine.solve"
    assert "prune" not in vars(xcsolve.propagators.LexLessEqProp)
    assert xcsolve.expr.evaluate.__qualname__ == "evaluate"


def test_setup_clock_times_until_engine(tmp_path):
    inst = SMALL["chain"](1)
    clock = SetupClock(xcsolve.cli)
    try:
        clock.start()
        code, _ = run_cli(inst, tmp_path)
        assert code == 0
        assert clock.engine is not None and clock.setup_s() > 0
        assert clock.engine.stats.solutions == 1
    finally:
        clock.uninstall()
    assert set(clock.phases) == {"parse_instance", "resolve_references",
                                 "compile_instance", "Engine"}
    assert xcsolve.cli.Engine is xcsolve.search.Engine


@pytest.mark.parametrize("trace", [False, True])
def test_child_measures_untraced_and_paired_traced_passes(trace, tmp_path):
    inst = SMALL["roster"](1)
    path = tmp_path / "instance.xml"
    path.write_text(inst.xml)
    result = measure({"src": str(HERE.parent / "src"), "trace": trace, "seconds": 0,
                      "instances": [{"path": str(path), "options": inst.options}]})
    plain, traced = result["untraced"], result["traced"]
    assert len(plain["passes"]) == 1
    assert plain["outputs"][0]["code"] == 0
    if trace:
        assert result["setup_s"] is None and len(traced["passes"]) == 1
        assert traced["digests"] == plain["digests"]
        assert traced["passes"][0]["layers"]["search.solutions"] == inst.expected.count
        assert xcsolve.cli.run.__qualname__ == "run"  # the tracer is uninstalled
    else:
        assert traced is None and result["setup_s"] > 0
        assert plain["passes"][0]["counts"][0]["solutions"] == inst.expected.count
    assert xcsolve.cli.Engine is xcsolve.search.Engine


def test_unknown_propagator_kind_is_refused():
    assert check_kinds([["ExprCheck"], ["AllDifferent", "ExprCheck"]]) == [
        "AllDifferent", "ExprCheck"]
    with pytest.raises(BenchError):
        check_kinds([["TableSupports", "Among"]])


def test_peak_rss_is_this_process_only():
    import child
    big = bytearray(64 * 1024 * 1024)  # touched pages count toward VmHWM
    for i in range(0, len(big), 4096):
        big[i] = 1
    assert child.peak_rss_mb() >= 64
    del big


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(g.WORKLOADS)
    emitted = list(Tracer().metrics()) + ["cli.stdout_bytes", "trace.overhead_s"]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit_of(name)) for name in emitted]
    assert all("prop.%s.calls" % kind in emitted for kind in KINDS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for m in bench["per_layer"] + bench["end_to_end"] + bench["workloads"]:
        assert name.match(m["name"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
