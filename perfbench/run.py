"""xcsolve benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's instances from the seed into a scratch directory
under `perfbench/.work/`, then runs them through `xcsolve.cli.run` in a
fresh single-threaded child process: a closed loop with one client, each
instance to completion before the next, passes repeated until S seconds
are spent. Every instance run is checked against its independent expected
answer. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: `wall_s` (the mean
over the passes of one pass over the instances), `setup_s` (entry of
`cli.run` until `Engine(...)` returns, summed over the instances: the mean
over the passes) and `peak_rss_mb` (the child's peak resident set, VmHWM). With `--trace 1` the child alternates
untraced and traced passes, and the metrics are the per-layer ones (medians over
the traced passes) plus `trace.overhead_s`, the median over the pairs of
the traced pass's time minus the untraced one's. `attempted` counts
instance runs and `failed` those that broke the correctness gate, so
`failed / attempted` is the failed ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import count_failures, make_verifier  # noqa: E402
from child import import_xcsolve  # noqa: E402
from generators import WORKLOADS  # noqa: E402
from tracing import KINDS  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 seconds


class BenchError(Exception):
    pass


def run_child(manifest: dict, work: Path, deadline: float) -> dict:
    manifest = dict(manifest, result=str(work / "result.json"))
    path = work / "manifest.json"
    path.write_text(json.dumps(manifest))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED="0"),
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("the child ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError("the child failed:\n%s" % proc.stderr[-2000:])
    return json.loads(Path(manifest["result"]).read_text())


def check_kinds(seen) -> List[str]:
    """The propagator kinds seen over the passes; refuses a kind that has
    no per-layer metrics, since its figures would be lost."""
    kinds = sorted(set().union(*seen))
    unknown = [kind for kind in kinds if kind not in KINDS]
    if unknown:
        raise BenchError("propagator kinds %s have no per-layer metrics; add them "
                         "to tracing.KINDS and BENCHMARK.json" % ", ".join(unknown))
    return kinds


def medians(records: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(r[name] for r in records) for name in records[0]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: Path = HERE.parent) -> dict:
    """Runs one workload; returns the result line and the details behind it."""
    deadline = time.monotonic() + RUN_LIMIT_S
    src = root / "src"
    if not (src / "xcsolve" / "cli.py").is_file():
        raise BenchError("no xcsolve sources under %s" % src)
    if workload not in WORKLOADS:
        raise BenchError("unknown workload %r; choose from %s"
                         % (workload, ", ".join(WORKLOADS)))
    instances = WORKLOADS[workload](seed)
    xcsolve = import_xcsolve(str(src))
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        work = Path(tmp)
        entries = []
        for k, inst in enumerate(instances):
            path = work / ("%d-%s.xml" % (k, inst.name))
            path.write_text(inst.xml)
            entries.append({"path": str(path), "options": inst.options})
        manifest = {"src": str(src), "instances": entries, "trace": trace,
                    "seconds": seconds}
        result = run_child(manifest, work, deadline)

    expected = [inst.expected for inst in instances]
    verifiers = [make_verifier(xcsolve, inst.xml, inst.options) for inst in instances]
    plain, traced = result["untraced"], result["traced"]
    failed, reasons = count_failures(expected, plain["outputs"], plain["digests"],
                                     verifiers)
    attempted = len(instances) * len(plain["passes"])
    walls = [p["wall_s"] for p in plain["passes"]]
    if traced is None:
        metrics = {
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        kinds = None
    else:
        more, why = count_failures(expected, traced["outputs"], traced["digests"],
                                   verifiers, reference=plain["digests"][0])
        failed += more
        reasons += ["traced " + r for r in why]
        attempted += len(instances) * len(traced["passes"])
        kinds = check_kinds(p["kinds_seen"] for p in traced["passes"])
        layers = medians([p["layers"] for p in traced["passes"]])
        layers["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for t, u in zip(traced["passes"], plain["passes"]))
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layers.items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    details = {"instances": ["%s (%s)" % (inst.name, inst.expected.certificate)
                             for inst in instances], "reasons": reasons,
               "counts": plain["passes"][0]["counts"], "pass_wall_s": walls,
               "kinds_seen": kinds, "setup_phases_s": result["setup_phases_s"]}
    return {"line": line, "details": details}


UNITS = (("_mb_per_s", "MB/s"), ("_s", "s"), (".s", "s"), ("_bytes", "bytes"),
         ("_ratio", "ratio"), ("_per_node", "props/node"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    for reason in result["details"]["reasons"]:
        print("wrong: %s" % reason, file=sys.stderr)
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
