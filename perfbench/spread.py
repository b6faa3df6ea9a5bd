"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1-10] [--seconds S]

Runs `run.py` once per workload and seed, one run at a time, and prints
for each metric the median of the runs and the spread: the distance
between the first and third quartiles (`statistics.quantiles(n=4)`) as a
share of the median. Compare the spread with a third of the metric's
bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                print("%s seed %d: incorrect output" % (workload, seed))
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4f" % (n, v[-1]) for n, v in values.items())), flush=True)
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            print("%s %s median %.4f spread %.3f (bound %.2f, a third %.3f)"
                  % (workload, name, med, (q3 - q1) / med, bounds[name], bounds[name] / 3),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
