"""Every end-to-end metric of every workload, one row per workload, plus
the per-instance search counts.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

With `--trace` it also prints the per-layer metrics of each workload
(nonzero ones only) and the propagator kinds that ran.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from generators import WORKLOADS  # noqa: E402
from run import BenchError, run_workload  # noqa: E402

COLUMNS = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    header = ["workload"] + ["%s [%s]" % c for c in COLUMNS] + [
        "failed_ratio [1]", "attempted", "passes"]
    print(" | ".join(header))
    layers = {}
    counts = []
    for name in WORKLOADS:
        try:
            result = run_workload(name, args.seed, args.seconds, False)
            if args.trace:
                layers[name] = run_workload(name, args.seed, args.seconds, True)
        except BenchError as e:
            print("error: %s" % e, file=sys.stderr)
            return 1
        line, details = result["line"], result["details"]
        row = [name] + ["%.4f" % line["metrics"][metric]["value"] for metric, _ in COLUMNS]
        row += ["%.4f" % (line["failed"] / line["attempted"]), str(line["attempted"]),
                str(len(details["pass_wall_s"]))]
        print(" | ".join(row))
        for reason in details["reasons"]:
            print("  wrong: %s" % reason)
        for instance, stats in zip(details["instances"], details["counts"]):
            counts.append("%s %s %s" % (name, instance, json.dumps(stats)))
        counts.append("%s set-up phases, seconds summed over the run: %s" % (
            name, json.dumps({k: round(v, 4) for k, v in details["setup_phases_s"].items()})))
    print()
    print("per-instance counts (first pass):")
    for line in counts:
        print("  " + line)
    for name, result in layers.items():
        print()
        print("%s per-layer (correct=%s, kinds %s):" % (
            name, result["line"]["correct"], ", ".join(result["details"]["kinds_seen"])))
        for metric, entry in result["line"]["metrics"].items():
            if entry["value"]:
                print("  %-34s %14.6g %s" % (metric, entry["value"], entry["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
