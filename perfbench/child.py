"""One workload run in a fresh single-threaded process.

    python3 child.py MANIFEST.json

The manifest (written by `run.py`) names the source tree, the instance
files with their options, the seconds to measure, whether to trace, and
where to write the result. The child calls `xcsolve.cli.run` once per
instance per pass, closed-loop, and repeats passes until the seconds are
spent. It writes a JSON result and prints nothing.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import SetupClock, Tracer  # noqa: E402


def import_xcsolve(src: str):
    """Import the package from `src` and nowhere else."""
    sys.path.insert(0, src)
    import xcsolve
    import xcsolve.cli  # noqa: F401  (the package itself binds the other modules)
    where = os.path.realpath(xcsolve.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError("xcsolve was imported from %s, not from %s" % (where, src))
    return xcsolve


def run_pass(run, configs, clock=None) -> dict:
    """One pass: `run` once per instance, closed-loop. With a set-up clock,
    also each instance's `setup_s` sample and search counts."""
    gc.collect()
    outputs, setup, counts = [], [], []
    started = time.perf_counter()
    for config in configs:
        out, err = io.StringIO(), io.StringIO()
        if clock is not None:
            clock.start()
        code = run(config, out, err)
        if clock is not None:
            setup.append(clock.setup_s())
            stats = clock.engine.stats if clock.engine is not None else None
            counts.append(None if stats is None else {
                "nodes": stats.nodes, "failures": stats.failures,
                "propagations": stats.propagations,
                "peak_depth": stats.peak_depth, "solutions": stats.solutions})
        outputs.append((code, out.getvalue(), err.getvalue()))
    return {"wall_s": time.perf_counter() - started, "outputs": outputs,
            "setup_s": setup, "counts": counts}


class Series:
    """The passes of one kind (traced or untraced): the first pass's
    outputs, every pass's stdout digests and per-pass records."""

    def __init__(self):
        self.first = None
        self.digests = []
        self.passes = []

    def add(self, result: dict, record: dict) -> None:
        outputs = result["outputs"]
        if self.first is None:
            self.first = outputs
        self.digests.append([hashlib.sha256(text.encode()).hexdigest()
                             for _, text, _ in outputs])
        self.passes.append(dict(record, wall_s=result["wall_s"]))

    def result(self) -> dict:
        return {"passes": self.passes, "digests": self.digests,
                "outputs": [{"code": code, "stdout": text, "stderr": errtext}
                            for code, text, errtext in self.first]}


def traced_pass(xcsolve, configs, series: Series) -> None:
    """One pass with the tracer installed for that pass only."""
    tracer = Tracer()
    run = tracer.install(xcsolve)
    try:
        result = run_pass(run, configs)
    finally:
        tracer.uninstall()
    layers = tracer.metrics()
    layers["cli.stdout_bytes"] = sum(len(text.encode()) for _, text, _ in result["outputs"])
    series.add(result, {"layers": layers, "kinds_seen": tracer.kinds_seen()})


def measure(manifest: dict) -> dict:
    """Untraced: passes under the set-up clock until the seconds are spent.
    Traced: pairs of one untraced and one traced pass, the tracer installed
    for the traced pass only, so that the overhead is a difference of
    neighbouring passes."""
    xcsolve = import_xcsolve(manifest["src"])
    cli = xcsolve.cli
    configs = [cli.RunConfig(path=inst["path"], **inst["options"])
               for inst in manifest["instances"]]
    plain = Series()
    traced = Series() if manifest["trace"] else None
    clock = None if traced is not None else SetupClock(cli)
    setup_samples = [[] for _ in configs]
    budget_end = time.perf_counter() + manifest["seconds"]
    try:
        while not plain.passes or time.perf_counter() < budget_end:
            # Every other pair runs its traced pass first, so that neither
            # warm-up nor a steady drift of the machine's speed favours one side.
            traced_first = traced is not None and len(plain.passes) % 2 == 1
            if traced_first:
                traced_pass(xcsolve, configs, traced)
            result = run_pass(cli.run, configs, clock)
            plain.add(result, {"counts": result["counts"]})
            for samples, value in zip(setup_samples, result["setup_s"]):
                samples.append(value)
            if traced is not None and not traced_first:
                traced_pass(xcsolve, configs, traced)
    finally:
        if clock is not None:
            clock.uninstall()
    return {
        "untraced": plain.result(),
        "traced": traced.result() if traced is not None else None,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": (sum(statistics.fmean(samples) for samples in setup_samples)
                    if clock is not None else None),
        "setup_phases_s": dict(clock.phases) if clock is not None else {},
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process image (VmHWM), in MB.
    `ru_maxrss` is not used: after fork and exec it also counts the
    parent's resident set at the time of the fork."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: child.py MANIFEST.json", file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        manifest = json.load(handle)
    result = measure(manifest)
    with open(manifest["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
