"""Outside-in instrumentation of the xcsolve pipeline.

Both recorders patch public names from outside the package; nothing under
`src/` changes. `SetupClock` is the untraced run's clock-only wrapper: it
times the set-up calls `xcsolve.cli.run` makes. `Tracer` is the traced
run's per-layer recorder: spans with self time computed from a call stack,
and plain counters for the hot calls, all aggregated in memory so that
memory stays bounded however long the run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List

# Propagator kinds that get per-kind metrics: the kinds the workloads
# compile to. A traced run that meets any other kind is refused (see
# `run.check_kinds`), so that a new lowering extends this list and
# BENCHMARK.json.
KINDS = ("TableSupports", "ExprCheck", "AllDifferent", "GlobalCardinality",
         "AtMost", "LexLessEq", "Cumulative", "LinearRel")

SETUP_NAMES = ("parse_instance", "resolve_references", "compile_instance", "Engine")


_ABSENT = object()


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: List[tuple] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner).get(name, _ABSENT)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            if value is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


class SetupClock:
    """Times each set-up call of `cli.run` and keeps the engine it built.

    `setup_s` of one `run` is the time from `start()` (taken just before
    calling `run`) until `Engine(...)` returns."""

    def __init__(self, cli):
        self.patches = Patches()
        self.phases: Dict[str, float] = defaultdict(float)
        self.started = 0.0
        self.engine_ready = None
        self.engine = None
        for name in SETUP_NAMES:
            self.patches.set(cli, name, self._clocked(name, getattr(cli, name)))

    def _clocked(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        phases = self.phases

        def clocked(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            t1 = clock()
            phases[name] += t1 - t0
            if name == "Engine":
                self.engine_ready = t1
                self.engine = result
            return result
        return clocked

    def start(self) -> None:
        self.engine_ready = None
        self.engine = None
        self.started = time.perf_counter()

    def setup_s(self) -> float:
        """Seconds from `start()` to the engine, or 0 when none was built."""
        return 0.0 if self.engine_ready is None else self.engine_ready - self.started

    def uninstall(self) -> None:
        self.patches.undo()


class Tracer:
    """Per-layer spans and counters for one process.

    Spans (count, total seconds, self seconds) wrap the calls at each
    layer boundary; a span's self time is its duration minus the time of
    the spans it contains. `DomainStore.update`/`push` and `expr.evaluate`
    are counted but not timed, because a clock read per call would cost
    more than the call."""

    def __init__(self):
        self.patches = Patches()
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, int] = defaultdict(int)
        self.stack: List[List[float]] = []
        self._owner = ["other"]  # layer that `expr.evaluate` calls belong to
        self._shrinks = [0]  # DomainStore.update calls that shrank a domain
        self._root_pending = [False]

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        del self.stack[:]
        self._owner[0] = "other"
        self._shrinks[0] = 0
        self._root_pending[0] = False

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn: Callable, owner: str = None) -> Callable:
        clock = time.perf_counter
        stack, spans, current = self.stack, self.spans, self._owner

        def spanned(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            if owner is not None:
                previous, current[0] = current[0], owner
            try:
                return fn(*args, **kwargs)
            finally:
                if owner is not None:
                    current[0] = previous
                duration = clock() - frame[0]
                stack.pop()
                record = spans[name]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
        return spanned

    def _prune(self, fn: Callable) -> Callable:
        clock = time.perf_counter
        stack, spans, counts = self.stack, self.spans, self.counts
        current, shrinks = self._owner, self._shrinks

        def prune(prop, store):
            kind = prop.spec.kind
            before = shrinks[0]
            frame = [clock(), 0.0]
            stack.append(frame)
            previous, current[0] = current[0], "propagators"
            try:
                outcome = fn(prop, store)
            finally:
                current[0] = previous
                duration = clock() - frame[0]
                stack.pop()
                record = spans["prop." + kind]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if outcome == "failed" or store.failed:
                counts["prop.%s.fails" % kind] += 1
            else:
                if shrinks[0] != before:
                    counts["prop.%s.prunes" % kind] += 1
                if outcome == "subsumed":
                    counts["prop.%s.subsumed" % kind] += 1
            return outcome
        prune.traced = True
        return prune

    def _fixpoint(self, fn: Callable) -> Callable:
        timed = self.span("search.fixpoint", fn)
        pending, spans = self._root_pending, self.spans

        def propagate_fixpoint(engine, seeds=None):
            if not pending[0]:
                return timed(engine, seeds)
            pending[0] = False
            t0 = time.perf_counter()
            try:
                return timed(engine, seeds)
            finally:
                record = spans["search.root"]
                record[0] += 1
                record[1] += time.perf_counter() - t0
        return propagate_fixpoint

    def _solve(self, fn: Callable) -> Callable:
        timed = self.span("search.solve", fn)
        pending, counts = self._root_pending, self.counts

        def solve(engine, *args, **kwargs):
            pending[0] = True
            result = timed(engine, *args, **kwargs)
            stats = result.stats
            counts["search.nodes"] += stats.nodes
            counts["search.failures"] += stats.failures
            counts["search.propagations"] += stats.propagations
            counts["search.solutions"] += stats.solutions
            counts["search.peak_depth"] = max(counts["search.peak_depth"],
                                              stats.peak_depth)
            return result
        return solve

    def _compile(self, fn: Callable) -> Callable:
        timed = self.span("compiler.compile", fn)
        counts = self.counts

        def compile_instance(*args, **kwargs):
            problem = timed(*args, **kwargs)
            counts["compiler.specs"] += len(problem.propagators)
            for spec in problem.propagators:
                counts["compiler.specs." + spec.kind] += 1
            return problem
        return compile_instance

    def _parse(self, fn: Callable) -> Callable:
        timed = self.span("model.parse", fn)
        counts = self.counts

        def parse_instance(document):
            counts["model.input_bytes"] += len(document)
            return timed(document)
        return parse_instance

    def _update(self, fn: Callable) -> Callable:
        counts, shrinks = self.counts, self._shrinks

        def update(store, i, new):
            counts["store.update.calls"] += 1
            shrank = fn(store, i, new)
            if shrank:
                shrinks[0] += 1
            return shrank
        return update

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _evaluate(self, fn: Callable) -> Callable:
        counts, current = self.counts, self._owner

        def evaluate(expr, assignment):
            counts["expr.evals." + current[0]] += 1
            return fn(expr, assignment)
        return evaluate

    # -- installation -----------------------------------------------------

    def install(self, xcsolve) -> Callable:
        """Patch the pipeline; returns the traced `cli.run`."""
        cli, expr = xcsolve.cli, xcsolve.expr
        search, store, props = xcsolve.search, xcsolve.store, xcsolve.propagators
        p = self.patches
        p.set(cli, "parse_instance", self._parse(cli.parse_instance))
        p.set(cli, "resolve_references", self.span("model.resolve", cli.resolve_references))
        p.set(cli, "compile_instance", self._compile(cli.compile_instance))
        p.set(cli, "Engine", self.span("search.engine_init", cli.Engine))
        p.set(cli, "verify_solution", self.span("verify", cli.verify_solution, owner="verify"))
        p.set(search.Engine, "solve", self._solve(search.Engine.solve))
        p.set(search.Engine, "propagate_fixpoint",
              self._fixpoint(search.Engine.propagate_fixpoint))
        p.set(search.BranchStrategy, "select",
              self.span("search.select", search.BranchStrategy.select))
        for cls in dict.fromkeys(props.PROPAGATOR_CLASSES.values()):
            if not getattr(cls.prune, "traced", False):
                p.set(cls, "prune", self._prune(cls.prune))
        p.set(store.DomainStore, "update", self._update(store.DomainStore.update))
        p.set(store.DomainStore, "push",
              self._counted("store.push.calls", store.DomainStore.push))
        p.set(store.DomainStore, "undo", self.span("store.undo", store.DomainStore.undo))
        p.set(expr, "evaluate", self._evaluate(expr.evaluate))
        return self.span("cli", cli.run)

    def uninstall(self) -> None:
        self.patches.undo()

    # -- results ----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric of the pass recorded since `reset()`."""
        spans, counts = self.spans, self.counts

        def total(name):
            return spans[name][1] if name in spans else 0.0

        def calls(name):
            return spans[name][0] if name in spans else 0

        def own(name):
            return spans[name][2] if name in spans else 0.0

        parse_s = total("model.parse")
        nodes = counts.get("search.nodes", 0)
        m = {
            "model.parse_s": parse_s,
            "model.resolve_s": total("model.resolve"),
            "model.input_bytes": counts.get("model.input_bytes", 0),
            "model.parse_mb_per_s": (counts.get("model.input_bytes", 0) / 1e6 / parse_s
                                     if parse_s else 0.0),
            "compiler.compile_s": total("compiler.compile"),
            "compiler.specs": counts.get("compiler.specs", 0),
        }
        for kind in KINDS:
            m["compiler.specs." + kind] = counts.get("compiler.specs." + kind, 0)
        m.update({
            "search.engine_init_s": total("search.engine_init"),
            "search.root_s": total("search.root"),
            "search.solve_s": total("search.solve"),
            "search.self_s": own("search.solve"),
            "search.fixpoint.calls": calls("search.fixpoint"),
            "search.fixpoint.self_s": own("search.fixpoint"),
            "search.select.calls": calls("search.select"),
            "search.select_s": total("search.select"),
            "search.props_per_node": counts.get("search.propagations", 0) / (nodes + 1),
        })
        for name in ("nodes", "failures", "propagations", "peak_depth", "solutions"):
            m["search." + name] = counts.get("search." + name, 0)
        for kind in KINDS:
            n = calls("prop." + kind)
            prunes = counts.get("prop.%s.prunes" % kind, 0)
            fails = counts.get("prop.%s.fails" % kind, 0)
            m.update({
                "prop.%s.calls" % kind: n,
                "prop.%s.s" % kind: total("prop." + kind),
                "prop.%s.prunes" % kind: prunes,
                "prop.%s.fails" % kind: fails,
                "prop.%s.subsumed" % kind: counts.get("prop.%s.subsumed" % kind, 0),
                "prop.%s.useful_ratio" % kind: (prunes + fails) / n if n else 0.0,
            })
        m.update({
            "store.update.calls": counts.get("store.update.calls", 0),
            "store.updates": self._shrinks[0],
            "store.push.calls": counts.get("store.push.calls", 0),
            "store.undo.calls": calls("store.undo"),
            "store.undo_s": total("store.undo"),
            "expr.evals.propagators": counts.get("expr.evals.propagators", 0),
            "expr.evals.verify": counts.get("expr.evals.verify", 0),
            "verify.calls": calls("verify"),
            "verify.s": total("verify"),
            "cli.self_s": own("cli"),
        })
        return m

    def kinds_seen(self) -> List[str]:
        """Every propagator kind compiled or run since `reset()`."""
        ran = (name[5:] for name in self.spans if name.startswith("prop."))
        compiled = (name[15:] for name in self.counts if name.startswith("compiler.specs."))
        return sorted(set(ran) | set(compiled))
