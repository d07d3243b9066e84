"""Span tracing of lcsampler's layers, installed from outside the program.

``Tracer.install`` replaces public functions and methods of the library's
modules with wrappers that record one span per call: its name, start, end
and the span that was open when it began (its parent).  Spans stay in memory
and are summarized, and optionally written out, when the run ends.  A
layer's self time is its duration minus the time covered by its child spans.

The same wrappers count queries where they happen: every call of an
oracle's ``query`` is a span, so the queries spent under a layer are the
query spans below it.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

from lcsampler import envelope, hitandrun, numerics, oracles, rejection, targets

# (span name, owner, attribute).  A module-level function is replaced in
# every lcsampler module that holds it, because the package re-exports it
# and sibling modules import it by name; a method is replaced on its class.
LAYERS = (
    ("targets.resolve", targets, "resolve_target"),
    ("oracles.evaluate", oracles.PiecewiseQuadraticPotential, "evaluate"),
    ("oracles.query", oracles.PotentialOracle, "query"),
    ("oracles.normalize", oracles, "normalize_at_zero"),
    ("envelope.build", envelope, "build_envelope"),
    ("envelope.threshold_search", envelope, "find_threshold_index"),
    ("envelope.sample", envelope.Envelope, "sample"),
    ("envelope.log_value", envelope.Envelope, "log_value"),
    ("rejection.sample", rejection, "sample_exact"),
    ("numerics.tail_sample", numerics, "sample_gaussian_tail"),
    ("hitandrun.step", hitandrun, "step"),
    ("hitandrun.restrict", hitandrun, "restrict"),
    ("hitandrun.bracket", hitandrun, "bracket_minimizer"),
    ("hitandrun.line_envelope", hitandrun, "build_line_envelope"),
    ("hitandrun.query", hitandrun.MultivariateOracle, "query"),
)
# The line step's rejection loop: a span around the rejection.sample span of
# calls made from the hitandrun module.
LINE_REJECTION = "hitandrun.line_rejection"
QUERY_SPANS = frozenset({"oracles.query", "hitandrun.query"})
KEEP_RESULTS = ("rejection.sample", "hitandrun.line_envelope")
SPAN_NAMES = tuple(name for name, _, _ in LAYERS) + (LINE_REJECTION,)

_MISSING = object()

# (metric, span, statistic, unit); statistics are per op or per call of the span
PER_LAYER = (
    ("targets.resolve_us", "targets.resolve", "us_per_op", "us"),
    ("targets.resolve_us_per_call", "targets.resolve", "us_per_call", "us"),
    ("oracles.evaluate_us", "oracles.evaluate", "us_per_op", "us"),
    ("oracles.evaluate_us_per_call", "oracles.evaluate", "us_per_call", "us"),
    ("oracles.query_us", "oracles.query", "us_per_op", "us"),
    ("oracles.query_us_per_call", "oracles.query", "us_per_call", "us"),
    ("oracles.query_self_us", "oracles.query", "self_us_per_op", "us"),
    ("oracles.queries_per_op", "oracles.query", "calls_per_op", "count"),
    ("oracles.normalize_queries", "oracles.normalize", "queries_per_call", "count"),
    ("envelope.build_us", "envelope.build", "us_per_op", "us"),
    ("envelope.build_us_per_call", "envelope.build", "us_per_call", "us"),
    ("envelope.build_queries", "envelope.build", "queries_per_call", "count"),
    ("envelope.threshold_search_us", "envelope.threshold_search", "us_per_op", "us"),
    ("envelope.threshold_search_queries", "envelope.threshold_search", "queries_per_call", "count"),
    ("envelope.sample_us", "envelope.sample", "us_per_op", "us"),
    ("envelope.sample_us_per_call", "envelope.sample", "us_per_call", "us"),
    ("envelope.log_value_us", "envelope.log_value", "us_per_op", "us"),
    ("envelope.log_value_us_per_call", "envelope.log_value", "us_per_call", "us"),
    ("rejection.sample_us", "rejection.sample", "us_per_op", "us"),
    ("rejection.sample_us_per_call", "rejection.sample", "us_per_call", "us"),
    ("rejection.self_us", "rejection.sample", "self_us_per_op", "us"),
    ("numerics.tail_sample_us", "numerics.tail_sample", "us_per_op", "us"),
    ("numerics.tail_sample_us_per_call", "numerics.tail_sample", "us_per_call", "us"),
    ("numerics.tail_calls_per_op", "numerics.tail_sample", "calls_per_op", "count"),
    ("hitandrun.step_us", "hitandrun.step", "us_per_op", "us"),
    ("hitandrun.restrict_us", "hitandrun.restrict", "us_per_op", "us"),
    ("hitandrun.bracket_us", "hitandrun.bracket", "us_per_op", "us"),
    ("hitandrun.bracket_queries", "hitandrun.bracket", "queries_per_call", "count"),
    ("hitandrun.line_envelope_us", "hitandrun.line_envelope", "us_per_op", "us"),
    ("hitandrun.line_envelope_queries", "hitandrun.line_envelope", "queries_per_call", "count"),
    ("hitandrun.line_rejection_us", LINE_REJECTION, "us_per_op", "us"),
    ("hitandrun.query_us", "hitandrun.query", "us_per_op", "us"),
    ("hitandrun.query_us_per_call", "hitandrun.query", "us_per_call", "us"),
)
# Metrics computed from returned values rather than span times: (metric, unit)
DERIVED = (
    ("envelope.rho", "ratio"),
    ("rejection.trials_per_sample", "count"),
    ("rejection.accept_ratio", "ratio"),
    ("hitandrun.line_trials", "count"),
    ("ledger.queries_per_op", "count"),
    ("ledger.mismatch", "count"),
)


class Tracer:
    """In-memory span recorder plus the patching that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        # span name -> [(span index, returned value)] for KEEP_RESULTS
        self.results: dict[str, list] = {name: [] for name in KEEP_RESULTS}
        self._patches: list = []

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        names, parents, starts, ends, stack = (
            self.names,
            self.parents,
            self.starts,
            self.ends,
            self._stack,
        )
        results = self.results.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if results is not None:
                results.append((index, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, place, attr: str, value) -> None:
        self._patches.append((place, attr, vars(place).get(attr, _MISSING)))
        setattr(place, attr, value)

    def install(self, workload=None) -> None:
        """Wrap every layer, and ``workload.op`` as the root span ``op``."""
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "lcsampler" or key.startswith("lcsampler.")
        ]
        for name, owner, attr in LAYERS:
            original = getattr(owner, attr)
            wrapped = self.span(name, original)
            places = [owner] if isinstance(owner, type) else [
                module for module in modules if vars(module).get(attr) is original
            ]
            for place in places:
                self._patch(place, attr, wrapped)
        self._patch(hitandrun, "sample_exact", self.span(LINE_REJECTION, hitandrun.sample_exact))
        if workload is not None and hasattr(workload, "op"):
            self._patch(workload, "op", self.span("op", workload.op))

    def uninstall(self) -> None:
        while self._patches:
            place, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(place, attr)
            else:
                setattr(place, attr, original)

    # -- summaries ---------------------------------------------------------

    def span_stats(self):
        """Per span name: calls, total seconds, self seconds, queries below."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        n = len(starts)
        durations = [ends[i] - starts[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                covered[parents[i]] += durations[i]
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        queries: Counter = Counter()
        for i in range(n):
            name = names[i]
            calls[name] += 1
            total[name] += durations[i]
            self_time[name] += durations[i] - covered[i]
            if name in QUERY_SPANS:
                p = parents[i]
                while p >= 0:
                    queries[names[p]] += 1
                    p = parents[p]
        return calls, total, self_time, queries

    def rejection_trials(self, under: str | None = None) -> tuple[int, int]:
        """(samples, trials) of rejection.sample calls, optionally under a parent span."""
        samples = trials = 0
        for index, outcome in self.results["rejection.sample"]:
            if under is None or self.names[self.parents[index]] == under:
                samples += 1
                trials += outcome.trials
        return samples, trials

    def layer_metrics(self, ops: int, rhos, phases, counted: int) -> dict:
        """Every per-layer metric for ``ops`` traced ops.

        ``counted`` is the program's own query counter delta over the traced
        ops, against which the phase ledger is reconciled.
        """
        calls, total, self_time, queries = self.span_stats()
        per_op = 1.0 / ops

        def stat(span: str, kind: str) -> float:
            n = calls[span]
            if kind == "us_per_op":
                return 1e6 * total[span] * per_op
            if kind == "self_us_per_op":
                return 1e6 * self_time[span] * per_op
            if kind == "calls_per_op":
                return n * per_op
            if kind == "us_per_call":
                return 1e6 * total[span] / n if n else 0.0
            if kind == "queries_per_call":
                return queries[span] / n if n else 0.0
            raise ValueError(kind)

        out = {name: stat(span, kind) for name, span, kind, _ in PER_LAYER}
        samples, trials = self.rejection_trials()
        _, line_trials = self.rejection_trials(under=LINE_REJECTION)
        ledger = sum(queries[phase] for phase in phases) + trials
        out["envelope.rho"] = sum(rhos) / len(rhos) if rhos else 0.0
        out["rejection.trials_per_sample"] = trials / samples if samples else 0.0
        out["rejection.accept_ratio"] = samples / trials if trials else 0.0
        out["hitandrun.line_trials"] = line_trials * per_op
        out["ledger.queries_per_op"] = counted * per_op
        out["ledger.mismatch"] = abs(ledger - counted)
        return out

    def write(self, path: str, origin: float) -> None:
        """Write every span as CSV: id, name, parent, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            for i, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{i},{name},{parent},{start - origin:.9f},{end - origin:.9f}\n")
