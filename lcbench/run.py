"""Benchmark of lcsampler: one workload per process, one JSON result line.

Run from the repository root:

    python3 lcbench/run.py --workload sample1d --seed 1 --seconds 20 --trace 0

Workloads are ``sample1d``, ``build1d`` and ``hitandrun10d`` (see
``bench_workloads.py`` and ``README.md``).  Ops run in fixed-size chunks for
at least ``--seconds`` seconds, single-threaded, with the BLAS/OpenMP pools
pinned to one thread.  Correctness gates run after the timed region.

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median
over several fresh processes of the time from process start to the first
timed op.  Chunk rates and set-up times are rescaled to a nominal host speed
by reference work timed next to them (``reference_seconds``,
``probe_setup``), because the speed of a shared VM swings.  ``--trace 1``
alternates untraced and traced chunks and reports the per-layer metrics of
the traced ones, the tracing overhead, and the reconciliation of the
per-phase query ledger against the program's query counter; its spans are
written to ``.lcbench/trace-<workload>-<seed>.csv``.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  The lcsampler sources are taken from ``src/`` next to this
directory; without them the benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".lcbench"
THREAD_POOL_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120.0
# Seconds the reference work takes on a quiet host: the 10th percentile of
# 150 calls with Python 3.11 and NumPy 2.4 on a 2-vCPU x86-64 VM.  Timings
# are rescaled to this host speed.
REFERENCE_NOMINAL_S = 0.010
IMPORT_REFERENCE = [sys.executable, "-c", "import numpy, scipy.special; print('ready')"]
# Seconds IMPORT_REFERENCE takes to be ready on a quiet host: the 10th
# percentile of 25 runs on the same VM.  Set-up times are rescaled to it.
IMPORT_NOMINAL_S = 0.35
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "queries_per_op": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
TRACING_UNITS = {
    "tracing.ops_per_s": "1/s",
    "tracing.untraced_ops_per_s": "1/s",
    "tracing.overhead": "ratio",
}


def pin_thread_pools() -> None:
    for var in THREAD_POOL_VARS:
        os.environ[var] = "1"


def seconds_until_ready(command: list[str]) -> float:
    """Seconds from spawning ``command`` until it prints ``ready``; waits for its exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"{command[1:]} exited with code {code} before it was ready")
    return elapsed


def probe_setup(workload: str, seed: int, probes: int = SETUP_PROBES):
    """Seconds from spawning a fresh process to its first timed op, per probe.

    Each probe imports everything, builds the workload (inputs, envelopes,
    warm-up) and reports ready, then exits without timing anything.  Probes
    alternate with a reference process that only imports NumPy and
    scipy.special, the bulk of set-up that no lcsampler change touches.
    Each probe is scaled by ``IMPORT_NOMINAL_S`` over the mean of the
    reference times on either side, which cancels the host's swings in
    process start-up and import speed.  Returns the scaled and the measured
    times.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    references = [seconds_until_ready(IMPORT_REFERENCE)]
    times, raw = [], []
    for _ in range(probes):
        raw.append(seconds_until_ready(command))
        references.append(seconds_until_ready(IMPORT_REFERENCE))
        times.append(raw[-1] * IMPORT_NOMINAL_S / (0.5 * (references[-2] + references[-1])))
    return times, raw


def reference_seconds() -> float:
    """Time a fixed mix of scalar NumPy calls and exact rational arithmetic.

    The two halves mirror the library's sampling and construction paths, but
    no change to lcsampler touches this code, so its duration tracks only
    how fast the host runs at the moment.  On a shared VM that speed swings
    by up to 2x over seconds and minutes, for this work and the workloads'
    alike, so each timing is scaled by ``reference / REFERENCE_NOMINAL_S``
    taken next to it, which cancels the common swing.  The cyclic garbage
    collector is off while it runs, so that the size of the program's live
    heap does not change the cost of the reference.
    """
    import numpy as np

    gc_was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = 0.0
    for i in range(1500):
        a = np.asarray(i * 1e-3)
        total += float(np.where(a > 0.5, a, -a)) + math.exp(-i * 1e-4)
    x = Fraction(1, 3)
    for i in range(1, 700):
        x = Fraction(float(x * Fraction(i + 1, i) - Fraction(1, i * i + 1)))
    elapsed = time.perf_counter() - start
    if gc_was_enabled:
        gc.enable()
    return elapsed


class Measurement:
    """Chunk rates and op counts of one timed run."""

    def __init__(self):
        # ops/s of untraced chunks, at nominal host speed
        self.rates: list[float] = []
        self.traced_rates: list[float] = []
        self.raw_rates: list[float] = []  # untraced chunks, as measured
        self.references: list[float] = []  # seconds, next to untraced chunks
        self.attempted = 0
        self.failed = 0
        self.ledger_ops = 0  # the first ops, whose queries give queries_per_op
        self.ledger_queries = 0
        self.traced_ops = 0
        self.traced_queries = 0  # program counter delta over traced chunks


def measure(workload, seconds: float, tracer=None) -> Measurement:
    """Run chunks until ``seconds`` have passed and, untraced, the ledger prefix is done.

    With a tracer, odd chunks run traced and even chunks untraced, so both
    rates see the same machine conditions.  The reference work runs after
    every chunk and rescales its rate to nominal host speed.
    """
    result = Measurement()
    clock = time.perf_counter
    start = clock()
    chunk = workload.chunk_ops
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install(workload)
            queries_before = workload.query_total()
        t0 = clock()
        failed = workload.run_chunk()
        t1 = clock()
        if traced:
            tracer.uninstall()
        reference = reference_seconds()
        rate = chunk / (t1 - t0) * reference / REFERENCE_NOMINAL_S
        if traced:
            result.traced_queries += workload.query_total() - queries_before
            result.traced_ops += chunk
            result.traced_rates.append(rate)
        else:
            result.rates.append(rate)
            result.raw_rates.append(chunk / (t1 - t0))
            result.references.append(reference)
        result.attempted += chunk
        result.failed += failed
        if not result.ledger_ops and result.attempted >= workload.LEDGER_OPS:
            result.ledger_ops = result.attempted
            result.ledger_queries = workload.query_total()
        index += 1
        if t1 - start >= seconds and (result.traced_ops if tracer else result.ledger_ops):
            return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end_metrics(m: Measurement, setup_times, rss_mb: float, failed: int) -> dict:
    return {
        "ops_per_s": statistics.median(m.rates),
        "queries_per_op": m.ledger_queries / m.ledger_ops,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
        "success_rate": 1.0 - failed / m.attempted,
    }


def per_layer_metrics(workload, m: Measurement, tracer) -> dict:
    values = tracer.layer_metrics(
        m.traced_ops, workload.envelope_rhos(tracer), workload.LEDGER_PHASES, m.traced_queries
    )
    traced = statistics.median(m.traced_rates)
    untraced = statistics.median(m.rates)
    values["tracing.ops_per_s"] = traced
    values["tracing.untraced_ops_per_s"] = untraced
    values["tracing.overhead"] = untraced / traced
    return values


def per_layer_units() -> dict:
    import bench_trace

    units = {name: unit for name, _, _, unit in bench_trace.PER_LAYER}
    units.update(dict(bench_trace.DERIVED))
    units.update(TRACING_UNITS)
    return units


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> str:
    """One benchmark run; returns the result line."""
    import bench_trace
    from bench_workloads import WORKLOADS

    setup_times = raw_setup_times = None
    if not trace:
        setup_times, raw_setup_times = probe_setup(workload_name, seed)
    workload = WORKLOADS[workload_name](seed)
    tracer = bench_trace.Tracer() if trace else None
    m = measure(workload, seconds, tracer)
    rss_mb = peak_rss_mb()
    print(
        f"{workload_name}: {len(m.rates)} untraced chunks; median as measured "
        f"{statistics.median(m.raw_rates):.1f} ops/s, reference "
        f"{1e3 * statistics.median(m.references):.2f} ms "
        f"(nominal {1e3 * REFERENCE_NOMINAL_S:.2f} ms)",
        file=sys.stderr,
    )
    if setup_times:
        print(f"{workload_name}: set-up probes " + ", ".join(f"{t:.3f}" for t in setup_times)
              + " s; as measured " + ", ".join(f"{t:.3f}" for t in raw_setup_times) + " s",
              file=sys.stderr)

    failures = workload.gate()
    if trace:
        values, units = per_layer_metrics(workload, m, tracer), per_layer_units()
        if values["ledger.mismatch"]:
            failures.append(
                f"query ledger: phases and trials differ from the query counter by "
                f"{values['ledger.mismatch']} over {m.traced_ops} traced ops"
            )
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(str(TRACE_DIR / f"trace-{workload_name}-{seed}.csv"), tracer.starts[0])
    for failure in failures:
        print(f"gate failed: {failure}", file=sys.stderr)
    failed = m.attempted if failures else m.failed
    if not trace:
        values, units = end_to_end_metrics(m, setup_times, rss_mb, failed), END_TO_END_UNITS
    return result_line(not failures and failed == 0, m.attempted, failed, values, units)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("sample1d", "build1d", "hitandrun10d"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_thread_pools()
    if not (SRC / "lcsampler" / "__init__.py").is_file():
        print(f"lcbench: lcsampler sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        from bench_workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    print(run(args.workload, args.seed, args.seconds, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
