"""Tests of the benchmark itself, at tiny sizes.

Every metric named in BENCHMARK.json is emitted with its unit, the traced
run records a span for every layer, the query ledger reconciles, and each
correctness gate trips on wrong inputs.
"""
import gc
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
from lcsampler import (  # noqa: E402
    ClassViolationError,
    Envelope,
    PotentialOracle,
    prepare_envelope,
    sample_exact,
)
from lcsampler.targets import builtin_potential  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Layers each workload must reach (the root span "op" belongs to the 1D ones).
EXPECTED_SPANS = {
    "sample1d": {
        "op", "rejection.sample", "envelope.sample", "envelope.log_value",
        "numerics.tail_sample", "oracles.query", "oracles.evaluate",
    },
    "build1d": {
        "op", "targets.resolve", "oracles.normalize", "envelope.build",
        "envelope.threshold_search", "rejection.sample", "envelope.sample",
        "envelope.log_value", "numerics.tail_sample", "oracles.query", "oracles.evaluate",
    },
    "hitandrun10d": {
        "hitandrun.step", "hitandrun.restrict", "hitandrun.bracket",
        "hitandrun.line_envelope", "hitandrun.line_rejection", "hitandrun.query",
        "rejection.sample", "envelope.sample", "envelope.log_value",
    },
}


def tiny(name):
    workload = bw.WORKLOADS[name](seed=7)
    workload.LEDGER_OPS = workload.chunk_ops
    return workload


def parse(line):
    doc = json.loads(line)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bw.WORKLOADS)
    assert set(declared("end_to_end")) == set(run.END_TO_END_UNITS)


def test_untraced_run_emits_every_end_to_end_metric_with_unit():
    workload = tiny("build1d")
    m = run.measure(workload, seconds=0.0)
    values = run.end_to_end_metrics(
        m, run.probe_setup("build1d", 7, probes=1)[0], run.peak_rss_mb(), m.failed
    )
    doc = parse(run.result_line(True, m.attempted, m.failed, values, run.END_TO_END_UNITS))
    metrics = doc["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())
    assert doc["attempted"] >= 1 and doc["failed"] == 0
    assert workload.gate() == []


@pytest.mark.parametrize("name", list(bw.WORKLOADS))
def test_traced_run_spans_every_layer_and_reconciles(name):
    workload = tiny(name)
    tracer = bench_trace.Tracer()
    m = run.measure(workload, seconds=0.0, tracer=tracer)
    assert m.traced_ops > 0
    spans = set(tracer.names)
    assert EXPECTED_SPANS[name] <= spans
    values = run.per_layer_metrics(workload, m, tracer)
    assert values["ledger.mismatch"] == 0
    assert values["ledger.queries_per_op"] > 0
    assert 0.0 < values["envelope.rho"] < 1.0
    doc = parse(run.result_line(True, m.attempted, 0, values, run.per_layer_units()))
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared("per_layer")
    # uninstall restored the library
    assert bw.lcsampler.sample_exact is sample_exact


def test_spans_cover_every_layer():
    covered = set().union(*EXPECTED_SPANS.values())
    assert set(bench_trace.SPAN_NAMES) <= covered


def test_ledger_catches_query_outside_phases():
    potential = builtin_potential("gaussian", 1e3)
    oracle = PotentialOracle(potential, alpha=1.0, beta=1e3)
    normalized, env = prepare_envelope(oracle)
    rng = np.random.default_rng(0)
    tracer = bench_trace.Tracer()
    before = oracle.query_count
    tracer.install()
    try:
        bw.lcsampler.sample_exact(normalized, env, rng)
        oracle.query(0.5)  # a query no phase accounts for
    finally:
        tracer.uninstall()
    counted = oracle.query_count - before
    values = tracer.layer_metrics(1, [], bw.Sample1D.LEDGER_PHASES, counted)
    assert values["ledger.mismatch"] == 1


def test_raising_ops_count_as_failed(monkeypatch):
    workload = tiny("sample1d")

    def out_of_class(*args, **kwargs):
        raise ClassViolationError("target outside the class")

    monkeypatch.setattr(bw.lcsampler, "sample_exact", out_of_class)
    assert workload.run_chunk() == workload.chunk_ops


def test_domination_gate_trips_on_narrow_plateau():
    potential = builtin_potential("gaussian", 1e6)
    _, env = prepare_envelope(PotentialOracle(potential, alpha=1.0, beta=1e6))
    assert bw.domination_gate("ok", potential, env) == []
    narrow = Envelope.from_geometry(-0.1, 0.1, 5.0, 5.0)
    assert bw.domination_gate("narrow", potential, narrow)


def test_budget_gate_trips_over_budget():
    budget = bw.construction_budget(1e6)
    assert bw.budget_gate("ok", 1e6, budget) == []
    assert bw.budget_gate("over", 1e6, budget + 1)


def test_ks_gate_trips_on_wrong_samples():
    potential = builtin_potential("gaussian", 1e6)
    _, env = prepare_envelope(PotentialOracle(potential, alpha=1.0, beta=1e6))
    rng = np.random.default_rng(1)
    assert bw.ks_gate("exact", rng.standard_normal(5000), potential) == []
    assert bw.ks_gate("envelope draws", env.sample(rng, size=5000), potential)


def test_chain_moments_gate_trips_on_wrong_variance():
    rng = np.random.default_rng(2)
    for scale, trips in ((1.0, False), (1.3, True)):
        x = scale * rng.standard_normal((20_000, 10))
        failures = bw.chain_moments_gate(len(x), x.sum(axis=0), float((x * x).sum()), 10)
        assert bool(failures) == trips
    shifted = rng.standard_normal((20_000, 10)) + 0.5
    assert bw.chain_moments_gate(20_000, shifted.sum(axis=0), float((shifted**2).sum()), 10)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "lcbench", tmp_path / "lcbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "lcbench/run.py", "--workload", "sample1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_keeps_the_collector_state():
    try:
        gc.disable()
        run.reference_seconds()
        assert not gc.isenabled()
        gc.enable()
        run.reference_seconds()
        assert gc.isenabled()
    finally:
        gc.enable()
