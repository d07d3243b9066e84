"""The merge and summary logic of tools/bench_record.py; no benchmark runs."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def record(seed, **metrics):
    return {"seed": seed, "correct": True, "attempted": 10, "failed": 0, "metrics": metrics}


def test_summary_median_and_inclusive_quartiles():
    assert bench_record.summarize([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0,
    }
    assert bench_record.summarize([4.0, 1.0, 3.0, 2.0]) == {
        "n": 4, "median": 2.5, "q1": 1.75, "q3": 3.25,
    }
    assert bench_record.summarize([7.0]) == {"n": 1, "median": 7.0, "q1": 7.0, "q3": 7.0}


def test_merge_keeps_other_labels_and_appends_runs():
    doc = bench_record.merge({}, "parent", {"build1d": [record(1, ops_per_s=10.0)]})
    doc = bench_record.merge(doc, "change", {"build1d": [record(1, ops_per_s=12.0)]})
    doc = bench_record.merge(
        doc, "parent", {"build1d": [record(2, ops_per_s=20.0), record(3, ops_per_s=30.0)]}
    )
    assert set(doc["labels"]) == {"parent", "change"}
    parent = doc["labels"]["parent"]
    assert [r["seed"] for r in parent["runs"]["build1d"]] == [1, 2, 3]
    assert parent["summary"]["build1d"]["ops_per_s"] == {
        "n": 3, "median": 20.0, "q1": 15.0, "q3": 25.0,
    }
    assert doc["labels"]["change"]["summary"]["build1d"]["ops_per_s"]["median"] == 12.0
    assert doc["command"] == "python3 lcbench/run.py --workload W --seed S --seconds 20 --trace 0"


def test_merge_leaves_its_input_unchanged():
    first = bench_record.merge({}, "parent", {"sample1d": [record(1, queries_per_op=1.5)]})
    snapshot = repr(first)
    bench_record.merge(first, "parent", {"sample1d": [record(2, queries_per_op=1.4)]})
    assert repr(first) == snapshot


@pytest.mark.parametrize("workload", bench_record.WORKLOADS)
def test_command_runs_each_workload_for_twenty_seconds_untraced(workload):
    assert bench_record.run_command(workload, 7) == [
        "python3", "lcbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "20", "--trace", "0",
    ]


def test_a_failed_gate_exits_nonzero_and_merges_nothing(tmp_path, monkeypatch, capsys):
    out = tmp_path / "BENCH.json"
    out.write_text("{}\n")

    def run_once(root, workload, seed):
        doc = record(seed, ops_per_s=10.0)
        doc["correct"] = not (workload == "build1d" and seed == 5)
        return doc

    monkeypatch.setattr(bench_record, "run_once", run_once)
    argv = ["--label", "change", "--seeds", "4", "5", "--out", str(out)]
    assert bench_record.main(argv) == 1
    assert out.read_text() == "{}\n"
    assert "build1d seed 5" in capsys.readouterr().err
    assert bench_record.main(["--label", "change", "--seeds", "4", "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["labels"]["change"]["runs"]
    assert set(runs) == set(bench_record.WORKLOADS)


@pytest.mark.parametrize("status", [2, 1])
def test_a_run_that_exits_nonzero_exits_1_and_merges_nothing(tmp_path, monkeypatch, capsys, status):
    # 2 is run.py's status for a checkout without src/; 1 is a crash
    out = tmp_path / "BENCH.json"
    out.write_text("{}\n")
    calls = []

    def run(command, check=False, **kwargs):  # subprocess.run's contract, check included
        calls.append(command)
        workload, seed = command[3], command[5]
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {"ops_per_s": {"value": 5.0}}})
        proc = subprocess.CompletedProcess(command, 0, f"log\n{line}\n", "")
        if workload == "hitandrun10d" and seed == "9":
            proc = subprocess.CompletedProcess(command, status, "", "Traceback ...\nboom\n")
        if check:
            proc.check_returncode()
        return proc

    monkeypatch.setattr(bench_record.subprocess, "run", run)
    argv = ["--label", "change", "--seeds", "8", "9", "--root", str(tmp_path), "--out", str(out)]
    assert bench_record.main(argv) == 1
    assert out.read_text() == "{}\n"
    err = capsys.readouterr().err
    assert f"hitandrun10d seed 9: lcbench/run.py exited with status {status}: boom" in err
    assert "nothing from this invocation is merged" in err
    assert len(calls) == 2 * len(bench_record.WORKLOADS)
