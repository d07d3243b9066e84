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


METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.1},
    {"name": "queries_per_op", "better": "lower", "bound": 0.05},
]


def labelled(parent, change):
    """A file holding ``parent`` and ``change`` runs of hitandrun10d, each a list of (seed, metrics)."""
    doc = bench_record.merge({}, "parent", {"hitandrun10d": [record(s, **m) for s, m in parent]})
    return bench_record.merge(doc, "change", {"hitandrun10d": [record(s, **m) for s, m in change]})


def test_comparison_pairs_runs_by_seed_and_states_the_gain_rule():
    # queries fall on 9 of 10 pairs (seed 10 ties) by a median 0.05, more
    # than the parent's interquartile range 0.01; ops/s lose 2% on every
    # pair, within the 10% bound.  The change's runs come in another order
    parent = [(s, {"ops_per_s": 100.0 + s, "queries_per_op": 3.56 + 0.01 * (s % 4)}) for s in range(1, 11)]
    change = [(s, {"ops_per_s": 0.98 * (100.0 + s),
                   "queries_per_op": 3.56 + 0.01 * (s % 4) - (0.0 if s == 10 else 0.05)})
              for s in reversed(range(1, 11))]
    rows = bench_record.compare(labelled(parent, change), METRICS)["hitandrun10d"]
    queries = rows["queries_per_op"]
    assert (queries["pairs"], queries["won"], queries["lost"]) == (10, 9, 0)
    assert queries["median_delta"] == pytest.approx(-0.05)
    assert queries["parent_iqr"] == pytest.approx(0.01)
    assert queries["gain"] is True and queries["within_bound"] is True
    speed = rows["ops_per_s"]
    assert (speed["pairs"], speed["won"], speed["lost"]) == (10, 0, 10)
    assert speed["median_delta"] == pytest.approx(-0.02 * 105.5)
    assert speed["gain"] is False and speed["within_bound"] is True


@pytest.mark.parametrize("factor, won, gain, within", [
    (1.2, 10, True, True),     # better everywhere, by far more than the spread
    (1.0, 0, False, True),     # every pair a tie
    (0.85, 0, False, False),   # 15% worse, past the 10% bound
])
def test_comparison_of_a_higher_is_better_metric(factor, won, gain, within):
    parent = [(s, {"ops_per_s": 100.0 + s}) for s in range(10)]
    change = [(s, {"ops_per_s": factor * (100.0 + s)}) for s in range(10)]
    row = bench_record.compare(labelled(parent, change), METRICS)["hitandrun10d"]["ops_per_s"]
    assert (row["won"], row["gain"], row["within_bound"]) == (won, gain, within)
    assert "queries_per_op" not in bench_record.compare(labelled(parent, change), METRICS)["hitandrun10d"]


def test_eight_of_ten_pairs_is_no_gain():
    parent = [(s, {"queries_per_op": 3.5 + 0.001 * s}) for s in range(10)]
    change = [(s, {"queries_per_op": 3.5 + 0.001 * s + (0.01 if s < 2 else -0.1)}) for s in range(10)]
    row = bench_record.compare(labelled(parent, change), METRICS)["hitandrun10d"]["queries_per_op"]
    assert (row["won"], row["lost"], row["gain"]) == (8, 2, False)


def test_main_records_the_comparison_once_both_labels_are_in(tmp_path, monkeypatch):
    out = tmp_path / "BENCH.json"

    def run_once(root, workload, seed):
        speed = 100.0 + seed + (5.0 if root == tmp_path else 0.0)
        return record(seed, ops_per_s=speed, queries_per_op=2.0, success_rate=1.0)

    monkeypatch.setattr(bench_record, "run_once", run_once)
    assert bench_record.main(["--label", "parent", "--seeds", "1", "2", "--out", str(out)]) == 0
    assert "comparison" not in json.loads(out.read_text())
    argv = ["--label", "change", "--seeds", "2", "1", "--root", str(tmp_path), "--out", str(out)]
    assert bench_record.main(argv) == 0
    comparison = json.loads(out.read_text())["comparison"]
    assert set(comparison) == set(bench_record.WORKLOADS)
    for rows in comparison.values():
        # the end-to-end metrics of BENCHMARK.json that the runs hold
        assert set(rows) == {"ops_per_s", "queries_per_op", "success_rate"}
        assert (rows["ops_per_s"]["won"], rows["ops_per_s"]["gain"]) == (2, True)
        assert (rows["queries_per_op"]["won"], rows["queries_per_op"]["lost"]) == (0, 0)
        assert rows["success_rate"]["within_bound"] is True
