"""Record the benchmark's end-to-end metrics under a label in a BENCH_<n>.json file.

Run from anywhere; ``--root`` is the checkout whose benchmark runs (its
``lcbench/run.py`` with its own ``src/``), by default the one holding this
script:

    python3 tools/bench_record.py --label parent --root ../parent --seeds 101 --out BENCH_13.json
    python3 tools/bench_record.py --label change --seeds 101 --out BENCH_13.json

For each seed and each workload it runs ``python3 lcbench/run.py --workload
W --seed S --seconds 20 --trace 0`` in the checkout and keeps the result
line.  The runs are appended to the label's runs already in the file, so
calling it seed by seed with the labels alternating records alternating
pairs; other labels in the file are kept.  Each label then carries, per
workload and end-to-end metric, the median and quartiles over all its runs.
A run whose result line says ``"correct": false``, or a run that exits with
a nonzero status (``run.py`` exits 2 when the checkout has no ``src/``),
stops the invocation with exit status 1 and a message naming its workload
and seed, and the file is left as it was.

Once the file holds both a ``parent`` and a ``change`` label, it also holds
their ``comparison``: per workload and end-to-end metric of
``BENCHMARK.json``, the pairs of runs matched by seed that the change won
and lost (a tie counts for neither, and ``better`` says which way wins),
the difference of the medians, the parent's interquartile range, whether
the gain rule holds (at least nine in ten pairs won and the medians apart
by more than that range, in the better direction), and whether the change's
median is worse than the parent's by no more than the metric's ``bound``, a
fraction of the parent's median.
Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sample1d", "build1d", "hitandrun10d")
SECONDS = 20
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_command(workload: str, seed) -> list[str]:
    return ["python3", "lcbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]


class RunFailed(Exception):
    """A benchmark process that exited with a nonzero status."""


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One benchmark process; its last output line as a run record.

    Raises RunFailed, naming the workload, the seed, the exit status and the
    last line of the process's standard error, when it exits nonzero.
    """
    proc = subprocess.run(run_command(workload, seed), cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["(no output on stderr)"])[-1]
        raise RunFailed(f"{workload} seed {seed}: lcbench/run.py exited with status "
                        f"{proc.returncode}: {last}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: m["value"] for name, m in doc["metrics"].items()},
    }


def summarize(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric's runs."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def summaries(runs: dict) -> dict:
    """Per workload and metric, the summary of every run recorded for it."""
    out = {}
    for workload, records in runs.items():
        names = sorted({name for record in records for name in record["metrics"]})
        out[workload] = {
            name: summarize([r["metrics"][name] for r in records if name in r["metrics"]])
            for name in names
        }
    return out


def merge(doc: dict, label: str, runs: dict) -> dict:
    """``doc`` with ``runs`` (workload -> run records) appended under ``label``.

    Other labels are left as they are; the label's summary is recomputed over
    its old and new runs.
    """
    labels = dict(doc.get("labels", {}))
    entry = labels.get(label, {})
    merged = {w: list(records) for w, records in entry.get("runs", {}).items()}
    for workload, records in runs.items():
        merged.setdefault(workload, []).extend(records)
    labels[label] = {"runs": merged, "summary": summaries(merged)}
    return {**doc, "command": " ".join(run_command("W", "S")), "labels": labels}


def compare(doc: dict, metrics: list[dict]) -> dict:
    """The ``comparison`` of the module docstring of ``doc``'s parent and change runs.

    ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries, each with a
    ``name``, ``better`` (``"higher"`` or ``"lower"``) and ``bound``.  A
    run of a seed pairs with the parent's run of the same seed, in the order
    each label recorded them; a metric missing from either run of a pair is
    left out of that pair.
    """
    labels = doc["labels"]
    parent, change = labels["parent"], labels["change"]
    out = {}
    for workload, change_runs in change["runs"].items():
        parent_runs = parent["runs"].get(workload, [])
        by_seed: dict = {}
        for run in parent_runs:
            by_seed.setdefault(run["seed"], []).append(run["metrics"])
        matched = []
        for run in change_runs:
            queue = by_seed.get(run["seed"])
            if queue:
                matched.append((queue.pop(0), run["metrics"]))
        rows = {}
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            pairs = [(p[name], c[name]) for p, c in matched if name in p and name in c]
            if not pairs:
                continue
            won = sum(sign * (c - p) > 0.0 for p, c in pairs)
            lost = sum(sign * (c - p) < 0.0 for p, c in pairs)
            before = summarize([run["metrics"][name] for run in parent_runs if name in run["metrics"]])
            after = summarize([run["metrics"][name] for run in change_runs if name in run["metrics"]])
            delta, iqr = after["median"] - before["median"], before["q3"] - before["q1"]
            rows[name] = {
                "pairs": len(pairs), "won": won, "lost": lost,
                "median_delta": delta, "parent_iqr": iqr,
                "gain": won >= 0.9 * len(pairs) and sign * delta > iqr,
                "within_bound": sign * delta >= -metric["bound"] * abs(before["median"]),
            }
        out[workload] = rows
    return out


def host() -> dict:
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the side, e.g. parent or change")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to merge into")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="checkout whose lcbench/run.py runs (default: this one)")
    args = parser.parse_args(argv)
    root = Path(args.root)
    runs = {}
    for workload in WORKLOADS:
        for seed in args.seeds:
            try:
                record = run_once(root, workload, seed)
            except RunFailed as exc:
                print(f"{exc}; nothing from this invocation is merged into {args.out}",
                      file=sys.stderr)
                return 1
            if not record["correct"]:
                print(f"{workload} seed {seed} failed its correctness gate; "
                      f"nothing from this invocation is merged into {args.out}", file=sys.stderr)
                return 1
            runs.setdefault(workload, []).append(record)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc = merge(doc, args.label, runs)
    if {"parent", "change"} <= set(doc["labels"]):
        doc["comparison"] = compare(doc, json.loads(BENCHMARK.read_text())["end_to_end"])
    doc["host"] = host()
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
