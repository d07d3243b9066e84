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
    doc["host"] = host()
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
