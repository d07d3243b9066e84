"""Command-line harness wiring the library into reproducible experiments.

Subcommands: ``sample`` (draw to a file with a JSON sidecar),
``envelope-inspect`` (dump the built envelope), ``bench-queries`` (sweep
kappa and tabulate construction queries / acceptance), ``hardfamily-verify``
(check the worst-case family bounds), ``hitandrun`` (run a chain and emit
per-step query statistics).

Kappa comes from the target's oracle and nowhere else.  ``--kappa`` sets it
for builtin targets (default 1) and, for a JSON target, replaces the
document's ``beta``; without ``--kappa`` a JSON target's ``beta`` is used as
written.  A JSON target's ``alpha`` must be 1 (any other value exits 4).  A
``diagonal`` Hit-and-Run document takes kappa from its curvatures.
``bench-queries`` sweeps 1e3, 1e6, 1e9 and 1e12 when no ``--kappa`` is
given.  The JSON outputs report the oracle's kappa.

``--trials`` defaults to 1000 (samples, per-kappa draws or chain steps), and
to 10000 identification trials for ``hardfamily-verify``.  ``--trials 0``
gives empty ``sample`` and ``hitandrun`` outputs; ``bench-queries`` and
``hardfamily-verify`` reject it (exit 4), as their rates need a trial.

Every command is deterministic given (configuration, seed): per-cell random
streams are derived from the master seed with ``numpy.random.SeedSequence``
spawned in row order.  The one exception is the wall-clock ``throughput``
column of ``bench-queries``.

Exit codes: 0 all checks pass, 2 a verified bound is violated, 3 the target
violates the curvature sandwich, 4 configuration or I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import hardfamily
from .envelope import prepare_envelope
from .errors import ClassViolationError, UsageError
from .hitandrun import run_chain
from .rejection import FAILURE, acceptance_probability, sample_capped, sample_exact
from .targets import resolve_multivariate_target, resolve_target

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 2
EXIT_CLASS_VIOLATION = 3
EXIT_CONFIG_ERROR = 4

DEFAULT_BENCH_KAPPAS = (1e3, 1e6, 1e9, 1e12)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt(x: float) -> str:
    return repr(float(x))


def _single_kappa(args) -> float | None:
    """The one --kappa value, or None when the flag is absent."""
    if not args.kappa:
        return None
    if len(args.kappa) > 1:
        raise UsageError("this command takes a single --kappa")
    return float(args.kappa[0])


def cmd_sample(args) -> int:
    potential, oracle = resolve_target(args.target, _single_kappa(args))
    normalized, env = prepare_envelope(oracle)
    rng = np.random.default_rng(args.seed)

    lines = []
    failures = 0
    total_trials = 0
    for _ in range(args.trials):
        if args.epsilon is None:
            outcome = sample_exact(normalized, env, rng)
        else:
            outcome = sample_capped(normalized, env, args.epsilon, args.rho_floor, rng)
        total_trials += outcome.trials
        if outcome.result is FAILURE:
            failures += 1
            lines.append("FAILURE")
        else:
            lines.append(_fmt(outcome.result))

    sidecar = {
        "target": args.target,
        "kappa": oracle.kappa,
        "seed": args.seed,
        "samples": args.trials,
        "failures": failures,
        "envelope_queries": oracle.query_count - total_trials,
        "total_queries": oracle.query_count,
        "mean_trials": (total_trials / args.trials) if args.trials else None,
        "epsilon": args.epsilon,
    }
    _write_text(args.out, "".join(line + "\n" for line in lines))
    sidecar_text = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stderr.write(sidecar_text)
    else:
        with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
            fh.write(sidecar_text)
    return EXIT_OK


def cmd_envelope_inspect(args) -> int:
    _, oracle = resolve_target(args.target, _single_kappa(args))
    _, env = prepare_envelope(oracle)
    doc = env.to_json_dict()
    doc["construction_queries"] = oracle.query_count
    _write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_bench_queries(args) -> int:
    kappas = [float(k) for k in (args.kappa or DEFAULT_BENCH_KAPPAS)]
    streams = np.random.SeedSequence(args.seed).spawn(len(kappas))
    rows = []
    for kappa, stream in zip(kappas, streams):
        potential, oracle = resolve_target(args.target, kappa)
        normalized, env = prepare_envelope(oracle)
        envelope_queries = oracle.query_count
        rng = np.random.default_rng(stream)
        t0 = time.perf_counter()
        total = sum(sample_exact(normalized, env, rng).trials for _ in range(args.trials))
        elapsed = time.perf_counter() - t0
        rows.append(
            {
                "kappa": oracle.kappa,
                "envelope_queries": envelope_queries,
                "mean_trials": total / args.trials,
                "acceptance_rate": acceptance_probability(potential, env),
                "throughput": args.trials / elapsed if elapsed > 0 else math.inf,
            }
        )

    if args.format == "json":
        _write_text(args.out, json.dumps(rows, indent=2) + "\n")
    else:
        header = "kappa,envelope_queries,mean_trials,acceptance_rate,throughput"
        body = "".join(
            f"{_fmt(r['kappa'])},{r['envelope_queries']},{_fmt(r['mean_trials'])},"
            f"{_fmt(r['acceptance_rate'])},{_fmt(r['throughput'])}\n"
            for r in rows
        )
        _write_text(args.out, header + "\n" + body)
    return EXIT_OK


def cmd_hardfamily_verify(args) -> int:
    kappa = _single_kappa(args)
    if kappa is None:
        raise UsageError("hardfamily-verify needs --kappa (at least 2)")
    family = hardfamily.HardFamily.build(kappa)
    rng = np.random.default_rng(args.seed)
    grid_points = 10_000

    lemma1_max_dev = 0.0
    for i in range(1, family.m):
        lo, hi = hardfamily.disagreement_band(kappa, i)
        reach = float(family.member(i + 1).breakpoints[-1]) + 5.0
        outside = np.concatenate(
            [
                np.linspace(-reach, -hi, grid_points // 4),
                np.linspace(-lo, lo, grid_points // 4),
                np.linspace(hi, reach, grid_points // 2),
            ]
        )
        va = family.member(i).evaluate(outside)[0]
        vb = family.member(i + 1).evaluate(outside)[0]
        lemma1_max_dev = max(lemma1_max_dev, float(np.abs(va - vb).max()))

    lemma2_min_mass = min(
        hardfamily.member_mass_in_window(kappa, i, member=family.member(i))
        for i in range(1, family.m + 1)
    )

    reach = float(family.member(family.m).breakpoints[-1]) * 1.5
    points = rng.uniform(-reach, reach, grid_points)
    degeneracy_max = max(
        hardfamily.distinct_response_count(float(x), kappa, family) for x in points
    )

    identification_rate = hardfamily.run_identification_experiment(kappa, args.trials, rng)

    report = {
        "kappa": kappa,
        "m": family.m,
        "lemma1_max_dev": lemma1_max_dev,
        "lemma2_min_mass": lemma2_min_mass,
        "degeneracy_max": degeneracy_max,
        "identification_rate": identification_rate,
    }
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")

    se = math.sqrt(0.25 / args.trials)
    ok = (
        lemma1_max_dev <= 1e-9
        and lemma2_min_mass >= 1.0 / 32.0
        and degeneracy_max <= 5
        and identification_rate >= 1.0 / 32.0 - 3.0 * se
    )
    return EXIT_OK if ok else EXIT_BOUND_VIOLATION


def cmd_hitandrun(args) -> int:
    oracle = resolve_multivariate_target(args.target, _single_kappa(args), args.dimension)
    rng = np.random.default_rng(args.seed)
    result = run_chain(oracle, np.zeros(oracle.dimension), args.trials, rng)
    norms = np.linalg.norm(result.positions[1:], axis=1)
    if args.format == "json":
        rows = [
            {"step": t + 1, "queries": int(q), "x_norm": float(n)}
            for t, (q, n) in enumerate(zip(result.step_queries, norms))
        ]
        _write_text(args.out, json.dumps(rows, indent=2) + "\n")
    else:
        body = "".join(
            f"{t + 1},{int(q)},{_fmt(n)}\n"
            for t, (q, n) in enumerate(zip(result.step_queries, norms))
        )
        _write_text(args.out, "step,queries,x_norm\n" + body)
    summary = {
        "dimension": oracle.dimension,
        "kappa": oracle.kappa,
        "steps": args.trials,
        "mean_queries_per_step": result.mean_queries_per_step,
        "total_queries": int(result.step_queries.sum()),
    }
    sys.stderr.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcsampler",
        description="Few-query rejection sampling for log-concave targets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--target", default="gaussian", help="builtin name, 'hard:i', inline JSON or a JSON path")
        p.add_argument(
            "--kappa",
            action="append",
            type=float,
            help="condition number beta/alpha (repeatable for bench-queries); builtin targets "
            "default to 1, a JSON target's beta is replaced by it or else used as written",
        )
        p.add_argument("--epsilon", type=float, default=None, help="TV budget for capped sampling")
        p.add_argument("--trials", type=int, default=None, help="samples / steps / experiment size")
        p.add_argument("--seed", type=int, default=0, help="master seed; fixes all randomness")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(min_trials=0)

    p = sub.add_parser("sample", help="draw samples to a file plus a JSON sidecar")
    add_common(p)
    p.add_argument("--rho-floor", type=float, default=0.1, help="acceptance lower bound for the cap")
    p.set_defaults(func=cmd_sample, trials=1000)

    p = sub.add_parser("envelope-inspect", help="build and dump the envelope as JSON")
    add_common(p)
    p.set_defaults(func=cmd_envelope_inspect)

    p = sub.add_parser("bench-queries", help="sweep kappa; tabulate queries and acceptance")
    add_common(p)
    p.set_defaults(func=cmd_bench_queries, trials=1000, min_trials=1)

    p = sub.add_parser("hardfamily-verify", help="check the worst-case family bounds")
    add_common(p)
    p.set_defaults(func=cmd_hardfamily_verify, trials=10_000, min_trials=1)

    p = sub.add_parser("hitandrun", help="run a chain; emit per-step query statistics")
    add_common(p)
    p.add_argument("--dimension", type=int, default=10, help="dimension for builtin targets")
    p.set_defaults(func=cmd_hitandrun, trials=1000)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.trials is not None and args.trials < args.min_trials:
            raise UsageError(f"{args.command} needs --trials of at least {args.min_trials}")
        return args.func(args)
    except ClassViolationError as exc:
        sys.stderr.write(f"class violation: {exc}\n")
        return EXIT_CLASS_VIOLATION
    except (UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
