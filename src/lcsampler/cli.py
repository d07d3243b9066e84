"""Command-line harness wiring the library into reproducible experiments.

Each subcommand takes only the flags it reads:

* ``sample`` draws to a file with a JSON sidecar: ``--target --kappa
  --epsilon --rho-floor --trials --seed --out``.
* ``envelope-inspect`` dumps the built envelope: ``--target --kappa --out``.
* ``bench-queries`` sweeps kappa and tabulates construction queries and
  acceptance: ``--target --kappa --trials --seed --format --out``.
* ``hardfamily-verify`` checks the worst-case family bounds: ``--kappa
  --trials --seed --out``.
* ``hitandrun`` runs a chain and emits per-step query statistics:
  ``--target --kappa --dimension --trials --seed --format --out``.  Its
  summary reports the first step's queries apart, since only that step
  queries its start point; each later step reuses its predecessor's
  accepted trial.  ``step_paths`` counts the steps that searched first,
  that tried the certificate's tangent first and accepted its trial, and
  that tried it and fell back to the search.

Kappa comes from the target's oracle and nowhere else.  ``--kappa`` sets it
for builtin targets (default 1) and, for a JSON target, replaces the
document's ``beta``; without ``--kappa`` a JSON target's ``beta`` is used as
written.  A JSON target's ``alpha`` must be 1 (any other value exits 4).  A
``diagonal`` Hit-and-Run document takes kappa from ``--kappa``, else its
``beta``, else its largest curvature; a kappa below that curvature exits 3.
``--dimension`` (default 10) sizes the builtin Hit-and-Run target and, for a
``gaussian`` document, replaces its ``dimension``; a ``diagonal`` document's
dimension is its curvature count, and ``--dimension`` with one exits 4.
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

Exit codes: 0 all checks pass, 2 a bound checked by ``hardfamily-verify``
is violated (no other command exits 2), 3 the target violates the curvature
sandwich, 4 any rejected command line, configuration or I/O error.
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
from .rejection import FAILURE, acceptance_probability, capped_trials, sample_exact
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


def _write_rows(args, header: tuple[str, ...], rows: list[tuple]) -> None:
    """Write ``rows`` as CSV (``repr`` per cell) or, with ``--format json``, a list of objects."""
    if args.format == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2)
    else:
        text = ",".join(header) + "".join("\n" + ",".join(map(repr, row)) for row in rows)
    _write_text(args.out, text + "\n")


def _single_kappa(args) -> float | None:
    """The one --kappa value, or None when the flag is absent."""
    if not args.kappa:
        return None
    if len(args.kappa) > 1:
        raise UsageError("this command takes a single --kappa")
    return float(args.kappa[0])


def cmd_sample(args) -> int:
    if not 0.0 < args.rho_floor < 1.0:
        raise UsageError(f"--rho-floor must lie in (0, 1), got {args.rho_floor}")
    potential, oracle = resolve_target(args.target, _single_kappa(args))
    normalized, env = prepare_envelope(oracle)
    envelope_queries = oracle.query_count
    cap = None if args.epsilon is None else capped_trials(args.epsilon, args.rho_floor)
    rng = np.random.default_rng(args.seed)

    lines = []
    failures = 0
    total_trials = 0
    for _ in range(args.trials):
        outcome = sample_exact(normalized, env, rng, cap)
        total_trials += outcome.trials
        if outcome.result is FAILURE:
            failures += 1
            lines.append("FAILURE")
        else:
            lines.append(repr(float(outcome.result)))

    sidecar = {
        "target": args.target,
        "kappa": oracle.kappa,
        "seed": args.seed,
        "samples": args.trials,
        "failures": failures,
        "envelope_queries": envelope_queries,
        "total_queries": oracle.query_count,
        "mean_trials": (total_trials / args.trials) if args.trials else None,
        "acceptance_rate": acceptance_probability(potential, env),
        "epsilon": args.epsilon,
        "rho_floor": args.rho_floor,
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
    potential, oracle = resolve_target(args.target, _single_kappa(args))
    _, env = prepare_envelope(oracle)
    doc = env.to_json_dict()
    doc["construction_queries"] = oracle.query_count
    doc["acceptance_rate"] = acceptance_probability(potential, env)
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
        rows.append((
            oracle.kappa,
            envelope_queries,
            total / args.trials,
            acceptance_probability(potential, env),
            args.trials / elapsed if elapsed > 0 else math.inf,
        ))
    header = ("kappa", "envelope_queries", "mean_trials", "acceptance_rate", "throughput")
    _write_rows(args, header, rows)
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
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)  # the band's open exterior
        reach = float(family.member(i + 1).breakpoints[-1]) + 5.0
        n = grid_points // 4
        outside = np.r_[np.linspace(-reach, -hi, n), np.linspace(-lo, lo, n),
                        np.linspace(hi, reach, 2 * n)]
        va = family.member(i).evaluate(outside)[0]
        vb = family.member(i + 1).evaluate(outside)[0]
        lemma1_max_dev = max(lemma1_max_dev, float(np.abs(va - vb).max()))

    lemma2_min_mass = min(
        hardfamily.member_mass_in_window(family, i) for i in range(1, family.m + 1)
    )

    reach = float(family.member(family.m).breakpoints[-1]) * 1.5
    points = rng.uniform(-reach, reach, grid_points)
    degeneracy_max = max(hardfamily.distinct_response_count(float(x), family) for x in points)
    identification_rate = hardfamily.run_identification_experiment(family, args.trials, rng)

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
    rows = [(t + 1, int(q), float(n)) for t, (q, n) in enumerate(zip(result.step_queries, norms))]
    _write_rows(args, ("step", "queries", "x_norm"), rows)
    summary = {
        "dimension": oracle.dimension,
        "kappa": oracle.kappa,
        "steps": args.trials,
        "first_step_queries": int(result.step_queries[0]) if args.trials else 0,
        "mean_queries_per_step": result.mean_queries_per_step,
        "total_queries": int(result.step_queries.sum()),
        "step_paths": result.path_totals,
    }
    sys.stderr.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as UsageError (exit 4); subparsers inherit it."""

    def error(self, message):
        raise UsageError(message)


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)  # the parser names the flag and this type
    return value


_FLAGS = {
    "--target": dict(default="gaussian", help="builtin name, 'hard:i', inline JSON or a JSON path"),
    "--kappa": dict(action="append", type=float, help="condition number; repeatable for bench-queries"),
    "--epsilon": dict(type=float, default=None, help="TV budget for capped sampling"),
    "--rho-floor": dict(type=float, default=0.1, help="acceptance lower bound for the cap"),
    "--dimension": dict(type=int, help="dimension of the builtin or a gaussian document (default 10)"),
    "--trials": dict(type=int, help="samples / steps / experiment size"),
    "--seed": dict(type=nonnegative_int, default=0, help="master seed; fixes all randomness"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--out": dict(default=None, help="output path (default stdout)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lcsampler", description="Few-query rejection sampling for log-concave targets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, flags, trials=None, min_trials=0):
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func, trials=trials, min_trials=min_trials)

    add("sample", cmd_sample, "draw samples to a file plus a JSON sidecar",
        "--target --kappa --epsilon --rho-floor --trials --seed --out", trials=1000)
    add("envelope-inspect", cmd_envelope_inspect, "build and dump the envelope as JSON",
        "--target --kappa --out")
    add("bench-queries", cmd_bench_queries, "sweep kappa; tabulate queries and acceptance",
        "--target --kappa --trials --seed --format --out", trials=1000, min_trials=1)
    add("hardfamily-verify", cmd_hardfamily_verify, "check the worst-case family bounds",
        "--kappa --trials --seed --out", trials=10_000, min_trials=1)
    add("hitandrun", cmd_hitandrun, "run a chain; emit per-step query statistics",
        "--target --kappa --dimension --trials --seed --format --out", trials=1000)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
