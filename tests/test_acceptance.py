"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each test prints a single pass/fail line (run ``pytest -s`` to see them all);
sizes, grids, and tolerances are fixed here, not tuned at runtime.
"""
import math
import time

import numpy as np
import pytest

from helpers import geometric_chi2_pvalue, random_class_potential
from lcsampler import (
    PotentialOracle,
    acceptance_probability,
    prepare_envelope,
    quadratic_oracle,
    run_chain,
    sample_capped,
    sample_exact,
    step,
)
from lcsampler import hardfamily
from lcsampler.numerics import (
    adaptive_quadrature,
    gaussian_tail_integral,
    ks_critical_value,
    ks_statistic,
    normal_cdf,
)
from lcsampler.targets import builtin_potential

BENCH_KAPPAS = (1e3, 1e6, 1e9, 1e12)
BENCH_TARGETS = ("gaussian", "skewed", "hard:1", "hard:2", "hard:3")


def _report(num, ok, elapsed, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} [{elapsed:6.1f}s] {detail}"
    print(line)
    assert ok, line


def _envelope_for(name, kappa, offset=0.0):
    potential = builtin_potential(name, kappa)
    oracle = PotentialOracle(potential, alpha=1.0, beta=kappa, hidden_offset=offset)
    normalized, env = prepare_envelope(oracle)
    return potential, oracle, normalized, env


def _query_budget(kappa):
    grid = math.ceil(0.5 * math.log2(kappa)) + 1
    return 2 * (math.ceil(math.log2(grid)) + 1) + 1


def test_criterion_01_envelope_query_complexity():
    t0 = time.perf_counter()
    deltas = {}
    ok = True
    for name in BENCH_TARGETS:
        counts = []
        for kappa in BENCH_KAPPAS:
            _, oracle, _, _ = _envelope_for(name, kappa)
            counts.append(oracle.query_count)
            ok &= oracle.query_count <= _query_budget(kappa)
        deltas[name] = counts[-1] - counts[0]
        ok &= deltas[name] <= 3
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(1, ok, elapsed, f"count deltas over kappa sweep: {deltas}")


def test_criterion_02_envelope_domination():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = math.inf
    for kappa in (10.0, 1e3, 1e6):
        for _ in range(100):
            potential = random_class_potential(rng, kappa)
            oracle = PotentialOracle(
                potential, alpha=1.0, beta=kappa, hidden_offset=float(rng.uniform(-3, 3))
            )
            _, env = prepare_envelope(oracle)
            grid = np.linspace(env.x_minus - 8.0, env.x_plus + 8.0, 10_000)
            v0 = potential.evaluate(0.0)[0]
            gap = env.value(grid) - np.exp(-(potential.evaluate(grid)[0] - v0))
            worst = min(worst, float(gap.min()))
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-12 and elapsed < 30.0
    _report(2, ok, elapsed, f"min envelope - target gap over 300 members: {worst:.3e}")


def test_criterion_03_exact_sampling_correctness():
    t0 = time.perf_counter()
    n = 100_000
    cases = [
        ("gaussian", 1.0, normal_cdf),
        ("hard:1", 1e3, None),
        ("hard:6", 1e3, None),
    ]
    ok = True
    details = []
    rng = np.random.default_rng(303)
    for name, kappa, cdf in cases:
        potential, _, normalized, env = _envelope_for(name, kappa)
        cdf = potential.density_cdf if cdf is None else cdf
        rho = acceptance_probability(potential, env)
        draws = np.empty(n)
        trials = np.empty(n, dtype=int)
        for k in range(n):
            out = sample_exact(normalized, env, rng)
            draws[k], trials[k] = out.result, out.trials
        ks = ks_statistic(draws, cdf)
        pval = geometric_chi2_pvalue(trials, rho)
        ok &= ks < ks_critical_value(n) and pval >= 0.01
        details.append(f"{name}@{kappa:g}: KS={ks:.5f} chi2_p={pval:.3f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(3, ok, elapsed, "; ".join(details))


ACCEPTANCE_SUITE = [
    ("gaussian", 1.0),
    ("gaussian", 1e3),
    ("skewed", 1e3),
    ("hard:1", 1e3),
    ("hard:3", 1e3),
    ("hard:6", 1e3),
    ("hard:1", 1e6),
    ("hard:11", 1e6),
]


def test_criterion_04_acceptance_constant():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    lo = math.inf
    for name, kappa in ACCEPTANCE_SUITE:
        potential, _, normalized, env = _envelope_for(name, kappa)
        rho = acceptance_probability(potential, env)
        lo = min(lo, rho)
        ok &= rho >= 0.1
        n_trials, n_accepts = 0, 0
        while n_trials < 100_000:
            out = sample_exact(normalized, env, rng)
            n_trials += out.trials
            n_accepts += 1
        emp = n_accepts / n_trials
        ok &= abs(emp - rho) <= 3.0 * math.sqrt(rho * (1.0 - rho) / n_trials)
    elapsed = time.perf_counter() - t0
    _report(4, ok, elapsed, f"min Z_p/Z_q over suite: {lo:.4f} (floor 0.1)")


def test_criterion_05_capped_mode_tv_guarantee():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    n = 100_000
    ok = True
    rates = []
    for name, kappa in (("gaussian", 1.0), ("hard:1", 1e3), ("skewed", 1e3)):
        _, _, normalized, env = _envelope_for(name, kappa)
        fails = sum(
            sample_capped(normalized, env, 0.01, 0.1, rng).failed for _ in range(n)
        )
        rate = fails / n
        rates.append(f"{name}: {rate:.5f}")
        ok &= rate <= 0.01 + 3.0 * math.sqrt(0.01 * 0.99 / n)
    elapsed = time.perf_counter() - t0
    _report(5, ok, elapsed, f"failure rates at eps=0.01, cap=44: {', '.join(rates)}")


def test_criterion_06_hard_family_structure():
    t0 = time.perf_counter()
    ok = hardfamily.largest_m(1e6) == 11 and hardfamily.largest_m(1e3) == 6
    worst_dev = 0.0
    for kappa in (1e3, 1e6):
        family = hardfamily.HardFamily.build(kappa)
        for i in range(1, family.m):
            lo, hi = hardfamily.disagreement_band(kappa, i)
            reach = float(family.member(i + 1).breakpoints[-1]) + 5.0
            grid = np.concatenate(
                [
                    np.linspace(-reach, -hi - 1e-9, 2500),
                    np.linspace(-lo + 1e-9, lo - 1e-9, 2500),
                    np.linspace(hi + 1e-9, reach, 5000),
                ]
            )
            va = family.member(i).evaluate(grid)[0]
            vb = family.member(i + 1).evaluate(grid)[0]
            worst_dev = max(worst_dev, float(np.abs(va - vb).max()))
            area, double = hardfamily.curvature_telescoping(kappa, i)
            ok &= area == 0.0 and double == 0.0
    ok &= worst_dev <= 1e-9
    elapsed = time.perf_counter() - t0
    _report(6, ok, elapsed, f"m values OK; max |V_i - V_(i+1)| outside bands: {worst_dev:.1e}")


def test_criterion_07_window_mass_bound():
    t0 = time.perf_counter()
    lo = math.inf
    for kappa in (1e3, 1e6):
        for i in range(1, hardfamily.largest_m(kappa) + 1):
            lo = min(lo, hardfamily.member_mass_in_window(kappa, i))
    elapsed = time.perf_counter() - t0
    ok = lo >= 1.0 / 32.0 and elapsed < 10.0
    _report(7, ok, elapsed, f"min window mass over both families: {lo:.5f} (floor 1/32)")


def test_criterion_08_response_degeneracy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0
    for kappa in (1e3, 1e6):
        family = hardfamily.HardFamily.build(kappa)
        reach = float(family.member(family.m).breakpoints[-1]) * 1.5
        points = rng.uniform(-reach, reach, 10_000)
        responses = np.stack(
            [np.stack(member.evaluate(points), axis=1) for member in family.members]
        )  # (m, n, 3)
        for k in range(points.size):
            distinct = {tuple(responses[j, k]) for j in range(family.m)}
            worst = max(worst, len(distinct))
    elapsed = time.perf_counter() - t0
    ok = worst <= 5
    _report(8, ok, elapsed, f"max distinct responses over 10^4 points x 2 kappas: {worst}")


def test_criterion_09_identification_experiment():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    trials = 100_000
    rate = hardfamily.run_identification_experiment(1e3, trials, rng)
    se = math.sqrt(rate * (1.0 - rate) / trials)
    ok = rate >= 1.0 / 32.0 - 3.0 * se
    elapsed = time.perf_counter() - t0
    _report(9, ok, elapsed, f"identification rate {rate:.4f} vs floor {1 / 32 - 3 * se:.4f}")


def test_criterion_10_hit_and_run_exact_line_step():
    t0 = time.perf_counter()
    ok = True

    # conditional step-size law along a fixed direction
    o2 = quadratic_oracle(np.ones(2), kappa=4.0)
    rng = np.random.default_rng(1010)
    x = np.array([1.0, 0.0])
    n_cond = 10_000
    lams = np.empty(n_cond)
    for k in range(n_cond):
        lams[k] = step(o2, x, rng, direction=np.array([0.0, 1.0]))[1]
    ks = ks_statistic(lams, normal_cdf)
    ok &= ks < ks_critical_value(n_cond)

    # moments of a long chain in dimension 10
    o10 = quadratic_oracle(np.ones(10), kappa=1e3)
    res = run_chain(o10, np.zeros(10), 100_000, np.random.default_rng(1011))
    tail = res.positions[1000:]
    mean_err = float(np.abs(tail.mean(axis=0)).max())
    var_err = float(np.abs(tail.var(axis=0) - 1.0).max())
    ok &= mean_err <= 0.05 and var_err <= 0.1

    # amortized queries grow slowly with the condition number
    per_step = {}
    for kappa in (1e3, 1e6):
        oracle = quadratic_oracle(np.ones(10), kappa=kappa)
        chain = run_chain(oracle, np.zeros(10), 2000, np.random.default_rng(1012))
        per_step[kappa] = chain.mean_queries_per_step
    ratio = per_step[1e6] / per_step[1e3]
    ok &= ratio <= 2.5

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    _report(
        10,
        ok,
        elapsed,
        f"KS={ks:.4f}, max |mean|={mean_err:.3f}, max |var-1|={var_err:.3f}, "
        f"query ratio {ratio:.2f}",
    )


def test_criterion_11_gaussian_tail_bound():
    t0 = time.perf_counter()
    ok = True
    worst_rel = 0.0
    for a in np.logspace(-2, 3, 26):
        a = float(a)
        val = gaussian_tail_integral(a)
        ok &= val <= 1.0 / a
        upper = min(45.0, 60.0 / a)
        quad = adaptive_quadrature(
            lambda t: math.exp(-a * t - 0.5 * t * t), 0.0, upper, tol=1e-13
        )
        rel = abs(val - quad.value) / quad.value
        worst_rel = max(worst_rel, rel)
        ok &= rel <= 1e-8
    elapsed = time.perf_counter() - t0
    _report(11, ok, elapsed, f"Mills bound holds; worst quadrature mismatch {worst_rel:.2e}")
