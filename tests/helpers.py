"""Shared fixtures-in-spirit: random class members, a geometric GOF test and
the quadrature reference for the acceptance probability."""
from __future__ import annotations

import math

import numpy as np
from scipy.stats import chi2

from lcsampler import PiecewiseQuadraticPotential
from lcsampler.numerics import adaptive_quadrature


def random_class_potential(
    rng: np.random.Generator, kappa: float, max_breaks: int = 12
) -> PiecewiseQuadraticPotential:
    """Random piecewise-quadratic member: curvatures log-uniform in [1, kappa]."""
    n = int(rng.integers(1, max_breaks + 1))
    breakpoints = np.sort(rng.uniform(-3.0, 3.0, size=n))
    # enforce strict separation
    breakpoints += np.arange(n) * 1e-9
    curvatures = np.exp(rng.uniform(0.0, np.log(kappa), size=n + 1)) if kappa > 1 else np.ones(n + 1)
    return PiecewiseQuadraticPotential(breakpoints, curvatures)


def geometric_chi2_pvalue(trial_counts, rho: float) -> float:
    """Goodness-of-fit p-value of observed trial counts against Geometric(rho).

    Bins are 1, 2, ... with the tail merged so every expected count is at
    least 5; rho is known (not fitted), so degrees of freedom are bins - 1.
    """
    counts = np.asarray(trial_counts, dtype=int)
    n = counts.size
    k = 1
    edges = []
    while True:
        p_k = (1.0 - rho) ** (k - 1) * rho
        tail = (1.0 - rho) ** k
        if n * tail < 5.0 or k > 10_000:
            break
        edges.append(k)
        k += 1
    observed = [np.sum(counts == k) for k in edges]
    observed.append(np.sum(counts > edges[-1]) if edges else n)
    expected = [n * (1.0 - rho) ** (k - 1) * rho for k in edges]
    expected.append(n * (1.0 - rho) ** edges[-1] if edges else n)
    observed, expected = np.asarray(observed, float), np.asarray(expected, float)
    stat = float(np.sum((observed - expected) ** 2 / expected))
    return float(chi2.sf(stat, df=len(expected) - 1))


def quadrature_acceptance(potential, env, tol: float = 1e-10) -> float:
    """``Z_p / Z_q`` by adaptive quadrature of ``exp(-(V - V(0)))``.

    The independent reference for ``acceptance_probability``'s closed form;
    it needs only ``potential.evaluate``.
    """
    v0 = potential.evaluate(0.0)[0]
    bps = getattr(potential, "breakpoints", np.asarray([]))
    # strong convexity makes exp(-V) drop below any tolerance within a fixed
    # distance of the plateau edges
    lo = min(env.x_minus, float(bps.min()) if len(bps) else 0.0) - 12.0
    hi = max(env.x_plus, float(bps.max()) if len(bps) else 0.0) + 12.0

    def unnormalized(x: float) -> float:
        return math.exp(-(potential.evaluate(x)[0] - v0))

    res = adaptive_quadrature(unnormalized, lo, hi, tol=tol, breakpoints=bps)
    assert res.converged, f"reference quadrature did not converge (error ~ {res.error_estimate:g})"
    return res.value / env.mass_total
