"""Shared numerical kernels.

Gaussian tail integrals of the form ``int_0^inf exp(-a*t - t^2/2) dt``,
breakpoint-aware adaptive Simpson quadrature, and the Kolmogorov-Smirnov
statistic.  Everything here is a pure function; nothing touches an oracle or
consumes queries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from scipy.special import erfc, erfcinv, erfcx

from .errors import UsageError

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Above this drift the inverse-CDF route for tail sampling loses precision
# (erfc underflows), so sampling switches to an exponential-proposal
# rejection step.
_DRIFT_INVERSION_LIMIT = 5.0

_MAX_DEPTH = 60


def gaussian_tail_integral(a: float) -> float:
    """``int_0^inf exp(-a*t - t^2/2) dt`` for a >= 0.

    Completing the square gives ``sqrt(2*pi) * exp(a^2/2) * P(Z > a)`` for a
    standard normal Z, evaluated through the scaled complementary error
    function so large drifts neither overflow nor lose precision.  The value
    is bounded by ``1/a`` for a > 0 (Mills ratio).
    """
    if a < 0:
        raise UsageError(f"drift must be nonnegative, got {a}")
    return _SQRT_HALF_PI * float(erfcx(a * _INV_SQRT2))


def normal_tail_erfc(a: float) -> float:
    """``erfc(a/sqrt(2))``, the mass that tail sampling inverts against.

    Evaluated as ``erfcx(a/sqrt(2)) * exp(-a^2/2)`` with NumPy's ``exp``
    (``math.exp`` can differ from it by an ulp).
    """
    return float(erfcx(a * _INV_SQRT2)) * float(np.exp(-0.5 * a * a))


def sample_gaussian_tail(a: float, rng: np.random.Generator, size=None, *, erfc_a=None):
    """Exact draws from the density proportional to exp(-a*t - t^2/2) on t >= 0.

    This is a standard normal with mean ``-a`` truncated to the nonnegative
    half-line.  Small drifts invert the CDF through erfcinv; drifts above
    ``_DRIFT_INVERSION_LIMIT`` use an Exp(a) proposal with acceptance
    probability exp(-t^2/2), which is nearly tight there.  ``erfc_a`` is
    :func:`normal_tail_erfc` of ``a`` for callers that keep it; it is
    computed here when not given.

    With ``size=None`` a float in gives a float out through scalar draws
    (one ``random()`` for inversion, ``exponential()`` then ``random()`` per
    rejection round), bitwise equal to ``size=1`` from the same stream.
    """
    if a < 0:
        raise UsageError(f"drift must be nonnegative, got {a}")
    inversion = a <= _DRIFT_INVERSION_LIMIT
    if inversion and erfc_a is None:
        erfc_a = normal_tail_erfc(a)
    if size is None:
        if inversion:
            return max(_SQRT2 * float(erfcinv(rng.random() * erfc_a)) - a, 0.0)
        scale = 1.0 / a
        while True:
            prop = rng.exponential(scale)
            # NumPy's log, as in the array branch: math.log can differ by an ulp
            if np.log(rng.random()) <= -0.5 * prop * prop:
                return prop
    n = int(size)
    if inversion:
        t = _SQRT2 * erfcinv(rng.random(n) * erfc_a) - a
        return np.maximum(t, 0.0)
    t = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        prop = rng.exponential(1.0 / a, size=todo.size)
        keep = np.log(rng.random(todo.size)) <= -0.5 * prop * prop
        t[todo[keep]] = prop[keep]
        todo = todo[~keep]
    return t


def normal_cdf(x):
    """Standard normal CDF via the complementary error function."""
    out = 0.5 * erfc(-np.asarray(x, dtype=float) * _INV_SQRT2)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool = True


def adaptive_quadrature(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    breakpoints: Iterable[float] = (),
    min_panels: int = 16,
) -> QuadratureResult:
    """Adaptive Simpson integration of ``f`` over [lo, hi].

    Interior ``breakpoints`` split the domain first so integrand kinks never
    straddle a panel; panels are then subdivided to at least ``min_panels``
    overall so a localized integrand cannot hide between the initial probe
    points of a wide interval.  Recursion depth is capped at 60; exhausting
    it returns the best estimate flagged as non-converged instead of
    raising.
    """
    if tol <= 0:
        raise UsageError("tolerance must be positive")
    if hi < lo:
        raise UsageError("integration bounds out of order")
    if hi == lo:
        return QuadratureResult(0.0, 0.0, 0)

    coarse = [lo]
    for b in sorted(set(float(b) for b in breakpoints)):
        if lo < b < hi:
            coarse.append(b)
    coarse.append(hi)
    edges = []
    for a, b in zip(coarse[:-1], coarse[1:]):
        pieces = max(1, math.ceil(min_panels * (b - a) / (hi - lo)))
        edges.extend(a + (b - a) * k / pieces for k in range(pieces))
    edges.append(hi)

    state = {"evals": 0, "converged": True, "err": 0.0}

    def _simpson(a, fa, b, fb):
        m = 0.5 * (a + b)
        fm = f(m)
        state["evals"] += 1
        return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def _recurse(a, fa, b, fb, m, fm, whole, eps, depth):
        lm, flm, left = _simpson(a, fa, m, fm)
        rm, frm, right = _simpson(m, fm, b, fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps or depth >= _MAX_DEPTH:
            if abs(delta) > 15.0 * eps:
                state["converged"] = False
            state["err"] += abs(delta) / 15.0
            return left + right + delta / 15.0
        return _recurse(a, fa, m, fm, lm, flm, left, eps / 2.0, depth + 1) + _recurse(
            m, fm, b, fb, rm, frm, right, eps / 2.0, depth + 1
        )

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        fa, fb = f(a), f(b)
        state["evals"] += 2
        panel_tol = tol * (b - a) / (hi - lo)
        m, fm, whole = _simpson(a, fa, b, fb)
        total += _recurse(a, fa, b, fb, m, fm, whole, panel_tol, 0)

    return QuadratureResult(total, state["err"], state["evals"], state["converged"])


def ks_statistic(samples, cdf: Callable) -> float:
    """Sup-norm distance between the empirical CDF of ``samples`` and ``cdf``."""
    xs = np.sort(np.asarray(samples, dtype=float))
    if xs.size == 0:
        raise UsageError("KS statistic needs at least one sample")
    n = xs.size
    fx = np.asarray(cdf(xs), dtype=float)
    upper = np.arange(1, n + 1) / n - fx
    lower = fx - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def ks_critical_value(n: int, significance: float = 0.01) -> float:
    """One-sample KS critical value; 1.63/sqrt(n) at the 1% level."""
    coeff = {0.10: 1.22, 0.05: 1.36, 0.01: 1.63}.get(significance)
    if coeff is None:
        raise UsageError(f"unsupported significance level {significance}")
    return coeff / math.sqrt(n)
