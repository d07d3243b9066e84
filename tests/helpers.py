"""Shared fixtures-in-spirit: adaptive quadrature, the KS statistic and the
normal CDF, random class members, a geometric GOF test, the quadrature
reference for the acceptance probability, the envelope's analytic CDF, the
``Fraction`` reference for a potential's anchors, the value-only 1D threshold
search, the hard family's block-formula cross-checks and separable product
targets for Hit-and-Run."""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np
from scipy.special import erfc, erfcx
from scipy.stats import chi2

from lcsampler import Envelope, MultivariateOracle, PiecewiseQuadraticPotential, UsageError
from lcsampler.envelope import search_range
from lcsampler.hardfamily import largest_m, member_blocks

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_MAX_DEPTH = 60


# -- reference numerics: quadrature and goodness of fit -------------------


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


# -- random class members and fixtures ------------------------------------


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


def gaussian_tail_partial(a: float, s):
    """``int_s^inf exp(-a*t - t^2/2) dt`` for a >= 0 and s >= 0.

    Evaluated as ``sqrt(pi/2) * erfcx((a+s)/sqrt(2)) * exp(-a*s - s^2/2)`` so
    the result underflows gracefully instead of overflowing.  Accepts arrays
    for ``s``.
    """
    if a < 0:
        raise UsageError(f"drift must be nonnegative, got {a}")
    s = np.asarray(s, dtype=float)
    scale = erfcx((a + s) * (1.0 / math.sqrt(2.0)))
    out = math.sqrt(math.pi / 2.0) * scale * np.exp(-a * s - 0.5 * s * s)
    return out if out.ndim else float(out)


def envelope_cdf(env):
    """The analytic CDF of the normalized envelope ``env``, as a function of x.

    ``env`` has one row per side, its tail, as every 1D envelope does.
    """
    left, _, _ = env.piece_masses
    ((x_minus, offset_minus, drift_minus),) = env.rows_minus
    ((x_plus, offset_plus, drift_plus),) = env.rows_plus
    damp_minus = env.plateau_height * math.exp(-offset_minus)
    damp_plus = env.plateau_height * math.exp(-offset_plus)

    def cdf(x):
        xs = np.asarray(x, dtype=float)
        below = np.where(
            xs <= x_minus,
            damp_minus * gaussian_tail_partial(drift_minus, np.maximum(x_minus - xs, 0.0)),
            np.where(
                xs <= x_plus,
                left + env.plateau_height * (xs - x_minus),
                env.mass_total
                - damp_plus * gaussian_tail_partial(drift_plus, np.maximum(xs - x_plus, 0.0)),
            ),
        )
        out = below / env.mass_total
        return out if out.ndim else float(out)

    return cdf


def domination_grid(env) -> np.ndarray:
    """Criterion 2's grid around the plateau, plus a dense band of four
    plateau widths around each edge and the first points past the edges,
    where the tails touch the target; also every row start and the floats
    on both sides of it."""
    width = env.x_plus - env.x_minus
    starts = np.array([row[0] for row in env.rows_minus + env.rows_plus])
    return np.concatenate(
        [np.linspace(env.x_minus - 8.0, env.x_plus + 8.0, 10_000)]
        + [np.linspace(e - 2.0 * width, e + 2.0 * width, 4001) for e in (env.x_minus, env.x_plus)]
        + [np.nextafter([env.x_minus, env.x_plus], [-np.inf, np.inf])]
        + [starts, np.nextafter(starts, -np.inf), np.nextafter(starts, np.inf)]
    )


def product_oracle(members, kappa: float) -> MultivariateOracle:
    """Oracle for ``V(x) = sum_i V_i(x_i)`` over 1D potentials ``members``.

    With every member in the class at ``kappa`` the Hessian is diagonal with
    entries in [1, kappa], so the product is a class member too; along axis
    i the exact conditional law is member i's own density.
    """
    members = list(members)

    def value(x):
        return sum(m.evaluate(float(xi))[0] for m, xi in zip(members, x))

    def gradient(x):
        return np.array([m.evaluate(float(xi))[1] for m, xi in zip(members, x)])

    return MultivariateOracle(value, gradient, dimension=len(members), kappa=kappa)


def fraction_anchors(breakpoints, curvatures):
    """Anchor rows ``(anchor_x, anchor_v, anchor_d, c)`` of the normal-form potential.

    The independent reference for ``PiecewiseQuadraticPotential``'s integer
    anchor walk: the same integration outward from 0 in ``Fraction``
    arithmetic, every value rounded once to a float.  ``breakpoints`` may
    hold floats, as the constructor takes them, or Fractions, such as the
    exact ``numerators[k] / denominator`` of ``_even``'s mirrored grid.
    """
    exact_bp = [b if isinstance(b, Fraction) else Fraction(float(b)) for b in breakpoints]
    bp = [float(b) for b in exact_bp]
    cv = [float(c) for c in curvatures]
    n = len(cv) - 1
    j0 = bisect_right(bp, 0.0)
    av = [Fraction(0)] * n
    ad = [Fraction(0)] * n
    # rightward from 0, then leftward: walking right to edge k crosses
    # segment k, walking left to it crosses segment k + 1
    for edges, crossed in ((range(j0, n), 0), (range(j0 - 1, -1, -1), 1)):
        x, v, d = Fraction(0), Fraction(0), Fraction(0)
        for k in edges:
            c = Fraction(cv[k + crossed])
            w = exact_bp[k] - x
            v, d = v + d * w + c * w * w / 2, d + c * w
            av[k], ad[k] = v, d
            x = exact_bp[k]
    rows = []
    for j, c in enumerate(cv):
        if j == j0:
            rows.append((0.0, 0.0, 0.0, c))
        else:
            a = j - 1 if j > j0 else j
            rows.append((bp[a], float(av[a]), float(ad[a]), c))
    return rows


# -- the 1D threshold search on values alone (reference for the slopes) ---


def value_only_search(value, side: int, kappa: float, lo: int, hi: int) -> tuple[int, float]:
    """The 1D search around 0 for level 1/2 on values alone: every probe is queried.

    The probe order of ``find_threshold_index``: ``hi - 1``, then the pivot
    ``hi - 1`` less the largest power of two up to ``hi - lo``, then
    bisection; an answer the loop never queried is queried once more.
    Returns the index and the value there.
    """
    root = math.sqrt(kappa)
    probed = {}
    pivot = max(hi - 1 - ((1 << (hi - lo).bit_length()) >> 1), lo)
    left, right, i = lo, hi, hi - 1
    while left < right:
        probed[i] = value(side * 2.0**i / root)
        if probed[i] >= 0.5:
            right = i
        else:
            left = i + 1
        i = pivot if i == hi - 1 else (left + right) // 2
    if left not in probed:
        probed[left] = value(side * 2.0**left / root)
    return left, probed[left]


def value_only_envelope(normalized) -> Envelope:
    """The 1D envelope from :func:`value_only_search` on a normalized oracle's values.

    The paper's geometry as ``build_envelope`` assembles it: plateau 1
    between the edges, each tail's drift its edge value over its edge's
    distance from 0, and the smaller edge value as the offset.
    """
    lo, hi = search_range(normalized.kappa, level=0.5, rise=0.0)
    root = math.sqrt(normalized.kappa)
    i_plus, w_plus = value_only_search(normalized.value, +1, normalized.kappa, lo, hi)
    i_minus, w_minus = value_only_search(normalized.value, -1, normalized.kappa, lo, hi)
    x_minus, x_plus = -(2.0**i_minus) / root, 2.0**i_plus / root
    return Envelope.from_geometry(x_minus, x_plus, w_minus / -x_minus, w_plus / x_plus,
                                  min(w_minus, w_plus))


# -- the hard family's block formulas (cross-checks of its construction) --


def phi(t: float, kappa: float) -> float:
    """First bump profile: kappa on [1/2,1), 1 on [1,2), kappa on [2,5/2), else 0."""
    if 0.5 <= t < 1.0:
        return kappa
    if 1.0 <= t < 2.0:
        return 1.0
    if 2.0 <= t < 2.5:
        return kappa
    return 0.0


def psi(t: float, kappa: float) -> float:
    """Repeating tail profile: 1 on [5/2,4), kappa on [4,5), else 0."""
    if 2.5 <= t < 4.0:
        return 1.0
    if 4.0 <= t < 5.0:
        return kappa
    return 0.0


def second_derivative_by_formula(kappa: float, i: int, x: float) -> float:
    """Direct block-formula evaluation of V_i'' at x >= 0 (cross-check path)."""
    m = largest_m(kappa)
    root = math.sqrt(kappa)
    y = abs(x) * root
    total = 1.0 if y <= 2.0 ** (i - 1) else 0.0
    total += phi(y / 2.0**i, kappa)
    for j in range(i, m):
        total += psi(y / 2.0**j, kappa)
    if y >= 5.0 * 2.0 ** (m - 1):
        total += 1.0
    return total


def curvature_telescoping(kappa: float, i: int) -> tuple[float, float]:
    """Exact band integrals of the curvature difference between members i and i+1.

    Returns (single integral, double integral) of ``V_{i+1}'' - V_i''`` over
    the disagreement band, computed on the canonical dyadic axis with
    rational arithmetic so genuine cancellation shows up as exact zeros.
    """
    m = largest_m(kappa)
    if not 1 <= i <= m - 1:
        raise UsageError(f"consecutive pair needs i in [1, {m - 1}], got {i}")
    lo, hi = Fraction(2) ** (i - 1), Fraction(5, 2) * Fraction(2) ** i

    def curv_at(blocks, y: Fraction) -> Fraction:
        for start, end, c in blocks:
            if Fraction(start) <= y and (math.isinf(end) or y < Fraction(end)):
                return Fraction(c)
        raise AssertionError("blocks must tile the half line")

    edges = {lo, hi}
    for blocks in (member_blocks(kappa, i), member_blocks(kappa, i + 1)):
        for start, end, _ in blocks:
            for e in (start, end):
                if not math.isinf(e) and lo < Fraction(e) < hi:
                    edges.add(Fraction(e))
    edges = sorted(edges)

    blocks_i = member_blocks(kappa, i)
    blocks_j = member_blocks(kappa, i + 1)
    area = Fraction(0)
    double = Fraction(0)
    running = Fraction(0)  # integral of the difference from the band start
    for a, b in zip(edges[:-1], edges[1:]):
        mid = (a + b) / 2
        diff = curv_at(blocks_j, mid) - curv_at(blocks_i, mid)
        w = b - a
        double += running * w + diff * w * w / 2
        running += diff * w
        area += diff * w
    return float(area), float(double)


