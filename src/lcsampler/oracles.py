"""Potentials and the query-counting oracle model.

A target density is ``p(x) proportional to exp(-V(x))`` with ``alpha <= V''
<= beta`` everywhere and the mode at the origin (``V'(0) = 0``).  Algorithms
never see ``V`` directly; they see a :class:`PotentialOracle` that answers
pointwise value/derivative/second-derivative queries, with the value shifted
by a hidden constant, and that counts every call.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import erfc, erfcx

from .errors import ClassViolationError, UsageError

_SQRT2 = math.sqrt(2.0)


class OracleResponse(NamedTuple):
    """Value, derivative and second derivative at one query point."""

    value: float
    derivative: float
    second_derivative: float


class PiecewiseQuadraticPotential:
    """A C^1 potential whose second derivative is piecewise constant.

    ``breakpoints`` is a strictly increasing list of reals and ``curvatures``
    has one entry per segment, including the two unbounded end segments, so
    ``len(curvatures) == len(breakpoints) + 1``.  The potential is anchored
    by its value and slope at x = 0.

    Value/slope pairs at every breakpoint are computed once at construction
    by exact rational integration of the curvature steps.  This avoids
    accumulation error at evaluation time and guarantees that two potentials
    built from the same curvature profile on a region evaluate bitwise
    identically there, no matter how their segment lists subdivide it.
    """

    def __init__(
        self,
        breakpoints: Sequence,
        curvatures: Sequence[float],
        value_at_zero: float = 0.0,
        slope_at_zero: float = 0.0,
    ):
        # Fractions are accepted as breakpoints so callers with an exact grid
        # (e.g. dyadic points divided by an irrational scale) keep widths that
        # cancel exactly during anchor integration.
        exact_bp = [b if isinstance(b, Fraction) else Fraction(float(b)) for b in breakpoints]
        bp = [float(b) for b in exact_bp]
        cv = [float(c) for c in curvatures]
        if len(cv) != len(bp) + 1:
            raise UsageError(
                f"need one curvature per segment: {len(bp)} breakpoints require "
                f"{len(bp) + 1} curvatures, got {len(cv)}"
            )
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise UsageError("breakpoints must be strictly increasing")

        self._bp = np.asarray(bp, dtype=float)
        self._bp_list = bp
        self._curv = np.asarray(cv, dtype=float)
        self.value_at_zero = float(value_at_zero)
        self.slope_at_zero = float(slope_at_zero)
        self._exact_values, self._rows = self._segment_anchors(exact_bp, cv)
        self._columns = tuple(np.asarray(col, dtype=float) for col in zip(*self._rows))
        self._mass_cache = None

    def _segment_anchors(self, exact_bp: list[Fraction], cv: list[float]):
        """Per-segment exact anchor values and ``(anchor_x, anchor_v, anchor_d, c)`` rows.

        The segment holding the origin is anchored at the origin, every other
        segment at its edge closest to the origin (the mode).  Value/slope
        pairs at the edges come from exact rational integration of the
        curvature steps outward from 0, rounded once to floats.
        """
        n = len(cv) - 1
        j0 = bisect_right(self._bp_list, 0.0)
        fr_cv = [Fraction(c) for c in cv]
        av = [Fraction(0)] * n
        ad = [Fraction(0)] * n
        # rightward from 0, then leftward: walking right to edge k crosses
        # segment k, walking left to it crosses segment k + 1
        for edges, crossed in ((range(j0, n), 0), (range(j0 - 1, -1, -1), 1)):
            x, v, d = Fraction(0), Fraction(self.value_at_zero), Fraction(self.slope_at_zero)
            for k in edges:
                c = fr_cv[k + crossed]
                w = exact_bp[k] - x
                v, d = v + d * w + c * w * w / 2, d + c * w
                av[k], ad[k] = v, d
                x = exact_bp[k]
        exact, rows = [], []
        for j, c in enumerate(cv):
            if j == j0:
                exact.append(Fraction(self.value_at_zero))
                rows.append((0.0, self.value_at_zero, self.slope_at_zero, c))
            else:
                a = j - 1 if j > j0 else j
                exact.append(av[a])
                rows.append((self._bp_list[a], float(av[a]), float(ad[a]), c))
        return exact, rows

    @classmethod
    def gaussian(cls, curvature: float = 1.0, value_at_zero: float = 0.0):
        """Pure quadratic ``V(x) = curvature * x^2 / 2`` (no breakpoints)."""
        return cls([], [curvature], value_at_zero=value_at_zero)

    @property
    def breakpoints(self) -> np.ndarray:
        return self._bp

    @property
    def curvatures(self) -> np.ndarray:
        return self._curv

    def evaluate(self, x):
        """Return (value, derivative, second derivative) at ``x``.

        A ``float`` in gives a tuple of floats out, computed with ``bisect``
        and plain float arithmetic; any other input goes through NumPy and
        gives arrays (0-d input gives floats).  Both paths read one anchor
        table in the same operation order, so their values are bitwise
        equal.  A point exactly at a breakpoint uses the right segment's
        curvature; value and slope are continuous so only the second
        derivative depends on that convention.

        Each segment is expanded around its edge closest to the origin (the
        mode), and the segment containing the origin around the origin
        itself.  Besides keeping lever arms short where precision matters,
        this makes two potentials that share a curvature profile between the
        origin and a point evaluate bitwise identically there, regardless of
        how the rest of their segments differ.
        """
        if isinstance(x, float):
            ax, av, ad, c = self._rows[bisect_right(self._bp_list, x)]
            delta = x - ax
            return av + ad * delta + 0.5 * c * delta * delta, ad + c * delta, c
        arr = np.asarray(x, dtype=float)
        xs = np.atleast_1d(arr)
        j = np.searchsorted(self._bp, xs, side="right")
        ax, av, ad, c = (col[j] for col in self._columns)
        delta = xs - ax
        v = av + ad * delta + 0.5 * c * delta * delta
        d = ad + c * delta
        if arr.ndim == 0:
            return float(v[0]), float(d[0]), float(c[0])
        return v, d, c

    # -- density helpers (test-harness path; never query-metered) ----------

    def _segment_table(self):
        """Per-segment arrays (lo, hi, mu, vmin, c): exp(-(V - V(0))) in completed-square form."""
        edges = [-math.inf, *self._bp_list, math.inf]
        origin = Fraction(self.value_at_zero)
        rows = []
        for j, ((x0, _, d0, c), exact) in enumerate(zip(self._rows, self._exact_values)):
            v0 = float(exact - origin)  # V - V(0) at the anchor, rounded once
            if c <= 0:
                raise UsageError("density helpers require strictly convex segments")
            rows.append((edges[j], edges[j + 1], x0 - d0 / c, v0 - d0 * d0 / (2 * c), c))
        return tuple(np.asarray(col, dtype=float) for col in zip(*rows))

    @staticmethod
    def _segment_mass(lo, hi, mu, vmin, c):
        """``int_lo^hi exp(-vmin - c*(x-mu)^2/2) dx`` elementwise, without cancellation.

        Segments entirely on one side of their summit are mirrored to its
        right and evaluated through the scaled complementary error function
        with the potential value at the near edge in the exponent, so
        deep-tail segments underflow to zero instead of overflowing.
        """
        r = np.sqrt(c)
        pref = np.sqrt(2.0 * math.pi / c)
        z1 = (lo - mu) * r
        z2 = (hi - mu) * r
        left = z2 <= 0
        near = np.where(left, -z2, z1)
        far = np.where(left, -z1, z2)

        def tail_term(z, vmin):
            # erfcx(z/sqrt(2)) * exp(-vmin - z^2/2); the exponent is -V(edge)
            expo = -vmin - 0.5 * z * z
            return np.where(expo < -745.0, 0.0, erfcx(z / _SQRT2) * np.exp(expo))

        out = np.empty(z1.shape)
        side = near >= 0
        v = vmin[side]
        out[side] = 0.5 * pref[side] * (tail_term(near[side], v) - tail_term(far[side], v))
        mid = ~side
        phi_diff = 0.5 * (erfc(z1[mid] / _SQRT2) - erfc(z2[mid] / _SQRT2))
        out[mid] = np.exp(-vmin[mid]) * pref[mid] * phi_diff
        return out

    def normalized_mass(self) -> float:
        """``int exp(-(V - V(0)))`` in closed form (per-segment Gaussian integrals).

        Taken relative to ``V(0)``, so it stays finite whatever ``V(0)`` is.
        """
        if self._mass_cache is None:
            table = self._segment_table()
            masses = self._segment_mass(*table)
            cum = np.concatenate([[0.0], np.cumsum(masses)])
            self._mass_cache = (table, cum, float(np.sum(masses)))
        return self._mass_cache[2]

    def density_mass(self) -> float:
        """``int exp(-V)``; raises OverflowError when ``-V(0)`` exceeds about 709."""
        return self.normalized_mass() * math.exp(-self.value_at_zero)

    def density_cdf(self, x):
        """CDF of the normalized density exp(-V)/Z, exact per segment."""
        self.normalized_mass()
        (lo, hi, mu, vmin, c), cum, total = self._mass_cache
        arr = np.asarray(x, dtype=float)
        xs = np.atleast_1d(arr)
        j = np.searchsorted(self._bp, xs, side="right")
        part = self._segment_mass(lo[j], np.minimum(xs, hi[j]), mu[j], vmin[j], c[j])
        out = (cum[j] + part) / total
        return float(out[0]) if arr.ndim == 0 else out

    def __repr__(self):
        return (
            f"PiecewiseQuadraticPotential({len(self._bp)} breakpoints, "
            f"curvatures in [{self._curv.min():g}, {self._curv.max():g}])"
        )


def check_class_member(potential: PiecewiseQuadraticPotential, alpha: float, beta: float) -> None:
    """Raise ClassViolationError unless alpha <= V'' <= beta and V'(0) = 0."""
    if alpha <= 0 or beta < alpha:
        raise UsageError("need 0 < alpha <= beta")
    curv = potential.curvatures
    if curv.min() < alpha - 1e-12 or curv.max() > beta + 1e-12:
        raise ClassViolationError(
            f"curvature range [{curv.min():g}, {curv.max():g}] escapes [{alpha:g}, {beta:g}]"
        )
    slope0 = potential.evaluate(0.0)[1]
    if abs(slope0) > 1e-9:
        raise ClassViolationError(f"mode not at the origin: V'(0) = {slope0}")


class PotentialOracle:
    """Query-counting oracle for a 1D potential.

    One query answers ``V(x) + C`` for a hidden constant ``C`` together with
    the exact derivative and second derivative, and increments the counter
    by exactly one.  Instances are immutable apart from the counter; use one
    oracle per sampling run.
    """

    is_normalized = False

    def __init__(
        self,
        potential,
        alpha: float = 1.0,
        beta: float = 1.0,
        hidden_offset: float = 0.0,
    ):
        if alpha <= 0 or beta < alpha:
            raise UsageError(f"need 0 < alpha <= beta, got alpha={alpha}, beta={beta}")
        self.potential = potential
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.hidden_offset = float(hidden_offset)
        self._count = 0

    @property
    def kappa(self) -> float:
        return self.beta / self.alpha

    @property
    def query_count(self) -> int:
        return self._count

    def query(self, x: float) -> OracleResponse:
        self._count += 1
        v, d, s = self.potential.evaluate(float(x))
        return OracleResponse(v + self.hidden_offset, d, s)

    def value(self, x: float) -> float:
        """The value of one query (one counter increment)."""
        return self.query(x).value


class _NormalizedOracle:
    """View answering V(x) - V(0); the counter stays on the root oracle."""

    is_normalized = True

    def __init__(self, inner, value_at_origin: float):
        self._inner = inner
        self.alpha = inner.alpha
        self.beta = inner.beta
        self._v0 = value_at_origin

    @property
    def query_count(self) -> int:
        return self._inner.query_count

    @property
    def kappa(self) -> float:
        return self.beta / self.alpha

    def query(self, x) -> OracleResponse:
        resp = self._inner.query(x)
        return OracleResponse(resp.value - self._v0, resp.derivative, resp.second_derivative)

    def value(self, x: float) -> float:
        return self._inner.query(x).value - self._v0


def normalize_at_zero(oracle):
    """Oracle view answering V(x) - V(0); cancels the hidden offset.

    Consumes exactly one query up front (the evaluation at 0), then one per
    subsequent call.
    """
    v0 = oracle.query(0.0).value
    return _NormalizedOracle(oracle, v0)
