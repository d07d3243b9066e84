"""Potentials and the query-counting oracle model.

A target density is ``p(x) proportional to exp(-V(x))``.  Every potential is
built in one normal form: ``1 <= V'' <= kappa`` everywhere and ``V(0) =
V'(0) = 0``, so the mode sits at the origin with unit strong convexity, and
a 1D target has two free quantities, kappa and the oracle's hidden offset.
Algorithms never see ``V`` directly; they see a :class:`PotentialOracle`
that answers pointwise value/derivative/second-derivative queries, with the
value shifted by that hidden constant, and that counts every call.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property, partial
from operator import le, neg
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ClassViolationError, UsageError
from .numerics import gaussian_piece_integral

# fl(V(x) + C) - C rounds V to multiples of ulp(C); below 2^24 the error is
# at most 2^-30, inside the 1e-9 slack of the class checks.
_MAX_HIDDEN_OFFSET = 2.0**24


class OracleResponse(NamedTuple):
    """Value, derivative and second derivative at one query point."""

    value: float
    derivative: float
    second_derivative: float


# OracleResponse from a 3-tuple, without the generated __new__'s Python frame
_response = partial(tuple.__new__, OracleResponse)


def _check_finite(values: list[float], what: str) -> None:
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise UsageError(f"every {what} must be finite, got {bad}")


def _anchor_overflow(j: int, x: float) -> UsageError:
    return UsageError(f"segment {j}: the potential at its anchor x = {x:g} overflows a float")


def _anchor_walk(xs: list, ys: list, den: int, crossed: list, anchored: list) -> tuple[list, list]:
    """One side's anchor rows ``(x, v, d, c)``, walking outward from 0 in integers.

    Edge k is ``xs[k]``, exactly ``ys[k] / den``.  Reaching it crosses a
    segment of curvature ``crossed[k]`` and anchors the next segment out,
    of curvature ``anchored[k]``, at it.  Curvatures go over their common
    denominator C, so slopes are numerators over C*den and values
    numerators over 2*C*den^2, and each anchor is rounded once by ``int /
    int`` as the walk reaches it.  Returns the rows, None where an anchor
    overflows a float, and the positions k of those.
    """
    ratios = {c: c.as_integer_ratio() for c in set(crossed)}
    cv_den = math.lcm(1, *(q for _, q in ratios.values()))
    cint = {c: p * (cv_den // q) for c, (p, q) in ratios.items()}
    slope_den = cv_den * den
    value_den = 2 * slope_den * den
    rows, overflows = [], []
    y, v, d = 0, 0, 0
    for x, y_k, c, a in zip(xs, ys, map(cint.__getitem__, crossed), anchored):
        w, y = y_k - y, y_k
        cw = c * w
        v, d = v + (2 * d + cw) * w, d + cw
        try:
            rows.append((x, v / value_den, d / slope_den, a))
        except OverflowError:
            overflows.append(len(rows))
            rows.append(None)
    return rows, overflows


def _two_way_rows(bp: list[float], cv: list[float]) -> list[tuple]:
    """The anchor rows of any potential: a rightward and a leftward walk from 0.

    Every breakpoint goes over the lcm of the denominators of the floats'
    exact ratios.  Walking right to edge k crosses segment k and anchors
    segment k + 1 at it; walking left to it crosses segment k + 1 and
    anchors segment k.
    """
    j0 = bisect_right(bp, 0.0)
    ratios = list(map(float.as_integer_ratio, bp))
    den = math.lcm(1, *{q for _, q in ratios})
    ys = [p * (den // q) for p, q in ratios]
    right, right_over = _anchor_walk(bp[j0:], ys[j0:], den, cv[j0:], cv[j0 + 1:])
    left, left_over = _anchor_walk(bp[:j0][::-1], ys[:j0][::-1], den, cv[j0:0:-1], cv[:j0][::-1])
    if left_over:  # the leftmost overflowing segment
        j = j0 - 1 - left_over[-1]
        raise _anchor_overflow(j, bp[j])
    if right_over:
        j = j0 + 1 + right_over[0]
        raise _anchor_overflow(j, bp[j - 1])
    return [*reversed(left), (0.0, 0.0, 0.0, cv[j0]), *right]


class PiecewiseQuadraticPotential:
    """A C^1 potential whose second derivative is piecewise constant.

    ``breakpoints`` is a strictly increasing list of finite floats, and
    ``curvatures`` has one entry per segment, including the two unbounded
    end segments, so ``len(curvatures) == len(breakpoints) + 1``.  The
    potential is built in the normal form of the module docstring.

    Value/slope pairs at every breakpoint are computed once at construction
    by exact rational integration of the curvature steps, done in Python
    integers: every breakpoint is put over one common denominator D (the lcm
    of theirs), every curvature over one common C, and the walk outward from
    0 carries slope numerators over C*D and value numerators over 2*C*D^2.
    Each anchor is then rounded once, by correctly rounded ``int / int``
    division, to the float nearest its exact value.  This avoids
    accumulation error at evaluation time and guarantees that two
    potentials built from the same curvature profile on a region evaluate
    bitwise identically there, no matter how their segment lists subdivide
    it or which denominators the rest of their breakpoints carry: an exact
    value has one nearest float.

    An even potential costs one half-line: :meth:`_even` takes it as its
    right half, int numerators over one int denominator, walks that half
    once and mirrors the rows.  The constructor walks both ways from 0.
    """

    def __init__(self, breakpoints: Sequence[float], curvatures: Sequence[float]):
        bp = list(map(float, breakpoints))
        _check_finite(bp, "breakpoint")
        cv = list(map(float, curvatures))
        _check_finite(cv, "curvature")
        n = len(bp)
        if len(cv) != n + 1:
            raise UsageError(
                f"need one curvature per segment: {n} breakpoints require "
                f"{n + 1} curvatures, got {len(cv)}"
            )
        if any(map(le, bp[1:], bp)):
            raise UsageError("breakpoints must be strictly increasing")

        self._bp_list = bp
        self._rows = _two_way_rows(bp, cv)
        self._mass_cache = None

    @classmethod
    def _even(cls, numerators: Sequence[int], denominator: int, curvatures: Sequence[float]):
        """The even potential whose right half breaks at ``numerators[k] / denominator``.

        The numerators are ints (not bools), the first positive, and strictly
        increasing once divided; ``denominator`` is a positive int.
        ``curvatures`` has one entry per right-half segment, starting with
        the segment that holds the origin, so ``len(curvatures) ==
        len(numerators) + 1``.  The left half is the mirror image.  Every
        refusal is a UsageError naming the problem.

        Only the rightward walk runs.  Walking left to the mirror image of an
        edge crosses the mirror images of the same segments, so its integers
        are the rightward walk's with the widths' and slopes' signs flipped
        and the same value numerators; correctly rounded division is odd, so
        each left row is its right mirror image with the same value and the
        slope ``0.0 - d``.  Every row is thus bitwise the exact rational
        walk of ``tests/helpers.fraction_anchors`` on the mirrored
        breakpoints ``+-numerators[k] / denominator``, each anchor rounded
        once, a zero slope included (``+0.0``, as ``0 / den`` gives it).
        """
        ys = list(numerators)
        cv = list(map(float, curvatures))
        if type(denominator) is not int or denominator <= 0:
            raise UsageError(f"the denominator must be a positive int, got {denominator!r}")
        if not set(map(type, ys)) <= {int}:
            bad = next(y for y in ys if type(y) is not int)
            raise UsageError(f"every numerator must be an int, got {bad!r}")
        if len(cv) != len(ys) + 1:
            raise UsageError(
                f"need one curvature per right-half segment: {len(ys)} numerators "
                f"require {len(ys) + 1} curvatures, got {len(cv)}"
            )
        _check_finite(cv, "curvature")
        try:
            xs = list(map(denominator.__rtruediv__, ys))  # y / denominator, correctly rounded
        except OverflowError as exc:
            raise UsageError(f"a breakpoint overflows a float: {exc}") from exc
        if xs and not xs[0] > 0.0:
            raise UsageError(
                f"the right half's breakpoints must be positive, got {ys[0]} / {denominator} first"
            )
        if any(map(le, xs[1:], xs)):
            raise UsageError("breakpoints must be strictly increasing")
        right, overflows = _anchor_walk(xs, ys, denominator, cv, cv[1:])
        if overflows:  # the leftmost overflowing segment mirrors the outermost one
            k = overflows[-1]
            raise _anchor_overflow(len(xs) - 1 - k, -xs[k])
        self = cls.__new__(cls)
        self._bp_list = [*map(neg, reversed(xs)), *xs]
        left = [(0.0 - x, v, 0.0 - d, c) for x, v, d, c in reversed(right)]
        self._rows = [*left, (0.0, 0.0, 0.0, cv[0]), *right]
        self._mass_cache = None
        return self

    @classmethod
    def gaussian(cls, curvature: float = 1.0):
        """Pure quadratic ``V(x) = curvature * x^2 / 2`` (no breakpoints)."""
        return cls([], [curvature])

    # the scalar path reads only _bp_list and _rows; the arrays are built on
    # first use by the array path, the density helpers or a caller

    @cached_property
    def breakpoints(self) -> np.ndarray:
        return np.asarray(self._bp_list, dtype=float)

    @cached_property
    def curvatures(self) -> np.ndarray:
        return np.asarray([row[3] for row in self._rows], dtype=float)

    @cached_property
    def _columns(self) -> tuple:
        return tuple(np.asarray(col, dtype=float) for col in zip(*self._rows))

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
        j = np.searchsorted(self.breakpoints, xs, side="right")
        ax, av, ad, c = (col[j] for col in self._columns)
        delta = xs - ax
        v = av + ad * delta + 0.5 * c * delta * delta
        d = ad + c * delta
        if arr.ndim == 0:
            return float(v[0]), float(d[0]), float(c[0])
        return v, d, c

    # -- density helpers (test-harness path; never query-metered) ----------

    def _segment_table(self):
        """Per-segment arrays (lo, hi, mu, vmin, c, x0, v0): exp(-V) in completed-square form.

        ``(mu, vmin)`` is the summit of the segment's parabola and ``(x0, v0)``
        its anchor.  Next to a kink at large kappa the summit lies far outside
        the segment, where ``vmin = v0 - d0^2/(2c)`` rounds away the
        segment's own values (or overflows to -inf), so a segment that does
        not hold its summit takes V from the anchor instead.
        """
        edges = [-math.inf, *self._bp_list, math.inf]
        rows = []
        for j, (x0, v0, d0, c) in enumerate(self._rows):
            if c <= 0:
                raise UsageError("density helpers require strictly convex segments")
            rows.append((edges[j], edges[j + 1], x0 - d0 / c, v0 - d0 * d0 / (2 * c), c, x0, v0))
        return tuple(np.asarray(col, dtype=float) for col in zip(*rows))

    def density_mass(self) -> float:
        """``int exp(-V)`` in closed form (per-segment Gaussian integrals)."""
        if self._mass_cache is None:
            table = self._segment_table()
            masses = _segment_masses(*table)
            cum = np.concatenate([[0.0], np.cumsum(masses)])
            self._mass_cache = (table, cum, float(np.sum(masses)))
        return self._mass_cache[2]

    def density_cdf(self, x):
        """CDF of the normalized density exp(-V)/Z, exact per segment."""
        self.density_mass()
        (lo, hi, *rest), cum, total = self._mass_cache
        arr = np.asarray(x, dtype=float)
        xs = np.atleast_1d(arr)
        j = np.searchsorted(self.breakpoints, xs, side="right")
        part = _segment_masses(lo[j], np.minimum(xs, hi[j]), *(col[j] for col in rest))
        out = (cum[j] + part) / total
        return float(out[0]) if arr.ndim == 0 else out

    def __repr__(self):
        return (
            f"PiecewiseQuadraticPotential({len(self._bp_list)} breakpoints, "
            f"curvatures in [{self.curvatures.min():g}, {self.curvatures.max():g}])"
        )


def _segment_mass(lo, hi, mu, vmin, c, x0, v0) -> float:
    """``int_lo^hi exp(-V) dx`` over one row of :meth:`PiecewiseQuadraticPotential._segment_table`.

    With ``u = (x - mu) sqrt(c)``, V is ``vmin + u^2/2``.  A segment that
    holds its summit is ``exp(-vmin) / sqrt(c)`` times two Gaussian pieces of
    drift 0 rising from it.  One on a single side is mirrored so that V
    rises from its near edge: ``exp(-V(near)) / sqrt(c)``, V(near) taken
    from the anchor, times the piece of drift ``|u|`` there and length
    ``(hi - lo) sqrt(c)``.
    """
    r = math.sqrt(c)
    z1, z2 = (lo - mu) * r, (hi - mu) * r
    if z1 < 0.0 < z2:
        return math.exp(-vmin) / r * (gaussian_piece_integral(0.0, -z1) + gaussian_piece_integral(0.0, z2))
    near, z = (lo, z1) if z1 >= 0.0 else (hi, z2)
    t = near - x0
    # V(near) = v0 + t (V'(near) - c t / 2), V'(near) = z sqrt(c)
    v_near = v0 + t * (z * r - 0.5 * c * t)
    return math.exp(-v_near) / r * gaussian_piece_integral(abs(z), (hi - lo) * r)


# the density helpers' segment masses, elementwise on float arrays
_segment_masses = np.vectorize(_segment_mass, otypes=[float])


def check_class_member(potential: PiecewiseQuadraticPotential, kappa: float) -> None:
    """Raise ClassViolationError unless 1 <= V'' <= kappa; UsageError when kappa < 1."""
    if kappa < 1:
        raise UsageError(f"need kappa >= 1, got {kappa:g}")
    curv = potential.curvatures
    if curv.min() < 1 - 1e-12 or curv.max() > kappa + 1e-12:
        raise ClassViolationError(
            f"curvature range [{curv.min():g}, {curv.max():g}] escapes [1, {kappa:g}]"
        )


class PotentialOracle:
    """Query-counting oracle for a 1D potential in normal form.

    The potential satisfies ``1 <= V'' <= kappa`` and ``V(0) = V'(0) = 0``;
    ``kappa`` is given as ``beta``, and the hidden offset ``C`` is the only
    constant.  ``alpha`` is accepted only as 1.  One query answers ``V(x) +
    C`` together with the exact derivative and second derivative, and
    increments the counter by exactly one.  ``|C|`` must stay below 2^24, so
    that adding and cancelling it changes V by at most 2^-30.  Instances are
    immutable apart from the counter; use one oracle per sampling run.
    """

    def __init__(
        self,
        potential,
        alpha: float = 1.0,
        beta: float = 1.0,
        hidden_offset: float = 0.0,
    ):
        if alpha != 1.0:
            raise UsageError(f"the oracle's alpha must be 1, got {alpha:g}")
        if not 1.0 <= beta < math.inf:
            raise UsageError(f"need 1 <= beta < inf, got beta={beta}")
        if not abs(hidden_offset) < _MAX_HIDDEN_OFFSET:
            raise UsageError(
                f"the hidden offset must be finite and below 2^24 in magnitude, got {hidden_offset:g}"
            )
        self.potential = potential
        self.kappa = float(beta)
        self.hidden_offset = float(hidden_offset)
        self._count = 0

    @property
    def query_count(self) -> int:
        return self._count

    def query(self, x: float) -> OracleResponse:
        self._count += 1
        v, d, s = self.potential.evaluate(float(x))
        return _response((v + self.hidden_offset, d, s))


class _NormalizedOracle:
    """View answering V(x) - V(0) by two methods, one query each, on the root oracle's counter.

    :meth:`value` serves the rejection trials, :meth:`value_and_slope` the 1D threshold search.
    """

    def __init__(self, inner, value_at_origin: float):
        self._inner = inner
        self.kappa = inner.kappa
        self._v0 = value_at_origin

    @property
    def query_count(self) -> int:
        return self._inner.query_count

    def value(self, x: float) -> float:
        return self._inner.query(x).value - self._v0

    def value_and_slope(self, x: float) -> tuple[float, float]:
        """``(V(x) - V(0), V'(x))`` from one query, the pair the 1D threshold search reads."""
        v, d, _ = self._inner.query(x)
        return v - self._v0, d


def normalize_at_zero(oracle):
    """Oracle view answering V(x) - V(0); cancels the hidden offset.

    Consumes exactly one query up front (the evaluation at 0), then one per
    subsequent call.
    """
    v0 = oracle.query(0.0).value
    return _NormalizedOracle(oracle, v0)
