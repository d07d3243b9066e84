"""Shared numerical kernels.

Gaussian tail integrals of the form ``int_0^inf exp(-a*t - t^2/2) dt``, the
erfc they invert against, and exact draws from the matching truncated
normal; the same for a finite piece ``[0, length]``.  Everything here is a
pure function; nothing touches an oracle or consumes queries.

The two special functions beyond ``math`` are computed here from ``math``
alone, so the package needs no SciPy at run time.  Importing
``scipy.special`` took about 0.2 s and 25 MB, half the set-up time and a
third of the peak memory of a sampling process (Python 3.11, NumPy 2.4,
SciPy 1.17, a 2-vCPU x86-64 VM), for two scalar functions.
Accuracy was measured against a 200-bit reference (``mpmath``) on 12,000
points per function; the tests check it against ``scipy.special``:

* :func:`erfcx`, ``exp(x^2) erfc(x)`` for x >= 0.  Below ``_ERFCX_SERIES``
  = 26, where ``erfc`` is still a normal float and ``exp(x^2)`` finite, it
  is ``exp(x^2) * erfc(x)`` with ``x^2 = hi + lo``, ``hi`` its float and
  ``lo`` its rounding error recovered through Dekker's split, and
  ``exp(lo)`` taken as ``1 + lo``.  From there on it is the
  asymptotic series ``1/(x sqrt(pi)) * sum_k (-1)^k (2k-1)!! / (2x^2)^k``
  to k = 7, whose next term is below 2e-19 at x = 26; it works in ``1/x``
  and never overflows.  Within 3 ulps of the exact value.
* :func:`erfcinv`, the inverse of ``erfc`` on 0 < y < 2.  Acklam's rational
  approximation of the normal quantile (relative error 1.15e-9) is the
  first guess, and one Halley step on ``erfc(x) - y`` refines it; for y >=
  1/2 the residual is ``(1 - y) - erf(x)``, with ``1 - y`` exact, so that
  it keeps its relative accuracy where x is near zero.  y > 1 is mirrored
  through ``erfcinv(y) = -erfcinv(2 - y)``, again exact.  Within 2 ulps of
  the exact value.

Both are scalar functions of a float; array draws apply them elementwise, so
scalar and array draws from one stream agree bitwise.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import UsageError

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)
_LOG4 = math.log(4.0)

# erfcx switches from exp(x^2) erfc(x) to its asymptotic series here
_ERFCX_SERIES = 26.0
# Dekker's splitter 2^27 + 1: x * it less (that - x) keeps x's upper 26 bits,
# whose square is exact
_SPLITTER = 134217729.0
# erfcinv's first guess uses Acklam's tail form below this y, twice his
# breakpoint 0.02425 in the normal quantile's argument y/2
_ERFCINV_TAIL = 0.0485

# Above this drift the inverse-CDF route for tail sampling loses precision
# (erfc underflows), so sampling switches to an exponential-proposal
# rejection step.
_DRIFT_INVERSION_LIMIT = 5.0
# A finite piece no longer than this is drawn by the exponential proposal
# whatever its drift: its acceptance exp(-t^2/2) stays above exp(-1/2), and
# the erfc difference the inversion needs cancels on short pieces.
_SHORT_PIECE = 1.0


def erfcx(x: float) -> float:
    """The scaled complementary error function ``exp(x^2) erfc(x)`` for x >= 0.

    See the module docstring for the method.  Within 3 ulps of the exact
    value; the tests hold it within 12 ulps of ``scipy.special.erfcx``
    (itself up to 8 ulps off near 0) on 2.2 x 10^5 points from 0 to 1e300,
    the switch to the series included.
    """
    if x < _ERFCX_SERIES:
        hi = x * x
        big = x * _SPLITTER
        head = big - (big - x)
        tail = x - head
        # x^2 - hi: head^2 and its difference from hi are exact, and the
        # rounding of the small rest is far below what the correction needs
        lo = (head * head - hi) + tail * (x + head)
        value = math.exp(hi) * math.erfc(x)
        return value + value * lo
    # sum_k (-1)^k (2k-1)!! s^k for k = 0..7, by Horner; x^2 itself would overflow past 1e154
    r = 1.0 / x
    s = 0.5 * r * r
    inner = 105.0 - s * (945.0 - s * (10395.0 - s * 135135.0))
    return _INV_SQRT_PI * r * (1.0 - s * (1.0 - s * (3.0 - s * (15.0 - s * inner))))


def erfcinv(y: float) -> float:
    """The inverse complementary error function: ``erfc(erfcinv(y)) = y`` for 0 < y < 2.

    See the module docstring for the method.  ``erfcinv(0)`` is ``inf``
    and ``erfcinv(2)`` is ``-inf``.  Within 2 ulps of the exact value; the
    tests hold it within 8 ulps of ``scipy.special.erfcinv`` on 2.2 x 10^5
    points from y = 1e-300 to 2, the switches of the first guess included,
    and within an absolute 1e-18 where |y - 1| < 1e-3.
    """
    if y > 1.0:
        return -erfcinv(2.0 - y)
    if y < _ERFCINV_TAIL:
        if not y > 0.0:
            return math.inf if y == 0.0 else math.nan
        q = math.sqrt(_LOG4 - 2.0 * math.log(y))  # sqrt(-2 log(y/2)), y/2 may underflow
        x = (((((7.784894002430293e-03 * q + 3.223964580411365e-01) * q + 2.400758277161838e+00) * q
               + 2.549732539343734e+00) * q - 4.374664141464968e+00) * q - 2.938163982698783e+00) / (
            (((7.784695709041462e-03 * q + 3.224671290700398e-01) * q + 2.445134137142996e+00) * q
             + 3.754408661907416e+00) * q + 1.0) * _INV_SQRT2
    else:
        q = 0.5 * (1.0 - y)
        r = q * q
        x = (((((-3.969683028665376e+01 * r + 2.209460984245205e+02) * r - 2.759285104469687e+02) * r
               + 1.383577518672690e+02) * r - 3.066479806614716e+01) * r + 2.506628277459239e+00) * q / (
            ((((-5.447609879822406e+01 * r + 1.615858368580409e+02) * r - 1.556989798598866e+02) * r
              + 6.680131188771972e+01) * r - 1.328068155288572e+01) * r + 1.0) * _INV_SQRT2
    # one Halley step on f(x) = erfc(x) - y, where f''/f' = -2x; d = -f/f',
    # with exp(x^2) as a square: for a subnormal y it passes the largest float
    f = (1.0 - y) - math.erf(x) if y >= 0.5 else math.erfc(x) - y
    half = math.exp(0.5 * x * x)
    d = f * _HALF_SQRT_PI * half * half
    return x + d / (1.0 - x * d)


# erfcinv of each element, so an array draw repeats the scalar one bitwise
_erfcinv_array = np.vectorize(erfcinv, otypes=[float])


def gaussian_tail_integral(a: float) -> float:
    """``int_0^inf exp(-a*t - t^2/2) dt`` for a >= 0.

    Completing the square gives ``sqrt(2*pi) * exp(a^2/2) * P(Z > a)`` for a
    standard normal Z, evaluated through the scaled complementary error
    function so large drifts neither overflow nor lose precision.  The value
    is bounded by ``1/a`` for a > 0 (Mills ratio).
    """
    if a < 0:
        raise UsageError(f"drift must be nonnegative, got {a}")
    return _SQRT_HALF_PI * erfcx(a * _INV_SQRT2)


def sample_gaussian_tail(a: float, rng: np.random.Generator, size=None):
    """Exact draws from the density proportional to exp(-a*t - t^2/2) on t >= 0.

    This is a standard normal with mean ``-a`` truncated to the nonnegative
    half-line.  Small drifts invert the CDF through erfcinv against the
    tail's mass ``erfc(a/sqrt(2))``, computed on each call (``math.erfc``,
    tens of nanoseconds); drifts above ``_DRIFT_INVERSION_LIMIT`` use an
    Exp(a) proposal with acceptance probability exp(-t^2/2), which is nearly
    tight there.

    With ``size=None`` a float in gives a float out through scalar draws
    (one ``random()`` for inversion, ``exponential()`` then ``random()`` per
    rejection round), bitwise equal to ``size=1`` from the same stream.
    """
    if a < 0:
        raise UsageError(f"drift must be nonnegative, got {a}")
    if a <= _DRIFT_INVERSION_LIMIT:
        mass = math.erfc(a * _INV_SQRT2)
        if size is None:
            return max(_SQRT2 * erfcinv(rng.random() * mass) - a, 0.0)
        return np.maximum(_SQRT2 * _erfcinv_array(rng.random(int(size)) * mass) - a, 0.0)
    if size is None:
        scale = 1.0 / a
        while True:
            prop = rng.exponential(scale)
            # NumPy's log, as in the array branch: math.log can differ by an ulp
            if np.log(rng.random()) <= -0.5 * prop * prop:
                return prop
    n = int(size)
    t = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        prop = rng.exponential(1.0 / a, size=todo.size)
        keep = np.log(rng.random(todo.size)) <= -0.5 * prop * prop
        t[todo[keep]] = prop[keep]
        todo = todo[~keep]
    return t


def gaussian_piece_integral(a: float, length: float) -> float:
    """``int_0^length exp(-a*t - t^2/2) dt`` for a >= 0 and length >= 0.

    Up to ``_DRIFT_INVERSION_LIMIT`` this is ``sqrt(pi/2) * exp(a^2/2) *
    (erfc(a/sqrt(2)) - erfc((a + length)/sqrt(2)))`` through ``math``.
    Beyond it ``exp(a^2/2)`` would overflow and erfc underflow for the large
    drifts of curvature bands, so it is the difference of two half-line
    integrals, each scaled by erfcx.  Either way the absolute error is a few
    ulps of the half-line integral ``gaussian_tail_integral(a)``.
    """
    b = a + length
    if a <= _DRIFT_INVERSION_LIMIT:
        erfc_gap = math.erfc(a * _INV_SQRT2) - math.erfc(b * _INV_SQRT2)
        return _SQRT_HALF_PI * math.exp(0.5 * a * a) * erfc_gap
    decay = math.exp(-length * (a + 0.5 * length))
    return gaussian_tail_integral(a) - decay * gaussian_tail_integral(b)


def sample_gaussian_piece(a: float, length: float, rng: np.random.Generator, size=None):
    """Exact draws from the density proportional to exp(-a*t - t^2/2) on [0, length].

    A piece with ``a <= _DRIFT_INVERSION_LIMIT`` longer than ``_SHORT_PIECE``
    inverts the CDF: ``t = sqrt(2) erfcinv(erfc(a/sqrt(2)) - u * (erfc(a/sqrt(2))
    - erfc((a + length)/sqrt(2)))) - a``.  Every other piece proposes Exp(a)
    truncated to [0, length] (uniform when a = 0), by inversion, and accepts
    with probability exp(-t^2/2): at least exp(-1/2) on a short piece, and at
    least ``a^2 / (a^2 + 1)`` above the limit.  No draw is made on the
    half-line and retried until it lands inside, which loops for a long time
    on a narrow piece far from its mean.

    ``size=None`` returns a float; an array of ``size`` repeats that scalar
    draw, so ``size=1`` equals it bitwise on the same stream.
    """
    if a < 0 or length <= 0:
        raise UsageError(f"need a nonnegative drift and a positive length, got {a}, {length}")
    if size is not None:
        return np.array([sample_gaussian_piece(a, length, rng) for _ in range(int(size))])
    if a <= _DRIFT_INVERSION_LIMIT and length > _SHORT_PIECE:
        top = math.erfc(a * _INV_SQRT2)
        gap = top - math.erfc((a + length) * _INV_SQRT2)
        t = _SQRT2 * erfcinv(top - rng.random() * gap) - a
        return min(max(t, 0.0), length)
    span = -math.expm1(-a * length)  # P(Exp(a) <= length)
    while True:
        u = rng.random()
        t = min(-math.log1p(-u * span) / a, length) if a > 0.0 else u * length
        if rng.random() < math.exp(-0.5 * t * t):
            return t
