"""Shared numerical kernels.

Gaussian tail integrals of the form ``int_0^inf exp(-a*t - t^2/2) dt``, the
erfc they invert against, and exact draws from the matching truncated
normal; the same for a finite piece ``[0, length]``.  Everything here is a
pure function; nothing touches an oracle or consumes queries.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcinv, erfcx

from .errors import UsageError

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Above this drift the inverse-CDF route for tail sampling loses precision
# (erfc underflows), so sampling switches to an exponential-proposal
# rejection step.
_DRIFT_INVERSION_LIMIT = 5.0
# A finite piece no longer than this is drawn by the exponential proposal
# whatever its drift: its acceptance exp(-t^2/2) stays above exp(-1/2), and
# the erfc difference the inversion needs cancels on short pieces.
_SHORT_PIECE = 1.0


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
        t = _SQRT2 * float(erfcinv(top - rng.random() * gap)) - a
        return min(max(t, 0.0), length)
    span = -math.expm1(-a * length)  # P(Exp(a) <= length)
    while True:
        u = rng.random()
        t = min(-math.log1p(-u * span) / a, length) if a > 0.0 else u * length
        if rng.random() < math.exp(-0.5 * t * t):
            return t
