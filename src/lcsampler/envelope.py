"""Construction of the dominating proposal for rejection sampling.

One plateau rule builds every envelope.  For a potential ``W`` with
``1 <= W'' <= kappa`` whose minimizer lies in the bracket ``[a, b]`` and whose
minimum lies in ``[-floor, 0]``, the envelope is

    q(x) = e^floor                                          on [x_minus, x_plus]
    q(x) = e^floor * exp(-tail_offset - drift*t - t^2/2),  t = distance to the plateau,

with ``x_plus = b + 2^j / sqrt(kappa)`` and ``x_minus = a - 2^i / sqrt(kappa)``
for the first indices ``i, j >= lo`` at which ``W`` reaches ``level``.
``W >= -floor`` bounds the plateau.  Convexity through the bracket makes the
edge slopes at least ``level / (x_plus - a)`` and ``level / (b - x_minus)``,
the drifts, and strong convexity adds ``t^2/2``, so any ``tail_offset <=
level + floor`` dominates the tails.  As ``W(b + t) >= -floor + t^2/2``, the
level is certain once ``t^2/2 >= level + floor``: the search stops at
``max(lo, ceil((log2(kappa) + log2(2 (level + floor))) / 2))``, and a target
that misses the level there is outside the class.

The 1D sampler takes ``a = b = 0`` on the normalized potential with level
1/2, floor 0, ``lo`` 0 and offset 0 (plateau height 1); the Hit-and-Run line
step takes level 3, floor 1, ``lo`` 1 and offset 3.  The guarded dyadic
binary search costs O(log log kappa) queries, and the mass has a closed
form, so normalization and sampling consume no queries at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ClassViolationError, UsageError


def find_threshold_index(
    value, edge: float, side: int, kappa: float, level: float, lo: int, hi: int
) -> int:
    """Smallest i in [lo, hi] with ``value(edge + side * 2^i / sqrt(kappa)) >= level``.

    ``value`` must be monotone along the grid, and each distinct index costs
    one query.  The caller guarantees the level at ``hi`` for in-class
    targets; the answer is verified with one extra query only when the
    search never evaluated it, which is how out-of-class targets surface.
    That check allows ``1e-9`` of float noise, because class members can sit
    exactly on the threshold.  Worst case ceil(log2(hi - lo + 1)) + 1 queries.

    Probe order keeps the count stable as the range grows: ``hi - 1`` first
    (near-quadratic targets put the threshold at the top for every kappa),
    then a pivot near the bottom (sharply peaked targets put it at a small,
    kappa-independent index), then bisection within the same budget.
    """
    if hi < lo:
        raise UsageError(f"empty search range [{lo}, {hi}]")
    root = math.sqrt(kappa)
    cache: dict[int, bool] = {}

    def point(i: int) -> float:
        return edge + side * 2.0**i / root

    def pred(i: int) -> bool:
        if i not in cache:
            cache[i] = value(point(i)) >= level
        return cache[i]

    if lo == hi:
        ans = lo
    elif not pred(hi - 1):
        ans = hi
    else:  # hi - 1 is known true
        pivot = max(hi - 1 - (1 << ((hi - lo).bit_length() - 1)), lo)
        if pred(pivot):
            left, right = lo, pivot
        else:
            left, right = pivot + 1, hi - 1
        while left < right:
            mid = (left + right) // 2
            if pred(mid):
                right = mid
            else:
                left = mid + 1
        ans = left
    if ans not in cache and not value(point(ans)) >= level - 1e-9:
        raise ClassViolationError(
            f"no threshold index in [{lo}, {hi}] on side {side:+d} of {edge:g}; "
            "target violates the curvature sandwich",
            query_point=point(ans),
        )
    return ans


@dataclass(frozen=True)
class Envelope:
    """The dominating function, its piece decomposition, and its exact mass.

    Immutable after construction; sampling only reads fields, so independent
    random generators may share one envelope across threads.
    """

    x_minus: float
    x_plus: float
    drift_minus: float
    drift_plus: float
    plateau_height: float = 1.0
    tail_offset: float = 0.0
    piece_masses: tuple[float, float, float] = (0.0, 0.0, 0.0)  # left, plateau, right
    mass_total: float = 0.0

    @classmethod
    def from_geometry(
        cls,
        x_minus: float,
        x_plus: float,
        drift_minus: float,
        drift_plus: float,
        plateau_height: float = 1.0,
        tail_offset: float = 0.0,
    ) -> "Envelope":
        if not x_minus < x_plus:
            raise UsageError(f"plateau must be nonempty, got [{x_minus}, {x_plus}]")
        if drift_minus <= 0 or drift_plus <= 0:
            raise UsageError("tail drifts must be positive")
        h = float(plateau_height)
        damp = h * math.exp(-tail_offset)
        left = damp * numerics.gaussian_tail_integral(drift_minus)
        plateau = h * (x_plus - x_minus)
        right = damp * numerics.gaussian_tail_integral(drift_plus)
        return cls(
            x_minus=float(x_minus),
            x_plus=float(x_plus),
            drift_minus=float(drift_minus),
            drift_plus=float(drift_plus),
            plateau_height=h,
            tail_offset=float(tail_offset),
            piece_masses=(left, plateau, right),
            mass_total=left + plateau + right,
        )

    def log_value(self, x):
        xs = np.asarray(x, dtype=float)
        t_right = np.maximum(xs - self.x_plus, 0.0)
        t_left = np.maximum(self.x_minus - xs, 0.0)
        on_plateau = (xs >= self.x_minus) & (xs <= self.x_plus)
        tail = np.where(
            xs > self.x_plus,
            -self.tail_offset - self.drift_plus * t_right - 0.5 * t_right * t_right,
            -self.tail_offset - self.drift_minus * t_left - 0.5 * t_left * t_left,
        )
        out = math.log(self.plateau_height) + np.where(on_plateau, 0.0, tail)
        return out if out.ndim else float(out)

    def value(self, x):
        out = np.exp(self.log_value(x))
        return out if np.ndim(out) else float(out)

    def sample(self, rng: np.random.Generator, size=None):
        """Exact draws from the normalized envelope; consumes no queries."""
        scalar = size is None
        n = 1 if scalar else int(size)
        left, plateau, right = self.piece_masses
        cut1, cut2 = left / self.mass_total, (left + plateau) / self.mass_total
        u = rng.random(n)
        out = np.empty(n)
        in_left = u < cut1
        in_mid = (~in_left) & (u < cut2)
        in_right = ~(in_left | in_mid)
        if in_left.any():
            t = numerics.sample_gaussian_tail(self.drift_minus, rng, size=int(in_left.sum()))
            out[in_left] = self.x_minus - t
        if in_mid.any():
            out[in_mid] = rng.uniform(self.x_minus, self.x_plus, size=int(in_mid.sum()))
        if in_right.any():
            t = numerics.sample_gaussian_tail(self.drift_plus, rng, size=int(in_right.sum()))
            out[in_right] = self.x_plus + t
        return float(out[0]) if scalar else out

    def cdf(self, x):
        """Analytic CDF of the normalized envelope."""
        xs = np.asarray(x, dtype=float)
        left, plateau, _ = self.piece_masses
        damp = self.plateau_height * math.exp(-self.tail_offset)
        below = np.where(
            xs <= self.x_minus,
            damp * numerics.gaussian_tail_partial(self.drift_minus, np.maximum(self.x_minus - xs, 0.0)),
            np.where(
                xs <= self.x_plus,
                left + self.plateau_height * (xs - self.x_minus),
                self.mass_total
                - damp
                * numerics.gaussian_tail_partial(self.drift_plus, np.maximum(xs - self.x_plus, 0.0)),
            ),
        )
        out = below / self.mass_total
        return out if out.ndim else float(out)

    def to_json_dict(self) -> dict:
        return {
            "x_minus": self.x_minus,
            "x_plus": self.x_plus,
            "plateau_height": self.plateau_height,
            "tail_offset": self.tail_offset,
            "drifts": [self.drift_minus, self.drift_plus],
            "masses": list(self.piece_masses),
        }


def plateau_envelope(
    value, a: float, b: float, kappa: float, *, level: float, floor: float, lo: int, tail_offset: float
) -> Envelope:
    """The plateau envelope of the module docstring around the bracket [a, b].

    Searches right of ``b`` first, then left of ``a``; ``value`` is queried.
    """
    top = max(lo, math.ceil((math.log2(kappa) + math.log2(2.0 * (level + floor))) / 2))
    root = math.sqrt(kappa)
    i_plus = find_threshold_index(value, b, +1, kappa, level, lo, top)
    i_minus = find_threshold_index(value, a, -1, kappa, level, lo, top)
    x_plus = b + 2.0**i_plus / root
    x_minus = a - 2.0**i_minus / root
    return Envelope.from_geometry(
        x_minus=x_minus,
        x_plus=x_plus,
        drift_minus=level / (b - x_minus),
        drift_plus=level / (x_plus - a),
        plateau_height=math.exp(floor),
        tail_offset=tail_offset,
    )


def build_envelope(oracle) -> Envelope:
    """Run both threshold searches and assemble the dominating function.

    The oracle must already answer V(x) - V(0) (see
    :func:`lcsampler.oracles.normalize_at_zero`) and declare unit strong
    convexity (``alpha = 1``); kappa is ``oracle.kappa``.  Total queries are
    at most ``2 * (ceil(log2(ceil(log2(kappa)/2) + 1)) + 1)``; the mass
    comes from the closed form, not from extra queries.
    """
    if not getattr(oracle, "is_normalized", False):
        raise UsageError(
            "build_envelope needs a normalized oracle; wrap it with normalize_at_zero()"
        )
    if abs(getattr(oracle, "alpha", 1.0) - 1.0) > 1e-12:
        raise UsageError("build_envelope needs a unit-strongly-convex oracle (alpha = 1)")
    return plateau_envelope(
        oracle.value, 0.0, 0.0, oracle.kappa, level=0.5, floor=0.0, lo=0, tail_offset=0.0
    )


def prepare_envelope(oracle):
    """Normalize at the origin, then build the envelope at ``oracle.kappa``.

    Returns ``(normalized_oracle, envelope)``.  This is the whole
    query-metered construction pipeline: one normalization query plus the
    two threshold searches.  The oracle must declare ``alpha = 1``.
    """
    from .oracles import normalize_at_zero

    normalized = oracle if getattr(oracle, "is_normalized", False) else normalize_at_zero(oracle)
    return normalized, build_envelope(normalized)
