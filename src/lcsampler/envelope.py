"""Construction of the dominating proposal for rejection sampling.

For a normalized, unit-strongly-convex potential (``V(0) = 0``, ``1 <= V''
<= kappa``) the dominating function is a flat plateau between two threshold
points, continued by drifted Gaussian tails:

    q(x) = h                                           on [x_minus, x_plus]
    q(x) = h * exp(-offset - drift*t - t^2/2),  t = distance to the plateau,

with ``h = 1`` and ``offset = 0`` for the basic construction.  Both
threshold indices are found by a guarded binary search over the dyadic grid
``2^i / sqrt(kappa)``, so construction costs O(log log kappa) queries, and
the total mass has a closed form, so normalization and sampling consume no
queries at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ClassViolationError, UsageError


def _first_true_index(value_at, level: float, lo: int, hi: int, describe: str = "") -> int:
    """Smallest index i in [lo, hi] with ``value_at(i) >= level``, for monotone values.

    ``value_at(i)`` costs one oracle query per distinct index (results are
    cached).  The caller must guarantee the level is reached at ``hi`` for
    any in-class target; the found index is verified with one extra query
    only when the search never evaluated it, which is how out-of-class
    targets surface.  Worst case ceil(log2(hi - lo + 1)) + 1 queries.

    That final check compares against ``level - 1e-9``: class members can
    sit exactly on the threshold, where an ulp of float noise must not
    masquerade as a violation.  Mid-search noise is harmless (it can only
    widen the plateau, which keeps domination).

    Probe order is tuned for stability of the measured count as the range
    grows: the top candidate ``hi - 1`` is probed first (near-quadratic
    targets put the threshold at the top of the range for every kappa), then
    a pivot near the bottom (sharply peaked targets put it at a small,
    kappa-independent index), and ordinary bisection handles the middle
    within the same worst-case budget.
    """
    if hi < lo:
        raise UsageError(f"empty search range [{lo}, {hi}]")
    cache: dict[int, bool] = {}

    def pred(i: int) -> bool:
        if i not in cache:
            cache[i] = value_at(i) >= level
        return cache[i]

    if lo == hi:
        ans = lo
    elif not pred(hi - 1):
        ans = hi
    elif hi - 1 == lo:
        ans = lo
    else:
        top = hi - 1  # known true
        span = hi - lo + 1
        budget = (span - 1).bit_length() + 1
        pivot = max(top - (1 << (budget - 2)), lo)
        if pred(pivot):
            left, right = lo, pivot
        else:
            left, right = pivot + 1, top
        while left < right:
            mid = (left + right) // 2
            if pred(mid):
                right = mid
            else:
                left = mid + 1
        ans = left
    if ans not in cache and not value_at(ans) >= level - 1e-9:
        raise ClassViolationError(
            f"no threshold index in [{lo}, {hi}] {describe}".rstrip()
            + "; target violates the curvature sandwich"
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


def threshold_search_range(kappa: float) -> int:
    """Top index of the dyadic search grid, ceil(log2(kappa) / 2)."""
    if kappa < 1.0:
        raise UsageError(f"kappa must be at least 1, got {kappa}")
    return max(0, math.ceil(0.5 * math.log2(kappa)))


def find_threshold_index(oracle, side: int) -> int:
    """First i in {0..ceil(log2(kappa)/2)} with V(side * 2^i / sqrt(kappa)) >= 1/2.

    Requires a normalized (V(0) = 0), unit-strongly-convex oracle; kappa is
    ``oracle.kappa``.  The top index always satisfies the predicate for
    class members because V(x) >= x^2/2 there, so a missing threshold is
    reported as a class violation.
    """
    if side not in (+1, -1):
        raise UsageError(f"side must be +1 or -1, got {side}")
    if not getattr(oracle, "is_normalized", False):
        raise UsageError("threshold search needs a normalized oracle (V(0) = 0)")
    top = threshold_search_range(oracle.kappa)
    root_kappa = math.sqrt(oracle.kappa)
    return _first_true_index(
        lambda i: oracle.value(side * (2.0**i) / root_kappa), 0.5, 0, top, f"(side {side:+d})"
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
    root_kappa = math.sqrt(oracle.kappa)
    i_plus = find_threshold_index(oracle, +1)
    i_minus = find_threshold_index(oracle, -1)
    x_plus = (2.0**i_plus) / root_kappa
    x_minus = -((2.0**i_minus) / root_kappa)
    return Envelope.from_geometry(
        x_minus=x_minus,
        x_plus=x_plus,
        drift_minus=1.0 / (2.0 * abs(x_minus)),
        drift_plus=1.0 / (2.0 * x_plus),
        plateau_height=1.0,
        tail_offset=0.0,
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
