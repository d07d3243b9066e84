"""Construction of the dominating proposal for rejection sampling.

One plateau rule builds every envelope.  For a potential ``W`` with
``1 <= W'' <= kappa`` and ``W(p) = 0`` at an anchor ``p``, at least
``-floor`` everywhere, and whose minimizer lies within ``reach`` of ``p``,
the envelope is

    q(x) = e^floor                                          on [x_minus, x_plus]
    q(x) = e^floor * exp(-tail_offset - drift*t - t^2/2),  t = distance to the plateau,

with ``x_plus = p + 2^j / sqrt(kappa)`` and ``x_minus = p - 2^i / sqrt(kappa)``
for the first indices ``i, j >= lo`` at which ``W`` reaches ``level``.
``W >= -floor`` bounds the plateau.  The tails are built from the edge values
``W(x_plus)`` and ``W(x_minus)`` the search already queried: the drifts are
``W(x_plus) / (x_plus - p)`` and ``W(x_minus) / (p - x_minus)``, and the one
``tail_offset`` is ``min(W(x_minus), W(x_plus)) + floor``.  Convexity from
``W(p) = 0`` makes each drift a lower bound on the edge slope, and strong
convexity adds ``t^2/2``, so ``W(x_plus + t) >= W(x_plus) + drift*t +
t^2/2`` (likewise on the left) and the tails dominate, touching the target
at the edge with the smaller value.  As ``W(p + t) >= -floor + (t -
reach)^2/2``, the level is certain once ``t >= reach + sqrt(2 (level +
floor))``: the search stops at ``max(lo, ceil(log2(kappa)/2 + log2(reach +
sqrt(2 (level + floor)))))``, and a target that misses the level there is
outside the class.

The 1D sampler anchors at ``p = 0`` on the normalized potential with level
1/2, floor 0, reach 0 and ``lo`` 0 (plateau height 1); the Hit-and-Run line
step anchors at a point p with ``|W'(p)| <= 1``, shifted to ``W(p) = 0``,
with level 3, floor 1/2, reach ``|W'(p)|`` and ``lo`` 1.  The
guarded dyadic binary search costs O(log log kappa) queries, and the mass
has a closed form, so normalization and sampling consume no queries at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import ClassViolationError, UsageError


def find_threshold_index(
    value, edge: float, side: int, kappa: float, level: float, lo: int, hi: int
) -> tuple[int, float]:
    """Smallest i in [lo, hi] with ``value(edge + side * 2^i / sqrt(kappa)) >= level``.

    Returns that index and the value queried there.  ``value`` must be
    monotone along the grid, and each distinct index costs one query.  The
    caller guarantees the level at ``hi`` for in-class targets; the answer
    is verified with one extra query only when the search never evaluated
    it, which is how out-of-class targets surface.  That check allows
    ``1e-9`` of float noise, because class members can sit exactly on the
    threshold.  Worst case ceil(log2(hi - lo + 1)) + 1 queries.

    Probe order keeps the count stable as the range grows: ``hi - 1`` first
    (near-quadratic targets put the threshold at the top for every kappa),
    then a pivot near the bottom (sharply peaked targets put it at a small,
    kappa-independent index), then bisection within the same budget.
    """
    if hi < lo:
        raise UsageError(f"empty search range [{lo}, {hi}]")
    root = math.sqrt(kappa)
    cache: dict[int, float] = {}

    def point(i: int) -> float:
        return edge + side * 2.0**i / root

    def pred(i: int) -> bool:
        if i not in cache:
            cache[i] = value(point(i))
        return cache[i] >= level

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
    w = cache[ans] if ans in cache else value(point(ans))
    if not w >= level - 1e-9:
        raise ClassViolationError(
            f"no threshold index in [{lo}, {hi}] on side {side:+d} of {edge:g}; "
            "target violates the curvature sandwich",
            query_point=point(ans),
        )
    return ans, w


@dataclass(frozen=True)
class Envelope:
    """The dominating function, its piece decomposition, and its exact mass.

    Built from its geometry alone: the constructor checks that the plateau
    is nonempty and both drifts positive (UsageError), stores the six
    geometry fields as floats, and derives the closed-form piece masses and
    their total.  Immutable after construction; sampling only reads fields,
    so independent random generators may share one envelope across threads.
    Constants derived for sampling (the piece cut points,
    ``log(plateau_height)`` and erfc(drift/sqrt(2)) per side) are computed
    once and take no part in equality or hashing.

    ``log_value`` and ``sample`` have a scalar path: a float in (or no
    ``size``) gives a float out through ``math`` and the generator's scalar
    draws, bitwise equal to the array path on the same input or stream.
    """

    x_minus: float
    x_plus: float
    drift_minus: float
    drift_plus: float
    plateau_height: float = 1.0
    tail_offset: float = 0.0
    piece_masses: tuple[float, float, float] = field(init=False)  # left, plateau, right
    mass_total: float = field(init=False)
    _cut1: float = field(init=False, repr=False, compare=False)
    _cut2: float = field(init=False, repr=False, compare=False)
    _log_height: float = field(init=False, repr=False, compare=False)
    _erfc_minus: float = field(init=False, repr=False, compare=False)
    _erfc_plus: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        geometry = ("x_minus", "x_plus", "drift_minus", "drift_plus", "plateau_height", "tail_offset")
        for name in geometry:
            object.__setattr__(self, name, float(getattr(self, name)))
        if not self.x_minus < self.x_plus:
            raise UsageError(f"plateau must be nonempty, got [{self.x_minus}, {self.x_plus}]")
        if self.drift_minus <= 0 or self.drift_plus <= 0:
            raise UsageError("tail drifts must be positive")
        h = self.plateau_height
        damp = h * math.exp(-self.tail_offset)
        left = damp * numerics.gaussian_tail_integral(self.drift_minus)
        plateau = h * (self.x_plus - self.x_minus)
        right = damp * numerics.gaussian_tail_integral(self.drift_plus)
        total = left + plateau + right
        derived = {
            "piece_masses": (left, plateau, right),
            "mass_total": total,
            "_cut1": left / total,
            "_cut2": (left + plateau) / total,
            "_log_height": math.log(h),
            "_erfc_minus": numerics.normal_tail_erfc(self.drift_minus),
            "_erfc_plus": numerics.normal_tail_erfc(self.drift_plus),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_geometry(cls, *args, **kwargs) -> "Envelope":
        """The constructor under its older name."""
        return cls(*args, **kwargs)

    def log_value(self, x):
        if isinstance(x, float):
            if self.x_minus <= x <= self.x_plus:
                return self._log_height
            if x > self.x_plus:
                t, drift = x - self.x_plus, self.drift_plus
            else:
                t, drift = self.x_minus - x, self.drift_minus
            return self._log_height + (-self.tail_offset - drift * t - 0.5 * t * t)
        xs = np.asarray(x, dtype=float)
        t_right = np.maximum(xs - self.x_plus, 0.0)
        t_left = np.maximum(self.x_minus - xs, 0.0)
        on_plateau = (xs >= self.x_minus) & (xs <= self.x_plus)
        tail = np.where(
            xs > self.x_plus,
            -self.tail_offset - self.drift_plus * t_right - 0.5 * t_right * t_right,
            -self.tail_offset - self.drift_minus * t_left - 0.5 * t_left * t_left,
        )
        out = self._log_height + np.where(on_plateau, 0.0, tail)
        return out if out.ndim else float(out)

    def value(self, x):
        out = np.exp(self.log_value(x))
        return out if np.ndim(out) else float(out)

    def sample(self, rng: np.random.Generator, size=None):
        """Exact draws from the normalized envelope; consumes no queries."""
        if size is None:
            u = rng.random()
            if u < self._cut1:
                return self.x_minus - numerics.sample_gaussian_tail(
                    self.drift_minus, rng, erfc_a=self._erfc_minus
                )
            if u < self._cut2:
                # rng.uniform(lo, hi) computes lo + (hi - lo) * random()
                return self.x_minus + (self.x_plus - self.x_minus) * rng.random()
            return self.x_plus + numerics.sample_gaussian_tail(
                self.drift_plus, rng, erfc_a=self._erfc_plus
            )
        n = int(size)
        u = rng.random(n)
        out = np.empty(n)
        in_left = u < self._cut1
        in_mid = (~in_left) & (u < self._cut2)
        in_right = ~(in_left | in_mid)
        if in_left.any():
            t = numerics.sample_gaussian_tail(
                self.drift_minus, rng, size=int(in_left.sum()), erfc_a=self._erfc_minus
            )
            out[in_left] = self.x_minus - t
        if in_mid.any():
            out[in_mid] = rng.uniform(self.x_minus, self.x_plus, size=int(in_mid.sum()))
        if in_right.any():
            t = numerics.sample_gaussian_tail(
                self.drift_plus, rng, size=int(in_right.sum()), erfc_a=self._erfc_plus
            )
            out[in_right] = self.x_plus + t
        return out

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
    value,
    p: float,
    kappa: float,
    *,
    level: float,
    floor: float,
    lo: int,
    reach: float = 0.0,
) -> Envelope:
    """The plateau envelope of the module docstring around the anchor ``p``.

    Searches right of ``p`` first, then left; ``value`` is queried.  Each
    tail's drift is the search's edge value over its distance from ``p``,
    and the offset is the smaller edge value plus ``floor``: ``W(x_plus + t)
    >= W(x_plus) + drift*t + t^2/2`` by convexity and unit strong convexity,
    so the tails dominate at no extra query.
    """
    edge = math.log2(reach + math.sqrt(2.0 * (level + floor)))
    top = max(lo, math.ceil(math.log2(kappa) / 2 + edge))
    root = math.sqrt(kappa)
    i_plus, w_plus = find_threshold_index(value, p, +1, kappa, level, lo, top)
    i_minus, w_minus = find_threshold_index(value, p, -1, kappa, level, lo, top)
    x_plus = p + 2.0**i_plus / root
    x_minus = p - 2.0**i_minus / root
    return Envelope(
        x_minus=x_minus,
        x_plus=x_plus,
        drift_minus=w_minus / (p - x_minus),
        drift_plus=w_plus / (x_plus - p),
        plateau_height=math.exp(floor),
        tail_offset=min(w_minus, w_plus) + floor,
    )


def build_envelope(oracle) -> Envelope:
    """Run both threshold searches and assemble the dominating function.

    The oracle must already answer V(x) - V(0) (see
    :func:`lcsampler.oracles.normalize_at_zero`); kappa is ``oracle.kappa``.
    Total queries are at most ``2 * (ceil(log2(ceil(log2(kappa)/2) + 1)) +
    1)``; the mass comes from the closed form, not from extra queries.
    """
    if not getattr(oracle, "is_normalized", False):
        raise UsageError(
            "build_envelope needs a normalized oracle; wrap it with normalize_at_zero()"
        )
    return plateau_envelope(oracle.value, 0.0, oracle.kappa, level=0.5, floor=0.0, lo=0)


def prepare_envelope(oracle):
    """Normalize at the origin, then build the envelope at ``oracle.kappa``.

    Returns ``(normalized_oracle, envelope)``.  This is the whole
    query-metered construction pipeline: one normalization query plus the
    two threshold searches.
    """
    from .oracles import normalize_at_zero

    normalized = oracle if getattr(oracle, "is_normalized", False) else normalize_at_zero(oracle)
    return normalized, build_envelope(normalized)
