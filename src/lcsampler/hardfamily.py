"""The worst-case potential family with dyadic curvature blocks.

For condition number kappa >= 2 the family has m members, where m is the
largest integer with ``exp(-2^(2m-2) / (2*kappa)) >= 1/2``; kappa must stay
below about 3.24e307, where m would pass 511 and ``4^m`` the float range.  Each member is
an even, unit-strongly-convex, kappa-smooth potential whose second
derivative alternates between 1 and kappa on dyadic blocks of the axis
``y = x * sqrt(kappa)``; consecutive members agree exactly outside one
narrow band, and each member concentrates at least 1/32 of its mass on its
own dyadic window, so a single exact sample identifies the member.

Members are materialized as explicit breakpoint lists (member i has
4(m - i) + 10 breakpoints), not evaluated through the block formulas per
query, which gives O(log) evaluation and makes the agreement between
consecutive members exact in floating point.  A member is even, so it is
built from its right half alone (``PiecewiseQuadraticPotential._even``):
each edge y / sqrt(kappa), with y dyadic (an integer but for one half)
and p/q the float sqrt(kappa), is the exact ratio 2*y*q / (2*p), so every
edge shares the one denominator 2p.  The potential integrates its anchors
in integers over it, rounds each anchor once and mirrors the left half;
where two members agree, their anchors are the same exact rationals and
so the same floats, whatever denominator carries them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelope import prepare_envelope
from .errors import UsageError
from .oracles import PiecewiseQuadraticPotential, PotentialOracle
from .rejection import sample_exact

_LN2 = math.log(2.0)


def largest_m(kappa: float) -> int:
    """Largest m with ``2^(2m-2) <= 2 * kappa * ln(2)``, read off the bound's binary exponent.

    Requires kappa >= 2 with ``2 * kappa * ln(2) < 2^1022``, so that m
    stays at most 511 and ``2^(2m)`` a float: kappa below about 3.24e307.
    """
    bound = 2.0 * kappa * _LN2
    if not (2.0 <= kappa and bound < 2.0**1022):
        raise UsageError(f"family needs 2 <= kappa < about 3.24e307, got kappa = {kappa:g}")
    # 2^(e-1) <= bound < 2^e, so 2m - 2 is the largest even number up to e - 1
    return (math.frexp(bound)[1] + 1) // 2


def _block_starts(kappa: float, i: int) -> list[int]:
    """Starts of member i's blocks on the canonical half-line y >= 0, all integers.

    The starts are 0, 2^(i-1), 2^i, 2^(i+1), then 2.5 * 2^j and 4 * 2^j for
    each j from i to m - 1, then 5 * 2^(m-1).  Block k runs from start k to
    start k + 1, the last one to infinity, with curvature 1 for even k and
    kappa for odd k.  This is the one statement of the layout:
    :func:`member_blocks` reports it and :func:`build_member` builds from it.
    """
    m = largest_m(kappa)
    if not 1 <= i <= m:
        raise UsageError(f"member index {i} outside [1, {m}]")
    starts = [0, 1 << i - 1, 1 << i, 1 << i + 1]
    for j in range(i, m):
        starts += (5 << j - 1, 4 << j)
    starts.append(5 << m - 1)
    return starts


def member_blocks(kappa: float, i: int) -> list[tuple[float, float, float]]:
    """Half-line curvature blocks of member i on the canonical axis y = x*sqrt(kappa).

    Returns (start, end, curvature) triples tiling [0, inf) with no gaps and
    no overlaps; all edges are exact dyadic floats.  The final block is
    unbounded (end = inf).
    """
    starts = list(map(float, _block_starts(kappa, i)))
    ends = starts[1:] + [math.inf]
    return [(s, e, kappa if k % 2 else 1.0) for k, (s, e) in enumerate(zip(starts, ends))]


def build_member(kappa: float, i: int) -> PiecewiseQuadraticPotential:
    """Member i as an even piecewise quadratic with V(0) = V'(0) = 0.

    The unit-curvature run between 2^i and 2^(i+1) is split at the dyadic
    point 1.25 * 2^i (the upper disagreement edge of the preceding pair).
    The split changes nothing analytically, but it aligns this member's
    segment anchors with its neighbors' on every region where the family
    agrees, so agreeing members return bitwise-identical responses.
    """
    starts = _block_starts(kappa, i)
    # each edge y / sqrt(kappa) exactly, as y / (p/q) = 2*y*q / (2*p); the split
    # 1.25 * 2^i = 5 * 2^(i-2) has 2*y = 5 * 2^(i-1), an integer at i = 1 too
    p, q = math.sqrt(kappa).as_integer_ratio()
    twice_q = 2 * q
    numerators = [y * twice_q for y in starts[1:]]
    numerators.insert(2, (5 << i - 1) * q)
    curvatures = [1.0, kappa] * (len(starts) // 2) + [1.0]
    curvatures.insert(3, 1.0)
    return PiecewiseQuadraticPotential._even(numerators, 2 * p, curvatures)


@dataclass(frozen=True)
class HardFamily:
    """All m members for one condition number."""

    kappa: float
    m: int
    members: tuple

    @classmethod
    def build(cls, kappa: float) -> "HardFamily":
        m = largest_m(kappa)
        members = tuple(build_member(kappa, i) for i in range(1, m + 1))
        return cls(kappa=float(kappa), m=m, members=members)

    def member(self, i: int) -> PiecewiseQuadraticPotential:
        if not 1 <= i <= self.m:
            raise UsageError(f"member index {i} outside [1, {self.m}]")
        return self.members[i - 1]


def disagreement_band(kappa: float, i: int) -> tuple[float, float]:
    """|x| range where members i and i+1 may differ: [2^(i-1), (5/4)*2^(i+1)] / sqrt(kappa)."""
    root = math.sqrt(kappa)
    return 2.0 ** (i - 1) / root, 1.25 * 2.0 ** (i + 1) / root


def member_window(kappa: float, i: int) -> tuple[float, float]:
    """The identification window of member i: (2^(i-2), 2^(i-1)] / sqrt(kappa)."""
    root = math.sqrt(kappa)
    return 2.0 ** (i - 2) / root, 2.0 ** (i - 1) / root


def member_mass_in_window(family: HardFamily, i: int) -> float:
    """Normalized mass of member i's density on its own window (closed form)."""
    member = family.member(i)
    lo, hi = member_window(family.kappa, i)
    return member.density_cdf(hi) - member.density_cdf(lo)


def identify(y: float, kappa: float) -> int | None:
    """Index k >= 1 with y in (2^(k-2), 2^(k-1)] / sqrt(kappa), else None.

    Read off the binary exponent; UsageError when ``y * sqrt(kappa)`` is NaN or infinite.
    """
    if y <= 0.0:
        return None
    scaled = y * math.sqrt(kappa)
    if not math.isfinite(scaled):
        raise UsageError(f"identify needs a finite y * sqrt(kappa), got y = {y}, kappa = {kappa}")
    # 2^(e-1) <= scaled < 2^e, with equality on the left exactly when m = 1/2
    m, e = math.frexp(scaled)
    k = e if m == 0.5 else e + 1
    return k if k >= 1 else None


def distinct_response_count(x: float, family: HardFamily) -> int:
    """Number of distinct (V, V', V'') triples across the family at one point."""
    return len({member.evaluate(float(x)) for member in family.members})


def make_exact_member_sampler(family: HardFamily):
    """Callable (index, rng) -> exact draw from member `index`'s density.

    Envelopes are built once per member (the construction queries are paid
    here, not per draw); each draw then costs a geometric number of queries.
    """
    prepared = {}
    for i in range(1, family.m + 1):
        oracle = PotentialOracle(family.member(i), beta=family.kappa)
        prepared[i] = prepare_envelope(oracle)

    def sampler(index: int, rng: np.random.Generator) -> float:
        normalized, env = prepared[index]
        return sample_exact(normalized, env, rng).result

    return sampler


def run_identification_experiment(
    family: HardFamily,
    trials: int,
    rng: np.random.Generator,
    sampler=None,
) -> float:
    """Empirical success rate of window identification from one draw.

    Draws a uniform member index, samples once from that member, and checks
    whether the dyadic window of the sample recovers the index.  With an
    exact per-member sampler (by default :func:`make_exact_member_sampler`
    of ``family``) the population rate is the average window mass, which is
    at least 1/32.
    """
    if sampler is None:
        sampler = make_exact_member_sampler(family)
    hits = 0
    for _ in range(trials):
        z = int(rng.integers(1, family.m + 1))
        y = sampler(z, rng)
        if identify(y, family.kappa) == z:
            hits += 1
    return hits / trials
