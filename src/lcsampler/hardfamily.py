"""The worst-case potential family with dyadic curvature blocks.

For condition number kappa >= 2 the family has m members, where m is the
largest integer with ``exp(-2^(2m-2) / (2*kappa)) >= 1/2``.  Each member is
an even, unit-strongly-convex, kappa-smooth potential whose second
derivative alternates between 1 and kappa on dyadic blocks of the axis
``y = x * sqrt(kappa)``; consecutive members agree exactly outside one
narrow band, and each member concentrates at least 1/32 of its mass on its
own dyadic window, so a single exact sample identifies the member.

Members are materialized as explicit breakpoint lists (about 2m + 6
breakpoints each), not evaluated through the block formulas per query,
which gives O(log) evaluation and makes the agreement between consecutive
members exact in floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .envelope import prepare_envelope
from .errors import UsageError
from .oracles import PiecewiseQuadraticPotential, PotentialOracle
from .rejection import sample_exact

_LN2 = math.log(2.0)


def largest_m(kappa: float) -> int:
    """Largest m with ``2^(2m-2) <= 2 * kappa * ln(2)``; requires kappa >= 2."""
    if kappa < 2.0:
        raise UsageError(f"family needs kappa >= 2, got {kappa}")
    m = 1
    while 2.0 ** (2 * (m + 1) - 2) <= 2.0 * kappa * _LN2:
        m += 1
    return m


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


def member_blocks(kappa: float, i: int) -> list[tuple[float, float, float]]:
    """Half-line curvature blocks of member i on the canonical axis y = x*sqrt(kappa).

    Returns (start, end, curvature) triples tiling [0, inf) with no gaps and
    no overlaps; all edges are exact dyadic floats.  The final block is
    unbounded (end = inf).
    """
    m = largest_m(kappa)
    if not 1 <= i <= m:
        raise UsageError(f"member index {i} outside [1, {m}]")
    blocks = [
        (0.0, 2.0 ** (i - 1), 1.0),
        (2.0 ** (i - 1), 2.0**i, kappa),
        (2.0**i, 2.0 ** (i + 1), 1.0),
        (2.0 ** (i + 1), 2.5 * 2.0**i, kappa),
    ]
    for j in range(i, m):
        blocks.append((2.5 * 2.0**j, 4.0 * 2.0**j, 1.0))
        blocks.append((4.0 * 2.0**j, 5.0 * 2.0**j, kappa))
    blocks.append((5.0 * 2.0 ** (m - 1), math.inf, 1.0))
    return blocks


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


def build_member(kappa: float, i: int) -> PiecewiseQuadraticPotential:
    """Member i as an even piecewise quadratic with V(0) = V'(0) = 0.

    The unit-curvature run between 2^i and 2^(i+1) is split at the dyadic
    point 1.25 * 2^i (the upper disagreement edge of the preceding pair).
    The split changes nothing analytically, but it aligns this member's
    segment anchors with its neighbors' on every region where the family
    agrees, so agreeing members return bitwise-identical responses.
    """
    blocks = member_blocks(kappa, i)
    root = Fraction(math.sqrt(kappa))
    pos_edges = []
    pos_curvs = [blocks[0][2]]
    for start, end, curv in blocks[1:]:
        pos_edges.append(Fraction(start) / root)
        pos_curvs.append(curv)
        if start == 2.0**i and not math.isinf(end):
            pos_edges.append(Fraction(1.25 * 2.0**i) / root)
            pos_curvs.append(curv)
    breakpoints = [-e for e in reversed(pos_edges)] + pos_edges
    curvatures = list(reversed(pos_curvs[1:])) + pos_curvs
    return PiecewiseQuadraticPotential(breakpoints, curvatures)


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


def member_window(kappa: float, i: int) -> tuple[float, float]:
    """The identification window of member i: (2^(i-2), 2^(i-1)] / sqrt(kappa)."""
    root = math.sqrt(kappa)
    return 2.0 ** (i - 2) / root, 2.0 ** (i - 1) / root


def member_mass_in_window(
    kappa: float, i: int, member: PiecewiseQuadraticPotential | None = None
) -> float:
    """Normalized mass of member i's density on its own window (closed form)."""
    member = build_member(kappa, i) if member is None else member
    lo, hi = member_window(kappa, i)
    return member.density_cdf(hi) - member.density_cdf(lo)


def identify(y: float, kappa: float) -> int | None:
    """Index k >= 1 with y in (2^(k-2), 2^(k-1)] / sqrt(kappa), else None."""
    if y <= 0.0:
        return None
    root = math.sqrt(kappa)
    scaled = y * root
    k = math.ceil(math.log2(scaled)) + 1
    # guard the float log against edge rounding
    while k >= 1 and scaled <= 2.0 ** (k - 2):
        k -= 1
    while scaled > 2.0 ** (k - 1):
        k += 1
    return k if k >= 1 else None


def distinct_response_count(x: float, kappa: float, family: HardFamily | None = None) -> int:
    """Number of distinct (V, V', V'') triples across the family at one point."""
    family = HardFamily.build(kappa) if family is None else family
    return len({member.evaluate(float(x)) for member in family.members})


def make_exact_member_sampler(kappa: float, family: HardFamily | None = None):
    """Callable (index, rng) -> exact draw from member `index`'s density.

    Envelopes are built once per member (the construction queries are paid
    here, not per draw); each draw then costs a geometric number of queries.
    """
    family = HardFamily.build(kappa) if family is None else family
    prepared = {}
    for i in range(1, family.m + 1):
        oracle = PotentialOracle(family.member(i), alpha=1.0, beta=kappa)
        prepared[i] = prepare_envelope(oracle)

    def sampler(index: int, rng: np.random.Generator) -> float:
        normalized, env = prepared[index]
        return sample_exact(normalized, env, rng).result

    return sampler


def run_identification_experiment(
    kappa: float,
    trials: int,
    rng: np.random.Generator,
    sampler=None,
) -> float:
    """Empirical success rate of window identification from one draw.

    Draws a uniform member index, samples once from that member, and checks
    whether the dyadic window of the sample recovers the index.  With an
    exact per-member sampler the population rate is the average window mass,
    which is at least 1/32.
    """
    m = largest_m(kappa)
    if sampler is None:
        sampler = make_exact_member_sampler(kappa)
    hits = 0
    for _ in range(trials):
        z = int(rng.integers(1, m + 1))
        y = sampler(z, rng)
        if identify(y, kappa) == z:
            hits += 1
    return hits / trials
