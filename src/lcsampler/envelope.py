"""Construction of the dominating proposal for rejection sampling.

One search rule serves every envelope.  For a potential ``W`` with ``1 <=
W'' <= kappa``, ``W(p) = 0`` and ``W'(p) = g`` at an anchor ``p``,
:func:`threshold_searches` probes the dyadic offsets ``p + 2^j / sqrt(kappa)``
and ``p - 2^i / sqrt(kappa)`` for the first index on each side at which
``W`` reaches ``level``; those are the edges.  Along a side whose slope at
``p`` is ``r = +-g``, the sandwich ``r t + t^2/2 <= W <= r t + kappa t^2/2``
at distance ``t`` fixes the range (:func:`search_range`): no index below the
first one at which the upper bound can reach the level needs a probe, and
at the first one at which the lower bound does, ``top``, the level is
certain, so a target that misses it there is outside the class.  The
guarded dyadic binary search costs O(log log kappa) queries.  It returns
the edges and every value it queried on the way; a search that ends at
``top`` without querying it takes the lower bound there as its value, unless
the caller asks for exact edges, as the 1D sampler does.  Each query
answers ``(W(x), W'(x))``, the slope None where a view reads values alone,
as the line step's does; a search given slopes, as the 1D sampler's, skips
every probe whose outcome the kappa-upper bound from an earlier probe at or
above the level decides: it finds the same edges and never spends more
queries than the same search on values alone
(:func:`find_threshold_index`).

An :class:`Envelope` is a plateau of height ``h`` and, on each side, one
table of rows ``(start, offset, drift)`` running outward; the first row of
a side starts at its plateau edge, ``x_minus`` or ``x_plus``.  A row holds
from its start to the next row's start, at distance ``t`` from its start,

    q(x) = h * exp(-offset - drift*t - t^2/2),

with its offset counted down from ``log h``, and the last row of each side
is its unbounded tail.  The plateau and every row are segments with
closed-form masses, so normalization and sampling consume no queries at
all.

The 1D sampler anchors at ``p = 0`` on the normalized potential with level
1/2 and slope 0, so each side searches the paper's grid ``[0,
ceil(log2(kappa)/2)]``, and assembles the paper's envelope
(:meth:`Envelope.from_geometry`) from the two edges alone: plateau height 1
between them, and one tail row per side starting at its edge, with drift
``W(x_plus) / (x_plus - p)`` (likewise on the left) and the one offset
``min(W(x_minus), W(x_plus))``.  Convexity from ``W(p) = 0`` makes each drift
a lower bound on the edge slope, and strong convexity adds ``t^2/2``, so
``W(x_plus + t) >= W(x_plus) + drift*t + t^2/2`` and the tails dominate,
touching the target at the edge with the smaller value.  The Hit-and-Run line
step assembles a tighter envelope from every probe (see
:func:`lcsampler.hitandrun.build_line_envelope`).
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

import numpy as np

from . import numerics
from .errors import ClassViolationError, UsageError
from .oracles import _NormalizedOracle, normalize_at_zero

_first = itemgetter(0)


def find_threshold_index(
    value, edge: float, side: int, kappa: float, level: float, lo: int, hi: int,
    certified: float | None = None, clear: float = 0.0,
) -> tuple[int, float, dict[int, tuple[float, float]]]:
    """Smallest i in [lo, hi] with ``W(edge + side * 2^i / sqrt(kappa)) >= level``.

    ``value(x)`` answers with one query as the pair ``(W(x), W'(x))``, the
    slope None when the view queried none.  ``W(edge) = 0``, and ``W`` must
    be monotone along the grid.  Returns that index, the value there, and
    every probe: a dict from each grid index queried to ``(x, W(x))``, in
    which increasing indices run outward from ``edge``.  The caller
    guarantees the level at ``hi`` for in-class targets, and the search can end on an index it never queried
    only there.  Then ``certified``, when given, is taken as the value at
    ``hi`` and recorded as its probe at no query: a lower bound on ``W``
    there that reaches the level, such as the sandwich's.  Without it the
    answer is verified with one extra query, which is how out-of-class
    targets surface.  Either value must reach the level less ``1e-9`` of
    float noise, because class members can sit exactly on the threshold.
    Worst case ceil(log2(hi - lo + 1)) + 1 queries, for an answer below ``hi
    - 1``, where the first probe costs one beyond bisection's count.  An
    answer at ``hi`` costs one query with ``certified`` (the probe at ``hi -
    1``, none when ``lo = hi``), as the line step runs it, and two without,
    as the 1D envelope runs it: its drift and offset need the exact value at
    its edge, and that query is how a flat 1D target surfaces.

    Probe order keeps the count stable as the range grows: ``hi - 1`` first
    (near-quadratic targets put the threshold at the top for every kappa),
    then a pivot near the bottom (sharply peaked targets put it at a small,
    kappa-independent index), then bisection within the same budget.

    A slope that is not ``None`` decides probes without a query.  A probe at
    or above the level, with value ``w`` and outward slope ``s``, bounds ``W
    <= w - s d + kappa d^2/2`` at distance ``d`` inward, so every index at
    which that bound lies below the level lies below it, and by monotonicity
    every index further in (:func:`_verdict`); an answer a verdict rests on
    must first fit the sandwich of ``W(edge) = 0``, else ClassViolationError
    names it.  The probe order stays the one above, and a probe whose
    outcome is so decided costs no query.  So for a class member the search
    returns the same index and value as on values alone, from the same query
    at the edge, and never spends more queries.  Probes below the level
    bound nothing here: their lower bounds decide almost no index.

    ``clear`` is a distance from ``edge`` out to which the caller knows
    ``W`` lies below the level, as a value below it queried that far out
    shows by convexity.  Each index whose distance ``2^i / sqrt(kappa)``, as
    the search computes it, is at most ``clear`` is decided the same way, at
    no query, so the search finds the same answer and never spends more
    queries than without it; raising ``lo`` past ``clear`` instead would move
    the pivot and cost one query more on some ranges.
    """
    if hi < lo:
        raise UsageError(f"empty search range [{lo}, {hi}]")
    root = math.sqrt(kappa)
    probes: dict[int, tuple[float, float]] = {}
    # the answer lies in [left, right]; probe hi - 1, then the pivot, then
    # bisect, so no index is probed twice.  The pivot steps down from hi - 1
    # by the largest power of two up to hi - lo (none when lo == hi).  Every
    # index below `below` is known to lie below the level.
    pivot = max(hi - 1 - ((1 << (hi - lo).bit_length()) >> 1), lo)
    left, right, i, below = lo, hi, hi - 1, lo
    while left < right:
        if i < below or (t := 2.0**i / root) <= clear:  # known below the level
            left = i + 1
        else:
            x = edge + side * t
            w, s = value(x)
            if s is not None and w >= level and i > left:  # an index inward of i is still open
                below = _verdict(x, t, w, side * s, kappa, level, root, i, below)
            probes[i] = x, w
            if w >= level:
                right = i
            else:
                left = i + 1
        i = pivot if i == hi - 1 else (left + right) // 2
    ans = left
    known = probes.get(ans)
    if known is None:  # the search never queried its answer, so it is hi
        t = 2.0**ans / root
        x = edge + side * t
        known = probes[ans] = x, value(x)[0] if certified is None else certified
    w = known[1]
    if not w >= level - 1e-9:
        raise ClassViolationError(
            f"no threshold index in [{lo}, {hi}] on side {side:+d} of {edge:g}; "
            "target violates the curvature sandwich",
            query_point=known[0],
        )
    return ans, w, probes


# What adding and cancelling an oracle's hidden offset may change a value by
# (see lcsampler.oracles)
_OFFSET_NOISE = 2.0**-30


def _verdict(x: float, t: float, w: float, s: float, kappa: float, level: float, root: float,
             i: int, below: int) -> int:
    """``below`` raised past the inner indices that the probe at grid index ``i`` puts below the level.

    Every index under ``below`` is known to lie below the level.  The probe
    at ``x``, at distance ``t`` from the edge, answered ``W(x) = w >=
    level`` with outward slope ``s``, so ``W <= w - s d + kappa d^2/2`` at
    distance ``d`` inward.  That bound first drops below the level at its
    smaller root ``d1``.  The outermost index under ``i`` and inward of ``t
    - d1`` is checked against the bound less a slack of a relative 1e-12
    (the value, the slope and the bound's own arithmetic each err by a few
    ulps of its terms, about 1e-15) plus the hidden offset's noise on both
    values; if it passes, it and every index further in lie below the
    level, so no verdict rests on a rounded root.

    Before a verdict rests on ``(w, s)`` they must fit the sandwich that
    ``W(edge) = 0`` gives, in value form ``w - s t + t^2/2 <= 0 <= w - s t +
    kappa t^2/2``, up to the relative slack of
    :meth:`lcsampler.hitandrun.Certificate.check` plus the offset noise;
    ClassViolationError names ``x`` otherwise.
    """
    excess = w - level
    disc = s * s - 2.0 * kappa * excess
    if not (s > 0.0 and disc > 0.0):  # the bound never dips below the level
        return below
    reach = t - 2.0 * excess / (s + math.sqrt(disc))  # t - d1, without cancellation
    if not reach > 0.0:
        return below
    frac, exp = math.frexp(reach * root)  # the largest j with 2^j < reach * root
    j = min(exp - 1 if frac > 0.5 else exp - 2, i - 1)
    if j < below:
        return below
    d = t - 2.0**j / root
    linear, quadratic = s * d, 0.5 * kappa * d * d
    slack = 1e-12 * (abs(w) + abs(linear) + quadratic) + 2.0 * _OFFSET_NOISE
    if not excess - linear + quadratic < -slack:
        return below
    linear, square = s * t, 0.5 * t * t
    gap, steep = w - linear, kappa * square
    slack = 1e-9 * (abs(w) + abs(linear) + steep) + _OFFSET_NOISE
    if not gap + square <= slack >= -gap - steep:
        raise ClassViolationError(
            f"W({x:g}) = {w:.6g} with outward slope {s:.6g} escapes the curvature sandwich "
            f"that W = 0 at distance {t:g} and kappa = {kappa:g} imply",
            query_point=x,
        )
    return j + 1


@dataclass(frozen=True, init=False)
class Envelope:
    """The dominating function, its segments, and its exact mass.

    Built from ``plateau_height`` and the row tables of the module
    docstring, ``rows_minus`` and ``rows_plus``, whose first starts are
    ``x_minus`` and ``x_plus``: UsageError unless the height is finite and
    positive, each side has a row, the plateau is finite and nonempty, the
    rows run outward with finite offsets and nonnegative drifts, each tail's
    drift is positive and the total mass is finite.  Immutable; sampling
    only reads fields, so independent random generators may share one
    envelope across threads.  Equality and hashing see the height, the rows
    and the masses.

    Inside is one segment table, left to right: the left tail, the left rows
    inward, the plateau, the right rows outward, the right tail, with
    ``piece_masses`` their closed-form masses.  ``x_minus`` and ``x_plus``
    belong to the plateau and every other start to the row it starts.
    ``log_value`` bisects the segment boundaries and ``sample`` cuts the
    segments by mass; both have a scalar path, on which a float in (or no
    ``size``) gives a float out through ``math`` and the generator's scalar
    draws, bitwise equal to the array path on the same input or stream.
    """

    plateau_height: float
    rows_minus: tuple[tuple[float, float, float], ...]
    rows_plus: tuple[tuple[float, float, float], ...]
    piece_masses: tuple[float, ...] = field(init=False)  # left to right
    mass_total: float = field(init=False)
    x_minus: float = field(init=False, repr=False, compare=False)
    x_plus: float = field(init=False, repr=False, compare=False)
    _log_height: float = field(init=False, repr=False, compare=False)
    # _starts: the segment boundaries, ascending; _segments: (start, side, offset, drift, length)
    # each, no drift on the plateau and no length on a tail; _cuts: the mass share to each end
    _starts: tuple = field(init=False, repr=False, compare=False)
    _segments: tuple = field(init=False, repr=False, compare=False)
    _cuts: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, plateau_height, rows_minus, rows_plus):
        h, rows_minus, rows_plus = float(plateau_height), tuple(rows_minus), tuple(rows_plus)
        if not 0.0 < h < math.inf:
            raise UsageError(f"plateau_height must be finite and positive, got {h}")
        if not (rows_minus and rows_plus):
            raise UsageError("each side of an envelope needs at least one row")
        x_minus, x_plus = rows_minus[0][0], rows_plus[0][0]
        if not -math.inf < x_minus < x_plus < math.inf:
            raise UsageError(f"plateau must be nonempty and finite: [{x_minus}, {x_plus}]")
        # one table left to right: the left rows from the tail in, the plateau in slot n, the right
        # rows out; _side fills each side's slots walking its rows outward
        n = len(rows_minus)
        width, plateau = x_plus - x_minus, h * (x_plus - x_minus)
        segments = [(x_minus, 1.0, 0.0, None, width)] * (n + 1 + len(rows_plus))
        masses = [plateau] * len(segments)
        try:
            _side(-1.0, rows_minus, h, segments, masses, n - 1)
            _side(1.0, rows_plus, h, segments, masses, n + 1)
        except OverflowError:  # math.exp of an offset below about -709
            raise UsageError("an offset is too far below zero for its mass to be a float") from None
        # the tails and the plateau first, then each side's inner rows outward: this order fixes
        # mass_total
        total = masses[0] + plateau + masses[-1] + (sum(masses[n - 1:0:-1]) + sum(masses[n + 1:-1]))
        if not total < math.inf:
            raise UsageError(f"the envelope's mass must be finite, got {total}")
        # frozen: the dataclass supplies eq, hash and repr, and each field is written once, here,
        # key by key in field order, so that every envelope's dict shares one key table
        fields = self.__dict__
        fields["plateau_height"] = h
        fields["rows_minus"] = rows_minus
        fields["rows_plus"] = rows_plus
        fields["piece_masses"] = tuple(masses)
        fields["mass_total"] = total
        fields["x_minus"] = x_minus
        fields["x_plus"] = x_plus
        fields["_log_height"] = math.log(h)
        fields["_starts"] = (*map(_first, reversed(rows_minus)), *map(_first, rows_plus))
        fields["_segments"] = tuple(segments)
        fields["_cuts"] = (*map(total.__rtruediv__, accumulate(masses[:-1])), math.inf)

    @classmethod
    def from_geometry(cls, x_minus, x_plus, drift_minus, drift_plus, tail_offset=0.0) -> "Envelope":
        """The paper's envelope in normal form: a plateau of height 1 and one tail row per side.

        The rows are ``(x_minus, tail_offset, drift_minus)`` and ``(x_plus,
        tail_offset, drift_plus)``, every value converted to float.
        """
        tail_offset = float(tail_offset)
        return cls(1.0, ((float(x_minus), tail_offset, float(drift_minus)),),
                   ((float(x_plus), tail_offset, float(drift_plus)),))

    def log_value(self, x):
        if isinstance(x, float):
            # a start right of the plateau begins the segment it bounds, one left of it ends one
            if x > self.x_plus:
                i = bisect_right(self._starts, x)
            elif x >= self.x_minus:
                return self._log_height
            else:  # NaN too, which ends in NaN in the left tail
                i = bisect_left(self._starts, x)
            start, side, offset, drift, _ = self._segments[i]
            t = side * (x - start)
            return self._log_height + (-offset - drift * t - 0.5 * t * t)
        xs = np.asarray(x, dtype=float)
        # the scalar path's segment for each point; NaN takes the right tail
        which = np.where(xs > self.x_plus, np.searchsorted(self._starts, xs, side="right"),
                         np.searchsorted(self._starts, xs, side="left"))
        out = np.empty(xs.shape)
        for k, (start, side, offset, drift, _) in enumerate(self._segments):
            if drift is not None:  # the plateau is written last, over x_minus too
                applies = which == k
                t = side * (xs[applies] - start)
                out[applies] = self._log_height + (-offset - drift * t - 0.5 * t * t)
        out[(xs >= self.x_minus) & (xs <= self.x_plus)] = self._log_height
        return out if out.ndim else float(out)

    def value(self, x):
        out = np.exp(self.log_value(x))
        return out if np.ndim(out) else float(out)

    def sample(self, rng: np.random.Generator, size=None):
        """Exact draws from the normalized envelope; consumes no queries."""
        if size is None:
            start, side, _, drift, length = self._segments[bisect_right(self._cuts, rng.random())]
            if drift is None:
                return start + length * rng.random()
            if length is None:
                return start + side * numerics.sample_gaussian_tail(drift, rng)
            return start + side * numerics.sample_gaussian_piece(drift, length, rng)
        u = rng.random(int(size))
        which = np.searchsorted(self._cuts, u, side="right")
        out = np.empty(u.size)
        for j, (start, side, _, drift, length) in enumerate(self._segments):
            chosen = which == j
            n = int(np.count_nonzero(chosen))
            if not n:
                continue
            if drift is None:
                out[chosen] = start + length * rng.random(n)
            elif length is None:
                out[chosen] = start + side * numerics.sample_gaussian_tail(drift, rng, n)
            else:
                out[chosen] = start + side * numerics.sample_gaussian_piece(drift, length, rng, n)
        return out

    def to_json_dict(self) -> dict:
        return {
            "x_minus": self.x_minus,
            "x_plus": self.x_plus,
            "plateau_height": self.plateau_height,
            "rows": [[list(row) for row in self.rows_minus], [list(row) for row in self.rows_plus]],
            "masses": list(self.piece_masses),
        }


def _side(side: float, rows, h: float, segments: list, masses: list, slot: int) -> None:
    """Write one side's segments and masses, walking its rows outward, the tail last.

    The innermost row goes to ``segments[slot]`` and each further row one
    slot further by ``side``; UsageError on a bad row.
    """
    step = int(side)
    start, offset, drift = rows[0]
    for end, next_offset, next_drift in rows[1:]:
        length = side * (end - start)
        if not (length > 0.0 and drift >= 0.0 and math.isfinite(offset)):
            raise UsageError("a side's rows must run outward with nonnegative drifts and finite offsets")
        segments[slot] = (start, side, offset, drift, length)
        masses[slot] = h * math.exp(-offset) * numerics.gaussian_piece_integral(drift, length)
        start, offset, drift = end, next_offset, next_drift
        slot += step
    if not (drift > 0.0 and math.isfinite(offset)):
        raise UsageError(f"tail drifts must be positive and every offset finite, got the tail row {rows[-1]}")
    segments[slot] = (start, side, offset, drift, None)
    masses[slot] = h * math.exp(-offset) * numerics.gaussian_tail_integral(drift)


def _crossing(rise: float, level: float) -> float:
    """The positive ``t`` at which ``rise*t + t^2/2`` reaches ``level > 0``.

    Each sign of ``rise`` takes the root's form that does not cancel.
    """
    root = math.sqrt(rise * rise + 2.0 * level)
    return 2.0 * level / (root + rise) if rise > 0.0 else root - rise


def search_range(kappa: float, *, level: float, rise: float) -> tuple[int, int]:
    """The grid indices ``(lo, top)`` one side's search runs between.

    ``rise`` is ``W'`` at the anchor along the side, so ``W`` at distance
    ``t`` lies between ``rise*t + t^2/2`` and ``rise*t + kappa*t^2/2``.
    ``top`` is the first index at which the lower bound reaches ``level``;
    ``lo`` is the first at which the upper bound reaches it less the
    search's ``1e-9`` slack.  That margin is far wider than float rounding
    of the crossing, so no index below ``lo`` can reach the level.  ``top``
    is clamped to at least ``lo``.
    """
    return _search_range(math.log2(kappa) / 2, math.sqrt(kappa), level, rise)


def _search_range(half_log: float, root: float, level: float, rise: float) -> tuple[int, int]:
    """:func:`search_range` given ``log2(kappa)/2`` and ``sqrt(kappa)``."""
    top = math.ceil(half_log + math.log2(_crossing(rise, level)))
    # in grid units u = t sqrt(kappa) the upper bound is rise u / sqrt(kappa) + u^2/2
    lo = math.ceil(math.log2(_crossing(rise / root, level - 1e-9)))
    return lo, top if top > lo else lo


def threshold_searches(value, p: float, kappa: float, *, level: float, slope: float,
                       exact_edges: bool = False, clear: tuple[float, float] = (0.0, 0.0)):
    """Both threshold searches of the module docstring around the anchor ``p``.

    ``W(p) = 0`` and ``W'(p) = slope``; each side searches the range
    :func:`search_range` derives from the sandwich.  Searches right of ``p``
    first, then left; ``value`` is queried, and nothing else, for the pair
    that :func:`find_threshold_index` takes.
    Returns ``(left, right)``, each side as ``(edge, W(edge), probes)``, with
    the probes of :func:`find_threshold_index`: every grid index that side
    queried, mapped to ``(x, W(x))``, the edge among them.

    A side whose search ends at its ``top`` without querying it takes the
    sandwich's lower bound there, ``rise d + d^2/2`` at ``d = 2^top /
    sqrt(kappa)``, as ``W(edge)``: every class member reaches the level
    there, and a row built from a lower bound on W still dominates.  So a
    side whose edge is its top costs one query, none when ``lo = top``, and
    a side's worst case stays ``ceil(log2(top - lo + 1)) + 1`` queries.
    With ``exact_edges`` that edge is queried and checked instead: the 1D
    envelope's drift and offset need the exact ``W(edge)``, and that query
    is how a flat 1D target surfaces.

    ``clear`` holds, left then right, a distance from ``p`` out to which
    ``W`` is known to stay below the level, 0 where nothing is known: the
    line step's certificate-search probes below the level show it by
    convexity from ``W(p) = 0``.  Each side's search then skips, at no
    query, every grid index at that distance or nearer (the ``clear`` of
    :func:`find_threshold_index`), so it finds the same edge with no more
    queries.  The 1D sampler leaves both at 0.
    """
    half_log, root = math.log2(kappa) / 2, math.sqrt(kappa)
    clear_minus, clear_plus = clear
    lo, top = _search_range(half_log, root, level, slope)
    certified = None if exact_edges else _lower_bound(slope, top, root)
    i, w, probes = find_threshold_index(value, p, +1, kappa, level, lo, top, certified, clear_plus)
    right = probes[i][0], w, probes
    if slope != 0.0:  # a zero slope gives both sides the same sandwich
        lo, top = _search_range(half_log, root, level, -slope)
        certified = None if exact_edges else _lower_bound(-slope, top, root)
    i, w, probes = find_threshold_index(value, p, -1, kappa, level, lo, top, certified, clear_minus)
    return (probes[i][0], w, probes), right


def _lower_bound(rise: float, index: int, root: float) -> float:
    """The sandwich's lower bound ``rise*d + d^2/2`` at the grid index's ``d = 2^index / root``."""
    d = 2.0**index / root
    return rise * d + 0.5 * d * d


def build_envelope(oracle) -> Envelope:
    """Run both threshold searches and assemble the dominating function.

    The oracle must already answer V(x) - V(0) (see
    :func:`lcsampler.oracles.normalize_at_zero`); kappa is ``oracle.kappa``.
    Each search query reads V' with the value (``value_and_slope``), at no
    extra count, and a slope lets the searches skip probes whose outcome it
    decides.  For a class member the edges, their values and so the
    envelope are those of the same searches on values alone, and the
    queries never exceed theirs.  Either way they total at most ``2 *
    (ceil(log2(ceil(log2(kappa)/2) + 1)) + 1)``; the mass comes from the
    closed form, not from extra queries.
    """
    if not isinstance(oracle, _NormalizedOracle):
        raise UsageError("build_envelope needs a normalized oracle; wrap it with normalize_at_zero()")
    (x_minus, w_minus, _), (x_plus, w_plus, _) = threshold_searches(
        oracle.value_and_slope, 0.0, oracle.kappa, level=0.5, slope=0.0, exact_edges=True
    )
    return Envelope.from_geometry(x_minus, x_plus, w_minus / -x_minus, w_plus / x_plus,
                                  min(w_minus, w_plus))


def prepare_envelope(oracle):
    """Normalize a root oracle at the origin, then build the envelope at ``oracle.kappa``.

    Returns ``(normalized_oracle, envelope)``.  This is the whole
    query-metered construction pipeline: one normalization query plus the
    two threshold searches.
    """
    normalized = normalize_at_zero(oracle)
    return normalized, build_envelope(normalized)
