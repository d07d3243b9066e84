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
the edges and every value it queried on the way.

An :class:`Envelope` is a plateau of height ``h`` on ``[x_minus, x_plus]``
and, on each side, one table of rows ``(start, offset, drift)`` running
outward from the plateau edge, each offset counted down from ``log h``.  A
row holds from its start to the next row's start, at distance ``t`` from
its start,

    q(x) = h * exp(-offset - drift*t - t^2/2),

and the last row of each side is its unbounded tail.  The plateau and every
row are segments with closed-form masses, so normalization and sampling
consume no queries at all.

The 1D sampler anchors at ``p = 0`` on the normalized potential with level
1/2 and slope 0, so each side searches the paper's grid ``[0,
ceil(log2(kappa)/2)]``, and assembles the paper's envelope from
the two edges alone: plateau height 1 between them, and one tail per side
with drift ``W(x_plus) / (x_plus - p)`` (likewise on the left) and the one
``tail_offset`` ``min(W(x_minus), W(x_plus))``.  Convexity from ``W(p) = 0``
makes each drift a lower bound on the edge slope, and strong convexity adds
``t^2/2``, so ``W(x_plus + t) >= W(x_plus) + drift*t + t^2/2`` and the tails
dominate, touching the target at the edge with the smaller value.  The
Hit-and-Run line step assembles a tighter envelope from every probe (see
:func:`lcsampler.hitandrun.build_line_envelope`).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import ClassViolationError, UsageError


def find_threshold_index(
    value, edge: float, side: int, kappa: float, level: float, lo: int, hi: int
) -> tuple[int, float, dict[int, tuple[float, float]]]:
    """Smallest i in [lo, hi] with ``value(edge + side * 2^i / sqrt(kappa)) >= level``.

    Returns that index, the value queried there, and every probe: a dict
    from each grid index queried to ``(x, value(x))``, in which increasing
    indices run outward from ``edge``.  ``value`` must be
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
    probes: dict[int, tuple[float, float]] = {}

    def probe(i: int) -> float:
        known = probes.get(i)
        if known is None:
            x = edge + side * 2.0**i / root
            known = probes[i] = (x, value(x))
        return known[1]

    if lo == hi:
        ans = lo
    elif not probe(hi - 1) >= level:
        ans = hi
    else:  # hi - 1 is known true
        pivot = max(hi - 1 - (1 << ((hi - lo).bit_length() - 1)), lo)
        if probe(pivot) >= level:
            left, right = lo, pivot
        else:
            left, right = pivot + 1, hi - 1
        while left < right:
            mid = (left + right) // 2
            if probe(mid) >= level:
                right = mid
            else:
                left = mid + 1
        ans = left
    w = probe(ans)
    if not w >= level - 1e-9:
        raise ClassViolationError(
            f"no threshold index in [{lo}, {hi}] on side {side:+d} of {edge:g}; "
            "target violates the curvature sandwich",
            query_point=probes[ans][0],
        )
    return ans, w, probes


@dataclass(frozen=True, init=False)
class Envelope:
    """The dominating function, its segments, and its exact mass.

    The six geometry fields give the plateau, the tails' drifts and the
    common ``tail_offset``.  ``pieces_minus`` and ``pieces_plus`` list a
    side's pieces outward as ``(start, offset, drift)``, each piece's offset
    counted on top of ``tail_offset``: the first starts at the plateau edge
    and the last, the tail, has the side's drift.  Left empty, a side is its
    one tail ``(edge, 0, drift)``.  The constructor checks that the plateau
    is finite and nonempty, its height finite and positive, both drifts
    positive, every offset finite, the pieces in that order and the total
    mass finite (UsageError), stores the six geometry fields as floats, and
    derives the closed-form piece masses, left to right, and their total.
    Immutable after construction; sampling only reads fields, so
    independent random generators may share one envelope across threads.

    Each side is one table of rows ``(start, tail_offset + offset, drift)``
    running outward, the tail its last row.  A point off the plateau takes
    the row of the last start it has reached, so a boundary belongs to the
    plateau at ``x_minus`` and ``x_plus`` and to the outer piece at every
    other start.  Sampling picks a segment by mass from one cut list, in
    the order left tail, plateau, right tail, then the finite pieces, left
    side first and each side outward.  The tables take no part in equality
    or hashing.

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
    pieces_minus: tuple[tuple[float, float, float], ...] = ()
    pieces_plus: tuple[tuple[float, float, float], ...] = ()
    piece_masses: tuple[float, ...] = field(init=False)  # left to right
    mass_total: float = field(init=False)
    _log_height: float = field(init=False, repr=False, compare=False)
    # per side, the rows outward and the starts after the first, negated on
    # the left so that both sides bisect an ascending list
    _table_minus: tuple = field(init=False, repr=False, compare=False)
    _table_plus: tuple = field(init=False, repr=False, compare=False)
    # (start, side, drift, length, erfc) in sampling order and the share of
    # the mass up to the end of each; the plateau has no drift, a tail no
    # length
    _segments: tuple = field(init=False, repr=False, compare=False)
    _cuts: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, x_minus, x_plus, drift_minus, drift_plus, plateau_height=1.0,
                 tail_offset=0.0, pieces_minus=(), pieces_plus=()):
        x_minus, x_plus, h = float(x_minus), float(x_plus), float(plateau_height)
        drift_minus, drift_plus, tail_offset = float(drift_minus), float(drift_plus), float(tail_offset)
        if not -math.inf < x_minus < x_plus < math.inf:
            raise UsageError(f"plateau must be nonempty and finite: [{x_minus}, {x_plus}]")
        if not (drift_minus > 0 and drift_plus > 0):
            raise UsageError("tail drifts must be positive")
        if not 0.0 < h < math.inf:
            raise UsageError(f"plateau_height must be finite and positive, got {h}")
        if not math.isfinite(tail_offset):
            raise UsageError(f"tail_offset must be finite, got {tail_offset}")
        try:
            minus = _side(-1, x_minus, drift_minus, pieces_minus, h, tail_offset)
            plus = _side(+1, x_plus, drift_plus, pieces_plus, h, tail_offset)
        except OverflowError:  # math.exp of an offset below about -709
            raise UsageError("an offset is too far below zero for its mass to be a float") from None
        (table_minus, segments_minus, masses_minus), (table_plus, segments_plus, masses_plus) = minus, plus
        width = x_plus - x_minus
        left, plateau, right = masses_minus.pop(), h * width, masses_plus.pop()
        segments = (segments_minus.pop(), (x_minus, 1, None, width, None), segments_plus.pop())
        # the sums in this order fix mass_total and the cuts, and so every draw
        total = left + plateau + right + (sum(masses_minus) + sum(masses_plus))
        if not total < math.inf:
            raise UsageError(f"the envelope's mass must be finite, got {total}")
        running, cuts = 0.0, []
        for mass in (left, plateau, right, *masses_minus, *masses_plus):
            running += mass
            cuts.append(running / total)
        cuts[-1] = math.inf
        # frozen: the dataclass supplies eq, hash and repr, and each field is written once, here,
        # key by key in field order, so that every envelope's dict shares one key table
        fields = self.__dict__
        fields["x_minus"] = x_minus
        fields["x_plus"] = x_plus
        fields["drift_minus"] = drift_minus
        fields["drift_plus"] = drift_plus
        fields["plateau_height"] = h
        fields["tail_offset"] = tail_offset
        fields["pieces_minus"] = pieces_minus
        fields["pieces_plus"] = pieces_plus
        fields["piece_masses"] = (left, *reversed(masses_minus), plateau, *masses_plus, right)
        fields["mass_total"] = total
        fields["_log_height"] = math.log(h)
        fields["_table_minus"] = table_minus
        fields["_table_plus"] = table_plus
        fields["_segments"] = (*segments, *segments_minus, *segments_plus)
        fields["_cuts"] = tuple(cuts)

    @classmethod
    def from_geometry(cls, *args, **kwargs) -> "Envelope":
        """The constructor under its older name."""
        return cls(*args, **kwargs)

    def log_value(self, x):
        if isinstance(x, float):
            if self.x_minus <= x <= self.x_plus:
                return self._log_height
            if x > self.x_plus:
                rows, starts = self._table_plus
                start, offset, drift = rows[bisect_right(starts, x)]
                t = x - start
            else:  # NaN too, which ends in NaN in the left tail
                rows, starts = self._table_minus
                start, offset, drift = rows[bisect_right(starts, -x)]
                t = start - x
            return self._log_height + (-offset - drift * t - 0.5 * t * t)
        xs = np.asarray(x, dtype=float)
        out = np.full(xs.shape, np.nan)  # NaN reaches no start and stays NaN
        for side, (rows, starts) in ((-1, self._table_minus), (1, self._table_plus)):
            # the scalar path's row for each point; a point inside the
            # plateau or across it maps to the first row at t < 0
            which = np.searchsorted(starts, side * xs, side="right")
            for k, (start, offset, drift) in enumerate(rows):
                t = side * (xs - start)
                applies = (which == k) & (t >= 0.0)
                t = t[applies]
                out[applies] = self._log_height + (-offset - drift * t - 0.5 * t * t)
        out[(xs >= self.x_minus) & (xs <= self.x_plus)] = self._log_height
        return out if out.ndim else float(out)

    def value(self, x):
        out = np.exp(self.log_value(x))
        return out if np.ndim(out) else float(out)

    def sample(self, rng: np.random.Generator, size=None):
        """Exact draws from the normalized envelope; consumes no queries."""
        if size is None:
            start, side, drift, length, erfc = self._segments[bisect_right(self._cuts, rng.random())]
            if drift is None:
                return start + length * rng.random()
            if length is None:
                return start + side * numerics.sample_gaussian_tail(drift, rng, erfc_a=erfc)
            return start + side * numerics.sample_gaussian_piece(drift, length, rng)
        u = rng.random(int(size))
        which = np.searchsorted(self._cuts, u, side="right")
        out = np.empty(u.size)
        for j, (start, side, drift, length, erfc) in enumerate(self._segments):
            chosen = which == j
            n = int(np.count_nonzero(chosen))
            if not n:
                continue
            if drift is None:
                out[chosen] = start + length * rng.random(n)
            elif length is None:
                out[chosen] = start + side * numerics.sample_gaussian_tail(drift, rng, n, erfc_a=erfc)
            else:
                out[chosen] = start + side * numerics.sample_gaussian_piece(drift, length, rng, n)
        return out

    def to_json_dict(self) -> dict:
        doc = {
            "x_minus": self.x_minus,
            "x_plus": self.x_plus,
            "plateau_height": self.plateau_height,
            "tail_offset": self.tail_offset,
            "drifts": [self.drift_minus, self.drift_plus],
            "masses": list(self.piece_masses),
        }
        if self.pieces_minus or self.pieces_plus:
            doc["pieces"] = [[list(piece) for piece in self.pieces_minus],
                             [list(piece) for piece in self.pieces_plus]]
        return doc


def _side(side: int, edge: float, drift: float, pieces, h: float, tail_offset: float):
    """One side's table of rows and starts, and its segments and their masses, the tail last.

    Raises UsageError unless the pieces start at ``edge``, run outward
    with nonnegative drifts and finite offsets, and end in ``drift``.
    """
    pieces = pieces or ((edge, 0.0, drift),)
    if pieces[0][0] != edge or pieces[-1][2] != drift or not math.isfinite(pieces[-1][1]):
        raise UsageError("a side's pieces must start at its edge and end in its tail's drift, "
                         "at a finite offset")
    rows, starts, segments, masses = [], [], [], []
    start, offset, s = pieces[0]
    for end, next_offset, next_s in pieces[1:]:
        length = side * (end - start)
        if not (length > 0.0 and s >= 0.0 and math.isfinite(offset)):
            raise UsageError(
                "a side's pieces must run outward with nonnegative drifts and finite offsets"
            )
        offset += tail_offset
        rows.append((start, offset, s))
        starts.append(side * end)
        segments.append((start, side, s, length, None))
        masses.append(h * math.exp(-offset) * numerics.gaussian_piece_integral(s, length))
        start, offset, s = end, next_offset, next_s
    offset += tail_offset
    rows.append((start, offset, s))
    # a tail beyond finite pieces holds little mass, so its rare draws
    # compute erfc(drift/sqrt(2)) themselves
    segments.append((start, side, s, None, None if segments else numerics.normal_tail_erfc(s)))
    masses.append(h * math.exp(-offset) * numerics.gaussian_tail_integral(s))
    return (rows, starts), segments, masses


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
    top = math.ceil(math.log2(kappa) / 2 + math.log2(_crossing(rise, level)))
    # in grid units u = t sqrt(kappa) the upper bound is rise u / sqrt(kappa) + u^2/2
    lo = math.ceil(math.log2(_crossing(rise / math.sqrt(kappa), level - 1e-9)))
    return lo, top if top > lo else lo


def threshold_searches(value, p: float, kappa: float, *, level: float, slope: float):
    """Both threshold searches of the module docstring around the anchor ``p``.

    ``W(p) = 0`` and ``W'(p) = slope``; each side searches the range
    :func:`search_range` derives from the sandwich.  Searches right of ``p``
    first, then left; ``value`` is queried, and nothing else.  Returns
    ``(left, right)``, each side as ``(edge, W(edge), probes)``, with the
    probes of :func:`find_threshold_index`: every grid index that side
    queried, mapped to ``(x, W(x))``, the edge among them.
    """
    lo, top = search_range(kappa, level=level, rise=slope)
    i, w, probes = find_threshold_index(value, p, +1, kappa, level, lo, top)
    right = probes[i][0], w, probes
    if slope != 0.0:  # a zero slope gives both sides the same sandwich
        lo, top = search_range(kappa, level=level, rise=-slope)
    i, w, probes = find_threshold_index(value, p, -1, kappa, level, lo, top)
    return (probes[i][0], w, probes), right


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
    (x_minus, w_minus, _), (x_plus, w_plus, _) = threshold_searches(
        oracle.value, 0.0, oracle.kappa, level=0.5, slope=0.0
    )
    return Envelope(
        x_minus=x_minus,
        x_plus=x_plus,
        drift_minus=w_minus / -x_minus,
        drift_plus=w_plus / x_plus,
        plateau_height=1.0,
        tail_offset=min(w_minus, w_plus),
    )


def prepare_envelope(oracle):
    """Normalize at the origin, then build the envelope at ``oracle.kappa``.

    Returns ``(normalized_oracle, envelope)``.  This is the whole
    query-metered construction pipeline: one normalization query plus the
    two threshold searches.
    """
    from .oracles import normalize_at_zero

    normalized = oracle if getattr(oracle, "is_normalized", False) else normalize_at_zero(oracle)
    return normalized, build_envelope(normalized)
