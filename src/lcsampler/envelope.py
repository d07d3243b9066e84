"""Construction of the dominating proposal for rejection sampling.

One search rule serves every envelope.  For a potential ``W`` with
``1 <= W'' <= kappa`` and ``W(p) = 0`` at an anchor ``p``, at least
``-floor`` everywhere, and whose minimizer lies within ``reach`` of ``p``,
:func:`threshold_searches` probes the dyadic offsets ``p + 2^j / sqrt(kappa)``
and ``p - 2^i / sqrt(kappa)`` for the first indices ``i, j >= lo`` at which
``W`` reaches ``level``; those are the edges.  As ``W(p + t) >= -floor + (t -
reach)^2/2``, the level is certain once ``t >= reach + sqrt(2 (level +
floor))``: the search stops at ``max(lo, ceil(log2(kappa)/2 + log2(reach +
sqrt(2 (level + floor)))))``, and a target that misses the level there is
outside the class.  The guarded dyadic binary search costs O(log log kappa)
queries.  It returns the edges and every value it queried on the way.

An :class:`Envelope` is a plateau of height ``h`` on ``[x_minus, x_plus]``
and, on each side, pieces running outward from the plateau edge, each

    q(x) = h * exp(-tail_offset - offset - drift*t - t^2/2),  t = distance to the piece's start,

up to the next piece's start; the last piece of each side is its unbounded
tail.  Every mass has a closed form, so normalization and sampling consume
no queries at all.

The 1D sampler anchors at ``p = 0`` on the normalized potential with level
1/2, floor 0, reach 0 and ``lo`` 0, and assembles the paper's envelope from
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
        if i not in probes:
            x = edge + side * 2.0**i / root
            probes[i] = (x, value(x))
        return probes[i][1]

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


@dataclass(frozen=True)
class Envelope:
    """The dominating function, its piece decomposition, and its exact mass.

    The six geometry fields give the plateau, the tails' drifts and the
    common ``tail_offset``.  ``pieces_minus`` and ``pieces_plus`` list a
    side's pieces outward as ``(start, offset, drift)``, each piece's offset
    counted on top of ``tail_offset``: the first starts at the plateau edge
    and the last, the tail, has the side's drift.  Left empty, a side is its
    one tail ``(edge, 0, drift)``.  The constructor checks that the plateau
    is nonempty, both drifts positive and the pieces in that order
    (UsageError), stores the six geometry fields as floats, and derives the
    closed-form piece masses, left to right, and their total.  Immutable
    after construction; sampling only reads fields, so independent random
    generators may share one envelope across threads.  Constants derived for
    sampling and evaluation (cut points, ``log(plateau_height)``,
    erfc(drift/sqrt(2)) per tail that starts at the plateau, the tails'
    starts and offsets, and the finite pieces between plateau and tail)
    take no part in equality or hashing.

    ``log_value`` and ``sample`` have a scalar path: a float in (or no
    ``size``) gives a float out through ``math`` and the generator's scalar
    draws, bitwise equal to the array path on the same input or stream.
    Both test the plateau and the tails first, and look up a finite piece
    only between them.
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
    _cut1: float = field(init=False, repr=False, compare=False)
    _cut2: float = field(init=False, repr=False, compare=False)
    _cut3: float = field(init=False, repr=False, compare=False)
    _log_height: float = field(init=False, repr=False, compare=False)
    # erfc(drift/sqrt(2)) for a tail's draws; None for a tail beyond finite
    # pieces, which holds little mass, so its rare draws compute it
    _erfc_minus: float | None = field(init=False, repr=False, compare=False)
    _erfc_plus: float | None = field(init=False, repr=False, compare=False)
    _tail_minus: float = field(init=False, repr=False, compare=False)
    _tail_plus: float = field(init=False, repr=False, compare=False)
    _tail_offset_minus: float = field(init=False, repr=False, compare=False)
    _tail_offset_plus: float = field(init=False, repr=False, compare=False)
    # The finite pieces between plateau and tails, set only when there are
    # any, as (side, start, end, offset, drift, length): per side outward,
    # and all of them, left side first, with their cumulative sampling cut
    # points.
    _inner_minus = _inner_plus = _inner = _inner_cuts = ()

    def __post_init__(self):
        set_field = object.__setattr__  # the class is frozen
        geometry = ("x_minus", "x_plus", "drift_minus", "drift_plus", "plateau_height", "tail_offset")
        for name in geometry:
            value = getattr(self, name)
            if type(value) is not float:
                set_field(self, name, float(value))
        if not self.x_minus < self.x_plus:
            raise UsageError(f"plateau must be nonempty, got [{self.x_minus}, {self.x_plus}]")
        if self.drift_minus <= 0 or self.drift_plus <= 0:
            raise UsageError("tail drifts must be positive")
        h = self.plateau_height
        tail_minus, offset_minus, inner_minus, masses_minus = self._side(
            -1, self.x_minus, self.drift_minus, self.pieces_minus
        )
        tail_plus, offset_plus, inner_plus, masses_plus = self._side(
            +1, self.x_plus, self.drift_plus, self.pieces_plus
        )
        left = h * math.exp(-offset_minus) * numerics.gaussian_tail_integral(self.drift_minus)
        plateau = h * (self.x_plus - self.x_minus)
        right = h * math.exp(-offset_plus) * numerics.gaussian_tail_integral(self.drift_plus)
        total = left + plateau + right
        masses = (left, plateau, right)
        cut3 = math.inf
        if inner_minus or inner_plus:
            running = total
            total += sum(masses_minus) + sum(masses_plus)
            cut3 = running / total
            cuts = []
            for mass in masses_minus + masses_plus:
                running += mass
                cuts.append(running / total)
            cuts[-1] = math.inf
            masses = (left, *reversed(masses_minus), plateau, *masses_plus, right)
        derived = {
            "piece_masses": masses,
            "mass_total": total,
            "_cut1": left / total,
            "_cut2": (left + plateau) / total,
            "_cut3": cut3,
            "_log_height": math.log(h),
            "_erfc_minus": None if inner_minus else numerics.normal_tail_erfc(self.drift_minus),
            "_erfc_plus": None if inner_plus else numerics.normal_tail_erfc(self.drift_plus),
            "_tail_minus": tail_minus,
            "_tail_plus": tail_plus,
            "_tail_offset_minus": offset_minus,
            "_tail_offset_plus": offset_plus,
        }
        if inner_minus or inner_plus:
            # last: instances keep CPython's shared attribute layout, and
            # its fast attribute reads, only while they add attributes in
            # one order
            derived.update(
                _inner_minus=inner_minus,
                _inner_plus=inner_plus,
                _inner=inner_minus + inner_plus,
                _inner_cuts=tuple(cuts),
            )
        for name, value in derived.items():
            set_field(self, name, value)

    def _side(self, side: int, edge: float, drift: float, pieces):
        """One side's tail start and offset, and its finite pieces and their masses.

        Raises UsageError unless the pieces start at ``edge``, run outward
        with nonnegative drifts and end in the tail's ``drift``.
        """
        if not pieces:
            return edge, self.tail_offset, (), []
        start, offset, s = pieces[0]
        if start != edge or pieces[-1][2] != drift:
            raise UsageError("a side's pieces must start at its edge and end in its tail's drift")
        tail_offset, h = self.tail_offset, self.plateau_height
        inner, masses = [], []
        for end, next_offset, next_s in pieces[1:]:
            length = side * (end - start)
            if not (length > 0.0 and s >= 0.0):
                raise UsageError("a side's pieces must run outward with nonnegative drifts")
            offset += tail_offset
            inner.append((side, start, end, offset, s, length))
            masses.append(h * math.exp(-offset) * numerics.gaussian_piece_integral(s, length))
            start, offset, s = end, next_offset, next_s
        return start, tail_offset + offset, tuple(inner), masses

    @classmethod
    def from_geometry(cls, *args, **kwargs) -> "Envelope":
        """The constructor under its older name."""
        return cls(*args, **kwargs)

    def log_value(self, x):
        if isinstance(x, float):
            if self.x_minus <= x <= self.x_plus:
                return self._log_height
            if x >= self._tail_plus:
                t = x - self._tail_plus
                return self._log_height + (
                    -self._tail_offset_plus - self.drift_plus * t - 0.5 * t * t
                )
            if x <= self._tail_minus:
                t = self._tail_minus - x
                return self._log_height + (
                    -self._tail_offset_minus - self.drift_minus * t - 0.5 * t * t
                )
            # between the plateau and a tail: a finite piece
            if x > self.x_plus:
                for _, start, end, offset, drift, _ in self._inner_plus:
                    if x < end:
                        break
                t = x - start
            else:  # NaN too, which ends in NaN through the left tail's constants
                start, offset, drift = self._tail_minus, self._tail_offset_minus, self.drift_minus
                for _, start, end, offset, drift, _ in self._inner_minus:
                    if x > end:
                        break
                t = start - x
            return self._log_height + (-offset - drift * t - 0.5 * t * t)
        xs = np.asarray(x, dtype=float)
        t_right = np.maximum(xs - self._tail_plus, 0.0)
        t_left = np.maximum(self._tail_minus - xs, 0.0)
        on_plateau = (xs >= self.x_minus) & (xs <= self.x_plus)
        tail = np.where(
            xs > self.x_plus,
            -self._tail_offset_plus - self.drift_plus * t_right - 0.5 * t_right * t_right,
            -self._tail_offset_minus - self.drift_minus * t_left - 0.5 * t_left * t_left,
        )
        for side, start, end, offset, drift, _ in self._inner:
            t = side * (xs - start)
            inside = (t >= 0.0) & (side * (xs - end) < 0.0)
            tail = np.where(inside, -offset - drift * t - 0.5 * t * t, tail)
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
                return self._tail_minus - numerics.sample_gaussian_tail(
                    self.drift_minus, rng, erfc_a=self._erfc_minus
                )
            if u < self._cut2:
                # rng.uniform(lo, hi) computes lo + (hi - lo) * random()
                return self.x_minus + (self.x_plus - self.x_minus) * rng.random()
            if u < self._cut3:
                return self._tail_plus + numerics.sample_gaussian_tail(
                    self.drift_plus, rng, erfc_a=self._erfc_plus
                )
            side, start, _, _, drift, length = self._inner[bisect_right(self._inner_cuts, u)]
            return start + side * numerics.sample_gaussian_piece(drift, length, rng)
        n = int(size)
        u = rng.random(n)
        out = np.empty(n)
        in_left = u < self._cut1
        in_mid = (~in_left) & (u < self._cut2)
        in_right = ~(in_left | in_mid) & (u < self._cut3)
        if in_left.any():
            t = numerics.sample_gaussian_tail(
                self.drift_minus, rng, size=int(in_left.sum()), erfc_a=self._erfc_minus
            )
            out[in_left] = self._tail_minus - t
        if in_mid.any():
            out[in_mid] = rng.uniform(self.x_minus, self.x_plus, size=int(in_mid.sum()))
        if in_right.any():
            t = numerics.sample_gaussian_tail(
                self.drift_plus, rng, size=int(in_right.sum()), erfc_a=self._erfc_plus
            )
            out[in_right] = self._tail_plus + t
        in_inner = ~(in_left | in_mid | in_right)
        if in_inner.any():
            which = np.searchsorted(self._inner_cuts, u, side="right")
            for j, (side, start, _, _, drift, length) in enumerate(self._inner):
                chosen = in_inner & (which == j)
                if chosen.any():
                    t = numerics.sample_gaussian_piece(drift, length, rng, size=int(chosen.sum()))
                    out[chosen] = start + side * t
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


def threshold_searches(
    value, p: float, kappa: float, *, level: float, floor: float, lo: int, reach: float
):
    """Both threshold searches of the module docstring around the anchor ``p``.

    Searches right of ``p`` first, then left; ``value`` is queried, and
    nothing else.  Returns ``(left, right)``, each side as ``(edge, W(edge),
    probes)``, with the probes of :func:`find_threshold_index`: every grid
    index that side queried, mapped to ``(x, W(x))``, the edge among them.
    """
    edge = math.log2(reach + math.sqrt(2.0 * (level + floor)))
    top = max(lo, math.ceil(math.log2(kappa) / 2 + edge))
    sides = []
    for side in (+1, -1):
        i, w, probes = find_threshold_index(value, p, side, kappa, level, lo, top)
        sides.append((probes[i][0], w, probes))
    right, left = sides
    return left, right


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
        oracle.value, 0.0, oracle.kappa, level=0.5, floor=0.0, lo=0, reach=0.0
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
