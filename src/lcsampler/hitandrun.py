"""Hit-and-Run with an exact line-sampling step built on a gradient certificate.

Each step draws a uniform direction and restricts the d-dimensional
potential to the line through the current point.  Along a unit direction the
restriction W keeps the curvature sandwich ``1 <= W'' <= kappa``, and one
query at a point p gives both ``W(p)`` and ``g = W'(p)``.  Strong convexity
then bounds the minimum from below, ``W(p) - W* <= g^2/2``, and places the
minimizer between ``p - g`` and ``p - g/kappa``, within ``|g|`` of p.  A point with
``|g| <= 1`` is therefore a certificate: ``W - W(p) >= -1/2`` everywhere.

The line step has three parts:

* :func:`bracket_minimizer` searches for a certificate from the chain's
  current point, at ``lam = 0`` on its line.  That point is the previous
  step's accepted rejection trial, whose one query returned the value and
  the gradient there, so the search starts from that answer, a
  :class:`Probe`, and queries nothing for it; only a chain's first step
  queries its start.  There ``|W'|`` is usually already at most 1;
  otherwise ``W'(p - g)`` has the sign opposite to g, and safeguarded
  regula falsi on W' between the two, with bisection as the fallback,
  finds one.  It returns the certificate and its other probes, every one
  checked against the certificate's sandwich.
* :func:`build_line_envelope` shifts W by the ``W(p)`` it already holds and
  runs the shared threshold searches
  :func:`lcsampler.envelope.threshold_searches` around p, with level 3 and
  the certificate's slope g.  Each side searches only the range that the
  sandwich ``g t + t^2/2 <= W(p + t) <= g t + kappa t^2/2`` leaves open, and
  a search that ends at the range's top without querying it takes the
  sandwich's lower bound there as its value: on a line of curvature 1 that
  is one query a side, at the index below the top.  The certificate
  search's probes lie on the same line, so they feed the searches too:
  convexity from ``W(p) = 0`` keeps W below the level 3 out to a probe
  below it, so each grid index no farther from p than that side's farthest
  such probe costs no query.  The search keeps its probe order and finds
  the same edge, so neither its worst case ``ceil(log2(top - lo + 1)) + 1``
  a side nor any line's count rises.  It assembles the envelope from every
  value the searches and the certificate search hold, not just the two
  edges, with the strong-convexity bounds of adaptive rejection sampling,
  as rows (:class:`lcsampler.envelope.Envelope`) whose offsets count down
  from the plateau's ``log h = g^2/2``:

  - The tangent ``exp(-g t - t^2/2)``, from ``W(p + t) >= g t + t^2/2``,
    peaks at ``h = e^(g^2/2)`` at the mean ``m = p - g``.  On the side of p
    away from m it is one row ``(c, (c - m)^2/2, |c - m|)``, from a start c
    out to that side's innermost probe with ``W > 0``.  c is m, or p when
    the innermost probe with ``W > 0`` on the mean's side lies between m
    and p; the drift is never negative.
  - The plateau of height ``h >= exp(-W)`` stays on the mean's side, from
    that innermost probe with ``W > 0`` to c.  The tangent would fit there
    too, but an envelope with no flat segment is exact on every line of
    curvature 1, so its computed acceptance would be 1 up to rounding; the
    benchmark's traced gate still asks for a value below 1.
  - From each probe x_k with ``w_k = W(x_k) > 0`` at distance ``d_k`` from
    p to the next probe outward, the envelope is ``exp(-w_k - s_k t -
    t^2/2)``, the row ``(x_k, w_k + g^2/2, s_k)`` with ``s_k = w_k/d_k +
    d_k/2``: strong convexity between p and x_k gives ``0 = W(p) >= w_k -
    W'(x_k) d_k + d_k^2/2``, so ``W'(x_k) >= s_k``, and then ``W(x_k + t) >=
    w_k + s_k t + t^2/2``.  The outermost row is the unbounded tail.  The
    probes are the threshold searches' and the certificate search's alike,
    in outward order.
  - Every step of that derivation holds for any ``w_k <= W(x_k)``, so an
    edge the search took at the top unqueried gives its row from the lower
    bound ``w_top = g d + d^2/2`` (``d = 2^top / sqrt(kappa)``, g signed
    along the side).  On a line of curvature 1 that bound is W itself.

  This envelope is nowhere above the one the two edges alone give with the
  values the searches hold there (plateau ``e^(1/2)`` between them, tails
  ``exp(-min(w_edge) - (w_edge/d_edge) t - t^2/2)``), so against those edges
  the acceptance rate on a line never falls; the argument never uses where
  a probe sits, and the certificate search's probes move neither edge nor
  its value.  Between the edges the
  plateau, the tangent row (at most ``e^(g^2/2)``) and every probe's row
  (at most ``e^(-w_k) < 1``) lie below ``e^(1/2)``.  At the edge ``s_edge >
  w_edge/d_edge``.  Past an outer probe x_2 its row lies below the inner
  probe's, because ``w_2`` is at least the inner bound at x_2 and ``s_2 >=
  s_1 + d_2 - d_1``: ``W(p + d) - d^2/2`` is convex and 0 at p, so its chord
  slope from p grows.  Where a bound stands in for a queried edge value the
  envelope can lie above the queried edges' one near that edge, and no
  bound on its mass against them is proved; the tests measure it on random
  lines instead.
* Rejection against that envelope draws the step size exactly.  The
  trials query the line's one view, the :class:`CertifiedLine` that
  :func:`build_line_envelope` returns and that the searches asked for
  values alone.  Each trial asks it for the value and the gradient in one
  query, and only the trials set its ``last``: the accepted trial's
  queried point, value and gradient, the next step's :class:`Probe`.  The
  oracle is deterministic, so that reused answer is the one a fresh query
  at the same point would give, and the kernel is Smith's (1984)
  Hit-and-Run kernel either way.

The envelope dominates any restriction that keeps the curvature sandwich
around the certificate, so a target outside the class could pass silently.
Instead every line value the step queries or reuses, in the search, the
threshold search and each rejection trial, is checked against the sandwich
the certificate implies, ``g t + t^2/2 <= W(p + t) - W(p) <= g t + kappa
t^2/2``, and a miss raises ClassViolationError.  All oracle traffic goes
through one counter, so per-step query costs are measurable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .envelope import Envelope, threshold_searches
from .errors import ClassViolationError, UsageError
from .rejection import sample_exact

# Relative slack of the sandwich checks, for float noise in class members
# that sit exactly on a bound (curvature 1 or kappa).
_SLACK = 1e-9
_FLOAT = np.dtype(float)
# The line envelope's threshold: each side's search finds the first grid
# offset from the certificate where the shifted restriction reaches it
_LEVEL = 3.0


class MultivariateOracle:
    """Query-counting oracle for a d-dimensional potential.

    One call returns ``(value, gradient)``, or ``(value, None)`` without
    computing the gradient when ``gradient`` is false, and increments the
    counter by exactly one.  The potential must satisfy ``V(0) = 0`` and
    ``grad V(0) = 0`` with directional curvature in ``[1, kappa]`` along
    every unit direction.
    """

    def __init__(self, value_fn, grad_fn, dimension: int, kappa: float):
        if dimension < 1:
            raise UsageError(f"dimension must be positive, got {dimension}")
        if not 1.0 <= kappa < math.inf:
            raise UsageError(f"kappa must be finite and at least 1, got {kappa}")
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self.dimension = int(dimension)
        self.kappa = float(kappa)
        self._count = 0
        origin = np.zeros(self.dimension)
        if abs(float(value_fn(origin))) > 1e-9:
            raise UsageError("potential must vanish at the origin")
        if float(np.linalg.norm(grad_fn(origin))) > 1e-9:
            raise UsageError("potential must have zero gradient at the origin")

    @property
    def query_count(self) -> int:
        return self._count

    def query(self, x: np.ndarray, gradient: bool = True) -> tuple[float, np.ndarray | None]:
        self._count += 1
        if type(x) is not np.ndarray or x.dtype is not _FLOAT:  # a float array passes as it is
            x = np.asarray(x, dtype=float)
        value = float(self._value_fn(x))
        if not gradient:
            return value, None
        return value, np.asarray(self._grad_fn(x), dtype=float)


def quadratic_oracle(diagonal, kappa: float | None = None) -> MultivariateOracle:
    """Oracle for ``V(x) = x' diag(d) x / 2``; kappa defaults to max(d).

    Every curvature and kappa must be finite, and kappa at least 1
    (UsageError); the curvatures must then lie in ``[1, kappa]``, the class
    the line step assumes (ClassViolationError otherwise).
    """
    diag = np.asarray(diagonal, dtype=float)
    if diag.size == 0:
        raise UsageError("need at least one diagonal curvature")
    if not np.isfinite(diag).all():
        bad = diag[~np.isfinite(diag)][0]
        raise UsageError(f"every curvature must be finite, got {bad}")
    kappa = float(diag.max()) if kappa is None else float(kappa)
    if not 1.0 <= kappa < math.inf:
        raise UsageError(f"kappa must be finite and at least 1, got {kappa}")
    if not (diag.min() >= 1.0 and diag.max() <= kappa):
        raise ClassViolationError(
            f"curvature range [{diag.min():g}, {diag.max():g}] escapes [1, {kappa:g}]"
        )
    return MultivariateOracle(
        value_fn=lambda x: 0.5 * float(x.dot(diag * x)),
        grad_fn=lambda x: diag * x,
        dimension=diag.size,
        kappa=kappa,
    )


class Probe(NamedTuple):
    """One multivariate query's answer: the queried point array, V there and grad V there."""

    point: np.ndarray
    value: float
    gradient: np.ndarray


class Certificate(NamedTuple):
    """A point ``lam`` on a line with ``W(lam)`` and ``W'(lam)``.

    :func:`bracket_minimizer` returns one with ``|slope| <= 1``.
    """

    lam: float
    value: float
    slope: float

    def check(self, lam: float, value: float, kappa: float) -> None:
        """Raise ClassViolationError unless ``W(lam) = value`` fits the sandwich at this point."""
        p, w, g = self
        t = lam - p
        rise = value - w
        # kappa * t first, the order an in-class value uses: t * t underflows
        # to zero where kappa * t * t is still a normal float
        linear, curved = g * t, 0.5 * (kappa * t) * t
        low, high = linear + 0.5 * t * t, linear + curved
        slack = _SLACK * (abs(value) + abs(w) + abs(linear) + curved)
        if not low - slack <= rise <= high + slack:
            raise ClassViolationError(
                f"W({lam:g}) - W({p:g}) = {rise:.6g} escapes the curvature sandwich "
                f"[{low:.6g}, {high:.6g}] that W'({p:g}) = {g:.6g} and "
                f"kappa = {kappa:g} imply",
                query_point=lam,
            )


# the per-step and per-trial constructors, without NamedTuple's Python-level __new__
_probe = partial(tuple.__new__, Probe)
_certificate = partial(tuple.__new__, Certificate)


class LineOracle:
    """1D view W(lam) = V(base + lam * u); one multivariate query per call.

    A unit-direction restriction keeps the sandwich [1, kappa], so ``kappa``
    is the multivariate oracle's.  :meth:`query` answers the value and the
    slope, which the certificate search reads.
    """

    def __init__(self, oracle: MultivariateOracle, base, direction):
        self._oracle = oracle
        self.kappa = oracle.kappa
        self.base = np.asarray(base, dtype=float)
        self.direction = np.asarray(direction, dtype=float)

    def point(self, lam: float) -> np.ndarray:
        return self.base + lam * self.direction

    def query(self, lam: float) -> tuple[float, float]:
        value, grad = self._oracle.query(self.point(float(lam)))
        return value, float(self.direction.dot(grad))


class CertifiedLine:
    """A line's one view around a certificate p: W shifted by ``W(p)``.

    Each value is checked against the sandwich the certificate implies
    (:meth:`Certificate.check`).  The searches query :meth:`level`, the
    value alone, answered as the pair ``(W, None)``; the rejection trials
    query :meth:`value`, the value and the gradient, and only it sets
    ``last``, a :class:`Probe` of the queried point array.
    """

    last: Probe | None = None
    point = LineOracle.point

    def __init__(self, line: LineOracle, certificate: Certificate):
        self._oracle, self.kappa = line._oracle, line.kappa
        self.base, self.direction = line.base, line.direction
        self.shift = certificate.value
        self.certificate = certificate

    def level(self, lam: float) -> tuple[float, None]:
        value = self._oracle.query(self.base + lam * self.direction, gradient=False)[0]
        self.certificate.check(lam, value, self.kappa)
        return value - self.shift, None

    def value(self, lam: float) -> float:
        point = self.base + lam * self.direction
        value, gradient = self._oracle.query(point)
        self.certificate.check(lam, value, self.kappa)
        self.last = _probe((point, value, gradient))
        return value - self.shift


def restrict(oracle: MultivariateOracle, x_t, u) -> LineOracle:
    """Restrict the potential to the line through x_t with unit direction u.

    The line's ``base`` is x_t itself, so ``point(0)`` is x_t bitwise and an
    answer already queried there is exactly the line's answer at 0.
    """
    u = np.asarray(u, dtype=float)
    norm = math.sqrt(float(u.dot(u)))
    if norm == 0.0:
        raise UsageError("direction must be nonzero")
    if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails this too
        raise UsageError(f"direction must be a unit vector, |u| = {norm}")
    return LineOracle(oracle, x_t, u)


def bracket_minimizer(
    line: LineOracle, start: float, first: Certificate | None = None
) -> tuple[Certificate, tuple[Certificate, ...]]:
    """A certificate for the line: a queried point p with ``|W'(p)| <= 1``.

    Returns the certificate and a tuple of the search's other probes, each a
    :class:`Certificate` of its point and each checked against the
    certificate's sandwich (empty when the first probe is the certificate).

    Queries ``start`` first, unless ``first`` is given: the line's answer
    at ``start`` from a query already made, taken as the first probe
    without a query.  If ``|g| > 1`` there, strong convexity gives
    ``W'(start - g)`` the opposite sign, and regula falsi on W' between the
    two ends takes over; a secant step that fails to halve the bracket is
    followed by a bisection, and a secant point that rounds onto or past an
    end of the bracket is replaced by one, so every two probes at least
    halve it.  A class member has ``|W'| <= 1`` within ``1/kappa`` of its
    minimizer, so the search ends before the bracket is narrower than
    ``2/kappa``, after at most ``2 + 2*max(0, ceil(log2(kappa*|g|/2)))``
    queries, whether or not the replacement fires: it halves the bracket
    with one probe.  With ``first`` given that bound is ``1 +
    2*max(0, ceil(log2(kappa*|g|/2)))``, and no query at all when ``|g| <=
    1``.

    Raises ClassViolationError when the far end's slope has the sign of g,
    when the bracket falls below ``1/kappa`` (W' is steeper than kappa
    allows), or when a probed value escapes the sandwich of the
    certificate found, or when W' rises faster than kappa allows (with the
    slack of :meth:`Certificate.check`) between two adjacent doubles at
    least ``1/kappa`` apart; a smaller rise there is a UsageError: double
    precision cannot resolve the line.  So is a first slope g with ``kappa
    g^2`` past the float range: the far probe lies ``|g|`` away, where the
    sandwich lets an in-class W rise by ``kappa g^2/2``, and twice that (a
    quadratic's ``x' D x``) may overflow, so the search raises before it
    queries there.
    """
    kappa = line.kappa
    if first is None:
        start = float(start)
        first = _certificate((start, *line.query(start)))
    if abs(first.slope) <= 1.0:
        return first, ()
    if kappa * first.slope * first.slope == math.inf:
        raise UsageError(
            f"W'({first.lam:g}) = {first.slope:.6g} puts the far probe where kappa * W'^2 "
            f"overflows a float; kappa = {kappa:g} needs more than double precision"
        )
    far = _certificate((first.lam - first.slope, *line.query(first.lam - first.slope)))
    probes = [first, far]
    if far.slope * first.slope > 0.0 and abs(far.slope) > 1.0:
        raise ClassViolationError(
            f"W'({first.lam:g}) = {first.slope:.6g} and W'({far.lam:g}) = "
            f"{far.slope:.6g} share a sign; the restriction is not 1-strongly convex",
            query_point=far.lam,
        )
    lo, hi = sorted((first, far))
    bisect = False
    while abs(probes[-1].slope) > 1.0:
        width = hi.lam - lo.lam
        lam = 0.5 * (lo.lam + hi.lam)
        if not bisect:
            secant = lo.lam - lo.slope * width / (hi.slope - lo.slope)
            if lo.lam < secant < hi.lam:  # else it rounded onto or past an end: bisect
                lam = secant
        if not (width >= 1.0 / kappa and lo.lam < lam < hi.lam):
            # between adjacent doubles 1/kappa apart or more, only a rise
            # steeper than kappa proves a violation
            steep = kappa * width
            slack = _SLACK * (abs(lo.slope) + abs(hi.slope) + steep)
            if width >= 1.0 / kappa and hi.slope - lo.slope <= steep + slack:
                raise UsageError(
                    f"W' rises from {lo.slope:.6g} to {hi.slope:.6g} between adjacent doubles "
                    f"{lo.lam:.17g} and {hi.lam:.17g}; kappa = {kappa:g} needs more than double precision"
                )
            raise ClassViolationError(
                f"W' rises from {lo.slope:.6g} to {hi.slope:.6g} across "
                f"[{lo.lam:.17g}, {hi.lam:.17g}], steeper than kappa = {kappa:g} allows",
                query_point=lam,
            )
        probe = _certificate((lam, *line.query(lam)))
        probes.append(probe)
        lo, hi = (probe, hi) if probe.slope < 0.0 else (lo, probe)
        bisect = not bisect and hi.lam - lo.lam > 0.5 * width
    *probes, certificate = probes
    for probe in probes:
        certificate.check(probe.lam, probe.value, kappa)
    return certificate, tuple(probes)


def build_line_envelope(
    line: LineOracle, certificate: Certificate, probes=()
) -> tuple[Envelope, CertifiedLine]:
    """The envelope of the module docstring for the restriction shifted by ``W(p)``.

    The shifted restriction is 0 at p with slope ``g``, and the searches'
    edges are the first dyadic offsets from p where it reaches 3, each
    side searched only where the certificate's sandwich leaves that edge
    open.  An edge at the top of its range that the search did not query
    takes the sandwich's lower bound there, which gives a dominating row
    like a queried value, so a line of curvature 1 costs one query a side.
    ``probes`` are the certificate search's other points on the line, as
    :func:`bracket_minimizer` returns them, each already checked against the
    certificate.  On each side the farthest one below the level clears the
    grid out to it, so that side's search skips those indices at no query,
    and each one above 0 adds its row among the grid's.  Neither moves an
    edge or its value, so the searches' worst case stays ``ceil(log2(top -
    lo + 1)) + 1`` queries a side, and no line costs more queries than
    without the probes.  The shift, the probes and the rows cost no query.
    Returns the envelope and the line's one view, the
    :class:`CertifiedLine` the rejection trials query; the searches asked
    it for values alone, so its ``last`` is still None.
    """
    view = CertifiedLine(line, certificate)
    p, slope = certificate.lam, certificate.slope
    floor = 0.5 * slope * slope
    clear, extra_minus, extra_plus = (0.0, 0.0), (), ()
    if probes:
        clear, extra_minus, extra_plus = _bracket_rows(p, certificate.value, floor, probes)
    (_, _, probes_minus), (_, _, probes_plus) = threshold_searches(
        view.level, p, line.kappa, level=_LEVEL, slope=slope, clear=clear
    )
    rows_minus, rows_plus = _rows(p, probes_minus, floor), _rows(p, probes_plus, floor)
    if extra_minus:  # the certificate search's rows merged in outward
        rows_minus = _merged(rows_minus, extra_minus, True)
    if extra_plus:
        rows_plus = _merged(rows_plus, extra_plus, False)
    # the tangent row runs away from the mean p - g, from the mean, or from
    # p when the mean side's plateau edge lies between the mean and p
    mean = p - slope
    if slope >= 0.0:
        tangent = (mean, 0.0, 0.0) if rows_minus[0][0] < mean else (p, floor, slope)
        rows_plus = (tangent, *rows_plus)
    else:
        tangent = (mean, 0.0, 0.0) if rows_plus[0][0] > mean else (p, floor, -slope)
        rows_minus = (tangent, *rows_minus)
    return Envelope(math.exp(floor), rows_minus, rows_plus), view


def _bracket_rows(p: float, shift: float, floor: float, probes):
    """What the certificate search's probes give each side of p: how far it is clear, and rows.

    Returns ``[clear_minus, clear_plus]``, each side's farthest distance
    from p at which the shifted value lies below the level (0 with none),
    then the rows of :func:`_rows` of the probes left of p and right of it
    with ``W > 0``, in no particular order.
    """
    clear, rows = [0.0, 0.0], ([], [])
    for lam, value, _ in probes:
        w, side, d = value - shift, lam > p, abs(lam - p)
        if w < _LEVEL and d > clear[side]:
            clear[side] = d
        if w > 0.0:
            rows[side].append((lam, w + floor, w / d + 0.5 * d))
    return clear, rows[0], rows[1]


def _merged(rows, extra, reverse: bool):
    """``rows`` with the rows ``extra`` merged in by start, ascending or ``reverse``d.

    A start that both hold keeps the row of ``rows``: an edge the search
    took unqueried at its top holds the sandwich's bound there, which the
    queried value of a probe at the same point may exceed.
    """
    return tuple(sorted({row[0]: row for row in (*extra, *rows)}.values(), reverse=reverse))


def _rows(p: float, probes, floor: float) -> tuple[tuple[float, float, float], ...]:
    """The row ``(x_k, w_k + floor, w_k/d_k + d_k/2)`` of each probe outward with ``w_k > 0``.

    ``probes`` maps grid indices, which run outward, to ``(x, W(x))``, and
    ``floor`` is the plateau's ``log h``.
    """
    rows = []
    for i in sorted(probes):
        x, w = probes[i]
        if w > 0.0:
            d = abs(x - p)
            rows.append((x, w + floor, w / d + 0.5 * d))
    return tuple(rows)


@dataclass(frozen=True)
class ChainResult:
    positions: np.ndarray  # (steps + 1, d)
    step_queries: np.ndarray  # (steps,)
    # the final position's Probe, which a further chunk can start from; None
    # when the chain took no step from a point array
    last: Probe | None = None

    @property
    def mean_queries_per_step(self) -> float:
        return float(self.step_queries.mean()) if self.step_queries.size else 0.0


def step(
    oracle: MultivariateOracle,
    x,
    rng: np.random.Generator,
    direction=None,
) -> Probe:
    """One Hit-and-Run transition from ``x`` with an exact step-size draw.

    The step size comes from the density proportional to the target
    restricted to the chosen line, sampled by rejection against the line
    envelope, so the transition kernel is exact.  ``x`` is a point, which
    the certificate search queries first, or the :class:`Probe` a previous
    step returned, whose answer it reuses; a point that is not a finite
    vector of the oracle's dimension is a UsageError.  ``direction`` overrides the
    uniform draw (used by diagnostics).  Returns the accepted trial's
    :class:`Probe`: its ``point`` is the new position.
    """
    if direction is None:
        g = rng.standard_normal(oracle.dimension)
        while (norm := math.sqrt(float(g.dot(g)))) < 1e-12:
            g = rng.standard_normal(oracle.dimension)
        u = g / norm
    else:
        u = np.asarray(direction, dtype=float)
    first = None
    if isinstance(x, Probe):
        first = _certificate((0.0, x.value, float(u.dot(x.gradient))))
        x = x.point
    else:
        x = _start_point(oracle, x)
    line = restrict(oracle, x, u)
    certificate, probes = bracket_minimizer(line, 0.0, first)
    env, view = build_line_envelope(line, certificate, probes)
    sample_exact(view, env, rng)
    return view.last


def _start_point(oracle: MultivariateOracle, x) -> np.ndarray:
    """``x`` as a float array, UsageError unless it is a finite point of the oracle's dimension."""
    try:
        point = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"the start point must be a vector of floats: {exc}") from None
    if point.shape != (oracle.dimension,):
        raise UsageError(f"the start point must have shape ({oracle.dimension},), got {point.shape}")
    if not np.isfinite(point).all():
        bad = point[~np.isfinite(point)][0]
        raise UsageError(f"every coordinate of the start point must be finite, got {bad}")
    return point


def run_chain(
    oracle: MultivariateOracle,
    x0,
    steps: int,
    rng: np.random.Generator,
) -> ChainResult:
    """Run the chain and record the trajectory and per-step query counts.

    Each step hands its accepted trial's :class:`Probe` to the next, so only
    the first step queries its start point, and not even that one when
    ``x0`` is a :class:`Probe`: a chain run in chunks passes each chunk's
    ``last`` to the next and takes the same steps as one unbroken chain.  A
    point ``x0`` must be a finite vector of the oracle's dimension
    (UsageError), checked before any query.
    """
    if steps < 0:
        raise UsageError("steps must be nonnegative")
    try:
        positions = np.empty((steps + 1, oracle.dimension))
        step_queries = np.empty(steps, dtype=int)
    except (MemoryError, ValueError) as exc:
        raise UsageError(f"a chain of {steps} steps is too long to record: {exc}") from exc
    if not isinstance(x0, Probe):
        x0 = _start_point(oracle, x0)
    positions[0] = x0.point if isinstance(x0, Probe) else x0
    state = x0 if isinstance(x0, Probe) else positions[0]
    before = oracle.query_count
    for t in range(steps):
        state = step(oracle, state, rng)
        positions[t + 1] = state.point
        step_queries[t] = (after := oracle.query_count) - before
        before = after
    last = state if isinstance(state, Probe) else None
    return ChainResult(positions=positions, step_queries=step_queries, last=last)
