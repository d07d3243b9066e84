"""Hit-and-Run with an exact line-sampling step built on a gradient certificate.

Each step draws a uniform direction and restricts the d-dimensional
potential to the line through the current point.  Along a unit direction the
restriction W keeps the curvature sandwich ``1 <= W'' <= kappa``, and one
query at a point p gives both ``W(p)`` and ``g = W'(p)``.  Strong convexity
then bounds the minimum from below, ``W(p) - W* <= g^2/2``, and places the
minimizer between ``p - g`` and ``p - g/kappa``, within ``|g|`` of p.  Every
queried point is therefore a certificate, ``W - W(p) >= -g^2/2`` everywhere,
and the line step asks for one with ``|g| <= B``: ``W - W(p) >= -B^2/2``,
or, where no double lies between the search's ends, the flatter end if ``|g| <= 2B``.
``B = 2`` (a floor of 2) above ``kappa = 8/3``, where the level-3 sandwich
of a zero-slope certificate leaves the threshold searches' edges open and a
steep start's bracket costs ``O(log kappa |g|)`` queries; ``B = 1`` (a floor
of 1/2) up to it, where a certificate near the minimizer leaves the searches
nothing to query and the bracket's far probe is the envelope's only query.

The search-first line step has three parts:

* :func:`bracket_minimizer` searches for a certificate from the chain's
  current point, at ``lam = 0`` on its line.  That point is the previous
  step's accepted rejection trial, whose one query returned the value and
  the gradient there, so the search starts from that answer, a
  :class:`Probe`, and queries nothing for it; only a chain's first step
  queries its start.  There ``|W'|`` is usually already at most B;
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
    probes are the threshold searches' and the certificate search's alike:
    each side's are merged outward and pass through this one rule, and
    where both hold a point the threshold search's value stands.
  - Every step of that derivation holds for any ``w_k <= W(x_k)``, so an
    edge the search took at the top unqueried gives its row from the lower
    bound ``w_top = g d + d^2/2`` (``d = 2^top / sqrt(kappa)``, g signed
    along the side).  On a line of curvature 1 that bound is W itself.

  This envelope is nowhere above the one the two edges alone give with the
  values the searches hold there (plateau ``e^f`` between them, ``f =
  max(1/2, g^2/2)``, tails ``exp(-min(w_edge) - (w_edge/d_edge) t -
  t^2/2)``), so against those edges
  the acceptance rate on a line never falls; the argument never uses where
  a probe sits, and the certificate search's probes move neither edge nor
  its value.  Between the edges the
  plateau, the tangent row (at most ``e^(g^2/2)``) and every probe's row
  (at most ``e^(-w_k) < 1``) lie below ``e^f``.  At the edge ``s_edge >
  w_edge/d_edge``.  Past an outer probe x_2 its row lies below the inner
  probe's, because ``w_2`` is at least the inner bound at x_2 and ``s_2 >=
  s_1 + d_2 - d_1``: ``W(p + d) - d^2/2`` is convex and 0 at p, so its chord
  slope from p grows.  Where a bound stands in for a queried edge value the
  envelope can lie above the queried edges' one near that edge, and no
  bound on its mass against them is proved; the tests measure it on random
  lines instead.
* Rejection against that envelope draws the step size exactly.  A step
  has one :class:`LineOracle`: the certificate search queries it, and once
  certified it serves the searches values alone and each trial the value
  and the gradient in one query.  Only the trials set its ``last``: the
  accepted trial's queried point, value and gradient, the next step's
  :class:`Probe`.  The oracle is deterministic, so that reused answer is
  the one a fresh query at the same point would give, and the kernel is
  Smith's (1984) Hit-and-Run kernel either way.

That is the *search-first* path.  A step of a chain can instead go
*tangent first*: the certificate alone bounds the shifted line by its
tangent Gaussian, ``W(p + t) - W(p) >= g t + t^2/2``, and
:func:`tangent_envelope` builds from it, at no query, an envelope of mass
``e^(g^2/2)`` times ``_TANGENT_MASS`` (2.547), which a line of curvature 1
accepts a trial from with probability 0.984.  The step tries one trial
against it (``sample_exact`` with a cap of 1).  If that trial is rejected,
the step falls back to :func:`build_line_envelope` on the same line, with
the rejected trial, already checked against the certificate, among its
probes, and samples against that envelope until a trial is accepted.

Which path a step takes is chosen from the chain's own measured costs, the
queries each step spent after its certificate search, kept in a
:class:`ChainCosts` that travels with the chain's :class:`Probe`:

* ``C_i`` is a search-first step's cost, and the search-first estimate is
  ``mean(C_i)``.
* Going tangent first costs one trial, plus the fallback's ``C`` when the
  tangent's trial is rejected, which happens with probability ``1 - a``,
  ``a = Z_W / Z_T``.  Before any tangent-first step the estimate is ``1 +
  mean(C_i - a_i C_i)``, where ``a_i = Z_H / Z_T`` if the step's first
  trial against its search envelope (of mass ``Z_H``) was accepted and 0
  otherwise: that trial is accepted with probability ``Z_W / Z_H``, so
  ``a_i`` is unbiased for ``a``.  The mean is of the per-line products
  ``a_i C_i``, not the product of two means.  After a tangent-first step,
  the estimate is the mean cost of the tangent-first steps themselves.
* A step goes tangent first exactly when that estimate is below the
  search-first one.  A step with no record, a chain's first step or a bare
  :func:`step` call, searches first.

The choice changes the cost of a step, never its law.  Given its line, an
accepted trial has the restricted density whatever sequence of dominating
envelopes produced it: each envelope is a function of the line and of the
trials before, and rejection against it accepts ``x`` with density
proportional to the target alone, as in adaptive rejection sampling
(Gilks and Wild 1992).  The choice depends only on the chain's past, so
every step is Smith's kernel.

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
from .errors import ClassViolationError, UsageError, integer_argument
from .numerics import gaussian_tail_integral
from .rejection import sample_exact

# Relative slack of the sandwich checks, for float noise in class members
# that sit exactly on a bound (curvature 1 or kappa).
_SLACK = 1e-9
_FLOAT = np.dtype(float)
# The line envelope's threshold: each side's search finds the first grid
# offset from the certificate where the shifted restriction reaches it
_LEVEL = 3.0
# Above this kappa the level-3 sandwich of a zero-slope certificate leaves
# its edges open, ``search_range(kappa, level=3, rise=0)`` has lo < top
_OPEN_KAPPA = 8.0 / 3.0
# The tangent envelope's mass over its height e^(g^2/2): the plateau's width 1
# and two tails exp(-1/8 - t/2 - t^2/2), the unit Gaussian beyond 1/2
_TANGENT_MASS = 1.0 + 2.0 * math.exp(-0.125) * gaussian_tail_integral(0.5)
# A chain step's path, indexed as in ChainResult.step_paths
PATHS = ("search_first", "tangent_accepted", "tangent_fell_back")
_SEARCHED, _TANGENT, _FELL_BACK = range(len(PATHS))


class MultivariateOracle:
    """Query-counting oracle for a d-dimensional potential.

    One call returns ``(value, gradient)``, or ``(value, None)`` without
    computing the gradient when ``gradient`` is false, and increments the
    counter by exactly one.  The potential must satisfy ``V(0) = 0`` and
    ``grad V(0) = 0`` with directional curvature in ``[1, kappa]`` along
    every unit direction.  ``dimension`` must be an integer of at least 1,
    NumPy's included (UsageError for a bool, a float or a string).
    """

    def __init__(self, value_fn, grad_fn, dimension: int, kappa: float):
        dimension = integer_argument(dimension, "dimension", 1)
        if not 1.0 <= kappa < math.inf:
            raise UsageError(f"kappa must be finite and at least 1, got {kappa}")
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self.dimension = dimension
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
    """One multivariate query's answer: the queried point array, V there and grad V there.

    ``costs`` is the cost record of the chain whose position the probe is
    (:class:`ChainCosts`), which the next step reads to pick its path; None
    off a chain.  :func:`run_chain` starts a chain at a point array with a
    probe whose ``value`` and ``gradient`` are None, not yet queried.
    """

    point: np.ndarray
    value: float | None
    gradient: np.ndarray | None
    costs: ChainCosts | None = None


class ChainCosts(NamedTuple):
    """One chain's record of the queries its steps spent after the certificate search.

    ``searched`` steps went search first and spent ``search_queries`` there
    in all, and ``credit`` sums ``a_i C_i`` over them (module docstring);
    ``tangent`` steps went tangent first and spent ``tangent_queries``.
    ``path`` is the last step's, an index into :data:`PATHS`.  Immutable, so
    a probe's record is the chain's past up to it and no later step's.
    """

    searched: int = 0
    search_queries: int = 0
    credit: float = 0.0
    tangent: int = 0
    tangent_queries: int = 0
    path: int | None = None

    def tangent_first(self) -> bool:
        """Whether the next step tries the tangent first: its estimated cost is below the search's.

        No record means search first.  Before any tangent-first step the
        estimate is ``1 + mean(C_i - a_i C_i)``, below ``mean(C_i)`` exactly
        when ``mean(a_i C_i) > 1``; after one, it is the tangent-first steps'
        own mean, compared in integers.
        """
        if not self.searched:
            return False
        if self.tangent:
            return self.tangent_queries * self.searched < self.search_queries * self.tangent
        return self.credit > self.searched


class Certificate(NamedTuple):
    """A point ``lam`` on a line with ``W(lam)`` and ``W'(lam)``.

    :func:`bracket_minimizer` returns one with ``|slope| <= B``, the bound
    of its docstring: 2 above ``kappa = 8/3``, else 1; or, when no double
    lies between its bracket's ends, its flatter end, ``|slope| <= 2B``.
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
                gap=low - rise if rise < low else rise - high,
            )


# the per-step and per-trial constructors, without NamedTuple's Python-level __new__
_probe = partial(tuple.__new__, Probe)
_certificate = partial(tuple.__new__, Certificate)
_costs = partial(tuple.__new__, ChainCosts)


class LineOracle:
    """1D view W(lam) = V(base + lam * u); one multivariate query per call.

    A unit-direction restriction keeps the sandwich [1, kappa], so ``kappa``
    is the multivariate oracle's.  :meth:`query` answers the value and the
    slope, which the certificate search reads.  ``base`` and ``direction``
    must be arrays of floats of shape ``(dimension,)`` (UsageError).

    :meth:`certify` makes it the view around a certificate p: W shifted by
    ``shift = W(p)``, each value checked (:meth:`Certificate.check`).  The
    threshold searches query :meth:`level`, the value alone as ``(W,
    None)``; each rejection trial queries :meth:`value`, the value and the
    gradient, and sets ``last``, the :class:`Probe` of its point, and
    ``trial``, ``(lam, W(lam), None)``.
    """

    last: Probe | None = None
    trial: tuple[float, float, None] | None = None

    def __init__(self, oracle: MultivariateOracle, base, direction):
        self._oracle = oracle
        self.kappa = oracle.kappa
        self.base = base = _float_array(base, "the base")
        self.direction = direction = _float_array(direction, "the direction")
        if base.shape != (oracle.dimension,) or direction.shape != base.shape:
            raise UsageError(f"the base and the direction must have shape ({oracle.dimension},), "
                             f"got {base.shape} and {direction.shape}")

    def point(self, lam: float) -> np.ndarray:
        return self.base + lam * self.direction

    def query(self, lam: float) -> tuple[float, float]:
        value, grad = self._oracle.query(self.point(float(lam)))
        return value, float(self.direction.dot(grad))

    def certify(self, certificate: Certificate) -> LineOracle:
        """Check and shift every later value around ``certificate``; returns the line."""
        self.certificate, self.shift = certificate, certificate.value
        return self

    def level(self, lam: float) -> tuple[float, None]:
        value = self._oracle.query(self.base + lam * self.direction, gradient=False)[0]
        self.certificate.check(lam, value, self.kappa)
        return value - self.shift, None

    def value(self, lam: float) -> float:
        point = self.base + lam * self.direction
        value, gradient = self._oracle.query(point)
        self.certificate.check(lam, value, self.kappa)
        self.last, self.trial = _probe((point, value, gradient, None)), (lam, value, None)
        return value - self.shift


def restrict(oracle: MultivariateOracle, x_t, u) -> LineOracle:
    """Restrict the potential to the line through x_t with unit direction u.

    The line's ``base`` is x_t itself, so ``point(0)`` is x_t bitwise and an
    answer already queried there is exactly the line's answer at 0.  Both
    must have shape ``(dimension,)`` (:class:`LineOracle`) and u unit length
    (UsageError).
    """
    line = LineOracle(oracle, x_t, u)
    u = line.direction
    norm = math.sqrt(float(u.dot(u)))
    if norm == 0.0:
        raise UsageError("direction must be nonzero")
    if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails this too
        raise UsageError(f"direction must be a unit vector, |u| = {norm}")
    return line


def bracket_minimizer(
    line: LineOracle, start: float, first: Certificate | None = None
) -> tuple[Certificate, tuple[Certificate, ...]]:
    """A certificate for the line: a queried point p with ``|W'(p)| <= B``.

    ``B = 2`` when ``kappa > 8/3``, where ``search_range(kappa, level=3,
    rise=0)`` leaves ``lo < top``, and ``B = 1`` otherwise; either way ``W -
    W(p) >= -B^2/2`` on the line, the floor the line envelope's plateau
    ``e^(g^2/2)`` covers.  The one exception: any queried point is a
    certificate with floor ``g^2/2``, so a bracket that closes on two
    adjacent doubles 1/kappa apart or more, with no double between to query
    and a rise of W' that kappa allows, returns its flatter end if ``|W'|
    <= 2B`` there (else a UsageError, below).  Returns the certificate and a
    tuple of the search's other probes, each a :class:`Certificate` of its
    point and each checked against the certificate's sandwich (empty when
    the first probe is the certificate).

    Queries ``start`` first, unless ``first`` is given: the line's answer
    at ``start`` from a query already made, taken as the first probe
    without a query.  If ``|g| > B`` there, strong convexity gives
    ``W'(start - g)`` the opposite sign, and regula falsi on W' between the
    two ends takes over, until a probe, the far end included, has ``|W'|
    <= B``; a secant step that fails to halve the bracket is followed by a
    bisection, and a secant point that rounds onto or past an end of the
    bracket is replaced by one, so every two probes at least halve it.  A
    class member has ``|W'| <= B`` within ``B/kappa`` of its minimizer, so
    the search ends before the bracket is narrower than ``2B/kappa``, after
    at most ``2 + 2*max(0, ceil(log2(kappa*|g|/(2B))))`` queries, whether or
    not the replacement fires: it halves the bracket with one probe.  With
    ``first`` given that bound is ``1 + 2*max(0,
    ceil(log2(kappa*|g|/(2B))))``, and no query at all when ``|g| <= B``.
    Neither bound is above the one for ``B = 1``.

    Raises ClassViolationError when the far end's slope has the sign of g
    and a magnitude above 1, when the bracket falls below ``1/kappa`` (W'
    is steeper than kappa allows), or when a probed value escapes the
    sandwich of the certificate found, or when W' rises faster than kappa
    allows (with the slack of :meth:`Certificate.check`) between two
    adjacent doubles at least ``1/kappa`` apart.  UsageError (double
    precision cannot resolve the line) when both ends there are steeper
    than ``2B``, or when a first slope g has ``kappa g^2`` past the float
    range: the far probe lies ``|g|`` away, where the sandwich lets an
    in-class W rise by ``kappa g^2/2``, and twice that (a quadratic's ``x'
    D x``) may overflow, so the search raises before it queries there.
    """
    kappa = line.kappa
    bound = 2.0 if kappa > _OPEN_KAPPA else 1.0
    if first is None:
        start = float(start)
        first = _certificate((start, *line.query(start)))
    if abs(first.slope) <= bound:
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
    while abs(probes[-1].slope) > bound:
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
            if not (width >= 1.0 / kappa and hi.slope - lo.slope <= steep + slack):
                raise ClassViolationError(f"W' rises from {lo.slope:.6g} to {hi.slope:.6g} across [{lo.lam:.17g}, "
                                          f"{hi.lam:.17g}], steeper than kappa = {kappa:g} allows", query_point=lam)
            # no double lies between: the flatter end is the certificate, unless its
            # plateau e^(g^2/2) tops e^(2 B^2), which would overflow or starve the trials
            flatter = lo if abs(lo.slope) <= abs(hi.slope) else hi
            if abs(flatter.slope) > 2.0 * bound:
                raise UsageError(f"W' rises from {lo.slope:.6g} to {hi.slope:.6g} between adjacent doubles {lo.lam:.17g} "
                                 f"and {hi.lam:.17g}; kappa = {kappa:g} needs more than double precision")
            probes.append(probes.pop(probes.index(flatter)))
            break
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
) -> tuple[Envelope, LineOracle]:
    """The envelope of the module docstring for the restriction shifted by ``W(p)``.

    The shifted restriction is 0 at p with slope ``g``, and the searches'
    edges are the first dyadic offsets from p where it reaches 3, each
    side searched only where the certificate's sandwich leaves that edge
    open.  An edge at the top of its range that the search did not query
    takes the sandwich's lower bound there, which gives a dominating row
    like a queried value, so a line of curvature 1 costs one query a side.
    Any certificate serves: the plateau is ``e^(g^2/2)``, up to ``e^2``
    for a certificate with ``|g| <= 2``, and the edge envelope it is
    compared with in the module docstring has plateau ``e^f``, ``f =
    max(1/2, g^2/2)``.
    ``probes`` are other points on the line, each ``(lam, W(lam), _)`` and
    already checked against the certificate: the certificate search's, as
    :func:`bracket_minimizer` returns them, and a rejected trial's
    :attr:`LineOracle.trial`.  One pass shifts each by ``W(p)`` into its
    side's points and records how far out that side is clear: the farthest
    one below the level clears the grid out to it, so that side's search
    skips those indices at no query.  Then each side's points and grid
    probes go through one row rule (:func:`_rows`), outward, the grid's
    value kept where both hold an x, and each point above 0 gives its row.
    Neither moves an edge or its value, so the searches' worst case stays
    ``ceil(log2(top - lo + 1)) + 1`` queries a side, and no line costs more
    queries than without the probes.  The shift, the probes and the rows
    cost no query.
    Certifies ``line`` (:meth:`LineOracle.certify`) and returns the envelope
    and the line, which the rejection trials query; the searches asked it
    for values alone, so its ``last`` is as it was.
    """
    line.certify(certificate)
    p, shift, slope = certificate
    floor = 0.5 * slope * slope
    # each side's points (x, W(x) - W(p)) off the grid, and how far out it is clear
    clear, points = [0.0, 0.0], ({}, {})
    for lam, value, _ in probes:
        lam, w = float(lam), float(value) - shift  # as floats, and a NumPy bool as an index
        side, d = int(lam > p), abs(lam - p)
        if w < _LEVEL and d > clear[side]:
            clear[side] = d
        points[side][lam] = w
    (_, _, grid_minus), (_, _, grid_plus) = threshold_searches(
        line.level, p, line.kappa, level=_LEVEL, slope=slope, clear=clear
    )
    rows_minus = _rows(p, grid_minus, points[0], floor, True)
    rows_plus = _rows(p, grid_plus, points[1], floor, False)
    # the tangent row runs away from the mean p - g, from the mean, or from
    # p when the mean side's plateau edge lies between the mean and p
    mean = p - slope
    if slope >= 0.0:
        tangent = (mean, 0.0, 0.0) if rows_minus[0][0] < mean else (p, floor, slope)
        rows_plus = (tangent, *rows_plus)
    else:
        tangent = (mean, 0.0, 0.0) if rows_plus[0][0] > mean else (p, floor, -slope)
        rows_minus = (tangent, *rows_minus)
    return Envelope(math.exp(floor), rows_minus, rows_plus), line


def _rows(p: float, grid, points, floor: float, descending: bool) -> tuple[tuple[float, float, float], ...]:
    """The row ``(x_k, w_k + floor, w_k/d_k + d_k/2)`` of each point of one side outward with ``w_k > 0``.

    ``grid`` maps grid indices to ``(x, W(x))``; ``points`` maps the other
    x on the same side to ``W(x)`` and is updated with the grid's, and
    ``descending`` says that outward is toward smaller x.  An x that both
    hold keeps the grid's value: an edge the search took unqueried at its
    top holds the sandwich's bound there, which the queried value of a
    probe at the same point may exceed.  ``floor`` is the plateau's ``log h``.
    """
    points.update(grid.values())
    rows = []
    for x, w in sorted(points.items(), reverse=descending):
        if w > 0.0:
            d = abs(x - p)
            rows.append((x, w + floor, w / d + 0.5 * d))
    return tuple(rows)


def tangent_envelope(certificate: Certificate) -> Envelope:
    """The envelope that the certificate ``(p, W(p), g)`` alone gives the line shifted by ``W(p)``.

    ``W(p + t) - W(p) >= g t + t^2/2`` bounds the shifted target by the
    tangent Gaussian ``h exp(-(x - m)^2/2)``, ``h = e^(g^2/2)`` at the mean
    ``m = p - g``.  The envelope is flat at ``h`` within 1/2 of m and that
    Gaussian beyond, rows ``(m -+ 1/2, 1/8, 1/2)``.  Its mass is ``h``
    times ``_TANGENT_MASS``, 2.547 against the Gaussian's 2.507, so on a
    line of curvature 1 a trial is accepted with probability 0.984.  It
    costs no query.
    """
    p, _, slope = certificate
    mean = p - slope
    return Envelope(math.exp(0.5 * slope * slope), ((mean - 0.5, 0.125, 0.5),),
                    ((mean + 0.5, 0.125, 0.5),))


@dataclass(frozen=True)
class ChainResult:
    positions: np.ndarray  # (steps + 1, d)
    step_queries: np.ndarray  # (steps,)
    step_paths: np.ndarray  # (steps,), each step's path as an index into PATHS
    # the final position's Probe, which a further chunk can start from and
    # which carries the chain's cost record; None when the chain took no step
    # from a point array
    last: Probe | None = None

    @property
    def mean_queries_per_step(self) -> float:
        return float(self.step_queries.mean()) if self.step_queries.size else 0.0

    @property
    def path_totals(self) -> dict[str, int]:
        """The number of steps that took each path of :data:`PATHS`, by its name."""
        return dict(zip(PATHS, np.bincount(self.step_paths, minlength=len(PATHS)).tolist()))


def step(
    oracle: MultivariateOracle,
    x,
    rng: np.random.Generator,
    direction=None,
) -> Probe:
    """One Hit-and-Run transition from ``x`` with an exact step-size draw.

    The step size comes from the density proportional to the target
    restricted to the chosen line, sampled by rejection against envelopes
    that dominate it, so the transition kernel is exact.  ``x`` is a point,
    which the certificate search queries first, or the :class:`Probe` a
    previous step returned, whose answer it reuses; a point that is not a
    finite vector of the oracle's dimension is a UsageError.  ``direction``
    overrides the uniform draw (used by diagnostics); it must be a unit
    vector of the same shape (UsageError, from :func:`restrict`).

    A probe that carries a chain's cost record picks the step's path by it
    (:meth:`ChainCosts.tangent_first`) and returns the record extended by
    this step; without one the step searches first, and so does a
    record's first step.  Returns the accepted trial's :class:`Probe`: its
    ``point`` is the new position.
    """
    if direction is None:
        g = rng.standard_normal(oracle.dimension)
        while (norm := math.sqrt(float(g.dot(g)))) < 1e-12:
            g = rng.standard_normal(oracle.dimension)
        u = g / norm
    else:
        u = direction
    costs = gradient = None
    if isinstance(x, Probe):
        x, value, gradient, costs = x
    if gradient is None:
        line, first = restrict(oracle, _start_point(oracle, x), u), None
    else:
        line = restrict(oracle, x, u)
        first = _certificate((0.0, value, float(line.direction.dot(gradient))))
    certificate, probes = bracket_minimizer(line, 0.0, first)
    before = oracle.query_count
    if costs is not None and costs.tangent_first():
        path = _TANGENT
        if sample_exact(line.certify(certificate), tangent_envelope(certificate), rng, 1).failed:
            env, _ = build_line_envelope(line, certificate, (*probes, line.trial))
            sample_exact(line, env, rng)
            path = _FELL_BACK
        spent = oracle.query_count - before
        costs = _costs((*costs[:3], costs.tangent + 1, costs.tangent_queries + spent, path))
    else:
        env, _ = build_line_envelope(line, certificate, probes)
        accepted = sample_exact(line, env, rng).trials == 1
        if costs is None:
            return line.last
        spent, credit, slope = oracle.query_count - before, costs.credit, certificate.slope
        if accepted:  # a_i is Z_H / Z_T, else 0: Z_W / Z_T on average
            credit += spent * env.mass_total / (math.exp(0.5 * slope * slope) * _TANGENT_MASS)
        costs = _costs((costs.searched + 1, costs.search_queries + spent, credit, *costs[3:5], _SEARCHED))
    point, value, gradient, _ = line.last
    return _probe((point, value, gradient, costs))


def _start_point(oracle: MultivariateOracle, x) -> np.ndarray:
    """``x`` as a float array, UsageError unless it is a finite point of the oracle's dimension."""
    point = _float_array(x, "the start point")
    if point.shape != (oracle.dimension,):
        raise UsageError(f"the start point must have shape ({oracle.dimension},), got {point.shape}")
    if not np.isfinite(point).all():
        bad = point[~np.isfinite(point)][0]
        raise UsageError(f"every coordinate of the start point must be finite, got {bad}")
    return point


def _float_array(x, what: str) -> np.ndarray:
    """``x`` through ``np.asarray(x, dtype=float)``, a UsageError naming ``what`` where that fails."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{what} must be a vector of floats: {exc}") from None


def run_chain(
    oracle: MultivariateOracle,
    x0,
    steps: int,
    rng: np.random.Generator,
) -> ChainResult:
    """Run the chain and record the trajectory, per-step query counts and paths.

    Each step hands its accepted trial's :class:`Probe` to the next, so only
    the first step queries its start point, and not even that one when
    ``x0`` is a :class:`Probe`.  The probe carries the chain's cost record,
    which picks each step's path (:func:`step`): a start at a point array,
    or at a probe without one, begins a fresh record, so the first step
    searches first, and a chain run in chunks passes each chunk's ``last``
    to the next and takes the same steps as one unbroken chain.  A point
    ``x0`` must be a finite vector of the oracle's dimension, and ``steps``
    an integer of at least 0 (UsageError for a bool, a float or a string),
    both checked before any query.
    """
    steps = integer_argument(steps, "steps", 0)
    try:
        positions = np.empty((steps + 1, oracle.dimension))
        step_queries = np.empty(steps, dtype=int)
        step_paths = np.empty(steps, dtype=np.int8)
    except (MemoryError, ValueError) as exc:
        raise UsageError(f"a chain of {steps} steps is too long to record: {exc}") from exc
    if isinstance(x0, Probe):
        state = x0 if x0.costs is not None else _probe((*x0[:3], ChainCosts()))
    else:
        state = _probe((_start_point(oracle, x0), None, None, ChainCosts()))
    positions[0] = state.point
    before = oracle.query_count
    for t in range(steps):
        state = step(oracle, state, rng)
        positions[t + 1] = state.point
        step_paths[t] = state.costs.path
        step_queries[t] = (after := oracle.query_count) - before
        before = after
    last = state if state.gradient is not None else None
    return ChainResult(positions=positions, step_queries=step_queries, step_paths=step_paths, last=last)
