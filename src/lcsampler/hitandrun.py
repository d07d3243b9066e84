"""Hit-and-Run with an exact line-sampling step.

Each step draws a uniform direction and restricts the d-dimensional
potential to that line (the restriction inherits the curvature sandwich).
The line step then does three things: it brackets the line minimizer by
derivative-sign bisection, shifts the restriction by its larger value at the
bracket ends so the minimum lies in [-1, 0], and hands both to the shared
plateau builder :func:`lcsampler.envelope.plateau_envelope`.  Rejection
against that envelope draws the step size exactly.  All oracle traffic goes
through one counter so per-step query costs are measurable.

The bisection is seeded on ``[-r, r]``, ``r = 2*kappa*max(|base|,
sqrt(2/kappa))`` with ``base`` the line's closest point to the origin.  A
class member has ``|W'(0)| <= kappa*|base|`` (zero gradient at the origin,
Hessian at most kappa) and ``W'' >= 1``, so its line minimizer lies within
``kappa*|base| <= r/2`` of 0 and W' changes sign on ``[-r, r]``.  When it
does not, the target is outside the class: the step raises
ClassViolationError rather than bracket a wrong point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelope import Envelope, plateau_envelope
from .errors import ClassViolationError, UsageError
from .rejection import sample_exact


class MultivariateOracle:
    """Query-counting oracle for a d-dimensional potential.

    One call returns ``(value, gradient)`` and increments the counter by
    exactly one.  The potential must satisfy ``V(0) = 0`` and ``grad V(0) =
    0`` with directional curvature in ``[1, kappa]`` along every unit
    direction.
    """

    def __init__(self, value_fn, grad_fn, dimension: int, kappa: float):
        if dimension < 1:
            raise UsageError(f"dimension must be positive, got {dimension}")
        if kappa < 1.0:
            raise UsageError(f"kappa must be at least 1, got {kappa}")
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

    def query(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        self._count += 1
        x = np.asarray(x, dtype=float)
        return float(self._value_fn(x)), np.asarray(self._grad_fn(x), dtype=float)


def quadratic_oracle(diagonal, kappa: float | None = None) -> MultivariateOracle:
    """Oracle for ``V(x) = x' diag(d) x / 2``; kappa defaults to max(d).

    The curvatures must lie in ``[1, kappa]``, the class the line step
    assumes; ClassViolationError otherwise.
    """
    diag = np.asarray(diagonal, dtype=float)
    if diag.size == 0:
        raise UsageError("need at least one diagonal curvature")
    kappa = float(diag.max()) if kappa is None else float(kappa)
    if not (diag.min() >= 1.0 and diag.max() <= kappa):
        raise ClassViolationError(
            f"curvature range [{diag.min():g}, {diag.max():g}] escapes [1, {kappa:g}]"
        )
    return MultivariateOracle(
        value_fn=lambda x: 0.5 * float(x @ (diag * x)),
        grad_fn=lambda x: diag * x,
        dimension=diag.size,
        kappa=kappa,
    )


class LineOracle:
    """1D view W(lam) = V(base + lam * u) - shift; one multivariate query per call.

    A unit-direction restriction keeps the sandwich [1, kappa], so ``kappa``
    is the multivariate oracle's.
    """

    def __init__(self, oracle: MultivariateOracle, base, direction, shift: float = 0.0):
        self._oracle = oracle
        self.kappa = oracle.kappa
        self.base = np.asarray(base, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        self.shift = float(shift)

    def with_shift(self, shift: float) -> "LineOracle":
        return LineOracle(self._oracle, self.base, self.direction, shift=shift)

    def point(self, lam: float) -> np.ndarray:
        return self.base + lam * self.direction

    def query(self, lam: float) -> tuple[float, float]:
        value, grad = self._oracle.query(self.point(float(lam)))
        return value - self.shift, float(self.direction @ grad)

    def value(self, lam: float) -> float:
        return self.query(lam)[0]

    def derivative(self, lam: float) -> float:
        return self.query(lam)[1]


def restrict(oracle: MultivariateOracle, x_t, u) -> LineOracle:
    """Restrict the potential to the line through x_t with unit direction u.

    The line's ``base`` is its closest point to the origin, so x_t sits at
    ``lam = u @ x_t``.
    """
    x_t = np.asarray(x_t, dtype=float)
    u = np.asarray(u, dtype=float)
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        raise UsageError("direction must be nonzero")
    if abs(norm - 1.0) > 1e-12:
        raise UsageError(f"direction must be a unit vector, |u| = {norm}")
    return LineOracle(oracle, x_t - float(u @ x_t) * u, u)


def bracket_minimizer(line: LineOracle) -> tuple[float, float]:
    """Bracket of exact width sqrt(2/kappa) around the line minimizer.

    Bisects on the sign of W' from ``[-r, r]``, ``r = 2*kappa*max(|base|,
    sqrt(2/kappa))``, which holds a class member's minimizer within its
    middle half (module docstring); a sign that does not change across it
    raises ClassViolationError at once.  Costs at most
    ceil(log2(2r / sqrt(2/kappa))) + 2 queries.
    """
    kappa = line.kappa
    width = math.sqrt(2.0 / kappa)
    radius = 2.0 * kappa * max(float(np.linalg.norm(line.base)), width)
    d_lo, d_hi = line.derivative(-radius), line.derivative(radius)
    if not (d_lo <= 0.0 <= d_hi):
        raise ClassViolationError(
            f"restricted derivative does not change sign on [-{radius:g}, {radius:g}]",
            query_point=radius,
        )
    lo, hi = -radius, radius
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        dm = line.derivative(mid)
        if dm < 0.0:
            lo = mid
        elif dm > 0.0:
            hi = mid
        else:
            lo = hi = mid
            break
    a = lo - 0.5 * (width - (hi - lo))
    return a, a + width


def build_line_envelope(line: LineOracle, a: float, b: float) -> tuple[Envelope, LineOracle]:
    """Shifted plateau envelope for the restriction, given a minimizer bracket.

    Relabels the potential by ``max(W(a), W(b))`` so the minimum lies in
    [-1, 0], then builds the plateau-e envelope whose edges are the first
    dyadic offsets past the bracket where the relabeled value reaches 3.
    Index 0 is never searched: one grid step past the bracket the relabeled
    value is at most sqrt(2) + 1/2 < 3.  Returns the envelope together with
    the relabeled oracle the rejection step must evaluate.
    """
    shift = max(line.value(a), line.value(b))
    shifted = line.with_shift(line.shift + shift)
    env = plateau_envelope(shifted.value, a, b, line.kappa, level=3.0, floor=1.0, lo=1, tail_offset=3.0)
    return env, shifted


@dataclass(frozen=True)
class ChainResult:
    positions: np.ndarray  # (steps + 1, d)
    step_queries: np.ndarray  # (steps,)

    @property
    def mean_queries_per_step(self) -> float:
        return float(self.step_queries.mean()) if self.step_queries.size else 0.0


def step(
    oracle: MultivariateOracle,
    x,
    rng: np.random.Generator,
    direction=None,
) -> np.ndarray:
    """One Hit-and-Run transition from ``x`` with an exact step-size draw.

    The step size comes from the density proportional to the target
    restricted to the chosen line, sampled by rejection against the line
    envelope, so the transition kernel is exact.  ``direction`` overrides
    the uniform draw (used by diagnostics).  Returns the new position.
    """
    if direction is None:
        g = rng.standard_normal(oracle.dimension)
        while float(np.linalg.norm(g)) < 1e-12:
            g = rng.standard_normal(oracle.dimension)
        u = g / np.linalg.norm(g)
    else:
        u = np.asarray(direction, dtype=float)
    line = restrict(oracle, x, u)
    a, b = bracket_minimizer(line)
    env, shifted = build_line_envelope(line, a, b)
    return line.point(sample_exact(shifted, env, rng).result)


def run_chain(
    oracle: MultivariateOracle,
    x0,
    steps: int,
    rng: np.random.Generator,
) -> ChainResult:
    """Run the chain and record the trajectory and per-step query counts."""
    if steps < 0:
        raise UsageError("steps must be nonnegative")
    positions = np.empty((steps + 1, oracle.dimension))
    positions[0] = x0
    step_queries = np.empty(steps, dtype=int)
    for t in range(steps):
        before = oracle.query_count
        positions[t + 1] = step(oracle, positions[t], rng)
        step_queries[t] = oracle.query_count - before
    return ChainResult(positions=positions, step_queries=step_queries)
