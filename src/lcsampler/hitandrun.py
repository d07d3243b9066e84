"""Hit-and-Run with an exact line-sampling step.

Each step draws a uniform direction and restricts the d-dimensional
potential to that line (the restriction inherits the curvature sandwich).
The line step then does three things: it brackets the line minimizer by
derivative-sign bisection, shifts the restriction by its larger value at the
bracket ends so the minimum lies in [-1, 0], and hands both to the shared
plateau builder :func:`lcsampler.envelope.plateau_envelope`.  Rejection
against that envelope draws the step size exactly.  All oracle traffic goes
through one counter so per-step query costs are measurable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelope import Envelope, plateau_envelope
from .errors import ClassViolationError, UsageError
from .rejection import sample_exact


@dataclass(frozen=True)
class MultivariateResponse:
    value: float
    gradient: np.ndarray | None = None


class MultivariateOracle:
    """Query-counting oracle for a d-dimensional potential.

    One call returns the value and (when available) the gradient, and
    increments the counter by exactly one.  The potential must satisfy
    ``V(0) = 0`` and ``grad V(0) = 0`` with directional curvature in
    ``[1, kappa]`` along every unit direction.
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
        if grad_fn is not None and float(np.linalg.norm(grad_fn(origin))) > 1e-9:
            raise UsageError("potential must have zero gradient at the origin")

    @property
    def has_gradient(self) -> bool:
        return self._grad_fn is not None

    @property
    def query_count(self) -> int:
        return self._count

    def query(self, x: np.ndarray) -> MultivariateResponse:
        self._count += 1
        x = np.asarray(x, dtype=float)
        grad = None if self._grad_fn is None else np.asarray(self._grad_fn(x), dtype=float)
        return MultivariateResponse(value=float(self._value_fn(x)), gradient=grad)


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
    """1D view W(lam) = V(base + lam * u) - shift; one multivariate query per call."""

    def __init__(self, oracle: MultivariateOracle, base, direction, shift: float = 0.0):
        self._oracle = oracle
        self.base = np.asarray(base, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        self.shift = float(shift)

    @property
    def has_derivative(self) -> bool:
        return self._oracle.has_gradient

    @property
    def query_count(self) -> int:
        return self._oracle.query_count

    def with_shift(self, shift: float) -> "LineOracle":
        return LineOracle(self._oracle, self.base, self.direction, shift=shift)

    def point(self, lam: float) -> np.ndarray:
        return self.base + lam * self.direction

    def query(self, lam: float):
        resp = self._oracle.query(self.point(float(lam)))
        deriv = None
        if resp.gradient is not None:
            deriv = float(self.direction @ resp.gradient)
        return resp.value - self.shift, deriv

    def value(self, lam: float) -> float:
        return self.query(lam)[0]

    def derivative(self, lam: float) -> float:
        v, d = self.query(lam)
        if d is None:
            raise UsageError("line oracle has no gradient access")
        return d


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


def bracket_minimizer(line: LineOracle, kappa: float, x_star_norm: float) -> tuple[float, float]:
    """Bracket of exact width sqrt(2/kappa) around the line minimizer.

    The minimizer satisfies |lambda| <= 2*kappa*|x*| for class members, which
    seeds the bisection interval (padded to stay nonempty when the line runs
    through the origin).  Derivative-sign bisection needs about
    log2(4*kappa*|x*| / sqrt(2/kappa)) queries plus the two endpoint checks;
    a 0th-order ternary fallback covers gradient-free oracles.
    """
    width = math.sqrt(2.0 / kappa)
    radius = 2.0 * kappa * max(float(x_star_norm), width)
    if not line.has_derivative:
        return _bracket_by_ternary(line, radius, width)

    d_lo, d_hi = line.derivative(-radius), line.derivative(radius)
    for _ in range(3):  # doubling fallback for near-class targets
        if d_lo <= 0.0 <= d_hi:
            break
        radius *= 2.0
        d_lo, d_hi = line.derivative(-radius), line.derivative(radius)
    if not (d_lo <= 0.0 <= d_hi):
        raise ClassViolationError(
            "restricted derivative does not change sign on the seeded interval",
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


def _bracket_by_ternary(line: LineOracle, radius: float, width: float) -> tuple[float, float]:
    """Value-only fallback: each shrink keeps 2/3 of the interval (2 queries)."""
    lo, hi = -radius, radius
    while hi - lo > width:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if line.value(m1) < line.value(m2):
            hi = m2
        else:
            lo = m1
    a = lo - 0.5 * (width - (hi - lo))
    return a, a + width


def build_line_envelope(
    line: LineOracle, a: float, b: float, kappa: float
) -> tuple[Envelope, LineOracle]:
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
    env = plateau_envelope(shifted.value, a, b, kappa, level=3.0, floor=1.0, lo=1, tail_offset=3.0)
    return env, shifted


@dataclass(frozen=True)
class ChainState:
    position: np.ndarray
    step_index: int = 0
    cumulative_queries: int = 0


@dataclass(frozen=True)
class ChainResult:
    positions: np.ndarray  # (steps + 1, d)
    step_queries: np.ndarray  # (steps,)

    @property
    def mean_queries_per_step(self) -> float:
        return float(self.step_queries.mean()) if self.step_queries.size else 0.0


def step(
    oracle: MultivariateOracle,
    state: ChainState,
    rng: np.random.Generator,
    direction=None,
) -> ChainState:
    """One Hit-and-Run transition with an exact step-size draw.

    The step size comes from the density proportional to the target
    restricted to the chosen line, sampled by rejection against the line
    envelope, so the transition kernel is exact.  ``direction`` overrides
    the uniform draw (used by diagnostics).
    """
    if direction is None:
        g = rng.standard_normal(oracle.dimension)
        while float(np.linalg.norm(g)) < 1e-12:
            g = rng.standard_normal(oracle.dimension)
        u = g / np.linalg.norm(g)
    else:
        u = np.asarray(direction, dtype=float)
    before = oracle.query_count
    line = restrict(oracle, state.position, u)
    a, b = bracket_minimizer(line, oracle.kappa, float(np.linalg.norm(line.base)))
    env, shifted = build_line_envelope(line, a, b, oracle.kappa)
    lam = sample_exact(shifted, env, rng).result
    return ChainState(
        position=line.point(lam),
        step_index=state.step_index + 1,
        cumulative_queries=state.cumulative_queries + (oracle.query_count - before),
    )


def run_chain(
    oracle: MultivariateOracle,
    x0,
    steps: int,
    rng: np.random.Generator,
) -> ChainResult:
    """Run the chain and record the trajectory and per-step query counts."""
    if steps < 0:
        raise UsageError("steps must be nonnegative")
    state = ChainState(position=np.asarray(x0, dtype=float))
    positions = np.empty((steps + 1, oracle.dimension))
    positions[0] = state.position
    step_queries = np.empty(steps, dtype=int)
    for t in range(steps):
        prev = state.cumulative_queries
        state = step(oracle, state, rng)
        positions[t + 1] = state.position
        step_queries[t] = state.cumulative_queries - prev
    return ChainResult(positions=positions, step_queries=step_queries)
