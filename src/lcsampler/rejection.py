"""Rejection sampling against a dominating envelope.

Two modes: exact sampling loops until acceptance (geometric trial count with
mean ``Z_q / Z_p``), and capped sampling stops after a precomputed number of
trials, returning an explicit FAILURE outcome whose probability is at most
the requested total variation budget.  One oracle query is spent per
trial, nothing else.  A trial whose proposal the envelope fails to dominate
raises ClassViolationError: that proves the target is outside the class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassViolationError, UsageError


class _FailureToken:
    """Declared no-sample outcome of the capped mode (not an exception)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FAILURE"


FAILURE = _FailureToken()


@dataclass(frozen=True)
class SampleOutcome:
    """Either an accepted sample or FAILURE, plus the trial/query ledger."""

    result: float | _FailureToken
    trials: int
    queries: int

    @property
    def failed(self) -> bool:
        return self.result is FAILURE


def _one_trial(oracle, env, rng) -> tuple[bool, float]:
    x = env.sample(rng)
    v = oracle.value(x)  # one query
    # log target minus log envelope; log space avoids underflow for
    # deep-tail proposals
    gap = -v - env.log_value(x)
    if gap > 1e-9:
        raise ClassViolationError(
            f"envelope falls below the target at {x!r} by a log gap of {gap:.3g}; "
            "target violates the curvature sandwich",
            query_point=x,
        )
    return math.log(rng.random()) <= gap, x


def sample_exact(oracle, env, rng: np.random.Generator) -> SampleOutcome:
    """Draw one exact sample from exp(-V)/Z_p; runs until acceptance."""
    trials = 0
    while True:
        trials += 1
        accepted, x = _one_trial(oracle, env, rng)
        if accepted:
            return SampleOutcome(result=x, trials=trials, queries=trials)


def capped_trials(epsilon: float, rho_floor: float) -> int:
    """Trial cap guaranteeing failure probability at most epsilon.

    With acceptance probability at least ``rho_floor`` per trial, failing
    ``N = ceil(ln(1/eps) / ln(1/(1 - rho_floor)))`` independent trials has
    probability at most ``(1 - rho_floor)^N <= eps``.
    """
    if not 0.0 < epsilon < 1.0:
        raise UsageError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < rho_floor < 1.0:
        raise UsageError(f"rho_floor must lie in (0, 1), got {rho_floor}")
    return math.ceil(math.log(1.0 / epsilon) / math.log(1.0 / (1.0 - rho_floor)))


def sample_capped(
    oracle,
    env,
    epsilon: float,
    rho_floor: float,
    rng: np.random.Generator,
) -> SampleOutcome:
    """Draw a sample within total variation ``epsilon`` of the target.

    Accepted draws are exactly target-distributed, so the distance of the
    output law (over samples plus the FAILURE token) from the target equals
    the failure probability, which the cap keeps at or below ``epsilon``.
    """
    cap = capped_trials(epsilon, rho_floor)
    for trial in range(1, cap + 1):
        accepted, x = _one_trial(oracle, env, rng)
        if accepted:
            return SampleOutcome(result=x, trials=trial, queries=trial)
    return SampleOutcome(result=FAILURE, trials=cap, queries=cap)


def acceptance_probability(potential, env) -> float:
    """``Z_p / Z_q`` in closed form; query-free.

    ``Z_p`` is ``potential.density_mass()``, the integral of ``exp(-V)``; a
    potential in normal form has ``V(0) = 0``, so this is the target of the
    normalized oracle the envelope was built against.
    """
    return potential.density_mass() / env.mass_total
