"""Rejection sampling against a dominating envelope.

One loop draws from the envelope, spends one oracle query per trial, and
accepts with probability target over envelope.  Uncapped it runs until
acceptance, an exact sample after a geometric number of trials with mean
``Z_q / Z_p``.  With a trial cap it returns an explicit FAILURE outcome
once the cap is spent; :func:`capped_trials` turns a total variation budget
into that cap.  A trial whose proposal the envelope fails to dominate
raises ClassViolationError: that proves the target is outside the class.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ClassViolationError, UsageError


class _FailureToken:
    """Declared no-sample outcome of a capped loop (not an exception)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FAILURE"


FAILURE = _FailureToken()


class SampleOutcome(NamedTuple):
    """Either an accepted sample or FAILURE, plus the trial/query ledger."""

    result: float | _FailureToken
    trials: int
    queries: int

    @property
    def failed(self) -> bool:
        return self.result is FAILURE


# the per-draw constructor, without NamedTuple's Python-level __new__
_outcome = partial(tuple.__new__, SampleOutcome)


def sample_exact(oracle, env, rng: np.random.Generator, cap: int | None = None) -> SampleOutcome:
    """Draw one exact sample from exp(-V)/Z_p; FAILURE once ``cap`` trials are spent.

    Runs until acceptance when ``cap`` is None; otherwise ``cap`` must be an
    integer of at least 1, a bool excepted (UsageError).  The counts
    returned are ints.
    """
    if cap is not None:
        if isinstance(cap, bool) or not hasattr(cap, "__index__") or operator.index(cap) < 1:
            raise UsageError(f"trial cap must be None or an integer of at least 1, got {cap!r}")
        cap = operator.index(cap)
    trials = 0
    while trials != cap:
        trials += 1
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
        if math.log(rng.random()) <= gap:
            return _outcome((x, trials, trials))
    return _outcome((FAILURE, cap, cap))


def capped_trials(epsilon: float, rho_floor: float) -> int:
    """Trial cap that keeps a sample within total variation ``epsilon`` of the target.

    With acceptance probability at least ``rho_floor`` per trial, failing
    ``N = ceil(ln(eps) / ln(1 - rho_floor))`` independent trials has
    probability at most ``(1 - rho_floor)^N <= eps``.  Accepted draws are
    exactly target-distributed, so the distance of the output law of
    ``sample_exact(..., cap=N)`` (over samples plus the FAILURE token) from
    the target equals that failure probability.  The logarithms are
    ``log(eps)`` and ``log1p(-rho_floor)``, and their quotient is taken
    exactly, so N is a finite int for every pair in (0, 1), however large.
    Where a rounded quotient would be an integer N can be one more, 4 and
    not 3 at ``(1e-6, 0.99)``, still a valid cap.
    """
    if not 0.0 < epsilon < 1.0:
        raise UsageError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < rho_floor < 1.0:
        raise UsageError(f"rho_floor must lie in (0, 1), got {rho_floor}")
    return math.ceil(Fraction(math.log(epsilon)) / Fraction(math.log1p(-rho_floor)))


def acceptance_probability(potential, env) -> float:
    """``Z_p / Z_q`` in closed form; query-free.

    ``Z_p`` is ``potential.density_mass()``, the integral of ``exp(-V)``; a
    potential in normal form has ``V(0) = 0``, so this is the target of the
    normalized oracle the envelope was built against.
    """
    return potential.density_mass() / env.mass_total
