import math

import numpy as np
import pytest

from helpers import geometric_chi2_pvalue, quadrature_acceptance, random_class_potential
from lcsampler import (
    FAILURE,
    Envelope,
    PiecewiseQuadraticPotential,
    PotentialOracle,
    UsageError,
    acceptance_probability,
    capped_trials,
    normalize_at_zero,
    prepare_envelope,
    sample_capped,
    sample_exact,
)
from lcsampler import hardfamily
from lcsampler.numerics import ks_critical_value, ks_statistic, normal_cdf

GAUSSIAN_ACCEPTANCE = 0.6679481339591666  # Z_p / Z_q for the kappa=1 envelope
GAUSSIAN_MEAN_TRIALS = 1.0 / GAUSSIAN_ACCEPTANCE


def gaussian_setup(offset=0.0):
    pot = PiecewiseQuadraticPotential.gaussian(1.0)
    oracle = PotentialOracle(pot, alpha=1.0, beta=1.0, hidden_offset=offset)
    normalized, env = prepare_envelope(oracle)
    return pot, oracle, normalized, env


class _SelfEnvelopePotential:
    """Potential equal to -log of an envelope; makes the proposal exact."""

    def __init__(self, env: Envelope):
        self.env = env

    def evaluate(self, x):
        return -self.env.log_value(x), math.nan, math.nan


class TestSampleExact:
    def test_mean_trials_matches_acceptance(self):
        _, _, normalized, env = gaussian_setup()
        rng = np.random.default_rng(101)
        n = 40_000
        trials = np.array([sample_exact(normalized, env, rng).trials for _ in range(n)])
        se = math.sqrt((1 - GAUSSIAN_ACCEPTANCE) / GAUSSIAN_ACCEPTANCE**2 / n)
        assert trials.mean() == pytest.approx(GAUSSIAN_MEAN_TRIALS, abs=3 * se)

    def test_trials_equal_queries(self):
        _, oracle, normalized, env = gaussian_setup()
        before = oracle.query_count
        out = sample_exact(normalized, env, np.random.default_rng(0))
        assert out.trials == out.queries == oracle.query_count - before

    def test_samples_are_standard_normal(self):
        _, _, normalized, env = gaussian_setup(offset=2.5)
        rng = np.random.default_rng(7)
        n = 30_000
        draws = np.array([sample_exact(normalized, env, rng).result for _ in range(n)])
        assert ks_statistic(draws, normal_cdf) < ks_critical_value(n)

    def test_self_envelope_accepts_first_trial(self):
        env = Envelope.from_geometry(-1.0, 1.0, 0.5, 0.5)
        oracle = normalize_at_zero(
            PotentialOracle(_SelfEnvelopePotential(env), alpha=1.0, beta=1.0)
        )
        rng = np.random.default_rng(3)
        for _ in range(200):
            assert sample_exact(oracle, env, rng).trials == 1

    def test_trial_count_is_geometric(self):
        _, _, normalized, env = gaussian_setup()
        rng = np.random.default_rng(11)
        trials = [sample_exact(normalized, env, rng).trials for _ in range(30_000)]
        assert geometric_chi2_pvalue(trials, GAUSSIAN_ACCEPTANCE) >= 0.01

    def test_unbiased_on_interval(self):
        _, _, normalized, env = gaussian_setup()
        rng = np.random.default_rng(13)
        n = 30_000
        draws = np.array([sample_exact(normalized, env, rng).result for _ in range(n)])
        a, b = 0.3, 1.2
        p = float(normal_cdf(b) - normal_cdf(a))
        freq = float(np.mean((draws > a) & (draws <= b)))
        assert freq == pytest.approx(p, abs=3 * math.sqrt(p * (1 - p) / n))


class TestSampleCapped:
    def test_cap_formula_examples(self):
        assert capped_trials(0.01, 0.1) == 44
        assert capped_trials(0.5, 0.5) == 1

    def test_domain_validation(self):
        with pytest.raises(UsageError):
            capped_trials(0.0, 0.1)
        with pytest.raises(UsageError):
            capped_trials(0.01, 1.0)
        with pytest.raises(UsageError):
            capped_trials(0.01, -0.5)

    def test_gaussian_never_fails_at_cap_44(self):
        # failure probability (1 - 0.668)^44 < 1e-20: zero failures expected
        _, _, normalized, env = gaussian_setup()
        rng = np.random.default_rng(17)
        outcomes = [sample_capped(normalized, env, 0.01, 0.1, rng) for _ in range(20_000)]
        assert sum(o.failed for o in outcomes) == 0
        assert max(o.trials for o in outcomes) <= 44

    def test_failure_is_reported_not_raised(self):
        # a terrible envelope floor forces a tiny cap and visible failures
        env = Envelope.from_geometry(-30.0, 30.0, 0.5, 0.5)
        pot = PiecewiseQuadraticPotential.gaussian(1.0)
        normalized = normalize_at_zero(PotentialOracle(pot, alpha=1.0, beta=1.0))
        rng = np.random.default_rng(19)
        outcomes = [sample_capped(normalized, env, 0.5, 0.5, rng) for _ in range(400)]
        failures = [o for o in outcomes if o.failed]
        assert failures, "cap of one trial against a poor envelope must fail sometimes"
        assert all(o.result is FAILURE and o.trials == o.queries == 1 for o in failures)

    def test_failure_probability_matches_geometric_tail(self):
        env = Envelope.from_geometry(-30.0, 30.0, 0.5, 0.5)
        pot = PiecewiseQuadraticPotential.gaussian(1.0)
        rho = acceptance_probability(pot, env)
        cap = capped_trials(0.2, rho)
        expected_fail = (1.0 - rho) ** cap
        normalized = normalize_at_zero(PotentialOracle(pot, alpha=1.0, beta=1.0))
        rng = np.random.default_rng(23)
        n = 20_000
        fails = sum(sample_capped(normalized, env, 0.2, rho, rng).failed for _ in range(n))
        se = math.sqrt(expected_fail * (1 - expected_fail) / n)
        assert fails / n == pytest.approx(expected_fail, abs=3 * se + 1e-4)
        assert expected_fail <= 0.2


class TestAcceptanceProbability:
    def test_gaussian_value(self):
        pot, _, _, env = gaussian_setup()
        assert acceptance_probability(pot, env) == pytest.approx(GAUSSIAN_ACCEPTANCE, rel=1e-8)

    def test_self_envelope_is_one(self):
        # the quadrature reference: this potential has no closed-form mass
        env = Envelope.from_geometry(-1.0, 1.0, 0.5, 0.5)
        assert quadrature_acceptance(_SelfEnvelopePotential(env), env) == pytest.approx(
            1.0, rel=1e-8
        )

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(43)
        cases = [(PiecewiseQuadraticPotential.gaussian(1.0), 1.0)]
        for kappa in (10.0, 1e3):
            cases += [(random_class_potential(rng, kappa), kappa) for _ in range(4)]
        for kappa, i in ((1e3, 1), (1e3, 6), (1e6, 3)):
            cases.append((hardfamily.build_member(kappa, i), kappa))
        for pot, kappa in cases:
            _, env = prepare_envelope(PotentialOracle(pot, alpha=1.0, beta=kappa))
            assert acceptance_probability(pot, env) == pytest.approx(
                quadrature_acceptance(pot, env), rel=1e-8
            )

    def test_floor_holds_on_random_members(self):
        rng = np.random.default_rng(29)
        for kappa in (1.0, 10.0, 1e3):
            for _ in range(8):
                pot = random_class_potential(rng, kappa)
                oracle = PotentialOracle(pot, alpha=1.0, beta=kappa)
                _, env = prepare_envelope(oracle)
                assert acceptance_probability(pot, env) >= 0.1

    def test_empirical_matches_quadrature(self):
        pot, _, normalized, env = gaussian_setup()
        rho = acceptance_probability(pot, env)
        rng = np.random.default_rng(31)
        n_trials = 0
        n_accepts = 0
        while n_trials < 30_000:
            out = sample_exact(normalized, env, rng)
            n_trials += out.trials
            n_accepts += 1
        emp = n_accepts / n_trials
        se = math.sqrt(rho * (1 - rho) / n_trials)
        assert emp == pytest.approx(rho, abs=3 * se)


class TestFailureToken:
    def test_singleton_and_repr(self):
        assert repr(FAILURE) == "FAILURE"
        assert type(FAILURE)() is FAILURE
