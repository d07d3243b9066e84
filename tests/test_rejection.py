import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    geometric_chi2_pvalue,
    ks_critical_value,
    ks_statistic,
    normal_cdf,
    quadrature_acceptance,
    random_class_potential,
)
from lcsampler import (
    FAILURE,
    ClassViolationError,
    Envelope,
    PiecewiseQuadraticPotential,
    PotentialOracle,
    UsageError,
    acceptance_probability,
    capped_trials,
    normalize_at_zero,
    prepare_envelope,
    sample_exact,
)
from lcsampler import hardfamily
from lcsampler.hitandrun import Certificate, quadratic_oracle, restrict

# Z_p / Z_q for the kappa=1 envelope: sqrt(2 pi) over the closed-form mass
# 2 + 2 e^(-1/2) sqrt(pi/2) e^(1/8) erfc(1/(2 sqrt 2)) (test_envelope)
GAUSSIAN_ACCEPTANCE = 0.8183348608090128
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


    def test_envelope_below_target_raises_class_violation(self):
        # curvature 0.2 < alpha = 1 past x = 1.2: the envelope builds, but
        # proposals far enough right prove it fails to dominate
        pot = PiecewiseQuadraticPotential([1.2], [1.0, 0.2])
        normalized, env = prepare_envelope(PotentialOracle(pot, alpha=1.0, beta=1e3))
        rng = np.random.default_rng(1)
        with pytest.raises(ClassViolationError, match="log gap") as info:
            for _ in range(20_000):
                sample_exact(normalized, env, rng)
        x = info.value.query_point
        assert x > 1.2
        gap = -(pot.evaluate(x)[0] - pot.evaluate(0.0)[0]) - env.log_value(x)
        assert gap > 1e-9
        # the oracle's hidden offset adds at most 2^-30 of noise to its value
        assert info.value.gap == pytest.approx(gap, rel=0.0, abs=2.0**-29)


class _FixedTrial:
    """An envelope stand-in whose every draw is ``x``, with log value ``log_value``."""

    def __init__(self, x, log_value):
        self.x, self._log_value = x, log_value

    def sample(self, rng):
        return self.x

    def log_value(self, x):
        return self._log_value


class TestRoundingOfShiftedValues:
    # The line through (b, 0) along the second axis of |x|^2 / 2 has W(p) =
    # b^2/2 = 1.00000179e11 at lam = 0 and W(lam) = W(p) + lam^2/2.  At lam =
    # 1 + 2^-20 the oracle rounds b^2 + lam^2 to a multiple of 2^-15, so it
    # answers W(p) + 1/2, short of W(lam) by 2^-20 + 2^-41: a tight envelope,
    # exactly exp(-lam^2/2) there, then lies 9.5e-7 below the target's reading.
    B, LAM = 447_214.0, 1.0 + 2.0**-20

    def _view(self):
        line = restrict(quadratic_oracle(np.ones(2)), np.array([self.B, 0.0]), np.array([0.0, 1.0]))
        return line.certify(Certificate(0.0, *line.query(0.0)))

    def test_an_in_class_trial_within_rounding_is_accepted(self):
        view = self._view()
        assert view.shift == 0.5 * self.B**2
        env = _FixedTrial(self.LAM, -0.5 * self.LAM * self.LAM)
        assert -view.value(self.LAM) - env.log_value(self.LAM) == 2.0**-20 + 2.0**-41
        outcome = sample_exact(view, env, np.random.default_rng(0))
        assert outcome == (self.LAM, 1, 1)

    def test_a_gap_beyond_rounding_still_raises(self):
        env = _FixedTrial(self.LAM, -0.5 * self.LAM * self.LAM - 1e-2)
        with pytest.raises(ClassViolationError, match="log gap") as info:
            sample_exact(self._view(), env, np.random.default_rng(0))
        assert info.value.query_point == self.LAM
        # the view answers W(p) + 1/2 there
        assert info.value.gap == -0.5 - env.log_value(self.LAM)

    def test_the_1d_view_keeps_the_absolute_bound(self):
        # a hidden offset near 2^24 would widen an allowance of ulps of it to 3e-8
        _, _, normalized, _ = gaussian_setup(offset=2.0**24 - 1.0)
        x = 0.5
        env = _FixedTrial(x, -0.125 - 1e-8)
        assert -normalized.value(x) - env.log_value(x) == pytest.approx(1e-8, abs=1e-9)
        with pytest.raises(ClassViolationError, match="log gap"):
            sample_exact(normalized, env, np.random.default_rng(0))


class TestSampleCapped:
    def test_cap_formula_examples(self):
        assert capped_trials(0.01, 0.1) == 44
        assert capped_trials(0.5, 0.5) == 1

    def test_extreme_pairs_give_finite_caps(self):
        # 1/epsilon overflows, 1 - rho rounds to 1, or the quotient passes
        # the largest float: each cap is still the least int N with
        # N log1p(-rho) <= log(epsilon), taken exactly
        tiny, below_one = 5e-324, 1.0 - 2.0**-53
        pairs = [(1e-320, 0.1), (0.01, 1e-17), (tiny, tiny), (tiny, below_one), (below_one, tiny),
                 (below_one, below_one), (1e-6, 0.99)]
        for epsilon, rho in pairs:
            n = capped_trials(epsilon, rho)
            log_fail, log_epsilon = Fraction(math.log1p(-rho)), Fraction(math.log(epsilon))
            assert type(n) is int and n >= 1
            assert n * log_fail <= log_epsilon < (n - 1) * log_fail
        assert capped_trials(1e-320, 0.1) == 6994
        assert capped_trials(1e-6, 0.99) == 4  # where log(1/eps) / log(1/(1 - rho)) rounds to 3

    def test_domain_validation(self):
        with pytest.raises(UsageError):
            capped_trials(0.0, 0.1)
        with pytest.raises(UsageError):
            capped_trials(0.01, 1.0)
        with pytest.raises(UsageError):
            capped_trials(0.01, -0.5)

    def test_gaussian_never_fails_at_cap_44(self):
        # failure probability (1 - 0.818)^44 < 1e-20: zero failures expected
        _, _, normalized, env = gaussian_setup()
        rng = np.random.default_rng(17)
        cap = capped_trials(0.01, 0.1)
        outcomes = [sample_exact(normalized, env, rng, cap=cap) for _ in range(20_000)]
        assert sum(o.failed for o in outcomes) == 0
        assert max(o.trials for o in outcomes) <= 44

    def test_failure_is_reported_not_raised(self):
        # a terrible envelope floor forces a tiny cap and visible failures
        env = Envelope.from_geometry(-30.0, 30.0, 0.5, 0.5)
        pot = PiecewiseQuadraticPotential.gaussian(1.0)
        normalized = normalize_at_zero(PotentialOracle(pot, alpha=1.0, beta=1.0))
        rng = np.random.default_rng(19)
        cap = capped_trials(0.5, 0.5)
        outcomes = [sample_exact(normalized, env, rng, cap=cap) for _ in range(400)]
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
        fails = sum(sample_exact(normalized, env, rng, cap=cap).failed for _ in range(n))
        se = math.sqrt(expected_fail * (1 - expected_fail) / n)
        assert fails / n == pytest.approx(expected_fail, abs=3 * se + 1e-4)
        assert expected_fail <= 0.2

    @pytest.mark.parametrize("cap", [0, -1, 2.0, "3", True, np.int64(0)])
    def test_cap_must_be_an_int_of_at_least_one(self, cap):
        _, oracle, normalized, env = gaussian_setup()
        before = oracle.query_count
        with pytest.raises(UsageError, match="trial cap"):
            sample_exact(normalized, env, np.random.default_rng(0), cap=cap)
        assert oracle.query_count == before

    def test_numpy_integer_cap_gives_int_counts(self):
        # against the poor envelope most draws spend the whole cap of 3
        env = Envelope.from_geometry(-30.0, 30.0, 0.5, 0.5)
        pot = PiecewiseQuadraticPotential.gaussian(1.0)
        normalized = normalize_at_zero(PotentialOracle(pot, alpha=1.0, beta=1.0))
        rng = np.random.default_rng(29)
        outcomes = [sample_exact(normalized, env, rng, cap=np.int64(3)) for _ in range(100)]
        failures = [o for o in outcomes if o.failed]
        assert failures and all(o.trials == o.queries == 3 for o in failures)
        assert all(type(o.trials) is int and type(o.queries) is int for o in outcomes)


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

    @pytest.mark.parametrize("offset", [800.0, -800.0])
    def test_hidden_offset_cancels(self, offset):
        def rho(c):
            pot = PiecewiseQuadraticPotential.gaussian(1.0)
            _, env = prepare_envelope(PotentialOracle(pot, beta=1e3, hidden_offset=c))
            return acceptance_probability(pot, env)

        # x_pm = +-32/sqrt(1e3) where W = 0.512: sqrt(2 pi) over the mass
        # 2x + 2 e^(-x^2/2) sqrt(pi/2) e^(x^2/8) erfc(x/(2 sqrt 2)), x = 32/sqrt(1e3)
        assert rho(0.0) == pytest.approx(0.81642294, rel=1e-8)
        assert rho(offset) == pytest.approx(rho(0.0), rel=1e-12)

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
