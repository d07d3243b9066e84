import math

import numpy as np
import pytest

from helpers import random_class_potential
from lcsampler import (
    ClassViolationError,
    Envelope,
    PiecewiseQuadraticPotential,
    PotentialOracle,
    UsageError,
    build_envelope,
    find_threshold_index,
    normalize_at_zero,
    prepare_envelope,
)
from lcsampler import hardfamily
from lcsampler.numerics import adaptive_quadrature, ks_critical_value, ks_statistic


def make_oracle(potential, kappa, offset=0.0):
    return PotentialOracle(potential, alpha=1.0, beta=kappa, hidden_offset=offset)


def gaussian_oracle(kappa, offset=0.0):
    return make_oracle(PiecewiseQuadraticPotential.gaussian(1.0), kappa, offset)


def search_top(kappa):
    """Top index of the 1D dyadic search grid, ceil(log2(kappa) / 2)."""
    return max(0, math.ceil(0.5 * math.log2(kappa)))


def search(oracle, side):
    """The 1D threshold search on a normalized oracle, as build_envelope runs it."""
    kappa = oracle.kappa
    return find_threshold_index(oracle.value, 0.0, side, kappa, 0.5, 0, search_top(kappa))


def query_budget(kappa):
    grid = search_top(kappa) + 1
    return 2 * (math.ceil(math.log2(grid)) + 1) + 1 if grid > 1 else 5


class TestThresholdSearch:
    def test_kappa_one_is_forced(self):
        n = normalize_at_zero(gaussian_oracle(1.0))
        assert search(n, +1) == 0

    def test_gaussian_declared_kappa_four(self):
        n = normalize_at_zero(gaussian_oracle(4.0))
        # V(2^0/2) = 0.125 < 1/2 but V(2^1/2) = 0.5 >= 1/2
        assert search(n, +1) == 1

    def test_binary_equals_linear_scan(self):
        rng = np.random.default_rng(31)
        targets = [PiecewiseQuadraticPotential.gaussian(1.0)] + [
            random_class_potential(rng, 1e3) for _ in range(15)
        ]
        targets += [hardfamily.build_member(1e3, i) for i in (1, 3, 6)]
        for kappa in (1e3, 37.5):
            top = search_top(kappa)
            for pot in targets:
                for side in (+1, -1):
                    searched = search(normalize_at_zero(make_oracle(pot, kappa)), side)
                    probe = normalize_at_zero(make_oracle(pot, kappa))
                    scan = next(
                        i
                        for i in range(top + 1)
                        if probe.value(side * 2.0**i / math.sqrt(kappa)) >= 0.5
                    )
                    assert searched == scan

    def test_hard_member_three_at_kappa_1e6(self):
        # frozen by linear scan of the exact piecewise representation
        n = normalize_at_zero(make_oracle(hardfamily.build_member(1e6, 3), 1e6))
        assert search(n, +1) == 3

    def test_flat_potential_raises_class_violation(self):
        flat = PiecewiseQuadraticPotential([], [1e-12])
        n = normalize_at_zero(make_oracle(flat, 4.0))
        with pytest.raises(ClassViolationError):
            search(n, +1)


class TestBuildEnvelope:
    def test_gaussian_kappa_one_geometry(self):
        oracle = gaussian_oracle(1.0)
        _, env = prepare_envelope(oracle)
        assert (env.x_minus, env.x_plus) == (-1.0, 1.0)
        assert env.plateau_height == 1.0 and env.tail_offset == 0.0
        assert env.drift_minus == env.drift_plus == 0.5
        assert env.x_minus < 0.0 < env.x_plus

    def test_gaussian_kappa_one_mass_vs_quadrature(self):
        _, env = prepare_envelope(gaussian_oracle(1.0))
        quad = adaptive_quadrature(
            lambda x: env.value(x), -40.0, 40.0, tol=1e-10, breakpoints=[env.x_minus, env.x_plus]
        )
        assert quad.value == pytest.approx(3.7527289129073846, rel=1e-10)
        assert env.mass_total == pytest.approx(quad.value, rel=1e-8)
        assert env.mass_total == pytest.approx(sum(env.piece_masses), rel=1e-12)

    def test_plateau_mass_exact(self):
        _, env = prepare_envelope(gaussian_oracle(1e3))
        assert env.piece_masses[1] == env.plateau_height * (env.x_plus - env.x_minus)

    def test_query_budget_per_kappa(self):
        for kappa in (1.0, 10.0, 1e3, 1e6, 1e9, 1e12):
            oracle = gaussian_oracle(kappa)
            prepare_envelope(oracle)
            assert oracle.query_count <= query_budget(kappa)

    def test_loglog_growth_on_gaussian(self):
        counts = {}
        for kappa in (1e3, 1e12):
            oracle = gaussian_oracle(kappa)
            prepare_envelope(oracle)
            counts[kappa] = oracle.query_count
        assert counts[1e12] - counts[1e3] <= 3

    def test_domination_on_random_members(self):
        rng = np.random.default_rng(17)
        grid = np.linspace(-9.0, 9.0, 4001)
        for _ in range(25):
            pot = random_class_potential(rng, 1e3)
            oracle = make_oracle(pot, 1e3, offset=float(rng.uniform(-5, 5)))
            _, env = prepare_envelope(oracle)
            v0 = pot.evaluate(0.0)[0]
            p_tilde = np.exp(-(pot.evaluate(grid)[0] - v0))
            assert float(np.min(env.value(grid) - p_tilde)) >= -1e-12

    def test_mass_sandwich_per_half(self):
        # each half mass lies between the plateau edge and three times it
        for kappa in (1.0, 1e3, 1e6):
            _, env = prepare_envelope(gaussian_oracle(kappa))
            right = adaptive_quadrature(
                lambda x: env.value(x), 0.0, env.x_plus + 45.0, tol=1e-10,
                breakpoints=[env.x_plus],
            ).value
            left = adaptive_quadrature(
                lambda x: env.value(x), env.x_minus - 45.0, 0.0, tol=1e-10,
                breakpoints=[env.x_minus],
            ).value
            assert env.x_plus <= right <= 3.0 * env.x_plus
            assert -env.x_minus <= left <= -3.0 * env.x_minus

    def test_unnormalized_oracle_rejected(self):
        with pytest.raises(UsageError):
            build_envelope(gaussian_oracle(4.0))

    def test_unrescaled_oracle_rejected(self):
        pot = PiecewiseQuadraticPotential.gaussian(4.0)
        oracle = PotentialOracle(pot, alpha=4.0, beta=4.0)
        with pytest.raises(UsageError):
            build_envelope(normalize_at_zero(oracle))


class TestEnvelopeValue:
    def setup_method(self):
        self.env = Envelope.from_geometry(-1.0, 1.0, 0.5, 0.5)

    def test_plateau(self):
        assert self.env.value(0.0) == 1.0

    def test_right_tail_closed_form(self):
        # distance 1 from the edge: exp(-1/2 - 1/2)
        assert self.env.value(2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_left_tail_symmetry(self):
        assert self.env.value(-2.0) == pytest.approx(self.env.value(2.0))

    def test_shifted_plateau_variant_has_edge_jump(self):
        env = Envelope.from_geometry(-1.0, 1.0, 1.5, 1.5, plateau_height=math.e, tail_offset=3.0)
        assert env.value(1.0) == pytest.approx(math.e)
        just_outside = env.value(1.0 + 1e-12)
        assert just_outside == pytest.approx(math.exp(-2.0), rel=1e-9)
        # jump of size e - e^-2 at the plateau edge is expected
        assert env.value(1.0) - just_outside == pytest.approx(math.e - math.exp(-2.0), rel=1e-9)

    def test_vectorized(self):
        xs = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        vals = self.env.value(xs)
        assert vals.shape == xs.shape
        assert vals[1] == vals[2] == vals[3] == 1.0


class TestEnvelopeSampling:
    def setup_method(self):
        self.env = Envelope.from_geometry(-1.0, 1.0, 0.5, 0.5)

    def test_plateau_selection_probability(self):
        # plateau mass over total: 2 / 3.75273
        rng = np.random.default_rng(23)
        draws = self.env.sample(rng, size=200_000)
        frac = float(np.mean((draws >= -1.0) & (draws <= 1.0)))
        p = 2.0 / 3.7527289129073846
        assert p == pytest.approx(0.5330, abs=5e-4)
        assert frac == pytest.approx(p, abs=3 * math.sqrt(p * (1 - p) / 200_000))

    def test_plateau_conditional_uniform_mean(self):
        rng = np.random.default_rng(29)
        draws = self.env.sample(rng, size=1_000_000)
        plateau = draws[(draws >= -1.0) & (draws <= 1.0)]
        assert abs(float(plateau.mean())) <= 0.002

    def test_ks_against_analytic_cdf(self):
        rng = np.random.default_rng(37)
        n = 100_000
        draws = self.env.sample(rng, size=n)
        assert ks_statistic(draws, self.env.cdf) < ks_critical_value(n)

    def test_ks_for_sharp_envelope_with_large_drifts(self):
        # exercises the rejection fallback branch of the tail sampler
        _, env = prepare_envelope(gaussian_oracle(1e6))
        rng = np.random.default_rng(41)
        n = 50_000
        draws = env.sample(rng, size=n)
        assert ks_statistic(draws, env.cdf) < ks_critical_value(n)

    def test_cdf_limits(self):
        assert self.env.cdf(-60.0) == pytest.approx(0.0, abs=1e-12)
        assert self.env.cdf(60.0) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_sample(self):
        rng = np.random.default_rng(0)
        assert isinstance(self.env.sample(rng), float)


class TestSerialization:
    def test_json_dict_fields(self):
        env = Envelope.from_geometry(-1.0, 2.0, 0.5, 0.25)
        doc = env.to_json_dict()
        assert set(doc) == {
            "x_minus",
            "x_plus",
            "plateau_height",
            "tail_offset",
            "drifts",
            "masses",
        }
        assert doc["drifts"] == [0.5, 0.25]
        assert doc["masses"] == list(env.piece_masses)
