import math

import numpy as np
import pytest

from lcsampler import (
    ChainState,
    ClassViolationError,
    MultivariateOracle,
    UsageError,
    bracket_minimizer,
    build_line_envelope,
    quadratic_oracle,
    restrict,
    run_chain,
    sample_exact,
    step,
)
from lcsampler.numerics import (
    adaptive_quadrature,
    ks_critical_value,
    ks_statistic,
    normal_cdf,
)


def isotropic(dim, kappa):
    return quadratic_oracle(np.ones(dim), kappa=kappa)


class TestRestrict:
    def test_perpendicular_foot_and_values(self):
        o = isotropic(2, 1.0)
        x_t = np.array([1.0, 0.0])
        line = restrict(o, x_t, np.array([0.0, 1.0]))
        assert np.allclose(line.base, [1.0, 0.0])
        assert np.array_equal(line.point(0.0), x_t)  # x_t sits at lam = u @ x_t = 0
        assert line.value(2.0) == pytest.approx(2.5)  # (1 + 2^2) / 2
        assert line.derivative(0.0) == 0.0

    def test_base_is_orthogonal_to_direction(self):
        rng = np.random.default_rng(3)
        o = quadratic_oracle(np.array([1.0, 2.0, 4.0]))
        for _ in range(20):
            x = rng.standard_normal(3)
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            line = restrict(o, x, u)
            assert abs(float(u @ line.base)) < 1e-12
            recon = line.point(float(u @ x))
            assert np.allclose(recon, x, atol=1e-12)

    def test_restricted_curvature_in_sandwich(self):
        kappa = 4.0
        o = quadratic_oracle(np.array([1.0, 4.0]), kappa=kappa)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            line = restrict(o, rng.standard_normal(2), u)
            lam = float(rng.uniform(-2, 2))
            h = 1e-4
            second = (line.value(lam + h) - 2 * line.value(lam) + line.value(lam - h)) / h**2
            assert 1.0 - 1e-4 <= second <= kappa + 1e-4

    def test_rejects_non_unit_direction(self):
        o = isotropic(2, 1.0)
        with pytest.raises(UsageError):
            restrict(o, np.zeros(2), np.array([0.0, 2.0]))
        with pytest.raises(UsageError):
            restrict(o, np.zeros(2), np.zeros(2))

    def test_each_line_call_charges_one_query(self):
        o = isotropic(2, 1.0)
        line = restrict(o, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        before = o.query_count
        line.value(0.3)
        line.derivative(0.3)
        assert o.query_count == before + 2


class TestBracketMinimizer:
    def test_symmetric_line_contains_origin(self):
        o = isotropic(2, 1.0)
        line = restrict(o, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        a, b = bracket_minimizer(line, 1.0, 1.0)
        assert a <= 0.0 <= b
        assert b - a == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_anisotropic_line_contains_analytic_minimizer(self):
        # V(x) = (x1^2 + 4 x2^2)/2 restricted through (1, 0) along (0.6, 0.8)
        o = quadratic_oracle(np.array([1.0, 4.0]), kappa=4.0)
        line = restrict(o, np.array([1.0, 0.0]), np.array([0.6, 0.8]))
        diag = np.array([1.0, 4.0])
        denom = float(line.direction @ (diag * line.direction))
        lam_star = -float(line.direction @ (diag * line.base)) / denom
        a, b = bracket_minimizer(line, 4.0, float(np.linalg.norm(line.base)))
        assert a <= lam_star <= b
        assert b - a == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_query_count_within_bisection_bound(self):
        kappa = 1e6
        o = quadratic_oracle(np.array([1.0, kappa]), kappa=kappa)
        line = restrict(o, np.array([1.0, 0.2]), np.array([0.6, 0.8]))
        x_star = float(np.linalg.norm(line.base))
        before = o.query_count
        bracket_minimizer(line, kappa, x_star)
        used = o.query_count - before
        bound = math.ceil(math.log2(4.0 * kappa * x_star / math.sqrt(2.0 / kappa))) + 2
        assert used <= bound

    def test_origin_line_degenerate_seed(self):
        o = isotropic(2, 4.0)
        line = restrict(o, np.zeros(2), np.array([1.0, 0.0]))
        a, b = bracket_minimizer(line, 4.0, 0.0)
        assert a <= 0.0 <= b

    def test_ternary_fallback_without_gradients(self):
        kappa = 4.0
        oracle = MultivariateOracle(
            value_fn=lambda x: 0.5 * float(x @ x), grad_fn=None, dimension=2, kappa=kappa
        )
        line = restrict(oracle, np.array([1.0, 1.0]), np.array([0.0, 1.0]))
        a, b = bracket_minimizer(line, kappa, 1.0)
        assert a <= 0.0 <= b
        assert b - a == pytest.approx(math.sqrt(2.0 / kappa), rel=1e-12)

    def test_concave_target_raises_class_violation(self):
        oracle = MultivariateOracle(
            value_fn=lambda x: -0.5 * float(x @ x),
            grad_fn=lambda x: -x,
            dimension=2,
            kappa=4.0,
        )
        line = restrict(oracle, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ClassViolationError):
            bracket_minimizer(line, 4.0, 1.0)


class TestLineEnvelope:
    def _restriction(self, kappa=4.0, x_t=(1.0, 0.0), u=(0.0, 1.0), diag=None):
        diag = np.ones(2) if diag is None else np.asarray(diag, float)
        o = quadratic_oracle(diag, kappa=kappa)
        line = restrict(o, np.asarray(x_t, float), np.asarray(u, float))
        a, b = bracket_minimizer(line, kappa, float(np.linalg.norm(line.base)))
        return o, line, a, b

    def test_envelope_dominates_relabeled_density(self):
        kappa = 4.0
        _, line, a, b = self._restriction(kappa=kappa)
        env, shifted = build_line_envelope(line, a, b, kappa)
        grid = np.linspace(env.x_minus - 6.0, env.x_plus + 6.0, 4000)
        vals = np.array([math.exp(-shifted.value(g)) for g in grid])
        assert float(np.min(env.value(grid) - vals)) >= -1e-12

    def test_plateau_level_and_offset(self):
        kappa = 4.0
        _, line, a, b = self._restriction(kappa=kappa)
        env, _ = build_line_envelope(line, a, b, kappa)
        assert env.plateau_height == math.e
        assert env.tail_offset == 3.0
        assert env.x_minus < a and env.x_plus > b

    def test_geometry_and_queries_pinned(self):
        # values of the line step before it moved onto the shared plateau builder
        o = quadratic_oracle(np.array([1.0, 30.0]), kappa=1e3)
        line = restrict(o, np.array([1.0, 0.5]), np.array([0.6, 0.8]))
        a, b = bracket_minimizer(line, 1e3, float(np.linalg.norm(line.base)))
        before = o.query_count
        env, shifted = build_line_envelope(line, a, b, 1e3)
        assert (env.x_minus, env.x_plus) == (-0.6833373825913792, 1.3852416794663793)
        assert (env.drift_minus, env.drift_plus) == (2.8391609345515234, 2.839160934551523)
        assert (env.plateau_height, env.tail_offset) == (math.e, 3.0)
        assert shifted.shift == 0.1989729931656748
        assert o.query_count - before == 10

    def test_first_dyadic_offset_is_never_needed_at_zero(self):
        # the relabeled value one grid step past the bracket stays below the
        # plateau threshold, so the search range starting at 1 is sound
        for kappa, diag in ((4.0, (1.0, 4.0)), (100.0, (1.0, 30.0))):
            o = quadratic_oracle(np.asarray(diag, float), kappa=kappa)
            line = restrict(o, np.array([0.5, 0.4]), np.array([0.6, 0.8]))
            a, b = bracket_minimizer(line, kappa, float(np.linalg.norm(line.base)))
            shift = max(line.value(a), line.value(b))
            probe = line.value(b + 1.0 / math.sqrt(kappa)) - shift
            assert probe < 3.0

    def test_mass_is_proportional_to_plateau_width(self):
        kappa = 4.0
        _, line, a, b = self._restriction(kappa=kappa)
        env, _ = build_line_envelope(line, a, b, kappa)
        width = env.x_plus - env.x_minus
        cap = (math.e + 2.0 * math.exp(-2.0) / 3.0) * width
        quad = adaptive_quadrature(
            lambda x: env.value(x),
            env.x_minus - 45.0,
            env.x_plus + 45.0,
            tol=1e-9,
            breakpoints=[env.x_minus, env.x_plus],
        )
        assert env.mass_total == pytest.approx(quad.value, rel=1e-8)
        assert env.mass_total <= cap

    def test_acceptance_probability_floor(self):
        kappa = 4.0
        _, line, a, b = self._restriction(kappa=kappa)
        env, shifted = build_line_envelope(line, a, b, kappa)
        z_p = adaptive_quadrature(
            lambda lam: math.exp(-shifted.value(lam)),
            env.x_minus - 8.0,
            env.x_plus + 8.0,
            tol=1e-9,
        ).value
        floor = 0.5 * math.exp(-3.0) * (env.x_plus - env.x_minus) / env.mass_total
        assert z_p / env.mass_total >= floor


class TestStep:
    def test_conditional_law_fixed_direction(self):
        o = isotropic(2, 4.0)
        rng = np.random.default_rng(7)
        state = ChainState(position=np.array([1.0, 0.0]))
        n = 4000
        lams = np.empty(n)
        for k in range(n):
            lams[k] = step(o, state, rng, direction=np.array([0.0, 1.0])).position[1]
        assert ks_statistic(lams, normal_cdf) < ks_critical_value(n)

    def test_one_step_preserves_stationary_mean(self):
        d = 5
        o = isotropic(d, 10.0)
        rng = np.random.default_rng(11)
        n = 3000
        after = np.empty((n, d))
        for k in range(n):
            st = ChainState(position=rng.standard_normal(d))
            after[k] = step(o, st, rng).position
        se = 1.0 / math.sqrt(n)
        assert np.all(np.abs(after.mean(axis=0)) <= 3.5 * se)

    def test_query_ledger_matches_oracle_counter(self):
        o = isotropic(3, 100.0)
        rng = np.random.default_rng(13)
        state = ChainState(position=np.array([0.5, -0.2, 0.1]))
        for _ in range(5):
            state = step(o, state, rng)
        assert state.cumulative_queries == o.query_count
        assert state.step_index == 5


class TestRunChain:
    def test_zero_steps(self):
        o = isotropic(4, 10.0)
        res = run_chain(o, np.zeros(4), 0, np.random.default_rng(0))
        assert res.positions.shape == (1, 4)
        assert res.step_queries.size == 0
        assert res.mean_queries_per_step == 0.0
        assert o.query_count == 0

    def test_short_chain_moments(self):
        o = isotropic(6, 10.0)
        rng = np.random.default_rng(17)
        res = run_chain(o, np.zeros(6), 4000, rng)
        tail = res.positions[500:]
        assert np.all(np.abs(tail.mean(axis=0)) < 0.2)
        assert np.all(np.abs(tail.var(axis=0) - 1.0) < 0.3)

    def test_amortized_queries_grow_slowly_in_kappa(self):
        counts = {}
        for kappa in (1e3, 1e6):
            o = isotropic(4, kappa)
            rng = np.random.default_rng(19)
            res = run_chain(o, np.zeros(4), 600, rng)
            counts[kappa] = res.mean_queries_per_step
        assert counts[1e6] / counts[1e3] <= 2.5

    def test_negative_steps_rejected(self):
        with pytest.raises(UsageError):
            run_chain(isotropic(2, 1.0), np.zeros(2), -1, np.random.default_rng(0))


class TestMultivariateOracle:
    def test_counter_and_gradient(self):
        o = quadratic_oracle(np.array([1.0, 2.0]))
        resp = o.query(np.array([1.0, 1.0]))
        assert resp.value == pytest.approx(1.5)
        assert np.allclose(resp.gradient, [1.0, 2.0])
        assert o.query_count == 1

    def test_requires_zero_mode(self):
        with pytest.raises(UsageError):
            MultivariateOracle(
                value_fn=lambda x: float(x[0] + 1.0), grad_fn=None, dimension=1, kappa=2.0
            )

    def test_kappa_default_from_diagonal(self):
        assert quadratic_oracle(np.array([2.0, 8.0])).kappa == 4.0
