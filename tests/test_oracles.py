import json
import math

import numpy as np
import pytest

from helpers import random_class_potential
from lcsampler import (
    ClassViolationError,
    PiecewiseQuadraticPotential,
    PotentialOracle,
    UsageError,
    normalize_at_zero,
    prepare_envelope,
    sample_exact,
)
from lcsampler.oracles import check_class_member
from lcsampler.targets import resolve_target


def standard_gaussian_oracle(offset=0.0):
    return PotentialOracle(
        PiecewiseQuadraticPotential.gaussian(1.0), alpha=1.0, beta=1.0, hidden_offset=offset
    )


class TestQuery:
    def test_all_orders_standard_gaussian(self):
        o = standard_gaussian_oracle()
        r = o.query(1.0)
        assert (r.value, r.derivative, r.second_derivative) == (0.5, 1.0, 1.0)

    def test_mode_at_origin(self):
        o = standard_gaussian_oracle()
        assert o.query(0.0).derivative == 0.0

    def test_hidden_offset_added_to_value(self):
        o = standard_gaussian_oracle(offset=7.3)
        assert o.query(2.0).value == pytest.approx(9.3)

    def test_one_increment_per_call_regardless_of_orders(self):
        o = standard_gaussian_oracle()
        o.query(1.0)
        o.value(1.0)
        assert o.query_count == 2


class TestNormalizeAtZero:
    def test_offset_cancels(self):
        o = standard_gaussian_oracle(offset=5.0)
        n = normalize_at_zero(o)
        assert n.value(1.0) == pytest.approx(0.5)

    def test_baked_in_constant_cancels(self):
        pot = PiecewiseQuadraticPotential.gaussian(1.0, value_at_zero=3.0)
        n = normalize_at_zero(PotentialOracle(pot))
        assert n.value(2.0) == pytest.approx(2.0)

    def test_query_accounting(self):
        o = standard_gaussian_oracle()
        n = normalize_at_zero(o)
        n.value(1.0)
        assert o.query_count == 2
        assert n.query_count == 2


class TestPiecewiseEvaluation:
    def test_single_segment(self):
        pot = PiecewiseQuadraticPotential([], [1.0])
        assert pot.evaluate(2.0) == pytest.approx((2.0, 2.0, 1.0))

    def test_two_segments_split_at_one(self):
        pot = PiecewiseQuadraticPotential([1.0], [1.0, 4.0])
        v, d, s = pot.evaluate(2.0)
        assert (v, d, s) == pytest.approx((3.5, 5.0, 4.0))

    def test_breakpoint_uses_right_curvature_but_is_c1(self):
        pot = PiecewiseQuadraticPotential([1.0], [1.0, 4.0])
        v, d, s = pot.evaluate(1.0)
        assert s == 4.0
        h = 1e-7
        v_left, d_left, _ = pot.evaluate(1.0 - h)
        assert v == pytest.approx(v_left + d_left * h, abs=1e-12)
        assert d == pytest.approx(d_left + 1.0 * h, abs=1e-10)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        pot = random_class_potential(rng, 50.0)
        xs = rng.uniform(-5, 5, 64)
        vv, dv, sv = pot.evaluate(xs)
        for k, x in enumerate(xs):
            v, d, s = pot.evaluate(float(x))
            assert (v, d, s) == (vv[k], dv[k], sv[k])

    def test_finite_differences_match_derivatives(self):
        # central differences are exact for quadratics, so only float noise remains
        rng = np.random.default_rng(7)
        for _ in range(10):
            pot = random_class_potential(rng, 100.0)
            for _ in range(20):
                x = float(rng.uniform(-4, 4))
                if np.min(np.abs(pot.breakpoints - x)) < 1e-3:
                    continue
                h = 1e-4
                v_m, d_m, _ = pot.evaluate(x - h)
                v_p, d_p, _ = pot.evaluate(x + h)
                v, d, s = pot.evaluate(x)
                assert (v_p - v_m) / (2 * h) == pytest.approx(d, rel=1e-6, abs=1e-8)
                assert (d_p - d_m) / (2 * h) == pytest.approx(s, rel=1e-6)

    def test_breakpoint_validation(self):
        with pytest.raises(UsageError):
            PiecewiseQuadraticPotential([1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(UsageError):
            PiecewiseQuadraticPotential([0.0], [1.0])

    def test_density_mass_gaussian(self):
        pot = PiecewiseQuadraticPotential.gaussian(1.0)
        assert pot.density_mass() == pytest.approx(math.sqrt(2 * math.pi), rel=1e-12)

    def test_density_cdf_monotone_and_normalized(self):
        rng = np.random.default_rng(9)
        pot = random_class_potential(rng, 30.0)
        xs = np.linspace(-6, 6, 200)
        cdf = pot.density_cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == pytest.approx(0.0, abs=1e-8)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-8)


class TestOffsetOpacity:
    def test_identical_runs_for_different_hidden_offsets(self):
        results = []
        for offset in (0.0, 123.456):
            oracle = PotentialOracle(
                PiecewiseQuadraticPotential.gaussian(1.0),
                alpha=1.0,
                beta=4.0,
                hidden_offset=offset,
            )
            normalized, env = prepare_envelope(oracle)
            rng = np.random.default_rng(42)
            draws = [sample_exact(normalized, env, rng).result for _ in range(50)]
            results.append((env, draws, oracle.query_count))
        env_a, draws_a, count_a = results[0]
        env_b, draws_b, count_b = results[1]
        assert env_a == env_b
        assert draws_a == draws_b
        assert count_a == count_b


class TestClassChecks:
    def test_accepts_member(self):
        check_class_member(PiecewiseQuadraticPotential.gaussian(2.0), 1.0, 4.0)

    def test_rejects_out_of_sandwich_curvature(self):
        pot = PiecewiseQuadraticPotential([0.5], [1.0, 9.0])
        with pytest.raises(ClassViolationError):
            check_class_member(pot, 1.0, 4.0)

    def test_rejects_shifted_mode(self):
        pot = PiecewiseQuadraticPotential([], [1.0], slope_at_zero=0.5)
        with pytest.raises(ClassViolationError):
            check_class_member(pot, 1.0, 4.0)


class TestJsonLoading:
    def test_gaussian_document(self):
        doc = {"type": "gaussian", "alpha": 1.0, "beta": 9.0, "offset": 2.0}
        _, o = resolve_target(json.dumps(doc), None)
        assert o.kappa == 9.0
        assert o.query(0.0).value == pytest.approx(2.0)

    def test_piecewise_document_roundtrip(self, tmp_path):
        doc = {
            "type": "piecewise",
            "alpha": 1.0,
            "beta": 4.0,
            "breakpoints": [-0.5, 0.5],
            "curvatures": [4.0, 1.0, 4.0],
            "offset": 0.0,
        }
        path = tmp_path / "target.json"
        path.write_text(json.dumps(doc))
        _, o = resolve_target(str(path), None)
        assert o.query(0.0).second_derivative == 1.0
        assert o.query(1.0).second_derivative == 4.0

    def test_unknown_type_rejected(self):
        with pytest.raises(UsageError):
            resolve_target(json.dumps({"type": "mystery"}), None)
