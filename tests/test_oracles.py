import json
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import fraction_anchors, random_class_potential
from lcsampler import (
    ClassViolationError,
    PiecewiseQuadraticPotential,
    PotentialOracle,
    UsageError,
    normalize_at_zero,
    prepare_envelope,
    sample_exact,
)
from lcsampler import hardfamily
from lcsampler.oracles import check_class_member
from lcsampler.targets import builtin_potential, resolve_target


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

    def test_hidden_offset_below_two_to_the_24(self):
        below = math.nextafter(2.0**24, 0.0)
        for offset in (below, -below):
            assert standard_gaussian_oracle(offset).hidden_offset == offset
        for offset in (2.0**24, -(2.0**24), math.inf, math.nan):
            with pytest.raises(UsageError, match="hidden offset"):
                standard_gaussian_oracle(offset)

    def test_one_increment_per_call_regardless_of_orders(self):
        o = standard_gaussian_oracle()
        o.query(1.0)
        assert o.query(1.0).value == pytest.approx(0.5)
        assert o.query_count == 2


class TestNormalizeAtZero:
    def test_offset_cancels(self):
        o = standard_gaussian_oracle(offset=5.0)
        n = normalize_at_zero(o)
        assert n.value(1.0) == pytest.approx(0.5)

    def test_query_accounting(self):
        o = standard_gaussian_oracle()
        n = normalize_at_zero(o)
        n.value(1.0)
        assert o.query_count == 2
        assert n.query_count == 2

    def test_value_and_slope_is_one_query(self):
        # the normalized value and the slope of a query, for one count
        o = standard_gaussian_oracle(offset=5.0)
        n = normalize_at_zero(o)
        response, origin = o.query(1.5), o.query(0.0)
        assert n.value_and_slope(1.5) == (response.value - origin.value, response.derivative)
        assert n.query_count == 4


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

    @pytest.mark.parametrize("name", ["gaussian", "skewed", "hard:1"])
    @pytest.mark.parametrize("kappa", [2.0, 1e6, 1e12])
    def test_density_cdf_at_the_ends(self, name, kappa):
        # exactly 0 and 1 at the infinities, on both paths, and no warning
        # (the test settings make one an error) where V squares past the float
        # range: -inf gave NaN from -inf * (-inf + inf), and 1e300 overflowed
        pot = builtin_potential(name, kappa)
        assert pot.density_cdf(-math.inf) == 0.0 and pot.density_cdf(math.inf) == 1.0
        far = np.array([-math.inf, -1e300, -1e30, 1e30, 1e300, math.inf])
        cdf = pot.density_cdf(far)
        assert cdf.tolist() == [pot.density_cdf(float(x)) for x in far]
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        assert cdf[1:3].tolist() == [0.0, 0.0] and cdf[3:5] == pytest.approx(1.0, rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("kappa", [2.0, 1e3, 1e6])
    def test_density_cdf_stays_in_the_unit_interval(self, kappa):
        # the cumulative sum and the total round apart: unclamped, skewed at
        # kappa 2 and hard:3 at 1e3 read above 1 on most of the right tail
        xs = np.linspace(-60.0, 60.0, 2001)
        for name in ["gaussian", "skewed", *(f"hard:{i}" for i in range(1, hardfamily.largest_m(kappa) + 1))]:
            cdf = builtin_potential(name, kappa).density_cdf(xs)
            assert cdf.min() >= 0.0 and cdf.max() <= 1.0, name
            assert np.all(np.diff(cdf) >= 0.0), name


def _exact_member_breakpoints(kappa, i):
    """Member i's edges y / sqrt(kappa) as Fractions, from its blocks and the 1.25 * 2^i split."""
    root = Fraction(math.sqrt(kappa))
    ys = sorted({start for start, _, _ in hardfamily.member_blocks(kappa, i)[1:]} | {1.25 * 2.0**i})
    pos = [Fraction(y) / root for y in ys]
    return [-e for e in reversed(pos)] + pos


def _anchor_cases():
    # at 1e9, 1e15 and 2.6e11 sqrt(kappa) has a 52- or 53-bit odd mantissa
    for kappa in (2.0, 37.5, 1e3, 1e6, 1e12, 3.3e7, 1e9, 1e15, 2.6e11):
        yield "gaussian", kappa, []
        yield "skewed", kappa, None
        for i in range(1, hardfamily.largest_m(kappa) + 1):
            yield f"hard:{i}", kappa, _exact_member_breakpoints(kappa, i)
    for kappa in (4.0, 1e100):
        for i in range(1, hardfamily.largest_m(kappa) + 1):
            yield f"hard:{i}", kappa, _exact_member_breakpoints(kappa, i)
    # only the outermost two members on each side at 3e307 (m = 511)
    m = hardfamily.largest_m(3e307)
    for i in (1, 2, m - 1, m):
        yield f"hard:{i}", 3e307, _exact_member_breakpoints(3e307, i)


class TestExactAnchors:
    """Both integer anchor walks, the constructor's and ``_even``'s, equal the Fraction reference bit for bit."""

    @staticmethod
    def _check(pot, breakpoints):
        rows = fraction_anchors(breakpoints, pot.curvatures.tolist())
        assert pot._bp_list == [float(b) for b in breakpoints]
        assert pot._rows == rows
        # == lets -0.0 equal 0.0; the walk writes every zero as +0.0
        assert not any(math.copysign(1.0, v) < 0.0 for row in pot._rows for v in row if v == 0.0)
        _, _, mu, vmin, *_ = pot._segment_table()
        assert mu.tolist() == [x - d / c for x, _, d, c in rows]
        assert vmin.tolist() == [v - d * d / (2 * c) for _, v, d, c in rows]
        # the scalar and array paths agree on each breakpoint and its float neighbours
        grid = [y for b in pot._bp_list for y in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))]
        v, d, s = pot.evaluate(np.asarray(grid, dtype=float))
        assert list(zip(v.tolist(), d.tolist(), s.tolist())) == list(map(pot.evaluate, grid))

    @pytest.mark.parametrize("name, kappa, breakpoints", list(_anchor_cases()))
    def test_builtin_and_hard_members(self, name, kappa, breakpoints):
        pot = builtin_potential(name, kappa)
        self._check(pot, pot.breakpoints.tolist() if breakpoints is None else breakpoints)

    def test_random_potentials(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            bps = (np.sort(rng.uniform(-3.0, 3.0, size=n)) + np.arange(n) * 1e-9).tolist()
            cvs = np.exp(rng.uniform(0.0, np.log(1e6), size=n + 1)).tolist()
            pot = PiecewiseQuadraticPotential(bps, cvs)
            self._check(pot, bps)

    @pytest.mark.parametrize(
        "breakpoints, curvatures",
        [
            # symmetric, with 0.0 as its middle breakpoint
            ([-2.0, -0.5, 0.0, 0.5, 2.0], [3.0, 1.0, 7.0, 7.0, 1.0, 3.0]),
            ([-0.75, 0.0, 0.75], [1.0, 5.0, 5.0, 1.0]),
            # symmetric breakpoints, asymmetric curvatures
            ([-2.0, -0.5, 0.5, 2.0], [3.0, 1.0, 7.0, 1.0, 2.0]),
            ([-2.0, -0.5, 0.0, 0.5, 2.0], [3.0, 1.0, 7.0, 6.0, 1.0, 3.0]),
            # symmetric but for one ulp in one breakpoint
            ([-2.0, -0.5, 0.5, math.nextafter(2.0, math.inf)], [3.0, 1.0, 7.0, 1.0, 3.0]),
            ([-2.0, math.nextafter(-0.5, 0.0), 0.5, 2.0], [3.0, 1.0, 7.0, 1.0, 3.0]),
        ],
    )
    def test_near_symmetric_lists(self, breakpoints, curvatures):
        self._check(PiecewiseQuadraticPotential(breakpoints, curvatures), breakpoints)

    def test_arrays_built_on_first_use_match_inputs_and_scalar_path(self):
        kappa = 2.6e11
        root = math.sqrt(kappa)
        breakpoints = [-1.5 / root, -1e-6, -0.25 / root, 0.625 / root, 0.25]
        curvatures = [1.0, kappa, 1.0, 7.0, 1.0, 3.0]
        direct = PiecewiseQuadraticPotential(breakpoints, curvatures)
        member = hardfamily.build_member(kappa, 3)
        xs = np.concatenate([np.linspace(-6.0, 6.0, 601), np.linspace(-40.0, 40.0, 401) / math.sqrt(kappa)])
        for pot in (direct, member):
            # the array path runs before anything else has built an array
            v, d, s = pot.evaluate(xs)
            assert list(zip(v.tolist(), d.tolist(), s.tolist())) == [pot.evaluate(x) for x in xs.tolist()]
        assert direct.breakpoints.tolist() == breakpoints
        assert direct.curvatures.tolist() == curvatures
        assert member.breakpoints.tolist() == [float(b) for b in _exact_member_breakpoints(kappa, 3)]


class TestEven:
    """``PiecewiseQuadraticPotential._even``'s refusals and edge cases; ``TestExactAnchors`` checks its rows."""

    def test_no_breakpoints_is_the_gaussian(self):
        pot = PiecewiseQuadraticPotential._even([], 1, [3])
        assert pot._bp_list == [] and pot._rows == PiecewiseQuadraticPotential.gaussian(3.0)._rows

    @pytest.mark.parametrize(
        "numerators, denominator, curvatures, message",
        [
            ([True, 2], 1, [1.0, 1.0, 1.0], "numerator must be an int"),
            ([1.0, 2], 1, [1.0, 1.0, 1.0], "numerator must be an int"),
            ([1, 2], 0, [1.0, 1.0, 1.0], "denominator must be a positive int"),
            ([1, 2], -3, [1.0, 1.0, 1.0], "denominator must be a positive int"),
            ([1, 2], 3.0, [1.0, 1.0, 1.0], "denominator must be a positive int"),
            ([1, 2], True, [1.0, 1.0, 1.0], "denominator must be a positive int"),
            ([2, 1], 1, [1.0, 1.0, 1.0], "strictly increasing"),
            ([1, 1], 1, [1.0, 1.0, 1.0], "strictly increasing"),
            # distinct ints that divide to one float
            ([2**60, 2**60 + 1], 1, [1.0, 1.0, 1.0], "strictly increasing"),
            ([0, 1], 1, [1.0, 1.0, 1.0], "must be positive"),
            ([-1, 1], 1, [1.0, 1.0, 1.0], "must be positive"),
            ([1], 10**400, [1.0, 1.0], "must be positive"),  # 1 / 10^400 rounds to 0.0
            ([1, 2], 1, [1.0, 1.0], "one curvature per right-half segment"),
            ([1, 2], 1, [1.0, 1.0, 1.0, 1.0], "one curvature per right-half segment"),
            ([1], 1, [1.0, math.inf], "finite"),
            ([1], 1, [math.nan, 1.0], "finite"),
            ([10**400], 1, [1.0, 1.0], "breakpoint overflows a float"),
            ([1, 10**308], 1, [1.0, 1.0, 1.0], "segment 0: the potential at its anchor x = -1e[+]308 overflows"),
        ],
    )
    def test_refusals(self, numerators, denominator, curvatures, message):
        with pytest.raises(UsageError, match=message):
            PiecewiseQuadraticPotential._even(numerators, denominator, curvatures)

    def test_overflow_names_the_constructors_segment(self):
        with pytest.raises(UsageError) as even:
            PiecewiseQuadraticPotential._even([1, 2, 10**308], 1, [1.0, 1.0, 5.0, 1.0])
        with pytest.raises(UsageError) as general:
            PiecewiseQuadraticPotential([-1e308, -2.0, -1.0, 1.0, 2.0, 1e308], [1.0, 5.0, 1.0, 1.0, 1.0, 5.0, 1.0])
        assert str(even.value) == str(general.value)


class TestOffsetOpacity:
    def test_identical_runs_for_different_hidden_offsets(self):
        results = []
        for offset in (0.0, 123.456):
            oracle = PotentialOracle(
                PiecewiseQuadraticPotential.gaussian(1.0), beta=4.0, hidden_offset=offset
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
        check_class_member(PiecewiseQuadraticPotential.gaussian(2.0), 4.0)

    def test_rejects_out_of_sandwich_curvature(self):
        pot = PiecewiseQuadraticPotential([0.5], [1.0, 9.0])
        with pytest.raises(ClassViolationError):
            check_class_member(pot, 4.0)


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
