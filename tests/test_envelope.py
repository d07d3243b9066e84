import dataclasses
import math
import re

import numpy as np
import pytest

from helpers import (
    adaptive_quadrature,
    domination_grid,
    envelope_cdf,
    ks_critical_value,
    ks_statistic,
    normal_cdf,
    random_class_potential,
    value_only_envelope,
    value_only_search,
)
from lcsampler import (
    ClassViolationError,
    Envelope,
    PiecewiseQuadraticPotential,
    PotentialOracle,
    UsageError,
    bracket_minimizer,
    build_envelope,
    build_line_envelope,
    find_threshold_index,
    normalize_at_zero,
    prepare_envelope,
    quadratic_oracle,
    restrict,
)
from lcsampler import acceptance_probability, hardfamily
from lcsampler.targets import builtin_potential


def make_oracle(potential, kappa, offset=0.0):
    return PotentialOracle(potential, alpha=1.0, beta=kappa, hidden_offset=offset)


def gaussian_oracle(kappa, offset=0.0):
    return make_oracle(PiecewiseQuadraticPotential.gaussian(1.0), kappa, offset)


def search_top(kappa):
    """Top index of the 1D dyadic search grid, ceil(log2(kappa) / 2)."""
    return max(0, math.ceil(0.5 * math.log2(kappa)))


def search(oracle, side):
    """The 1D threshold search on a normalized oracle, as build_envelope runs it.

    Each query answers the value and the slope.  Returns the index and the
    value queried at its edge.
    """
    kappa = oracle.kappa
    index, value, _ = find_threshold_index(
        oracle.value_and_slope, 0.0, side, kappa, 0.5, 0, search_top(kappa)
    )
    return index, value


def line_envelopes():
    """Hit-and-Run line envelopes at kappa 1e6, each with finite pieces on both sides."""
    oracle = quadratic_oracle(np.array([1.0, 30.0, 1e6]), kappa=1e6)
    rng = np.random.default_rng(3)
    for _ in range(4):
        x, u = rng.standard_normal(3), rng.standard_normal(3)
        u /= np.linalg.norm(u)
        line = restrict(oracle, x, u)
        yield build_line_envelope(line, *bracket_minimizer(line, 0.0))[0]


def query_budget(kappa):
    grid = search_top(kappa) + 1
    return 2 * (math.ceil(math.log2(grid)) + 1) + 1 if grid > 1 else 5


class TestThresholdSearch:
    def test_kappa_one_is_forced(self):
        n = normalize_at_zero(gaussian_oracle(1.0))
        assert search(n, +1) == (0, 0.5)

    def test_gaussian_declared_kappa_four(self):
        n = normalize_at_zero(gaussian_oracle(4.0))
        # V(2^0/2) = 0.125 < 1/2 but V(2^1/2) = 0.5 >= 1/2
        assert search(n, +1) == (1, 0.5)

    def test_binary_equals_linear_scan(self):
        # class members at each kappa; the search reads slopes as
        # build_envelope runs it and still finds the scan's first index
        rng = np.random.default_rng(31)
        for kappa in (1e3, 37.5, 1e6, 1e12):
            top = search_top(kappa)
            m = hardfamily.largest_m(kappa)
            targets = [PiecewiseQuadraticPotential.gaussian(1.0)]
            targets += [random_class_potential(rng, kappa) for _ in range(15)]
            targets += [hardfamily.build_member(kappa, i) for i in sorted({1, min(3, m), m})]
            for pot in targets:
                for side in (+1, -1):
                    searched, _ = search(normalize_at_zero(make_oracle(pot, kappa)), side)
                    probe = normalize_at_zero(make_oracle(pot, kappa))
                    scan = next(
                        i
                        for i in range(top + 1)
                        if probe.value(side * 2.0**i / math.sqrt(kappa)) >= 0.5
                    )
                    assert searched == scan, (kappa, side)

    def test_hard_member_three_at_kappa_1e6(self):
        # frozen by linear scan of the exact piecewise representation
        n = normalize_at_zero(make_oracle(hardfamily.build_member(1e6, 3), 1e6))
        assert search(n, +1)[0] == 3

    def test_returned_value_is_the_oracle_value_at_the_edge(self):
        # the edge is queried by a probe or by the final check, so its value
        # comes at no extra query
        # (class members at each kappa: the slopes reject a steeper target)
        rng = np.random.default_rng(5)
        for kappa in (1.0, 37.5, 1e6):
            targets = [PiecewiseQuadraticPotential.gaussian(1.0), random_class_potential(rng, kappa)]
            if kappa >= 2.0:
                m = hardfamily.largest_m(kappa)
                targets += [hardfamily.build_member(kappa, i) for i in sorted({1, min(3, m), m})]
            for pot in targets:
                for side in (+1, -1):
                    oracle = normalize_at_zero(make_oracle(pot, kappa, offset=2.5))
                    before = oracle.query_count
                    index, value = search(oracle, side)
                    spent = oracle.query_count - before
                    edge = side * 2.0**index / math.sqrt(kappa)
                    assert value == oracle.value(edge)
                    assert spent <= math.ceil(math.log2(search_top(kappa) + 1)) + 1

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
        # the tails start from W(+-1) = 1/2: offset 1/2, drift 1/2 per unit
        assert env.plateau_height == 1.0
        assert (env.rows_minus, env.rows_plus) == (((-1.0, 0.5, 0.5),), ((1.0, 0.5, 0.5),))
        assert env.x_minus < 0.0 < env.x_plus

    def test_gaussian_kappa_one_mass_vs_quadrature(self):
        _, env = prepare_envelope(gaussian_oracle(1.0))
        quad = adaptive_quadrature(
            lambda x: env.value(x), -40.0, 40.0, tol=1e-10, breakpoints=[env.x_minus, env.x_plus]
        )
        # closed form: 2 + 2 e^(-1/2) int_0^inf exp(-t/2 - t^2/2) dt, with the
        # integral sqrt(pi/2) e^(1/8) erfc(1/(2 sqrt 2))
        tail = math.sqrt(math.pi / 2.0) * math.exp(0.125) * math.erfc(0.5 / math.sqrt(2.0))
        closed = 2.0 + 2.0 * math.exp(-0.5) * tail
        assert closed == pytest.approx(3.0630838238431228, rel=1e-12)
        assert quad.value == pytest.approx(closed, rel=1e-10)
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
        with pytest.raises(UsageError, match="alpha must be 1"):
            PotentialOracle(pot, alpha=4.0, beta=4.0)


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
        env = Envelope(math.e, ((-1.0, 3.0, 1.5),), ((1.0, 3.0, 1.5),))
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

    def test_nan_in_nan_out(self):
        _, env_1d = prepare_envelope(gaussian_oracle(1e6))
        for env in (env_1d, next(line_envelopes())):
            assert math.isnan(env.log_value(math.nan))
            assert math.isnan(env.log_value(np.array(math.nan)))
            assert np.isnan(env.log_value(np.array([math.nan, 0.0]))).tolist() == [True, False]
            # the array path evaluates each row only where it applies: no inf - inf
            assert env.log_value(np.array([-math.inf, math.inf])).tolist() == [-math.inf] * 2

    def test_drift_zero_row_at_infinity(self):
        # a row with drift 0 evaluated at +inf would give 0 * inf; only the
        # tail, here of positive drift, applies there (a drift-0 tail skips
        # the drift term: TestGaussianEnvelope)
        env = Envelope(0.5, ((-1.0, 0.0, 0.5),), ((1.0, 0.0, 0.0), (2.0, 1.0, 0.5)))
        assert env.log_value(np.array([-math.inf, math.inf])).tolist() == [-math.inf] * 2
        xs = [-3.0, -1.0, 0.0, 1.0, 1.5, 2.0, 2.5, math.inf]
        assert env.log_value(np.array(xs)).tolist() == [env.log_value(x) for x in xs]

    def test_boundaries_by_value(self):
        # x_minus and x_plus belong to the plateau; every later row start
        # to the row it starts, at t = 0
        by_hand = Envelope(math.e, ((-1.0, 0.25, 0.5),), ((1.0, 0.25, 0.25), (2.0, 1.25, 0.5)))
        for env in (by_hand, *line_envelopes()):
            log_h = math.log(env.plateau_height)
            points, expected = [env.x_minus, env.x_plus], [log_h, log_h]
            for start, offset, _ in env.rows_minus[1:] + env.rows_plus[1:]:
                points.append(start)
                expected.append(log_h - offset)
            assert len(points) > 2
            assert [env.log_value(x) for x in points] == expected
            assert env.log_value(np.array(points)).tolist() == expected


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
        assert ks_statistic(draws, envelope_cdf(self.env)) < ks_critical_value(n)

    def test_ks_for_sharp_envelope_with_large_drifts(self):
        # exercises the rejection fallback branch of the tail sampler
        _, env = prepare_envelope(gaussian_oracle(1e6))
        rng = np.random.default_rng(41)
        n = 50_000
        draws = env.sample(rng, size=n)
        assert ks_statistic(draws, envelope_cdf(env)) < ks_critical_value(n)

    def test_cdf_limits(self):
        cdf = envelope_cdf(self.env)
        assert cdf(-60.0) == pytest.approx(0.0, abs=1e-12)
        assert cdf(60.0) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_sample(self):
        rng = np.random.default_rng(0)
        assert isinstance(self.env.sample(rng), float)


class TestConstruction:
    def test_direct_construction_equals_from_geometry(self):
        env = Envelope(math.e, ((-1.0, 3.0, 0.5),), ((2.0, 3.0, 0.25),))
        assert Envelope(1.0, env.rows_minus, env.rows_plus) == Envelope.from_geometry(
            -1.0, 2.0, 0.5, 0.25, 3.0)
        assert (env.x_minus, env.x_plus) == (-1.0, 2.0)
        assert env.mass_total == sum(env.piece_masses)
        assert env.piece_masses[1] == math.e * 3.0

    @pytest.mark.parametrize(
        "geometry, message",
        [
            ((1.0, -1.0, 0.5, 0.5), "plateau edges must be finite and in order"),
            ((-1.0, 1.0, -0.5, 0.5), "drifts"),
            ((-math.inf, 1.0, 0.5, 0.5), "plateau edges must be finite and in order"),
            ((-1.0, 1.0, math.nan, 0.5), "drifts"),
            ((-1.0, 1.0, 0.5, 0.5, math.nan), "plateau_height"),
            ((-1.0, 1.0, 0.5, 0.5, 0.0), "plateau_height"),
            ((-1.0, 1.0, 0.5, 0.5, math.inf), "plateau_height"),
            ((-1.0, 1.0, 0.5, 0.5, 1.0, math.nan), "offset finite"),
        ],
    )
    def test_bad_geometry_is_usage_error(self, geometry, message):
        # (x_minus, x_plus, drift_minus, drift_plus), then the height and the
        # tail offset where given, else 1 and 0
        x_minus, x_plus, drift_minus, drift_plus, height, offset = geometry + (1.0, 0.0)[len(geometry) - 4:]
        with pytest.raises(UsageError, match=message):
            Envelope(height, ((x_minus, offset, drift_minus),), ((x_plus, offset, drift_plus),))

    @pytest.mark.parametrize(
        "pieces_plus",  # the right side's rows
        [
            (),  # no row
            ((1.0, 0.0, 2.0), (3.0, 1.0, -0.5)),  # a tail of negative drift
            ((1.0, 0.0, 2.0), (0.5, 1.0, 0.5)),  # runs inward
            ((1.0, 0.0, 2.0), (1.0, 1.0, 0.5)),  # an inner row of length 0
            ((1.0, 0.0, -2.0), (3.0, 1.0, 0.5)),  # negative drift
            ((1.0, 0.0, 2.0), (3.0, math.nan, 0.5)),  # NaN offset
        ],
    )
    def test_bad_pieces_are_usage_error(self, pieces_plus):
        with pytest.raises(UsageError, match="row"):
            Envelope(1.0, ((-1.0, 0.0, 0.5),), pieces_plus)

    def test_an_empty_plateau_and_drift_0_tails_build(self):
        # what the rule of a nonempty plateau and positive tail drifts used
        # to reject: equal edges, here with an inner row on the left, and a
        # drift-0 tail, whose t^2/2 keeps its mass e^(-offset) sqrt(pi/2)
        env = Envelope(1.0, ((1.0, 0.0, 0.5), (0.0, 1.0, 0.0)), ((1.0, 0.0, 0.5),))
        assert env.x_minus == env.x_plus == 1.0
        # the empty plateau has no mass, so its two cuts are equal and no draw picks it
        assert env.piece_masses[2] == 0.0 and env._cuts[1] == env._cuts[2]
        assert env.piece_masses[0] == pytest.approx(math.exp(-1.0) * math.sqrt(math.pi / 2.0), rel=1e-15)
        assert env.log_value(1.0) == 0.0 and env.log_value(-1.0) == -1.5
        assert env.log_value(np.array([1.0, -1.0, -math.inf])).tolist() == [0.0, -1.5, -math.inf]

    @pytest.mark.parametrize(
        "geometry, pieces_plus, message",  # the height and left rows, the right rows
        [
            ((1.0, ((-1.0, -800.0, 0.5),)), ((1.0, -800.0, 0.5),), "too far below zero"),
            ((1.0, ((-1.0, 0.0, 0.5),)), ((1.0, -800.0, 2.0), (3.0, 1.0, 0.5)), "too far below zero"),
            ((1e308, ((-1.0, 0.0, 0.5),)), ((1.0, 0.0, 0.5),), "mass must be finite"),
        ],
    )
    def test_mass_beyond_a_float_is_usage_error(self, geometry, pieces_plus, message):
        with pytest.raises(UsageError, match=message):
            Envelope(*geometry, pieces_plus)

    @pytest.mark.parametrize(
        "mean, height",
        [(0.0, 0.0), (0.0, -1.0), (0.0, math.inf), (0.0, math.nan), (0.0, 1e308),
         (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0)],
    )
    def test_gaussian_rejects_what_the_validated_constructor_rejects(self, mean, height):
        # a height that is not finite and positive, a mass beyond a float, and
        # a mean that is not finite raise the same error
        rows = ((mean, 0.0, 0.0),)
        with pytest.raises(UsageError) as expected:
            Envelope(height, rows, rows)
        with pytest.raises(UsageError, match=re.escape(str(expected.value))):
            Envelope.gaussian(mean, height)

    def test_gaussian_takes_an_int_height_as_float(self):
        env = Envelope.gaussian(0.0, 2)
        assert type(env.plateau_height) is float
        # the rows (mean, 0, 0) on both sides: the unit Gaussian exp(-t^2/2) from the mean out
        assert vars(env) == vars(Envelope(2, ((0.0, 0.0, 0.0),), ((0.0, 0.0, 0.0),)))

    def test_fields_are_frozen(self):
        env = Envelope.from_geometry(-1.0, 1.0, 0.5, 0.5)
        for name in ("x_minus", "rows_plus", "mass_total", "piece_masses", "_cuts"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(env, name, 0.0)
        assert env.x_minus == -1.0

    def test_int_geometry_is_stored_as_float(self):
        env = Envelope.from_geometry(-1, 1, 0.5, 0.5, tail_offset=0)
        assert env == Envelope.from_geometry(-1.0, 1.0, 0.5, 0.5, tail_offset=0.0)
        assert hash(env) == hash(Envelope.from_geometry(-1.0, 1.0, 0.5, 0.5))
        assert type(Envelope(2, env.rows_minus, env.rows_plus).plateau_height) is float
        assert all(type(value) is float for value in (
            env.x_minus, env.x_plus, env.plateau_height, *env.rows_minus[0], *env.rows_plus[0]))
        assert Envelope(1, ((-1, 0, 0.5),), ((1, 0, 0.5),)) == Envelope.from_geometry(-1.0, 1.0, 0.5, 0.5)
        assert hash(Envelope(1, [(-1, 0, 0.5)], [(1, 0, 0.5)])) == hash(
            Envelope.from_geometry(-1.0, 1.0, 0.5, 0.5))

    def test_repr_lists_the_public_fields_only(self):
        env = Envelope(1.0, ((-1.0, 0.0, 0.5),), ((1.0, 0.0, 0.25), (2.0, 1.0, 0.5)))
        names = re.findall(r"(\w+)=", repr(env))
        assert names == ["plateau_height", "rows_minus", "rows_plus", "piece_masses", "mass_total"]
        assert repr(env).startswith(
            "Envelope(plateau_height=1.0, rows_minus=((-1.0, 0.0, 0.5),), "
            "rows_plus=((1.0, 0.0, 0.25), (2.0, 1.0, 0.5)), piece_masses=("
        )

    def test_pieces_envelope_is_hashable_and_lists_masses_left_to_right(self):
        rows_minus, rows_plus = ((-1.0, 0.0, 0.5),), ((1.0, 0.0, 0.25), (2.0, 1.0, 0.5))
        env = Envelope(1.0, rows_minus, rows_plus)
        assert env == Envelope(1.0, rows_minus, rows_plus)
        assert hash(env) == hash(Envelope(1.0, rows_minus, rows_plus))
        assert env != Envelope.from_geometry(-1.0, 1.0, 0.5, 0.5)
        # left tail, plateau, the finite piece on [1, 2], the tail from 2
        quad = [
            adaptive_quadrature(lambda x: env.value(x), lo, hi, tol=1e-12).value
            for lo, hi in ((-40.0, -1.0), (-1.0, 1.0), (1.0, 2.0), (2.0, 40.0))
        ]
        assert env.piece_masses == pytest.approx(quad, rel=1e-9)
        assert env.mass_total == pytest.approx(sum(quad), rel=1e-9)
        assert env.to_json_dict()["rows"] == [[[-1.0, 0.0, 0.5]], [list(row) for row in rows_plus]]


    def test_float_order_of_the_total_and_the_cuts(self):
        # three finite rows a side whose masses span 16 orders of magnitude,
        # so that summing them in any other order moves the last bit: the
        # total adds the two tails and the plateau first, then each side's
        # inner rows outward, and each cut is a running left-to-right sum over
        # that total.  Reversing either side's inner rows, one sum over every
        # piece, or one sum over all inner rows each gives another total
        rows_minus = ((-0.5, 0.8197560944897663, 0.5), (-1.5, 35.9831577575688, 1.0),
                      (-2.5, 35.20999913477009, 1.5), (-3.5, 0.8032653757093785, 2.0))
        rows_plus = ((0.5, 0.3077018565348695, 0.25), (1.75, 35.88933702703656, 1.25),
                     (3.0, 35.057179060687595, 1.75), (4.0, 0.092839469371783, 2.5))
        env = Envelope(1.0, rows_minus, rows_plus)
        masses, n = env.piece_masses, len(rows_minus)
        outer = masses[0] + masses[n] + masses[-1]
        inner_minus, inner_plus = masses[n - 1:0:-1], masses[n + 1:-1]  # each outward
        assert min(masses) < 1e-15 * max(masses)
        assert env.mass_total == outer + (sum(inner_minus) + sum(inner_plus))
        for other in (outer + (sum(inner_minus[::-1]) + sum(inner_plus)),
                      outer + (sum(inner_minus) + sum(inner_plus[::-1])),
                      sum(masses), outer + sum(inner_minus + inner_plus)):
            assert other != env.mass_total
        running = [sum(masses[:k + 1][1:], masses[0]) for k in range(len(masses) - 1)]
        assert env._cuts == (*[total / env.mass_total for total in running], math.inf)


class TestGaussianEnvelope:
    """``Envelope.gaussian``: the unit Gaussian as two drift-0 tails around an empty plateau."""

    CASES = [(0.0, 1.0), (-1.5, 0.25), (3.0, math.e), (1e3, 7.0)]

    @pytest.mark.parametrize("mean, height", CASES)
    def test_log_value_is_the_log_of_the_gaussian(self, mean, height):
        env = Envelope.gaussian(mean, height)
        assert env.x_minus == env.x_plus == mean
        xs = mean + np.concatenate([np.linspace(-9.0, 9.0, 1801), [1e-300, -1e-300, 0.0, 40.0, -40.0]])
        expected = [math.log(height) - 0.5 * (x - mean) ** 2 for x in xs.tolist()]
        assert [env.log_value(x) for x in xs.tolist()] == expected
        assert env.log_value(xs).tolist() == expected
        assert env.log_value(math.inf) == env.log_value(-math.inf) == -math.inf

    @pytest.mark.parametrize("mean, height", CASES)
    def test_mass_and_side_cuts(self, mean, height):
        # each tail is half the unit Gaussian's mass, sqrt(pi/2), times the
        # height, and the empty plateau none: a draw picks its side by 1/2
        env = Envelope.gaussian(mean, height)
        tail = height * math.sqrt(math.pi / 2.0)
        assert env.piece_masses == (pytest.approx(tail, rel=1e-15), 0.0, pytest.approx(tail, rel=1e-15))
        assert env.mass_total == pytest.approx(height * math.sqrt(2.0 * math.pi), rel=1e-15)
        assert env._cuts == (0.5, 0.5, math.inf)

    @pytest.mark.parametrize("mean, height", CASES)
    def test_draws_are_normal_about_the_mean(self, mean, height):
        rng = np.random.default_rng(89)
        n = 100_000
        draws = Envelope.gaussian(mean, height).sample(rng, size=n)
        assert ks_statistic(draws, lambda x: normal_cdf(x - mean)) < ks_critical_value(n)

    @pytest.mark.parametrize("mean", [2.0**54, -(2.0**54), 2.0**52 + 1.0, 1e300, -1e300, 5e-324])
    def test_a_huge_or_tiny_finite_mean_builds(self, mean):
        # no plateau edge m -+ w can round into the other: the plateau is m
        # alone, however coarse the floats around it.  Draws stay finite, and
        # at the mean the envelope is its height
        env = Envelope.gaussian(mean, 3.0)
        assert vars(env) == vars(Envelope(3.0, ((mean, 0.0, 0.0),), ((mean, 0.0, 0.0),)))
        assert env.log_value(mean) == math.log(3.0)
        rng = np.random.default_rng(97)
        draws = [env.sample(rng) for _ in range(200)] + env.sample(rng, size=200).tolist()
        assert all(math.isfinite(x) for x in draws)


class TestSerialization:
    def test_json_dict_fields(self):
        env = Envelope.from_geometry(-1.0, 2.0, 0.5, 0.25)
        doc = env.to_json_dict()
        assert set(doc) == {
            "x_minus",
            "x_plus",
            "plateau_height",
            "rows",
            "masses",
        }
        assert doc["rows"] == [[[-1.0, 0.0, 0.5]], [[2.0, 0.0, 0.25]]]
        assert doc["masses"] == list(env.piece_masses)


def _members(kappa):
    """Every builtin target and every hard-family member at kappa."""
    names = ["gaussian", "skewed"]
    names += [f"hard:{i}" for i in range(1, hardfamily.largest_m(kappa) + 1)]
    return names


# Construction queries (normalization plus both threshold searches) per
# target in _members order, recorded when the tails were still built from
# the search level with offset 0 and the searches read values alone; the
# edge values must come at no query.  A ceiling now: the slopes may only
# save queries.
CONSTRUCTION_QUERIES = {
    2.0: [5, 5, 5],
    37.5: [5, 5, 7, 7, 5],
    1e3: [5, 5, 9, 9, 9, 9, 5, 5],
    1e6: [5, 5, 7, 11, 11, 11, 11, 11, 11, 11, 11, 5, 5],
    1e12: [5, 5, 9, 9, 9] + [13] * 16 + [5, 5],
}

# The same counts with the searches reading each probe's slope, pinned
CONSTRUCTION_QUERIES_WITH_SLOPES = {
    2.0: [5, 5, 5],
    37.5: [5, 5, 7, 3, 5],
    1e3: [5, 5, 9, 7, 9, 3, 5, 5],
    1e6: [5, 5, 5, 11, 9, 11, 7, 11, 9, 11, 3, 5, 5],
    1e12: [5, 5, 7, 9, 5, 13, 11, 13, 9, 13, 11, 13, 7, 13, 11, 13, 9, 13, 11, 13, 3, 5, 5],
}


class TestEdgeValueTails:
    @pytest.mark.parametrize("kappa", sorted(CONSTRUCTION_QUERIES))
    def test_domination_sweep(self, kappa):
        # the tail touches the target at the edge with the smaller value.  The
        # constructor takes an empty plateau, but the 1D searches' edges are
        # distinct, so the paper's plateau is never empty
        rng = np.random.default_rng(61)
        for name in _members(kappa):
            pot = builtin_potential(name, kappa)
            offset = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 5.0))
            _, env = prepare_envelope(make_oracle(pot, kappa, offset=offset))
            assert env.x_minus < env.x_plus, (name, kappa)
            grid = domination_grid(env)
            v0 = pot.evaluate(0.0)[0]
            gap = env.value(grid) - np.exp(-(pot.evaluate(grid)[0] - v0))
            assert float(gap.min()) >= -1e-12, (name, kappa)

    @pytest.mark.parametrize("kappa", [2.0, 1e3, 1e6, 1e12])
    def test_acceptance_floor(self, kappa):
        # 0.478 at the worst member (hard:20 at kappa 1e12); 0.167 when the
        # tails started from the level with offset 0
        for name in _members(kappa):
            pot = builtin_potential(name, kappa)
            _, env = prepare_envelope(make_oracle(pot, kappa))
            assert acceptance_probability(pot, env) >= 0.45, (name, kappa)

    @pytest.mark.parametrize("kappa", sorted(CONSTRUCTION_QUERIES))
    def test_construction_queries_unchanged(self, kappa):
        # no target costs more than the searches on values alone spent
        counts = construction_counts(kappa)
        assert all(map(int.__le__, counts, CONSTRUCTION_QUERIES[kappa])), counts

    @pytest.mark.parametrize("kappa", sorted(CONSTRUCTION_QUERIES_WITH_SLOPES))
    def test_construction_queries_pinned(self, kappa):
        assert construction_counts(kappa) == CONSTRUCTION_QUERIES_WITH_SLOPES[kappa]


def construction_counts(kappa):
    """The construction queries of every target of _members at kappa, with no hidden offset."""
    counts = []
    for name in _members(kappa):
        oracle = make_oracle(builtin_potential(name, kappa), kappa)
        prepare_envelope(oracle)
        counts.append(oracle.query_count)
    return counts


def verdict_cells():
    """``(kappa, name)`` for the build1d sweep and every target at five more kappas."""
    for kappa in (1e3, 1e6, 1e9, 1e12, 2.0, 37.5, 2.6e11, 1e15, 4.0**9):
        for name in _members(kappa):
            yield kappa, name


class TestSlopeVerdicts:
    """The 1D searches read slopes, and the envelopes stay those of values alone."""

    def test_envelopes_equal_the_value_only_search(self):
        # 20 seeded hidden offsets per cell: bitwise the same rows and masses,
        # never more queries, and on the build1d sweep 15% fewer in all
        # (7.16 search queries a build against 8.65)
        rng = np.random.default_rng(71)
        spent = {True: 0, False: 0}
        for kappa, name in verdict_cells():
            pot = builtin_potential(name, kappa)
            for offset in rng.uniform(-3.0, 3.0, 20).tolist():
                reference = normalize_at_zero(make_oracle(pot, kappa, offset))
                expected = value_only_envelope(reference)
                oracle = make_oracle(pot, kappa, offset)
                _, env = prepare_envelope(oracle)
                assert env.rows_minus == expected.rows_minus, (name, kappa, offset)
                assert env.rows_plus == expected.rows_plus, (name, kappa, offset)
                assert env.piece_masses == expected.piece_masses, (name, kappa, offset)
                assert oracle.query_count <= reference.query_count, (name, kappa, offset)
                if kappa in (1e3, 1e6, 1e9, 1e12):
                    spent[True] += oracle.query_count
                    spent[False] += reference.query_count
        assert spent[True] < 0.9 * spent[False]

    def test_a_dip_between_grid_points_decides_nothing(self):
        # at index 5 of the kappa = 1e6 grid, t = 0.032, W = 200.4 and
        # W' = 2e4 put the bound below 1/2 only for d in 0.02 -+ 4.5e-4,
        # between the inner indices' distances 0.016 and 0.024, so the
        # outermost index inward of the dip, 3, stays open and is queried
        answers = {5: (200.4, 2e4), 4: (2.0, 100.0), 3: (1.0, 100.0), 2: (0.4, 10.0),
                   1: (0.2, 10.0), 0: (0.1, 10.0)}
        by_point = {2.0**j / 1e3: pair for j, pair in answers.items()}
        index, value, probes = find_threshold_index(by_point.__getitem__, 0.0, +1, 1e6, 0.5, 0, 6)
        assert (index, value) == (3, 1.0)
        assert sorted(probes) == [1, 2, 3, 5]

    def test_steeper_target_fails_loudly(self):
        # curvature 4e6 under kappa 1e6: the values alone give an envelope
        # without complaint, but the slope at the first probe, index 9 at
        # 2^9 / 1e3, breaks the sandwich a verdict would rest on
        steep = PiecewiseQuadraticPotential.gaussian(4e6)
        value_only_envelope(normalize_at_zero(make_oracle(steep, 1e6, offset=0.5)))
        with pytest.raises(ClassViolationError, match="escapes the curvature sandwich") as info:
            prepare_envelope(make_oracle(steep, 1e6, offset=0.5))
        assert info.value.query_point == 0.512

    @pytest.mark.parametrize("offset", [2.0**24 - 1.0, -(2.0**24 - 1.0)])
    def test_members_at_extreme_offsets_pass(self, offset):
        # the largest hidden offsets round each value by up to 2^-30, and
        # no member at kappa 1e15 trips the check or moves an edge
        kappa = 1e15
        for name in _members(kappa):
            pot = builtin_potential(name, kappa)
            _, env = prepare_envelope(make_oracle(pot, kappa, offset))
            expected = value_only_envelope(normalize_at_zero(make_oracle(pot, kappa, offset)))
            assert (env.rows_minus, env.rows_plus) == (expected.rows_minus, expected.rows_plus), name
