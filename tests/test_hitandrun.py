import json
import math

import numpy as np
import pytest

from lcsampler import hitandrun
from lcsampler import (
    ClassViolationError,
    Envelope,
    MultivariateOracle,
    UsageError,
    bracket_minimizer,
    build_line_envelope,
    find_threshold_index,
    quadratic_oracle,
    restrict,
    run_chain,
    sample_exact,
    step,
    threshold_searches,
)
from lcsampler.envelope import search_range
from lcsampler.hitandrun import PATHS, Certificate, ChainCosts, Probe, tangent_envelope
from lcsampler.targets import builtin_potential, resolve_multivariate_target

from helpers import (
    adaptive_quadrature,
    domination_grid,
    ks_critical_value,
    ks_statistic,
    normal_cdf,
    product_oracle,
)


def isotropic(dim, kappa):
    return quadratic_oracle(np.ones(dim), kappa=kappa)


class TestRestrict:
    def test_perpendicular_foot_and_values(self):
        o = isotropic(2, 1.0)
        x_t = np.array([1.0, 0.0])
        line = restrict(o, x_t, np.array([0.0, 1.0]))
        assert np.array_equal(line.base, [1.0, 0.0])  # x_t, here also the line's closest point to 0
        assert np.array_equal(line.point(0.0), x_t)
        assert line.query(2.0)[0] == pytest.approx(2.5)  # (1 + 2^2) / 2
        assert line.query(0.0)[1] == 0.0

    def test_point_zero_is_the_start_bitwise(self):
        # the line is anchored at x_t, so an answer already queried at x_t
        # is exactly the line's answer at 0
        rng = np.random.default_rng(3)
        o = quadratic_oracle(np.array([1.0, 2.0, 4.0]))
        for _ in range(20):
            x = rng.standard_normal(3)
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            line = restrict(o, x, u)
            assert np.array_equal(line.point(0.0), x)
            value, gradient = o.query(x)
            assert line.query(0.0) == (value, float(u @ gradient))

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
            second = (line.query(lam + h)[0] - 2 * line.query(lam)[0] + line.query(lam - h)[0]) / h**2
            assert 1.0 - 1e-4 <= second <= kappa + 1e-4

    def test_rejects_non_unit_direction(self):
        o = isotropic(2, 1.0)
        with pytest.raises(UsageError):
            restrict(o, np.zeros(2), np.array([0.0, 2.0]))
        with pytest.raises(UsageError):
            restrict(o, np.zeros(2), np.zeros(2))
        # a NaN direction is a usage error, not a class violation of the quadratic
        with pytest.raises(UsageError, match=r"\|u\| = nan"):
            restrict(o, np.zeros(2), np.array([math.nan, 0.0]))
        with pytest.raises(UsageError, match=r"\|u\| = nan"):
            step(o, np.zeros(2), np.random.default_rng(0), direction=[math.nan, 0.0])

    @pytest.mark.parametrize("base, direction, shapes", [
        ([0.5], [0.6, 0.8], r"\(1,\) and \(2,\)"),  # not broadcast to (0.5, 0.5)
        ([0.5, 0.5], [1.0], r"\(2,\) and \(1,\)"),  # unit length, yet not queried along (1, 1)
        ([0.5, 0.5], [0.6, 0.8, 0.0], r"\(2,\) and \(3,\)"),
        ([0.5, 0.5], [[0.6, 0.8]], r"\(2,\) and \(1, 2\)"),
        ([[0.5, 0.5]], [0.6, 0.8], r"\(1, 2\) and \(2,\)"),
        (0.5, [0.6, 0.8], r"\(\) and \(2,\)"),
    ])
    def test_base_and_direction_need_the_oracle_shape(self, base, direction, shapes):
        o = isotropic(2, 1.0)
        with pytest.raises(UsageError, match=r"must have shape \(2,\), got " + shapes):
            restrict(o, base, direction)
        with pytest.raises(UsageError, match=r"must have shape \(2,\), got " + shapes):
            hitandrun.LineOracle(o, base, direction)
        assert o.query_count == 0

    def test_base_and_direction_need_floats(self):
        # a UsageError naming the argument, not NumPy's raw ValueError, and no query
        o = quadratic_oracle(np.ones(2))
        with pytest.raises(UsageError, match="the direction must be a vector of floats"):
            restrict(o, np.zeros(2), "ab")
        with pytest.raises(UsageError, match="the base must be a vector of floats"):
            hitandrun.LineOracle(o, ["a", 0.0], [1.0, 0.0])
        with pytest.raises(UsageError, match="the direction must be a vector of floats"):
            step(o, np.array([0.5, 0.5]), np.random.default_rng(0), direction=["x", 1])
        assert o.query_count == 0

    @pytest.mark.parametrize("direction", [[1.0], [0.6, 0.8, 0.0], [[0.6, 0.8]]])
    def test_step_direction_needs_the_oracle_shape(self, direction):
        # from a point, and from a Probe whose gradient the direction would meet first
        o = isotropic(2, 4.0)
        rng = np.random.default_rng(0)
        with pytest.raises(UsageError, match=r"must have shape \(2,\)"):
            step(o, np.array([0.5, 0.5]), rng, direction=direction)
        probe = step(o, np.array([0.5, 0.5]), rng, direction=[0.6, 0.8])
        before = o.query_count
        with pytest.raises(UsageError, match=r"must have shape \(2,\)"):
            step(o, probe, rng, direction=direction)
        assert o.query_count == before

    def test_each_line_call_charges_one_query(self):
        o = isotropic(2, 1.0)
        line = restrict(o, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        before = o.query_count
        line.query(0.3)
        line.query(-0.3)
        assert o.query_count == before + 2
        # the shifted line checks each value against the certificate
        # inside the one query that produced it
        _, shifted = build_line_envelope(line, *bracket_minimizer(line, 0.0))
        before = o.query_count
        shifted.value(0.3)
        assert o.query_count == before + 1


class TestCertificateCheck:
    def test_curvature_term_survives_where_t_squared_underflows(self):
        # t * t underflows at t = 5.4e-166, kappa * t does not: a value on the
        # in-class upper bound passes, twice it does not
        cert, t, kappa = Certificate(0.0, 0.0, 1e-152), 5.4e-166, 1e300
        on_bound = 1e-152 * t + 0.5 * (kappa * t) * t
        cert.check(t, on_bound, kappa)
        with pytest.raises(ClassViolationError, match="escapes the curvature sandwich"):
            cert.check(t, 2.0 * on_bound, kappa)


def quadratic_line_minimum(diag, line):
    """Minimizer and minimum of the restriction of x' diag(d) x / 2."""
    u, b = line.direction, line.base
    curvature = float(u @ (diag * u))
    lam = -float(u @ (diag * b)) / curvature
    return lam, 0.5 * float(line.point(lam) @ (diag * line.point(lam)))


def certificate_bound(kappa):
    """B of bracket_minimizer's docstring: 2 where the level-3 sandwich of a
    zero-slope certificate leaves its edges open (lo < top), else 1."""
    lo, top = search_range(kappa, level=3.0, rise=0.0)
    return 2.0 if lo < top else 1.0


def query_bound(kappa, slope):
    """The worst case of bracket_minimizer's docstring for a first slope."""
    return 2 + 2 * max(0, math.ceil(math.log2(kappa * abs(slope) / (2.0 * certificate_bound(kappa)))))


class AdjacentDoubles:
    """W(lam) = c (lam - m)^2 / 2 about m = 2^54 + 2, which no double holds.

    From 0 the certificate search ends on [2^54, 2^54 + 4], 4 >= 1/kappa
    wide with nothing between, where W' runs from -2c to 2c.
    """

    def __init__(self, curvature, kappa):
        self.curvature, self.kappa = curvature, kappa

    def query(self, lam):
        t = (lam - 2.0**54) - 2.0
        return 0.5 * self.curvature * t * t, self.curvature * t


class TestBracketMinimizer:
    # The contract: a queried point p with |W'(p)| <= B, so W(p) - W* <=
    # W'(p)^2/2 <= B^2/2 and the minimizer lies within |W'(p)| of p.
    def test_symmetric_line_contains_origin(self):
        o = isotropic(2, 1.0)
        line = restrict(o, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        for start in (0.0, 0.7, -3.0, 40.0):
            cert, _ = bracket_minimizer(line, start)
            assert abs(cert.slope) <= certificate_bound(1.0) == 1.0
            assert abs(cert.lam) <= abs(cert.slope)
            assert cert.value - 0.5 <= 0.5 * cert.slope**2 + 1e-12
            assert (cert.value, cert.slope) == line.query(cert.lam)

    def test_anisotropic_line_contains_analytic_minimizer(self):
        # V(x) = (x1^2 + 4 x2^2)/2 restricted through (1, 0) along (0.6, 0.8)
        diag = np.array([1.0, 4.0])
        o = quadratic_oracle(diag, kappa=4.0)
        line = restrict(o, np.array([1.0, 0.0]), np.array([0.6, 0.8]))
        lam_star, w_star = quadratic_line_minimum(diag, line)
        for start in (0.6, 5.0, -20.0, lam_star + 0.2):
            cert, _ = bracket_minimizer(line, start)
            assert abs(cert.slope) <= certificate_bound(4.0) == 2.0
            assert abs(cert.lam - lam_star) <= abs(cert.slope) + 1e-12
            assert cert.value - w_star <= 0.5 * cert.slope**2 + 1e-12

    def test_query_count_within_bisection_bound(self):
        kappa = 1e6
        rng = np.random.default_rng(23)
        quadratic = quadratic_oracle(np.array([1.0, kappa]), kappa=kappa)
        kinked = product_oracle([builtin_potential(f"hard:{i}", kappa) for i in (1, 2, 3)], kappa)
        slack = []
        for oracle in (quadratic, kinked):
            for _ in range(200):
                u = rng.standard_normal(oracle.dimension)
                u /= np.linalg.norm(u)
                line = restrict(oracle, rng.standard_normal(oracle.dimension), u)
                start = float(rng.normal(0.0, 3.0))
                first = line.query(start)[1]
                before = oracle.query_count
                cert, _ = bracket_minimizer(line, start)
                used = oracle.query_count - before
                assert abs(cert.slope) <= certificate_bound(kappa)
                assert used <= query_bound(kappa, first)
                slack.append(query_bound(kappa, first) - used)
        assert min(slack) >= 2  # regula falsi beats the bound's bisection count

    def test_known_first_probe_saves_its_query(self):
        # a first probe already queried at the start is taken as it is: no
        # query when |g| <= B, and at most one below the docstring's bound
        # otherwise, with the certificate a fresh search finds
        kappa = 1e6
        rng = np.random.default_rng(29)
        oracles = (
            isotropic(10, kappa),
            quadratic_oracle(np.array([1.0, kappa]), kappa=kappa),
            product_oracle([builtin_potential(f"hard:{i}", kappa) for i in (1, 2, 3)], kappa),
        )
        steep = flat = 0
        for oracle in oracles:
            for _ in range(200):
                u = rng.standard_normal(oracle.dimension)
                u /= np.linalg.norm(u)
                line = restrict(oracle, rng.standard_normal(oracle.dimension), u)
                first = Certificate(0.0, *line.query(0.0))
                before = oracle.query_count
                cert, probes = bracket_minimizer(line, 0.0, first)
                used = oracle.query_count - before
                assert (cert, probes) == bracket_minimizer(line, 0.0)
                if abs(first.slope) <= certificate_bound(kappa):
                    flat += 1
                    assert used == 0 and cert is first
                else:
                    steep += 1
                    assert used <= query_bound(kappa, first.slope) - 1
        assert flat >= 100 and steep >= 100

    @pytest.mark.parametrize("kappa, bound", [(2.5, 1.0), (8.0 / 3.0, 1.0), (3.0, 2.0), (1e6, 2.0)])
    def test_a_start_slope_of_one_and_a_half(self, kappa, bound):
        # W(lam) = (lam + 1.5)^2/2 from lam = 0, where g = 1.5.  Up to kappa =
        # 8/3 (B = 1) the far probe -1.5 is the minimizer and the
        # certificate, the start its probe; above it (B = 2) the start is
        # the certificate, with no query when its answer is already known
        assert certificate_bound(kappa) == bound
        o = isotropic(2, kappa)
        line = restrict(o, np.array([1.5, 0.0]), np.array([1.0, 0.0]))
        start = Certificate(0.0, 1.125, 1.5)
        before = o.query_count
        found = bracket_minimizer(line, 0.0)
        if bound == 1.0:
            assert found == ((-1.5, 0.0, 0.0), (start,))
            assert o.query_count - before == 2
        else:
            assert found == (start, ())
            assert o.query_count - before == 1
        before = o.query_count
        assert bracket_minimizer(line, 0.0, start) == found
        assert o.query_count - before == (1 if bound == 1.0 else 0)

    def test_origin_line_degenerate_seed(self):
        o = isotropic(2, 4.0)
        line = restrict(o, np.zeros(2), np.array([1.0, 0.0]))
        before = o.query_count
        assert bracket_minimizer(line, 0.0) == ((0.0, 0.0, 0.0), ())
        assert o.query_count == before + 1
        # strong convexity sends the second query straight to the minimizer
        assert bracket_minimizer(line, 10.0)[0] == (0.0, 0.0, 0.0)
        assert o.query_count == before + 3

    def test_concave_target_raises_class_violation(self):
        oracle = MultivariateOracle(
            value_fn=lambda x: -0.5 * float(x @ x),
            grad_fn=lambda x: -x,
            dimension=2,
            kappa=4.0,
        )
        line = restrict(oracle, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        # W'(3) = -3 and W'(3 + 3) = -6 share a sign
        with pytest.raises(ClassViolationError, match="share a sign") as info:
            bracket_minimizer(line, 3.0)
        assert info.value.query_point == 6.0
        # at 0 the slope is 0, so the search accepts it, and the threshold
        # search's first value falls below the sandwich
        cert, probes = bracket_minimizer(line, 0.0)
        with pytest.raises(ClassViolationError, match="escapes the curvature sandwich"):
            build_line_envelope(line, cert, probes)

    def test_steep_target_raises_class_violation(self):
        # W(lam) = 250 lam^4 + lam^2/2 against a declared kappa of 1: W' is
        # cubic, so regula falsi creeps from one side and the bracket shrinks
        # below 1/kappa with |W'| > 1 at both ends
        oracle = MultivariateOracle(
            value_fn=lambda x: 250.0 * float(x[0]) ** 4 + 0.5 * float(x @ x),
            grad_fn=lambda x: x + np.array([1000.0 * float(x[0]) ** 3, 0.0]),
            dimension=2,
            kappa=1.0,
        )
        line = restrict(oracle, np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ClassViolationError, match="steeper than kappa = 1 allows"):
            bracket_minimizer(line, 1.0)

    def test_adjacent_doubles_return_the_flatter_end(self):
        # both ends exceed B = 2 at kappa 4, but the rise 8 is the 4 kappa
        # the class allows there: no double lies between to query, so an
        # end, a queried point with floor 4^2/2, is the certificate, and
        # every other probe fits its sandwich
        line = AdjacentDoubles(2.0, 4.0)
        assert 2.0 * line.curvature > certificate_bound(line.kappa)
        cert, probes = bracket_minimizer(line, 0.0)
        assert cert.lam in (2.0**54, 2.0**54 + 4.0) and abs(cert.slope) == 4.0
        ends = [probe for probe in probes if probe.lam in (2.0**54, 2.0**54 + 4.0)]
        assert len(ends) == 1 and ends[0].lam != cert.lam and abs(ends[0].slope) == 4.0
        for probe in probes:
            cert.check(probe.lam, probe.value, line.kappa)

    @pytest.mark.parametrize("curvature, kappa, error, message", [
        (3.0, 2.0, ClassViolationError, "steeper than kappa = 2 allows"),
        (5.0, 4.0, ClassViolationError, "steeper than kappa = 4 allows"),
        (3.0, 4.0, UsageError, "double precision"),
    ])
    def test_bracket_between_adjacent_doubles(self, curvature, kappa, error, message):
        # a rise 4c beyond 4 kappa is a proof that W'' > kappa; within it,
        # ends 2c = 6 past 2B = 4 would give the plateau e^18: double
        # precision cannot resolve the line
        line = AdjacentDoubles(curvature, kappa)
        assert 2.0 * curvature > certificate_bound(kappa)
        with pytest.raises(error, match=message) as info:
            bracket_minimizer(line, 0.0)
        assert all(f"{2.0**54 + d:.17g}" in str(info.value) for d in (0.0, 4.0))

    def test_minimizer_outside_seed_interval_raises_class_violation(self):
        # curvature 100 against a declared kappa of 1: from the start 0,
        # W'(0) = g = 9.80, and with kappa = 1 the interval [-g, -g/kappa]
        # that must hold the minimizer is the point -9.80, while the line
        # minimizer sits at -4.95.  W' is linear, so the regula falsi step
        # finds the minimizer, and the start's value then rises 24.3 above
        # it where the sandwich allows 12.25; along -u the picture is mirrored
        diag = np.array([1.0, 100.0])
        oracle = MultivariateOracle(
            value_fn=lambda x: 0.5 * float(x @ (diag * x)),
            grad_fn=lambda x: diag * x,
            dimension=2,
            kappa=1.0,
        )
        t = math.atan(0.1)
        x = np.array([-math.sin(t), math.cos(t)])
        u = np.array([math.cos(t), math.sin(t)])
        for direction, bounds in (
            (u, "W(0) - W(-4.95) = 24.2599 escapes the curvature sandwich [12.25"),
            (-u, "W(0) - W(4.95) = 24.2599 escapes the curvature sandwich [12.25"),
        ):
            with pytest.raises(ClassViolationError, match="escapes the curvature sandwich") as info:
                bracket_minimizer(restrict(oracle, x, direction), 0.0)
            assert info.value.query_point == 0.0
            assert bounds in str(info.value)
            # the restriction's curvature is c = 2/1.01 and its minimizer 4.95
            # from 0, so the value rises (c - 1) 4.95^2/2 past the sandwich's top
            assert info.value.gap == pytest.approx((2.0 / 1.01 - 1.0) * 4.95**2 / 2, rel=1e-12)


class TestLineEnvelope:
    def _restriction(self, kappa=4.0, x_t=(1.0, 0.0), u=(0.0, 1.0), diag=None):
        diag = np.ones(2) if diag is None else np.asarray(diag, float)
        o = quadratic_oracle(diag, kappa=kappa)
        x_t, u = np.asarray(x_t, float), np.asarray(u, float)
        line = restrict(o, x_t, u)
        cert, probes = bracket_minimizer(line, 0.0)
        assert probes == ()  # each line used here starts at a certificate
        return o, line, cert

    def test_envelope_dominates_relabeled_density(self):
        kappa = 4.0
        _, line, cert = self._restriction(kappa=kappa)
        env, shifted = build_line_envelope(line, cert)
        grid = np.linspace(env.x_minus - 6.0, env.x_plus + 6.0, 4000)
        vals = np.array([math.exp(-shifted.value(g)) for g in grid])
        assert float(np.min(env.value(grid) - vals)) >= -1e-12

    def test_plateau_level_and_offset(self):
        # W(lam) = lam^2/2 from p = 0 with slope 0: plateau height e^0.  On
        # the grid 2^i/2 each side searches from lo = 2, where the upper
        # bound 4 t^2/2 first reaches 3 (index 1 gives 2), to top =
        # ceil(1 + log2(sqrt(6))) = 3, where t^2/2 does; it probes i = 2
        # (lam = +-2, W = 2 < 3) and ends on the edge i = 3 (lam = +-4)
        # unqueried, taking the sandwich's t^2/2 = 8 there, which is W itself:
        # one query a side.  The mean p - g = 0 is p, so the tangent exp(-lam^2/2) runs
        # right from 0 with offset and drift 0, and the plateau keeps only
        # [-2, 0].  The pieces start at the probes with s = W/d + d/2 = 2 and
        # 4, the restriction's own slope: right of 0 and left of -2 the
        # envelope is exp(-lam^2/2) exactly
        kappa = 4.0
        o, line, cert = self._restriction(kappa=kappa)
        before = o.query_count
        env, shifted = build_line_envelope(line, cert)
        assert o.query_count - before == 2
        assert env.plateau_height == 1.0
        assert (env.x_minus, env.x_plus) == (-2.0, 0.0)
        assert env.rows_plus == ((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), (4.0, 8.0, 4.0))
        assert env.rows_minus == ((-2.0, 2.0, 2.0), (-4.0, 8.0, 4.0))
        outside = np.array([-7.5, -4.0, -3.0, -2.5, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 7.5])
        assert np.allclose(env.log_value(outside), -0.5 * outside**2, rtol=1e-15, atol=0)
        # mass: the plateau 2, the half Gaussian right of 0 and the tail left of -2
        closed = 2.0 + math.sqrt(0.5 * math.pi) * (1.0 + math.erfc(math.sqrt(2.0)))
        assert env.mass_total == pytest.approx(closed, rel=1e-12)
        assert env.x_minus < cert.lam <= env.x_plus
        assert shifted.shift == cert.value  # the shift costs no query

    def test_geometry_and_queries_pinned(self):
        # The restriction through x_t = (1, 0.5) along (0.6, 0.8) is W(lam) =
        # 4.25 + 12.6 lam + 19.56 lam^2/2, with minimum 4.25 - 12.6^2/39.12 =
        # 125/652 at -12.6/19.56 = -0.644.  From x_t, at lam = 0, W' = 12.6,
        # and strong convexity sends the second query to 0 - 12.6, past the
        # minimizer; the regula falsi step on the linear W' lands on it, so
        # the certificate sits at the minimizer (slope g ~ -2e-14) after 3
        # queries, and its value is the float nearest 125/652.  The bracket's
        # other two probes come with it: lam = 0 at d = 0.644 right of p and
        # lam = -12.6 at d = 11.956 left of it.  The shifted value at
        # distance d from p is c d^2/2 with c = 19.56 on both sides, so the
        # two probes hold 4.058 and 1397.97, both above the level 3: neither
        # clears any grid index.  At d = 2^i/sqrt(1000) that value is 0.00978
        # 4^i.  Each side searches from lo = 2, where 1000 d^2/2 first
        # reaches 3 (index 1 gives 2.0), to top = ceil(log2(1000)/2 +
        # log2(sqrt(6))) = 7; it probes i = 6 (W = 40.06), the pivot i = 2
        # (W = 0.156), then bisects to i = 4 (2.50) and i = 5 (10.01), the
        # edge: 4 queries a side.  Every probe is positive, so each one, the
        # bracket's two included, gives a row in outward order: lam = 0
        # between i = 4 (d = 0.506) and i = 5 (d = 1.012) on the right, lam =
        # -12.6 past i = 6 (d = 2.024) on the left.  Each row has offset c
        # d^2/2 and drift W/d + d/2 = (c + 1) d/2, each offset counted down
        # from the plateau's log h = g^2/2.  The mean p - g lies right of p,
        # nearer than the probe at i = 2, so the tangent row (p - g, 0, 0)
        # runs left from the mean to the left probe at i = 2, and the plateau
        # keeps [p - g, right probe at i = 2].
        o = quadratic_oracle(np.array([1.0, 30.0]), kappa=1e3)
        line = restrict(o, np.array([1.0, 0.5]), np.array([0.6, 0.8]))
        before = o.query_count
        cert, probes = bracket_minimizer(line, 0.0)
        assert o.query_count - before == 3
        assert [probe.lam for probe in probes] == [0.0, -12.600000000000001]
        before = o.query_count
        env, shifted = build_line_envelope(line, cert, probes)
        assert o.query_count - before == 8
        assert shifted.shift == cert.value == 125 / 652 == 0.19171779141104295
        assert -1e-13 < cert.slope < 0.0
        floor = 0.5 * cert.slope**2
        assert env.plateau_height == math.exp(floor)
        mean = cert.lam - cert.slope
        assert env.rows_minus[0] == (mean, 0.0, 0.0)
        curvature = 0.6**2 + 30.0 * 0.8**2
        grid = [2.0**i / math.sqrt(1e3) for i in (2, 4, 5, 6)]
        for side, rows, d in (
            (-1.0, env.rows_minus[1:], np.array(grid + [-12.6 - cert.lam])),
            (1.0, env.rows_plus, np.array(grid[:2] + [-cert.lam] + grid[2:])),
        ):
            d = np.abs(d)
            assert np.allclose([x for x, _, _ in rows], cert.lam + side * d, rtol=1e-14, atol=0)
            assert np.allclose([o - floor for _, o, _ in rows], 0.5 * curvature * d**2, rtol=1e-12, atol=0)
            assert np.allclose([s for _, _, s in rows], 0.5 * (curvature + 1.0) * d, rtol=1e-12, atol=0)
        assert env.rows_plus[2][0] == 0.0 and env.rows_minus[-1][0] == -12.600000000000001
        assert (env.x_minus, env.x_plus) == (mean, env.rows_plus[0][0])
        # each row starts from the quadratic's own value at its probe
        for x, offset, s in env.rows_minus[1:] + env.rows_plus:
            w = offset - floor
            point = line.point(x)
            value = 0.5 * (point[0] ** 2 + 30.0 * point[1] ** 2) - cert.value
            assert w == pytest.approx(value, rel=1e-12)
            d = abs(x - cert.lam)
            assert s == pytest.approx(w / d + 0.5 * d, rel=1e-15)
        # without the bracket's probes the same searches give the grid rows alone
        before = o.query_count
        bare, _ = build_line_envelope(line, cert)
        assert o.query_count - before == 8
        assert bare.rows_minus == env.rows_minus[:-1]
        assert bare.rows_plus == env.rows_plus[:2] + env.rows_plus[3:]

    def test_first_dyadic_offset_is_never_needed_at_zero(self):
        # the shifted value stays below the level 3 at every grid index
        # below the lo the sandwich derives, and lo >= 1 while |g| <= B, so
        # index 0, one grid step from the certificate point, is among them
        for kappa, diag in ((4.0, (1.0, 4.0)), (100.0, (1.0, 30.0)), (1e6, (1.0, 1e6))):
            o = quadratic_oracle(np.asarray(diag, float), kappa=kappa)
            line = restrict(o, np.array([0.5, 0.4]), np.array([0.6, 0.8]))
            for start in (0.0, 0.62, 3.0, -5.0):
                cert, _ = bracket_minimizer(line, start)
                for side in (-1, 1):
                    lo, _ = search_range(kappa, level=3.0, rise=side * cert.slope)
                    assert lo >= 1
                    for i in range(lo - 8, lo):
                        probe = line.query(cert.lam + side * 2.0**i / math.sqrt(kappa))[0] - cert.value
                        assert probe < 3.0

    def test_mass_is_proportional_to_edge_width(self):
        # the envelope is nowhere above the one from the two level-3 edges
        # (TestNeverWorse), whose plateau is e^f times the edges' width E, f
        # = max(1/2, g^2/2), and whose tails start at e^(-w_edge) <= e^-3
        # with drift w_edge / d_edge >= 3 / d_edge, so each holds at most
        # e^-3 d_edge / 3; the two d_edge add up to E
        kappa = 4.0
        _, line, cert = self._restriction(kappa=kappa)
        env, _ = build_line_envelope(line, cert)
        quad = adaptive_quadrature(
            lambda x: env.value(x),
            env.x_minus - 45.0,
            env.x_plus + 45.0,
            tol=1e-9,
            breakpoints=[env.x_minus, env.x_plus],
        )
        assert env.mass_total == pytest.approx(quad.value, rel=1e-8)
        lines = [(line, cert, ())]
        for name in ("isotropic", "hard:2", "skewed"):
            lines += never_worse_lines(name, 1e6)
        for line, cert, probes in lines:
            env, shifted = build_line_envelope(line, cert, probes)
            edges = edge_envelope(shifted, cert)
            cap = math.exp(edge_floor(cert)) + math.exp(-3.0) / 3.0
            assert env.mass_total <= cap * (edges.x_plus - edges.x_minus)

    def test_acceptance_probability_floor(self):
        kappa = 4.0
        _, line, cert = self._restriction(kappa=kappa)
        env, shifted = build_line_envelope(line, cert)
        z_p = adaptive_quadrature(
            lambda lam: math.exp(-shifted.value(lam)),
            env.x_minus - 8.0,
            env.x_plus + 8.0,
            tol=1e-9,
        ).value
        floor = 0.5 * math.exp(-3.0) * (env.x_plus - env.x_minus) / env.mass_total
        assert z_p / env.mass_total >= floor


def edge_floor(cert):
    """The edge envelope's log plateau f = max(1/2, g^2/2): 1/2 for every |g| <= 1."""
    return max(0.5, 0.5 * cert.slope**2)


def two_edge_envelope(cert, x_minus, w_minus, x_plus, w_plus):
    """Plateau e^f between the edges; each tail's drift is its edge value over
    its distance from p, and the offset the smaller edge value plus f."""
    f = edge_floor(cert)
    offset = min(w_minus, w_plus) + f
    return Envelope(math.exp(f), ((x_minus, offset, w_minus / (cert.lam - x_minus)),),
                    ((x_plus, offset, w_plus / (x_plus - cert.lam)),))


def edge_envelope(shifted, cert):
    """The line envelope built from the two threshold edges alone.

    :func:`two_edge_envelope` of the edges the searches find, re-run (same
    probes, fresh queries).
    """
    (x_minus, w_minus, _), (x_plus, w_plus, _) = threshold_searches(
        shifted.level, cert.lam, shifted.kappa, level=3.0, slope=cert.slope
    )
    return two_edge_envelope(cert, x_minus, w_minus, x_plus, w_plus)


def never_worse_lines(name, kappa):
    """200 random lines at ``kappa``, each with its certificate and bracket probes.

    The isotropic 10-d quadratic, or ``name`` times two Gaussians with the
    member's coordinate scaled toward its narrow bands.
    """
    rng = np.random.default_rng(53)
    if name == "isotropic":
        oracle, scale = isotropic(10, kappa), np.ones(10)
    else:
        members = [builtin_potential(name, kappa)] + [builtin_potential("gaussian", kappa)] * 2
        oracle, scale = product_oracle(members, kappa), np.array([1e-3, 1.0, 1.0])
    for _ in range(200):
        x = rng.standard_normal(oracle.dimension) * scale ** rng.uniform(0.0, 1.0)
        u = rng.standard_normal(oracle.dimension)
        u /= np.linalg.norm(u)
        line = restrict(oracle, x, u)
        yield line, *bracket_minimizer(line, 0.0)


class TestNeverWorse:
    @pytest.mark.parametrize("name", ["isotropic", "hard:2", "skewed"])
    def test_below_the_edge_envelope_with_no_more_mass(self, name):
        # 200 random lines at kappa 1e6: the envelope from every probe, the
        # bracket's included, is pointwise at most the one from the two
        # edges, so rho never falls
        for line, cert, probes in never_worse_lines(name, 1e6):
            env, shifted = build_line_envelope(line, cert, probes)
            old = edge_envelope(shifted, cert)
            grid = np.concatenate([domination_grid(env), domination_grid(old)])
            assert float(np.max(env.log_value(grid) - old.log_value(grid))) <= 1e-12
            assert env.mass_total <= old.mass_total

    @pytest.mark.parametrize("kappa", [1e6, 1e12])
    @pytest.mark.parametrize("name", ["isotropic", "hard:2", "skewed"])
    def test_narrowed_range_finds_the_same_edge(self, name, kappa):
        # the range the sandwich leaves open lies inside the one the line
        # search used before, [1, ceil(log2(kappa)/2 + log2(|g| + sqrt(max(7,
        # g^2 + 6))))], and both find the same first index at which W reaches
        # 3: the lower bound -|g| t + t^2/2 reaches 3 at t = |g| + sqrt(g^2 +
        # 6), which the old sqrt(7) covered only while |g| <= 1
        for line, cert, _ in never_worse_lines(name, kappa):
            _, shifted = build_line_envelope(line, cert)
            left, right = threshold_searches(shifted.level, cert.lam, kappa, level=3.0, slope=cert.slope)
            reach = math.sqrt(max(7.0, cert.slope**2 + 6.0))
            wide_top = math.ceil(math.log2(kappa) / 2 + math.log2(abs(cert.slope) + reach))
            for side, (edge, _, _) in ((-1, left), (1, right)):
                lo, top = search_range(kappa, level=3.0, rise=side * cert.slope)
                assert 1 <= lo <= top <= wide_top
                index, _, probes = find_threshold_index(
                    shifted.level, cert.lam, side, kappa, 3.0, 1, wide_top
                )
                assert probes[index][0] == edge


class TestSearchRange:
    @pytest.mark.parametrize("kappa", [1e3, 1e6, 1e12])
    def test_curvature_one_lines_cost_two_queries_a_side(self, kappa):
        # on the isotropic quadratic W(p + t) = g t + t^2/2 is the lower
        # bound itself, so the edge is top: the search probes top - 1, below
        # the level, and takes the lower bound at top without a query, so the
        # two probes a side cost one query on every line whose certificate
        # is its start point.  On a line whose start has |g0| > 1 the far
        # probe lands on the minimizer, the certificate, and the start lies
        # |g0| from it with W = g0^2/2; where that is below the level 3 and
        # top - 1 lies no farther out, that side's one query is skipped.
        # The searches re-run without the probes find the two probes a side
        oracle = isotropic(10, kappa)
        rng = np.random.default_rng(59)
        root = math.sqrt(kappa)
        started = cleared = 0
        for _ in range(100):
            x, u = rng.standard_normal(10), rng.standard_normal(10)
            u /= np.linalg.norm(u)
            line = restrict(oracle, x, u)
            cert, probes = bracket_minimizer(line, 0.0)
            before = oracle.query_count
            _, shifted = build_line_envelope(line, cert, probes)
            used = oracle.query_count - before
            if not probes:
                started += 1
                assert used == 2
            left, right = threshold_searches(shifted.level, cert.lam, kappa, level=3.0, slope=cert.slope)
            skipped = 0
            for side, (edge, _, searched) in ((-1, left), (1, right)):
                _, top = search_range(kappa, level=3.0, rise=side * cert.slope)
                assert sorted(searched) == [top - 1, top]
                assert searched[top][0] == edge
                for probe in probes:
                    t, w = side * (probe.lam - cert.lam), probe.value - cert.value
                    if t >= 2.0 ** (top - 1) / root and w < 3.0:
                        skipped += 1
            cleared += skipped > 0
            assert used == 2 - skipped
        assert started >= 50 and cleared >= 1  # 65 of 100 here, and 1 to 3

    def test_a_bracket_probe_below_the_level_clears_its_side(self):
        # the line through (2.2, 0) along -e1 on the isotropic quadratic at
        # kappa 1e6: W'(0) = -2.2, so the far probe at lam = 2.2 is the
        # minimizer and the certificate, and the start lam = 0 lies 2.2 left
        # of it with W = 2.42 < 3.  Each side's top is index 12 (d = 4.096);
        # top - 1 (d = 2.048) lies inside 2.2, so the left search skips it
        # and ends at top at no query, and the start's row (0, 2.42, 2.42/2.2
        # + 2.2/2 = 2.2) replaces that probe's (0.152, 2.097152, 2.048).  The
        # right search spends its one query at top - 1 as before
        oracle = isotropic(2, 1e6)
        line = restrict(oracle, np.array([2.2, 0.0]), np.array([-1.0, 0.0]))
        cert, probes = bracket_minimizer(line, 0.0)
        assert cert == (2.2, 0.0, 0.0) and probes == ((0.0, 2.4200000000000004, -2.2),)
        before = oracle.query_count
        env, _ = build_line_envelope(line, cert, probes)
        assert oracle.query_count - before == 1
        assert env.rows_minus == ((0.0, 2.4200000000000004, 2.2), (-1.896, 8.388608, 4.096))
        assert env.rows_plus == ((2.2, 0.0, 0.0), (4.248, 2.097152, 2.048), (6.296, 8.388608, 4.096))
        before = oracle.query_count
        bare, _ = build_line_envelope(line, cert)
        assert oracle.query_count - before == 2
        assert bare.rows_minus == ((0.15200000000000014, 2.097152, 2.048), (-1.896, 8.388608, 4.096))
        assert bare.rows_plus == env.rows_plus

    def test_bounds_of_the_range(self):
        # below lo even the upper bound rise t + kappa t^2/2 stays under the
        # level less the search's slack, at lo it does not, and the lower
        # bound rise t + t^2/2 first reaches the level at top
        rng = np.random.default_rng(67)
        for kappa in (1.0, 2.0, 4.0, 37.5, 1e3, 1e6, 1e12):
            root = math.sqrt(kappa)
            for level in (0.5, 3.0):
                for rise in (0.0, 1.0, -1.0, *rng.uniform(-5.0, 5.0, 20)):
                    lo, top = search_range(kappa, level=level, rise=rise)

                    def bound(i, curvature):
                        t = 2.0**i / root
                        return rise * t + 0.5 * curvature * t * t

                    assert all(bound(i, kappa) < level - 1e-9 for i in range(lo - 64, lo))
                    assert bound(lo, kappa) >= level - 1e-9
                    assert bound(top, 1.0) >= level - 1e-9
                    assert top == lo or bound(top - 1, 1.0) < level

    @pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0, 4.0, 37.5, 1e3, 1e6, 1e12])
    def test_slope_zero_gives_the_1d_range(self, kappa):
        assert search_range(kappa, level=0.5, rise=0.0) == (0, math.ceil(math.log2(kappa) / 2))


class TestCertifiedEdge:
    """A search that ends at its top unqueried takes the sandwich's lower bound there."""

    def test_kappa_one_searches_spend_no_query(self):
        # at kappa = 1 the sandwich is an equality, so lo = top and neither
        # search queries; the rows from the lower bounds are the restriction
        # itself, and the envelope still dominates it
        oracle = isotropic(3, 1.0)
        rng = np.random.default_rng(61)
        for _ in range(100):
            x, u = rng.standard_normal(3) * 3.0, rng.standard_normal(3)
            u /= np.linalg.norm(u)
            line = restrict(oracle, x, u)
            cert, probes = bracket_minimizer(line, 0.0)
            for side in (-1, 1):
                lo, top = search_range(1.0, level=3.0, rise=side * cert.slope)
                assert lo == top
            before = oracle.query_count
            env, shifted = build_line_envelope(line, cert, probes)
            assert oracle.query_count == before
            grid = domination_grid(env)
            points = line.base[:, None] + grid[None, :] * line.direction[:, None]
            w = 0.5 * np.sum(points * points, axis=0) - cert.value
            assert float(np.min(env.value(grid) - np.exp(-w))) >= -1e-12

    @pytest.mark.parametrize("kappa", [1e6, 1e12])
    @pytest.mark.parametrize("name", ["isotropic", "hard:2", "skewed"])
    def test_no_more_mass_than_the_queried_edge_envelope(self, name, kappa):
        # the edge envelope of TestNeverWorse, but from the values queried at
        # the two edges rather than the lower bound at an unqueried top
        for line, cert, probes in never_worse_lines(name, kappa):
            env, shifted = build_line_envelope(line, cert, probes)
            (x_minus, w_minus, _), (x_plus, w_plus, _) = threshold_searches(
                shifted.level, cert.lam, kappa, level=3.0, slope=cert.slope, exact_edges=True
            )
            assert (w_minus, w_plus) == (shifted.level(x_minus)[0], shifted.level(x_plus)[0])
            queried = two_edge_envelope(cert, x_minus, w_minus, x_plus, w_plus)
            assert env.mass_total <= queried.mass_total


def bracket_lines(name, kappa, count):
    """``count`` random lines whose start has ``|W'| > 1``, so the bracket leaves probes.

    ``name`` is a builtin times two Gaussians, or ``"mixed"``: ``hard:1``,
    ``hard:2``, ``hard:3``, ``skewed`` and ``gaussian``, each twice.  Each
    non-Gaussian coordinate is scaled by ``10^U / sqrt(kappa)``, U uniform on
    [0, 1.5], into its narrow bands.  Only lines with ``|W(p)| <= 1e3`` are kept:
    further out the rounding of ``W`` itself passes the sampler's 1e-9 log
    tolerance, with or without the bracket's rows.  Yields the members, the
    line, its certificate and its probes.
    """
    names = ["hard:1", "hard:2", "hard:3", "skewed", "gaussian"] * 2 if name == "mixed" else [
        name, "gaussian", "gaussian"]
    members = [builtin_potential(n, kappa) for n in names]
    oracle = product_oracle(members, kappa)
    narrow = np.array([n != "gaussian" for n in names])
    rng = np.random.default_rng(79)
    while count:
        x = rng.standard_normal(oracle.dimension)
        x[narrow] *= 10.0 ** rng.uniform(0.0, 1.5, int(narrow.sum())) / math.sqrt(kappa)
        u = rng.standard_normal(oracle.dimension)
        u /= np.linalg.norm(u)
        line = restrict(oracle, x, u)
        cert, probes = bracket_minimizer(line, 0.0)
        if probes and abs(cert.value) <= 1e3:
            count -= 1
            yield members, line, cert, probes


def restriction(members, line, lams):
    """``W`` at each ``lam`` on the line, member by member rather than through the oracle."""
    points = line.base[:, None] + np.asarray(lams)[None, :] * line.direction[:, None]
    return sum(m.evaluate(points[i])[0] for i, m in enumerate(members))


def assert_dominates(env, grid, w):
    """``env`` is at least ``exp(-w)`` at each ``grid`` point, ``w`` the shifted restriction there.

    Within the sampler's own log tolerance, wherever exp(-W) is a positive
    float, plus what the steepest row falls over four ulps of lam: adjacent
    doubles lam can round to one point of the line, where W stays put while
    a row with drift 1.5e6 falls by 1.3e-9.
    """
    steepest = max(s for _, _, s in env.rows_minus + env.rows_plus)
    positive = w < 700.0
    slack = 1e-9 + 4.0 * steepest * np.spacing(np.abs(grid[positive]))
    assert np.all(-w[positive] - env.log_value(grid[positive]) <= slack)


def start_certificate_lines(name, kappa, count):
    """``count`` random lines whose start, with ``1 < |W'| <= 2``, is the certificate.

    The isotropic 10-d quadratic, or ``name`` times two Gaussians with the
    member's coordinate scaled by ``10^U / sqrt(kappa)`` into its narrow
    bands, as in :func:`bracket_lines`.  Yields the restriction's members
    (None for the quadratic), the line and its certificate.
    """
    rng = np.random.default_rng(83)
    if name == "isotropic":
        members, oracle = None, isotropic(10, kappa)
    else:
        members = [builtin_potential(name, kappa)] + [builtin_potential("gaussian", kappa)] * 2
        oracle = product_oracle(members, kappa)
    while count:
        x = rng.standard_normal(oracle.dimension)
        if members:
            x[0] *= 10.0 ** rng.uniform(0.0, 1.5) / math.sqrt(kappa)
        u = rng.standard_normal(oracle.dimension)
        u /= np.linalg.norm(u)
        line = restrict(oracle, x, u)
        start = Certificate(0.0, *line.query(0.0))
        if 1.0 < abs(start.slope) <= 2.0:
            assert bracket_minimizer(line, 0.0, start) == (start, ())
            count -= 1
            yield members, line, start


class TestWideCertificates:
    """Line envelopes around a start certificate with ``1 < |g| <= 2``, plateau up to ``e^2``."""

    @pytest.mark.parametrize("kappa", [1e6, 1e12])
    @pytest.mark.parametrize("name", ["isotropic", "hard:2", "skewed"])
    def test_dominate_the_restriction(self, name, kappa):
        for members, line, cert in start_certificate_lines(name, kappa, 40):
            env, _ = build_line_envelope(line, cert)
            assert env.plateau_height == math.exp(0.5 * cert.slope * cert.slope)
            grid = domination_grid(env)
            if members is None:
                points = line.base[:, None] + grid[None, :] * line.direction[:, None]
                w = 0.5 * np.sum(points * points, axis=0) - cert.value
            else:
                w = restriction(members, line, grid) - cert.value
            assert_dominates(env, grid, w)


BRACKET_CASES = [(name, kappa) for name in ("hard:2", "skewed", "mixed") for kappa in (1e6, 1e12)]


class TestBracketRows:
    """The line envelope from the grid's probes and the certificate search's."""

    @pytest.mark.parametrize("name, kappa", BRACKET_CASES)
    def test_dominates_the_restriction(self, name, kappa):
        rows = 0
        for members, line, cert, probes in bracket_lines(name, kappa, 100):
            env, _ = build_line_envelope(line, cert, probes)
            starts = {x for x, _, _ in env.rows_minus + env.rows_plus}
            rows += sum(probe.lam in starts for probe in probes)
            grid = domination_grid(env)
            assert_dominates(env, grid, restriction(members, line, grid) - cert.value)
        assert rows >= 100  # about one bracket row a line

    @pytest.mark.parametrize("name, kappa", BRACKET_CASES)
    def test_mass_against_quadrature(self, name, kappa):
        # the closed-form mass is the envelope's integral, piece by piece
        # between the row starts and out along each tail to where its
        # exponent passes 60
        for _, line, cert, probes in bracket_lines(name, kappa, 20):
            env, _ = build_line_envelope(line, cert, probes)
            starts = sorted(x for x, _, _ in env.rows_minus + env.rows_plus)
            reach = [min(60.0 / rows[-1][2], 11.0) for rows in (env.rows_minus, env.rows_plus)]
            bounds = [starts[0] - reach[0], *starts, starts[-1] + reach[1]]
            tol = 1e-12 * env.mass_total
            quad = sum(adaptive_quadrature(env.value, a, b, tol=tol).value for a, b in zip(bounds, bounds[1:]))
            assert env.mass_total == pytest.approx(quad, rel=1e-9)

    @pytest.mark.parametrize("name, kappa", BRACKET_CASES)
    def test_no_more_queries_and_the_same_edges(self, name, kappa):
        # each probe fits the certificate's sandwich, the probes never add a
        # query, and every side keeps the edge and edge value it finds
        # without them
        fewer = 0
        for _, line, cert, probes in bracket_lines(name, kappa, 100):
            for probe in probes:
                cert.check(probe.lam, probe.value, kappa)
            oracle = line._oracle
            before = oracle.query_count
            _, view = build_line_envelope(line, cert)
            bare = oracle.query_count - before
            before = oracle.query_count
            build_line_envelope(line, cert, probes)
            used = oracle.query_count - before
            assert used <= bare
            fewer += used < bare
            clear = [0.0, 0.0]
            for probe in probes:
                if probe.value - cert.value < 3.0:
                    side = probe.lam > cert.lam
                    clear[side] = max(clear[side], abs(probe.lam - cert.lam))
            searches = [
                threshold_searches(view.level, cert.lam, kappa, level=3.0, slope=cert.slope, clear=c)
                for c in ((0.0, 0.0), tuple(clear))
            ]
            assert [(edge, w) for edge, w, _ in searches[1]] == [(edge, w) for edge, w, _ in searches[0]]
        assert fewer > 0

    def test_a_shared_start_keeps_the_grid_value(self):
        # curvature 1 for |x| <= 2.5 and 100 beyond, at kappa = 1e6: from the
        # minimizer the right search ends unqueried at its top 2^12/1000 =
        # 4.096 and takes the sandwich's bound 4.096^2/2 = 8.388608 there,
        # while W(4.096) = 134.4758.  A probe at that point adds no row.
        def value(x):
            r = abs(float(x[0]))
            return 0.5 * r * r if r <= 2.5 else 3.125 + 2.5 * (r - 2.5) + 50.0 * (r - 2.5) ** 2

        def gradient(x):
            r = abs(float(x[0]))
            return np.array([math.copysign(r if r <= 2.5 else 2.5 + 100.0 * (r - 2.5), x[0])])

        oracle = MultivariateOracle(value, gradient, dimension=1, kappa=1e6)
        line = restrict(oracle, [0.0], [1.0])
        cert, probes = bracket_minimizer(line, 0.0)
        assert cert == (0.0, 0.0, 0.0) and probes == ()
        bare, _ = build_line_envelope(line, cert)
        assert bare.rows_plus[-1][:2] == (4.096, 8.388608)
        probe = Certificate(4.096, *line.query(4.096))
        assert probe.value == pytest.approx(134.4758)
        assert build_line_envelope(line, cert, (probe,))[0] == bare

    def test_numpy_floats_build_the_same_envelope(self):
        # a NumPy float's comparison is a NumPy bool, which indexes no tuple
        for _, line, cert, probes in bracket_lines("mixed", 1e6, 10):
            env, _ = build_line_envelope(line, cert, probes)
            as_numpy = tuple(Certificate(*map(np.float64, probe)) for probe in probes)
            assert build_line_envelope(line, cert, as_numpy)[0] == env
            assert build_line_envelope(line, Certificate(*map(np.float64, cert)), as_numpy)[0] == env


class TestOneView:
    def test_trials_query_the_view_the_envelope_returns(self):
        # the searches ask the view for values alone, each trial asks it
        # for the value and the gradient, and the accepted trial's answer
        # is its last, the one a fresh query there gives
        diag = np.array([1.0, 30.0, 4.0])
        gradients = 0

        def gradient(x):
            nonlocal gradients
            gradients += 1
            return diag * x

        oracle = MultivariateOracle(lambda x: 0.5 * float(x @ (diag * x)), gradient, dimension=3, kappa=1e3)
        rng = np.random.default_rng(71)
        for _ in range(30):
            x, u = rng.standard_normal(3), rng.standard_normal(3)
            line = restrict(oracle, x, u / np.linalg.norm(u))
            cert, probes = bracket_minimizer(line, 0.0)
            queries, before = oracle.query_count, gradients
            env, view = build_line_envelope(line, cert, probes)
            assert oracle.query_count > queries and gradients == before
            assert view.last is None
            outcome = sample_exact(view, env, rng)
            assert gradients - before == outcome.trials
            last = view.last
            assert last.point.tobytes() == view.point(outcome.result).tobytes()
            value, grad = oracle.query(last.point)
            assert last.value == value and last.gradient.tobytes() == grad.tobytes()


class TestStep:
    def test_conditional_law_fixed_direction(self):
        o = isotropic(2, 4.0)
        rng = np.random.default_rng(7)
        x = np.array([1.0, 0.0])
        n = 4000
        lams = np.empty(n)
        for k in range(n):
            lams[k] = step(o, x, rng, direction=np.array([0.0, 1.0])).point[1]
        assert ks_statistic(lams, normal_cdf) < ks_critical_value(n)

    def test_one_step_preserves_stationary_mean(self):
        d = 5
        o = isotropic(d, 10.0)
        rng = np.random.default_rng(11)
        n = 3000
        after = np.empty((n, d))
        for k in range(n):
            after[k] = step(o, rng.standard_normal(d), rng).point
        se = 1.0 / math.sqrt(n)
        assert np.all(np.abs(after.mean(axis=0)) <= 3.5 * se)

    def test_query_ledger_matches_oracle_counter(self):
        o = isotropic(3, 100.0)
        rng = np.random.default_rng(13)
        res = run_chain(o, np.array([0.5, -0.2, 0.1]), 5, rng)
        assert res.step_queries.size == 5
        assert res.step_queries.sum() == o.query_count

    def test_probe_start_saves_one_query_and_changes_nothing(self):
        # a step from the Probe the last step returned reuses the oracle's
        # own answer at that point array, so it draws what a step from the
        # bare point draws, one query cheaper
        o = quadratic_oracle(np.array([1.0, 30.0, 4.0]), kappa=1e3)
        probe = step(o, np.array([1.0, 0.5, -0.3]), np.random.default_rng(41))
        value, gradient = o.query(probe.point)
        assert probe.value == value and np.array_equal(probe.gradient, gradient)
        for seed in range(20):
            before = o.query_count
            fresh = step(o, probe.point, np.random.default_rng(seed))
            from_point = o.query_count - before
            before = o.query_count
            reused = step(o, probe, np.random.default_rng(seed))
            assert o.query_count - before == from_point - 1
            assert np.array_equal(reused.point, fresh.point)
            assert reused.value == fresh.value and np.array_equal(reused.gradient, fresh.gradient)

    def test_gradients_only_at_bracket_probes_and_trials(self):
        # each trial asks for the gradient in its one query, and so does
        # each certificate-search probe; the threshold search never does
        diag = np.array([1.0, 30.0, 4.0])
        calls = {"value": 0, "gradient": 0}

        def value(x):
            calls["value"] += 1
            return 0.5 * float(x @ (diag * x))

        def gradient(x):
            calls["gradient"] += 1
            return diag * x

        o = MultivariateOracle(value, gradient, dimension=3, kappa=1e3)
        ledger = []

        def counted(name, fn):
            def run(line, *args):
                before = (o.query_count, calls["gradient"])
                out = fn(line, *args)
                ledger.append((name, o.query_count - before[0], calls["gradient"] - before[1]))
                return out

            return run

        rng = np.random.default_rng(43)
        state = np.array([1.0, 0.5, -0.3])
        with pytest.MonkeyPatch.context() as mp:
            for name in ("bracket_minimizer", "build_line_envelope", "sample_exact"):
                mp.setattr(hitandrun, name, counted(name, getattr(hitandrun, name)))
            for _ in range(30):
                ledger.clear()
                calls.update(value=0, gradient=0)
                before = o.query_count
                state = step(o, state, rng)
                phases = {name: (queries, grads) for name, queries, grads in ledger}
                assert calls["value"] == o.query_count - before
                search_queries, search_gradients = phases["build_line_envelope"]
                assert search_queries > 0 and search_gradients == 0
                for name in ("bracket_minimizer", "sample_exact"):
                    assert phases[name][0] == phases[name][1]
                assert calls["gradient"] == calls["value"] - search_queries


    def test_envelope_below_line_target_raises_class_violation(self):
        # curvature 100 along the second axis against a declared kappa of 10
        diag = np.array([1.0, 100.0])
        oracle = MultivariateOracle(
            value_fn=lambda x: 0.5 * float(x @ (diag * x)),
            grad_fn=lambda x: diag * x,
            dimension=2,
            kappa=10.0,
        )
        with pytest.raises(ClassViolationError, match="escapes the curvature sandwich"):
            run_chain(oracle, np.zeros(2), 2_000, np.random.default_rng(1))

    @pytest.mark.parametrize(
        "diagonal, kappa", [([1.0, 30.0], 10.0), ([1.0, 12.0], 10.0), ([0.7, 1.0], 1.0)]
    )
    def test_curvature_outside_declared_sandwich_raises(self, diagonal, kappa):
        # the line envelope dominates these restrictions, so only the
        # sandwich check on the values the step queries can catch them
        diag = np.array(diagonal)
        oracle = MultivariateOracle(
            value_fn=lambda x: 0.5 * float(x @ (diag * x)),
            grad_fn=lambda x: diag * x,
            dimension=2,
            kappa=kappa,
        )
        with pytest.raises(ClassViolationError, match="escapes the curvature sandwich"):
            run_chain(oracle, np.zeros(2), 2_000, np.random.default_rng(1))


class TestRunChain:
    def test_far_start_past_double_precision_is_usage_error(self):
        # from (1e3, 1e3) on [1, 1e20] a line's minimizer lies where one ulp
        # moves W' by about 2e7: the search closes on adjacent doubles far
        # steeper than 2B, which no plateau e^(g^2/2) could cover
        o = quadratic_oracle(np.array([1.0, 1e20]))
        with pytest.raises(UsageError, match="kappa = 1e\\+20 needs more than double precision"):
            run_chain(o, np.array([1e3, 1e3]), 5, np.random.default_rng(1))

    def test_zero_steps(self):
        o = isotropic(4, 10.0)
        res = run_chain(o, np.zeros(4), 0, np.random.default_rng(0))
        assert res.positions.shape == (1, 4)
        assert res.step_queries.size == 0
        assert res.mean_queries_per_step == 0.0
        assert res.last is None
        assert o.query_count == 0

    def test_chunks_from_the_last_probe_take_the_unbroken_chain(self):
        def oracle():
            return quadratic_oracle(np.array([1.0, 4.0, 30.0]), kappa=100.0)

        x0 = np.array([0.5, -0.2, 0.1])
        whole_oracle = oracle()
        whole = run_chain(whole_oracle, x0, 100, np.random.default_rng(41))
        assert whole.last.point.tolist() == whole.positions[-1].tolist()

        # each chunk starts from the previous chunk's last Probe
        chunked_oracle, rng = oracle(), np.random.default_rng(41)
        first = run_chain(chunked_oracle, x0, 50, rng)
        second = run_chain(chunked_oracle, first.last, 50, rng)
        positions = np.concatenate([first.positions, second.positions[1:]])
        assert positions.tolist() == whole.positions.tolist()
        queries = np.concatenate([first.step_queries, second.step_queries])
        assert queries.tolist() == whole.step_queries.tolist()
        assert chunked_oracle.query_count == whole_oracle.query_count
        assert run_chain(chunked_oracle, second.last, 0, rng).last is second.last

        # restarting from the point array takes the same steps but queries
        # the start again
        restarted_oracle, rng = oracle(), np.random.default_rng(41)
        first = run_chain(restarted_oracle, x0, 50, rng)
        second = run_chain(restarted_oracle, first.positions[-1], 50, rng)
        assert second.positions.tolist() == whole.positions[50:].tolist()
        assert restarted_oracle.query_count == whole_oracle.query_count + 1

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

    def test_queries_per_step_flat_in_kappa(self):
        # the certificate search starts at the chain's own point, so no
        # query scales with log(kappa); a bisection from a radius of
        # order kappa spends about 35, 50 and 65 here
        for kappa in (1e3, 1e6, 1e9):
            res = run_chain(isotropic(10, kappa), np.zeros(10), 2000, np.random.default_rng(29))
            assert res.mean_queries_per_step <= 13.0, kappa

    def test_negative_steps_rejected(self):
        with pytest.raises(UsageError):
            run_chain(isotropic(2, 1.0), np.zeros(2), -1, np.random.default_rng(0))

    @pytest.mark.parametrize("steps", [True, 2.5, "3"])
    def test_steps_must_be_an_integer(self, steps):
        # a bool, a float or a string is a UsageError naming the argument,
        # before any query, not NumPy's TypeError or a comparison's
        oracle = isotropic(2, 4.0)
        with pytest.raises(UsageError, match=f"steps must be an integer of at least 0, got {steps!r}"):
            run_chain(oracle, np.zeros(2), steps, np.random.default_rng(0))
        assert oracle.query_count == 0

    def test_numpy_integer_steps(self):
        res = run_chain(isotropic(2, 4.0), np.zeros(2), np.int32(3), np.random.default_rng(0))
        assert res.positions.shape == (4, 2) and res.step_queries.shape == (3,)

    @pytest.mark.parametrize("start, message", [
        (np.array([0.5]), r"shape \(10,\), got \(1,\)"),
        (0.5, r"shape \(10,\), got \(\)"),
        (np.full(3, 0.5), r"shape \(10,\), got \(3,\)"),
        (np.zeros((1, 10)), r"shape \(10,\), got \(1, 10\)"),
        (np.full(10, math.inf), "must be finite, got inf"),
        (np.array([0.0] * 9 + [math.nan]), "must be finite, got nan"),
        ("origin", "vector of floats"),
    ])
    def test_malformed_start_is_a_usage_error(self, start, message):
        # a start that is not a finite point of the oracle's dimension is
        # refused before any query, by the chain and by a single step alike,
        # instead of broadcasting, a bare ValueError or a class violation
        # (after a RuntimeWarning, which the test settings make an error)
        oracle = isotropic(10, 1e6)
        with pytest.raises(UsageError, match=message):
            run_chain(oracle, start, 3, np.random.default_rng(0))
        with pytest.raises(UsageError, match=message):
            step(oracle, start, np.random.default_rng(0))
        assert oracle.query_count == 0


# The first 20 steps of two chains at seed 2024, positions and per-step
# queries.  A refactor of the line step that keeps its query sequence must
# reproduce them bit for bit.  Re-recorded when the line envelope began to
# use every threshold-search probe: the trial sequence changed, and the
# queries fell from 318 to 216 (anisotropic) and from 187 to 152 (10-d).
# Re-recorded again when each side's search range came from the
# certificate's sandwich and the tangent row replaced the far half of the
# plateau: the chains took other paths, and the queries went from 216 to 228
# (anisotropic: bracket 42 -> 52 on the new path, search 152 -> 154, trials
# 22 -> 22; over 5,000 steps 11.39 -> 11.20 per step) and from 152 to 124
# (10-d: bracket 23 -> 21, search 98 -> 80, trials 31 -> 23).
# Re-recorded again when each line came to be anchored at the chain's point
# and each step's accepted trial became the next certificate search's first
# probe.  The 10-d chain kept its path: every position within 6.7e-16 of the
# previous pins, and one query fewer on each of steps 2-20 (124 -> 105, the
# bracket 21 -> 2).  The anisotropic chain's step-2 certificate sits at the
# line's minimizer, where its slope turned from 3.9e-17 to -1.4e-16, so the
# tangent row moved to the other side and the chain took another path: 228
# -> 194 queries (bracket 52 -> 25, search 154 -> 146, trials 22 -> 23; over
# 5,000 steps 11.20 -> 10.20 per step).
# Re-recorded again when the envelope's segments came to be drawn in one
# left-to-right order: every line envelope is the same function with the
# same masses, but a uniform now picks another segment, so the trials and
# then the chains take other paths.  The queries went from 194 to 195
# (anisotropic; over 5,000 steps 10.20 -> 10.27 per step) and from 105 to
# 107 (10-d; 5.54 -> 5.56 per step).
# Re-recorded again when a search that ends at its top unqueried came to take
# the sandwich's lower bound there as the edge value: every position is
# unchanged, and only the queries fell, from 195 to 189 (anisotropic, steps 3,
# 13 and 16 each 2 fewer; over 5,000 steps 10.27 -> 10.05 per step) and from
# 107 to 67 (10-d, 2 fewer on every step; 5.56 -> 3.56 per step).
# Re-recorded again when the certificate search's other probes came to feed
# the line envelope, each one below the level clearing the grid out to it
# and each one above 0 adding its row: the envelopes, and so the trials and
# the paths, changed.  The queries went from 189 to 176 (anisotropic; over
# 5,000 steps 10.05 -> 9.23 per step) and stayed at 67 (10-d, which keeps
# its path through step 9; 3.56 -> 3.50 per step).
# Re-recorded again when erfcx and erfcinv came to be computed from math
# rather than SciPy: the inverted step sizes moved in their last bits and
# every query count stayed.  The anisotropic chain moved at step 20 only,
# by 2 ulps; the 10-d chain from step 3 on, each position by at most 3.3e-16,
# 3 ulps of its largest coordinate.
# Re-recorded again when the certificate search came to accept a probe with
# |W'| <= 2 above kappa = 8/3 (both chains' kappa): a start with 1 < |g| <= 2
# became its line's certificate, so the envelopes, the trials and the paths
# changed.  The anisotropic chain left its path at step 2, and its queries
# went from 176 to 161 (over 5,000 steps 9.18 -> 9.15 per step); the 10-d
# chain kept its path through step 7, and its queries went from 67 to 65
# (3.49 -> 3.34 per step).
# Re-recorded again when a chain's steps came to pick, by the chain's own
# measured costs, between searching first and trying the certificate's
# tangent Gaussian first.  Each chain's first step searches first, as a bare
# step does, and is unchanged; both chains leave their paths at step 2.  The
# anisotropic chain's step 2 tried the tangent and fell back, and every later
# step searched first: 161 -> 186 queries on the new path (over 5,000 steps
# 9.15 -> 9.10 per step).  The 10-d chain tried the tangent on steps 2-20,
# accepted on all but step 3: 65 -> 26 queries (3.34 -> 1.09 per step).
ANISOTROPIC_POSITIONS = [
    [0.5878986735554335, -0.15765943136239413],
    [1.7763460261915645, 0.3352671823080847],
    [1.7988822645912235, 0.29831878464564116],
    [0.9262349886698155, -0.031030133143735317],
    [0.9148294713838481, -0.1150812551101399],
    [0.7895174775642165, -0.07123497227268377],
    [0.808056816913706, -0.053665019485972666],
    [0.7545390435807832, -0.034858809742332],
    [0.7157091962122407, -0.06094049735355782],
    [0.45278297182928146, -0.1489318927278585],
    [0.5730176588425363, -0.0008117639306485236],
    [0.6287272128829212, -0.16969586508467735],
    [0.9145455093419599, 0.08226890346452279],
    [0.9008042158059848, -0.17206773231402414],
    [2.6697522674255763, -0.13704153606228303],
    [0.48259814804777434, -0.1567373934904491],
    [0.4870774111794647, -0.14238209514932043],
    [0.7348955173905524, 0.093999197950807],
    [0.7543703227009878, 0.04269753874262765],
    [0.6220688034457179, 0.1551688259634026],
]
ANISOTROPIC_QUERIES = [
    12, 10, 10, 9, 12, 10, 8, 8, 9, 9, 10, 9, 10, 12, 3, 4, 10, 10, 11, 10,
]

ISOTROPIC_10D_POSITIONS = [
    [
        -0.22565559150479544, -0.36011659868498613, -0.25150599689079955, 0.2134440705646971,
        0.3054779897505466, -0.014737942307069212, -0.188917094108983, -0.11167816553396384,
        -0.3970436242420417, -0.16467988147978618,
    ],
    [
        0.49918750123996547, -0.3362324137584185, 0.14476356520908445, -0.45867047674897915,
        0.09239585316960539, -0.645184810439681, -0.5676850951768934, 0.3292923081211876,
        -1.1200193102932288, -0.42548023297186766,
    ],
    [
        0.33752540998320535, -0.3972458796479018, 0.09110882482073863, -0.35754832499604416,
        -0.011898251803055496, -0.579341600093257, -0.5539440061594003, 0.43196964969720886,
        -1.065619259516971, -0.024587823786761442,
    ],
    [
        0.35204054718054745, -0.3452462179834851, 0.16967640976977505, -0.38129990698565414,
        0.03173548431737121, -0.6084842570302363, -0.6231491644323811, 0.43626829194246747,
        -1.0234328315260264, -0.03934872573406688,
    ],
    [
        0.19750247889317477, -0.49170378652858265, 0.08750680809795229, -0.2810266702267731,
        0.03794764705865941, -0.6782631232689907, -0.598628787136486, 0.506868950173621,
        -0.9348502753726857, 0.0337970565929846,
    ],
    [
        0.08717275516295954, -0.36948728681319043, 0.1450506308756457, -0.2617689439453285,
        -0.0760696293372662, -0.7411963037877575, -0.32666975857552377, 0.5205206641315285,
        -0.8606844016763674, 0.12516385794744916,
    ],
    [
        0.11496626054685234, -0.2478868562082193, -0.22358235814049696, -0.35016999105753605,
        -0.18762341737548027, -0.8088032866034944, -0.8993650719088067, 0.7735068409697882,
        -0.6376629776356068, -0.2875059531413622,
    ],
    [
        0.11900068289258292, -0.1732140167090449, -0.45312310757495333, -0.47033820563371165,
        -0.11446730691616631, -0.4199386970083437, -0.8194264331100722, 0.7633184482965406,
        -0.7838171645364036, -0.2197858748914713,
    ],
    [
        0.0723109282050553, 0.03536133268626293, -0.6754681926254056, -0.47234047747007085,
        -0.10826681370893891, -0.3779306645672078, -0.96340246962133, 0.7213739857204394,
        -0.9182422376646738, -0.23125745671629577,
    ],
    [
        0.003209159465515657, -0.030551387332043475, -0.826003314640252, -0.4817148962688223,
        0.5542994563377818, -0.07516209282628039, -1.0918275471364234, 1.0596787572157913,
        -0.6215244740138253, -0.27338395847205554,
    ],
    [
        0.13528154898364259, -0.06522990444859622, 0.04171935696353568, -0.23968543579310225,
        0.5990483044581401, 0.6494170838186397, -0.9939592307380247, 0.9833006468174788,
        -0.9356539039353946, -0.39568069471678347,
    ],
    [
        0.1770334793574716, -0.03638330314482088, 0.024784460443376528, -0.13390153240644437,
        0.4863073160503988, 0.51180902252328, -0.7124272211636571, 0.8086886491522366,
        -0.8160508857317319, -0.5907808949586054,
    ],
    [
        0.033650920539528256, -0.041589223670061064, -0.015315175303458436, -0.522903429626655,
        0.25805033181656756, 0.3588428005340464, -0.7470922687513153, 0.718042306836465,
        -0.8399665236449533, -0.3450244365664078,
    ],
    [
        -0.22153550843639372, -0.14010172546670302, 0.11408573865916649, 0.1639473032053539,
        0.26509172939175635, -0.4123828250582837, -0.48893523841044356, 0.65125883762994,
        -1.5323413700248114, -1.2515129122359099,
    ],
    [
        -0.13852971827000093, -0.179009186813126, 0.13951080770704166, 0.26123756485517236,
        0.3452197946101293, -0.5580572410022748, -0.22206838524355682, 0.3775795379808577,
        -1.558359614178875, -1.3929114722092324,
    ],
    [
        -0.36057412093109775, -0.4476950576205727, 0.027841044569473186, 0.2963667772855651,
        0.1561975122720602, -0.8882966060490471, -0.27687174162445277, 0.3686666763745684,
        -1.4225420881641768, -1.5536663669325979,
    ],
    [
        -0.3917877990167156, -0.553151014894182, -0.3820085790166815, 0.25973018244475593,
        0.46852149341405175, -0.2601396828002517, -0.6871453245734708, 0.6276029535703468,
        -1.112026303224849, -1.2139960557439287,
    ],
    [
        -0.7065203636183439, -1.231559834228459, -0.236017940413459, 0.13826753115035856,
        -0.01665016770732386, -0.664456151281484, -0.3054370962147353, -0.148886229550376,
        -1.3837512460442525, -1.2975525654522224,
    ],
    [
        -1.4299046774047934, -1.7274504616407915, -1.217958076292473, 0.3879937901833975,
        0.20042425636687491, -0.864175732748137, -0.9293087986012629, 0.5935543150339146,
        -0.47620430945012404, -0.4019633911764048,
    ],
    [
        -1.3830719525996904, -1.304523636782564, -1.0090749533289656, 0.10729794037142959,
        0.20146419728539797, -0.7000196112586002, -0.8425536067539598, -0.008793631256939882,
        -0.9881546161200795, -0.7814168139016999,
    ],
]
ISOTROPIC_10D_QUERIES = [
    4, 1, 4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
]


class TestPinnedChains:
    @pytest.mark.parametrize(
        "diagonal, kappa, x0, positions, queries",
        [
            ([1.0, 30.0], 1e3, [1.0, 0.5], ANISOTROPIC_POSITIONS, ANISOTROPIC_QUERIES),
            ([1.0] * 10, 1e6, [0.0] * 10, ISOTROPIC_10D_POSITIONS, ISOTROPIC_10D_QUERIES),
        ],
        ids=["anisotropic", "isotropic_10d"],
    )
    def test_first_steps_are_pinned(self, diagonal, kappa, x0, positions, queries):
        oracle = quadratic_oracle(np.array(diagonal), kappa=kappa)
        res = run_chain(oracle, np.array(x0), 20, np.random.default_rng(2024))
        assert res.positions[1:].tolist() == positions
        assert res.step_queries.tolist() == queries
        # the first step searches first, as every step did before the chain
        # chose a path per step, and as a bare step still does
        assert res.step_paths[0] == 0
        bare_oracle = quadratic_oracle(np.array(diagonal), kappa=kappa)
        bare = step(bare_oracle, np.array(x0), np.random.default_rng(2024))
        assert bare.point.tolist() == positions[0] and bare_oracle.query_count == queries[0]


class TestMultivariateOracle:
    def test_counter_and_gradient(self):
        o = quadratic_oracle(np.array([1.0, 2.0]))
        value, gradient = o.query(np.array([1.0, 1.0]))
        assert value == pytest.approx(1.5)
        assert np.allclose(gradient, [1.0, 2.0])
        assert o.query_count == 1

    def test_value_only_query_skips_gradient(self):
        diag = np.array([1.0, 2.0])
        gradient_calls = []

        def gradient(x):
            gradient_calls.append(x)
            return diag * x

        o = MultivariateOracle(lambda x: 0.5 * float(x @ (diag * x)), gradient, dimension=2, kappa=2.0)
        gradient_calls.clear()  # the origin check at construction
        assert o.query(np.array([1.0, 1.0]), gradient=False) == (1.5, None)
        line = restrict(o, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        # W(lam) = (1 + 2 lam^2) / 2, so W(0) = 1/2 with slope 0 certifies the line
        view = line.certify(Certificate(0.0, 0.5, 0.0))
        assert view.level(1.0) == (pytest.approx(1.0), None)
        assert o.query_count == 2
        assert gradient_calls == []

    def test_requires_zero_mode(self):
        with pytest.raises(UsageError):
            MultivariateOracle(
                value_fn=lambda x: float(x[0] + 1.0), grad_fn=lambda x: np.ones(1), dimension=1, kappa=2.0
            )

    @pytest.mark.parametrize(
        "diagonal, kappa",
        [([2.0, 8.0], 4.0), ([1.0, 100.0], 10.0), ([0.5, 2.0], None), ([0.0, 1.0], 4.0)],
    )
    def test_curvatures_outside_class_rejected(self, diagonal, kappa):
        with pytest.raises(ClassViolationError):
            quadratic_oracle(np.array(diagonal), kappa=kappa)

    @pytest.mark.parametrize("dimension", [2.5, True, "3", 0])
    def test_dimension_must_be_an_integer(self, dimension):
        # 2.5 built a 2-d oracle and True a 1-d one before this check
        with pytest.raises(UsageError, match=f"dimension must be an integer of at least 1, got {dimension!r}"):
            MultivariateOracle(lambda x: 0.0, lambda x: np.zeros(2), dimension, 2.0)

    def test_numpy_integer_dimension(self):
        oracle = MultivariateOracle(lambda x: 0.0, lambda x: np.zeros(3), np.int64(3), 2.0)
        assert oracle.dimension == 3 and type(oracle.dimension) is int

    def test_kappa_default_from_diagonal(self):
        assert quadratic_oracle(np.array([2.0, 8.0])).kappa == 8.0


class TestProductTargets:
    """Hit-and-Run on separable products of 1D class members.

    Along coordinate axis 0 the exact conditional law of the step is the
    first member's own density, so the line step is checked against
    ``density_cdf`` where its restriction has kinks and kappa-curvature
    bands, which a diagonal quadratic never shows.
    """

    @staticmethod
    def oracle(name, kappa):
        members = [builtin_potential(name, kappa)] + [builtin_potential("gaussian", kappa)] * 2
        return product_oracle(members, kappa)

    @pytest.mark.parametrize("name, kappa", [("hard:1", 1e3), ("hard:2", 1e6), ("skewed", 1e6)])
    def test_fixed_axis_law_is_the_member_density(self, name, kappa):
        oracle = self.oracle(name, kappa)
        member = builtin_potential(name, kappa)
        rng = np.random.default_rng(37)
        x = np.array([0.4, 0.3, -0.5])
        axis = np.array([1.0, 0.0, 0.0])
        n = 4000
        draws = np.array([step(oracle, x, rng, direction=axis).point[0] for _ in range(n)])
        assert ks_statistic(draws, member.density_cdf) < ks_critical_value(n)

    @pytest.mark.parametrize("name", ["hard:2", "skewed"])
    def test_line_envelopes_dominate_the_restriction(self, name):
        # 200 random lines, some through the member's narrow bands; the
        # restriction is evaluated member by member, not through the oracle
        kappa = 1e6
        members = [builtin_potential(name, kappa)] + [builtin_potential("gaussian", kappa)] * 2
        oracle = product_oracle(members, kappa)
        rng = np.random.default_rng(47)
        for _ in range(200):
            x = rng.standard_normal(3) * np.array([10.0 ** rng.uniform(-3.0, 0.0), 1.0, 1.0])
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            line = restrict(oracle, x, u)
            cert, probes = bracket_minimizer(line, 0.0)
            env, _ = build_line_envelope(line, cert, probes)
            grid = domination_grid(env)
            points = line.base[:, None] + grid[None, :] * line.direction[:, None]
            w = sum(m.evaluate(points[i])[0] for i, m in enumerate(members)) - cert.value
            assert float(np.min(env.value(grid) - np.exp(-w))) >= -1e-12

    @pytest.mark.parametrize("name, ceiling", [("hard:2", 25.0), ("skewed", 16.0)])
    def test_queries_per_step(self, name, ceiling):
        # 15.43 and 7.72 queries per step at this seed, of which the hard:2
        # bracket takes 6.00 (18.20, 8.02 and 8.27 before the bracket's probes
        # fed the line envelope); that cost depends on the chain's path (1.92
        # to 9.56 per step over seeds 31-35), so the ceiling leaves room.
        # The bisection from a radius of order kappa spent 48.0 and 50.3
        oracle = self.oracle(name, 1e6)
        res = run_chain(oracle, np.zeros(3), 3000, np.random.default_rng(31))
        assert res.mean_queries_per_step <= ceiling


class TestTangentFirst:
    """Steps from one probe along one line, each forced down the tangent-first path.

    The record claims one tangent-first step that cost 1 query against one
    search-first step that cost a million, so every step tries the
    certificate's tangent Gaussian first; a rejected trial falls back to the
    line envelope with the trial among its probes.  The draws must follow
    the restricted density whichever way each was accepted.
    """

    FORCED = ChainCosts(searched=1, search_queries=10**6, tangent=1, tangent_queries=1)

    def draws(self, oracle, x, u, n):
        value, gradient = oracle.query(x)
        start = Probe(x, value, gradient, self.FORCED)
        rng = np.random.default_rng(53)
        points, paths = np.empty((n, x.size)), []
        for k in range(n):
            probe = step(oracle, start, rng, direction=u)
            points[k] = probe.point
            paths.append(PATHS[probe.costs.path])
        # both tangent-first paths ran, and nothing else
        assert {"tangent_accepted", "tangent_fell_back"} == set(paths)
        return points

    @pytest.mark.parametrize("kappa", [1e3, 1e6])
    def test_anisotropic_diagonal_line(self, kappa):
        # along u the restriction is Gaussian with precision u'Du = 2.15 and
        # mean -u'Dx / u'Du, so the tangent's trial is accepted about 2/3 of the time
        diag = np.array([1.0, 30.0])
        oracle = quadratic_oracle(diag, kappa=kappa)
        x, u = np.array([0.7, -0.4]), np.array([math.cos(0.2), math.sin(0.2)])
        precision = float(u @ (diag * u))
        mean = -float(u @ (diag * x)) / precision
        n = 4000
        lams = (self.draws(oracle, x, u, n) - x) @ u
        assert ks_statistic(lams, lambda t: normal_cdf((t - mean) * math.sqrt(precision))) < ks_critical_value(n)

    @pytest.mark.parametrize("kappa", [1e3, 1e6])
    def test_product_member_line(self, kappa):
        # along axis 0 of a product the law is the member's own density, with
        # kinks and kappa-curvature bands that the tangent rarely covers
        member = builtin_potential("hard:1", kappa)
        oracle = product_oracle([member] + [builtin_potential("gaussian", kappa)] * 2, kappa)
        n = 4000
        draws = self.draws(oracle, np.array([0.4, 0.3, -0.5]), np.array([1.0, 0.0, 0.0]), n)[:, 0]
        assert ks_statistic(draws, member.density_cdf) < ks_critical_value(n)

    def test_a_fallen_back_step_passes_its_rejected_trial_as_a_probe(self, monkeypatch):
        # the line envelope gets the certificate search's probes and the
        # rejected trial's (lam, W(lam)), and that point costs its one query
        member = builtin_potential("hard:1", 1e3)
        oracle = product_oracle([member] + [builtin_potential("gaussian", 1e3)] * 2, 1e3)
        x, u = np.array([3.0, 0.3, -0.5]), np.array([1.0, 0.0, 0.0])
        value, gradient = oracle.query(x)
        start = Probe(x, value, gradient, self.FORCED)
        query, queried, calls = oracle.query, [], []
        bracket, build = hitandrun.bracket_minimizer, hitandrun.build_line_envelope

        def counted(point, gradient=True):
            queried.append(point.tobytes())
            return query(point, gradient)

        def bracket_spy(line, *args):
            certificate, probes = bracket(line, *args)
            calls.append((line, probes, len(queried)))
            return certificate, probes

        def build_spy(line, certificate, probes=()):
            calls.append((probes, len(queried)))
            return build(line, certificate, probes)

        monkeypatch.setattr(oracle, "query", counted)
        monkeypatch.setattr(hitandrun, "bracket_minimizer", bracket_spy)
        monkeypatch.setattr(hitandrun, "build_line_envelope", build_spy)
        rng = np.random.default_rng(59)
        fell_back = 0
        for _ in range(30):
            queried.clear()
            calls.clear()
            if PATHS[step(oracle, start, rng, direction=u).costs.path] != "tangent_fell_back":
                continue
            fell_back += 1
            (line, searched, after_search), (passed, before_build) = calls
            assert searched and before_build == after_search + 1
            *rest, (lam, w) = [tuple(probe)[:2] for probe in passed]
            assert rest == [tuple(probe)[:2] for probe in searched]
            trial = line.point(lam).tobytes()
            assert queried[after_search] == trial and queried.count(trial) == 1
            assert w == query(line.point(lam))[0]
        assert fell_back >= 10

    def test_tangent_envelope_dominates_and_has_the_closed_form_mass(self):
        # W(p + t) - W(p) >= g t + t^2/2 on every line of the class; the
        # envelope's height is e^(g^2/2) and its mass that times 2.547
        for g in (-4.0, -1.5, 0.0, 0.3, 2.0):
            env = tangent_envelope(Certificate(0.25, 7.0, g))
            t = np.linspace(-12.0, 12.0, 4001)
            assert np.all(env.log_value(0.25 + t) >= -(g * t + 0.5 * t * t) - 1e-12)
            assert env.mass_total == pytest.approx(math.exp(0.5 * g * g) * 2.5469, rel=1e-4)
            assert env.mass_total == pytest.approx(math.exp(0.5 * g * g) * hitandrun._TANGENT_MASS, rel=1e-15)


class TestInClassFuzz:
    def test_random_in_class_chains_raise_no_class_violation(self):
        # short chains from the origin on random diagonal documents, with
        # curvatures log-uniform in [1, kappa], and on random products of
        # builtins, up to kappa = 1e15: every target is in the class, so no
        # check may reject it.  Before the certificate search bisected where
        # its secant point rounded onto an end, this run raised on 16 of its
        # 48 diagonal chains, 5 at kappa 1e12 and 11 at 1e15
        rng = np.random.default_rng(1)
        names = ["hard:1", "hard:2", "hard:3", "skewed", "gaussian"]
        for kappa in (1e6, 1e9, 1e12, 1e15):
            for _ in range(12):
                d = int(rng.integers(2, 11))
                doc = {"type": "diagonal", "beta": kappa,
                       "curvatures": np.exp(rng.uniform(0.0, math.log(kappa), d)).tolist()}
                oracle = resolve_multivariate_target(json.dumps(doc), None)
                run_chain(oracle, np.zeros(d), 100, rng)
            for _ in range(4):
                chosen = rng.choice(names, int(rng.integers(2, 5)))
                oracle = product_oracle([builtin_potential(str(n), kappa) for n in chosen], kappa)
                run_chain(oracle, np.zeros(len(chosen)), 40, rng)
