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
from lcsampler.hitandrun import Certificate
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


def query_bound(kappa, slope):
    """The worst case of bracket_minimizer's docstring for a first slope."""
    return 2 + 2 * max(0, math.ceil(math.log2(kappa * abs(slope) / 2.0)))


class TestBracketMinimizer:
    # The contract: a queried point p with |W'(p)| <= 1, so W(p) - W* <=
    # W'(p)^2/2 <= 1/2 and the minimizer lies within |W'(p)| of p.
    def test_symmetric_line_contains_origin(self):
        o = isotropic(2, 1.0)
        line = restrict(o, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        for start in (0.0, 0.7, -3.0, 40.0):
            cert, _ = bracket_minimizer(line, start)
            assert abs(cert.slope) <= 1.0
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
            assert abs(cert.slope) <= 1.0
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
                assert abs(cert.slope) <= 1.0
                assert used <= query_bound(kappa, first)
                slack.append(query_bound(kappa, first) - used)
        assert min(slack) >= 2  # regula falsi beats the bound's bisection count

    def test_known_first_probe_saves_its_query(self):
        # a first probe already queried at the start is taken as it is: no
        # query when |g| <= 1, and at most one below the docstring's bound
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
                if abs(first.slope) <= 1.0:
                    flat += 1
                    assert used == 0 and cert is first
                else:
                    steep += 1
                    assert used <= query_bound(kappa, first.slope) - 1
        assert flat >= 100 and steep >= 100

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

    @pytest.mark.parametrize("curvature, kappa, error, message", [
        (2.0, 4.0, UsageError, "double precision"),
        (3.0, 2.0, ClassViolationError, "steeper than kappa = 2 allows"),
    ])
    def test_bracket_between_adjacent_doubles(self, curvature, kappa, error, message):
        # W(lam) = c (lam - m)^2 / 2 about m = 2^53 + 1, which no double
        # holds: the search ends on [2^53, 2^53 + 2], 2 >= 1/kappa wide with
        # nothing between, where W' rises by 2c.  Up to 2 kappa that is the
        # limit of double precision; beyond it, a proof that W'' > kappa
        class Line:
            def query(self, lam):
                t = (lam - 2.0**53) - 1.0
                return 0.5 * curvature * t * t, curvature * t

        line = Line()
        line.kappa = kappa
        with pytest.raises(error, match=message) as info:
            bracket_minimizer(line, 0.0)
        assert all(f"{2.0**53 + d:.17g}" in str(info.value) for d in (0.0, 2.0))

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
        # below the lo the sandwich derives, and lo >= 1 while |g| <= 1, so
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
        # (TestNeverWorse), whose plateau is e^(1/2) times the edges' width E
        # and whose tails start at e^(-w_edge) <= e^-3 with drift w_edge /
        # d_edge >= 3 / d_edge, so each holds at most e^-3 d_edge / 3; the
        # two d_edge add up to E
        cap = math.exp(0.5) + math.exp(-3.0) / 3.0
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


def edge_envelope(shifted, cert):
    """The line envelope built from the two threshold edges alone.

    Plateau e^(1/2) between the edges; each tail's drift is its edge value
    over its distance from p, and the offset the smaller edge value plus 1/2.
    Re-runs the searches (same probes, fresh queries).
    """
    (x_minus, w_minus, _), (x_plus, w_plus, _) = threshold_searches(
        shifted.level, cert.lam, shifted.kappa, level=3.0, slope=cert.slope
    )
    offset = min(w_minus, w_plus) + 0.5
    return Envelope(math.exp(0.5), ((x_minus, offset, w_minus / (cert.lam - x_minus)),),
                    ((x_plus, offset, w_plus / (x_plus - cert.lam)),))


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
        # search used before, [1, ceil(log2(kappa)/2 + log2(|g| + sqrt(7)))],
        # and both find the same first index at which W reaches 3
        for line, cert, _ in never_worse_lines(name, kappa):
            _, shifted = build_line_envelope(line, cert)
            left, right = threshold_searches(shifted.level, cert.lam, kappa, level=3.0, slope=cert.slope)
            wide_top = math.ceil(math.log2(kappa) / 2 + math.log2(abs(cert.slope) + math.sqrt(7.0)))
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
            offset = min(w_minus, w_plus) + 0.5
            queried = Envelope(math.exp(0.5), ((x_minus, offset, w_minus / (cert.lam - x_minus)),),
                               ((x_plus, offset, w_plus / (x_plus - cert.lam)),))
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
            w = restriction(members, line, grid) - cert.value
            # the sampler's own log tolerance, wherever exp(-W) is a positive
            # float, plus what the steepest row falls over four ulps of lam:
            # adjacent doubles lam can round to one point of the line, where
            # W stays put while a row with drift 1.5e6 falls by 1.3e-9
            steepest = max(s for _, _, s in env.rows_minus + env.rows_plus)
            positive = w < 700.0
            slack = 1e-9 + 4.0 * steepest * np.spacing(np.abs(grid[positive]))
            assert np.all(-w[positive] - env.log_value(grid[positive]) <= slack)
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
ANISOTROPIC_POSITIONS = [
    [0.5878986735554335, -0.15765943136239413],
    [1.3963688269007477, 0.1776658601267047],
    [0.37029247897859663, 0.14385578800509666],
    [-0.5763022074355589, -0.19761105756164307],
    [-0.030900494398532485, 0.28201072582248643],
    [-0.09149362061948033, 0.30235412698039577],
    [-0.41838341206909047, -0.19155180695503304],
    [-0.3943417592734365, 0.044390473555943166],
    [-0.4676132314236478, -0.02504977358681615],
    [-0.5801837210805167, 0.014507631506662712],
    [-0.47042506838904663, -0.2642438993674583],
    [0.0010505506712688573, -0.004007370462085991],
    [0.6569363704456124, -0.1515798260166888],
    [0.5224501324714041, -0.32128878054964827],
    [-0.2585454863692539, -0.2273977645518695],
    [-0.3249470341017653, -0.023282571767523602],
    [-0.3109207272033556, 0.17792713281531478],
    [-0.2465522263033757, -0.10962380111263617],
    [-0.2734203515496502, -0.01753745579600538],
    [-1.6823830156935449, -0.1052791462978856],
]
ANISOTROPIC_QUERIES = [
    12, 7, 5, 10, 11, 9, 10, 10, 8, 9, 9, 9, 9, 10, 4, 10, 9, 10, 12, 3,
]

ISOTROPIC_10D_POSITIONS = [
    [
        -0.22565559150479544, -0.36011659868498613, -0.25150599689079955, 0.2134440705646971,
        0.3054779897505466, -0.014737942307069212, -0.188917094108983, -0.11167816553396384,
        -0.3970436242420417, -0.16467988147978618,
    ],
    [
        0.001251963755995178, -0.3526398053412542, -0.12745631157219905, 0.0030428536493806724,
        0.23877397178406412, -0.21209535524466663, -0.30748802620945626, 0.026364858012536685,
        -0.6233665996237416, -0.24632178544569913,
    ],
    [
        0.00340693700658061, -0.35182648920823134, -0.1267410880500664, 0.0016948843736207114,
        0.24016422354106307, -0.2129730523963375, -0.3076711964198402, 0.02499615788737177,
        -0.6240917582143671, -0.2516657248407707,
    ],
    [
        0.1613855176690171, 0.21412288026625825, 0.7283659211070355, -0.2568105062535626,
        0.7150612643052757, -0.5301533530055083, -1.060880245004428, 0.07178134437571568,
        -0.16494680308105614, -0.4123191383930527,
    ],
    [
        -0.5135902912667468, -0.4255597357974097, 0.36947381139570995, 0.1811528373160906,
        0.7421941230112897, -0.834926456539715, -0.9537826108478393, 0.3801437881999473,
        0.22195516327466291, -0.09284035789845374,
    ],
    [
        -0.776046275775934, -0.13482709665380688, 0.5063609543062803, 0.22696375154410114,
        0.47096606663799573, -0.9846339813381648, -0.30683750690046196, 0.4126189354759592,
        0.3983833889588757, 0.1245060016336165,
    ],
    [
        -0.7564136292566037, -0.0489315524361537, 0.24596770528083406, 0.16451943277535622,
        0.3921672228722944, -1.0323898860909713, -0.7113753474732956, 0.591322129461009,
        0.5559202208177095, -0.16699377208692565,
    ],
    [
        -0.7388295338920757, 0.27653123216375725, -0.7544893818092397, -0.35923568352491697,
        0.7110193193008794, 0.6624827477980701, -0.3629614910422669, 0.5469158544047463,
        -0.08109517820424816, 0.128165289606142,
    ],
    [
        -0.7075944361775591, 0.13699587879120617, -0.6057421779660673, -0.35789617859758843,
        0.7068712355831107, 0.6343796873541913, -0.26664259626385245, 0.5749763870829655,
        0.008834193293696321, 0.1358396923019048,
    ],
    [
        -0.6542761022962319, 0.18785356994827213, -0.4895905650210093, -0.350662957211618,
        0.1956407671125865, 0.40076604632421353, -0.1675509045953723, 0.3139433181867979,
        -0.2201106959534626, 0.16834414083971339,
    ],
    [
        -0.6178912453509361, 0.17829992373225068, -0.25054010648319003, -0.2839858316739783,
        0.2079687066862287, 0.6003816494336525, -0.14058898844753168, 0.29290177702339526,
        -0.30665077001212815, 0.1346523959611953,
    ],
    [
        -0.6132284219951228, 0.18152148989915032, -0.2524313826545063, -0.2721719669984043,
        0.19537788012567753, 0.585013687367918, -0.10914771093296541, 0.2734012439072294,
        -0.2932935972607727, 0.11286375619613084,
    ],
    [
        -0.565986199244706, 0.18323675610099457, -0.23921920441065225, -0.14400216426705456,
        0.27058484659643894, 0.6354135713711092, -0.09772614115982918, 0.30326774043578986,
        -0.28541378326645495, 0.031890997407111196,
    ],
    [
        -0.03058155412808894, 0.18872557163202647, -0.8403946310897039, 0.0572329318128674,
        0.2185266949180577, 0.0957028435609859, -0.8043398454460523, -0.026342530550404974,
        -0.16826214821605628, -0.2029604262428102,
    ],
    [
        0.0038391439036090866, 0.21707438979712765, -0.8919333462408667, 0.15164878815612193,
        0.12170063678025189, 0.08649774831141746, -0.8543657889724131, 0.03193851372049151,
        -0.23243674318930646, -0.25360043702066765,
    ],
    [
        0.01764234801937558, 0.2193192531801681, -0.9261414159264092, 0.1921377795429464,
        0.13163848859630128, 0.04268790065671856, -0.8048922303999176, 0.03738150523455448,
        -0.21404750117261123, -0.1821315118557983,
    ],
    [
        -0.8780129030548837, 0.784594830264637, -0.24826425083261383, 0.9336612665376324,
        -0.1419442341654874, 0.2308790119360315, -1.1857718196948928, 0.3768106772764298,
        0.5175950733541317, -0.3395778239324612,
    ],
    [
        -0.5077113788019318, 0.03130971164963314, -0.5118691538136595, 0.8526017016462022,
        -0.16008659528825153, -0.15147289747690312, -1.7511624970748407, 1.0812739625159042,
        1.0005150563404972, 0.6166784299652908,
    ],
    [
        -0.24594991947737294, -0.28020036272732096, -0.8926538722415971, 0.47683417073089507,
        -0.17170159527756257, -0.18468825676815095, -1.783839885940093, 1.1136789516972099,
        1.2931510120968346, 0.7612110269465423,
    ],
    [
        -1.4002035287461796, -0.46504553377575386, 0.37471398483252183, 0.2735903853682724,
        0.16615954254694149, -0.8335956140985442, -2.855695647275246, 1.8284390325100004,
        -0.08745155721162368, 0.7006129472622852,
    ],
]
ISOTROPIC_10D_QUERIES = [
    4, 3, 4, 3, 3, 3, 3, 4, 3, 4, 3, 3, 4, 3, 4, 3, 3, 3, 4, 3,
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
        view = hitandrun.CertifiedLine(line, Certificate(0.0, 0.5, 0.0))
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
