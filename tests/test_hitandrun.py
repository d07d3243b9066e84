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
from lcsampler.targets import builtin_potential

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
        assert line.value(2.0) == pytest.approx(2.5)  # (1 + 2^2) / 2
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
        line.query(0.3)
        assert o.query_count == before + 2
        # the shifted line checks each value against the certificate
        # inside the one query that produced it
        _, shifted = build_line_envelope(line, bracket_minimizer(line, 0.0))
        before = o.query_count
        shifted.value(0.3)
        assert o.query_count == before + 1


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
            cert = bracket_minimizer(line, start)
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
            cert = bracket_minimizer(line, start)
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
                cert = bracket_minimizer(line, start)
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
                cert = bracket_minimizer(line, 0.0, first)
                used = oracle.query_count - before
                assert cert == bracket_minimizer(line, 0.0)
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
        assert bracket_minimizer(line, 0.0) == (0.0, 0.0, 0.0)
        assert o.query_count == before + 1
        # strong convexity sends the second query straight to the minimizer
        assert bracket_minimizer(line, 10.0) == (0.0, 0.0, 0.0)
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
        cert = bracket_minimizer(line, 0.0)
        with pytest.raises(ClassViolationError, match="escapes the curvature sandwich"):
            build_line_envelope(line, cert)

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
        return o, line, bracket_minimizer(line, 0.0)

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
        # (lam = +-2, W = 2 < 3), then checks the edge i = 3 (lam = +-4, W =
        # 8).  The mean p - g = 0 is p, so the tangent exp(-lam^2/2) runs
        # right from 0 with offset and drift 0, and the plateau keeps only
        # [-2, 0].  The pieces start at the probes with s = W/d + d/2 = 2 and
        # 4, the restriction's own slope: right of 0 and left of -2 the
        # envelope is exp(-lam^2/2) exactly
        kappa = 4.0
        o, line, cert = self._restriction(kappa=kappa)
        before = o.query_count
        env, shifted = build_line_envelope(line, cert)
        assert o.query_count - before == 4
        assert (env.plateau_height, env.tail_offset) == (1.0, 0.0)
        assert (env.x_minus, env.x_plus) == (-2.0, 0.0)
        assert env.pieces_plus == ((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), (4.0, 8.0, 4.0))
        assert env.pieces_minus == ((-2.0, 2.0, 2.0), (-4.0, 8.0, 4.0))
        assert env.drift_minus == env.drift_plus == 4.0
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
        # queries, and its value is the float nearest 125/652.  The
        # shifted value at d = 2^i/sqrt(1000) from p is c d^2/2 = 0.00978 4^i
        # with c = 19.56 on both sides.  Each side searches from lo = 2, where
        # 1000 d^2/2 first reaches 3 (index 1 gives 2.0), to top =
        # ceil(log2(1000)/2 + log2(sqrt(6))) = 7; it probes i = 6 (W =
        # 40.06), the pivot i = 2 (W = 0.156), then bisects to i = 4 (2.50)
        # and i = 5 (10.01), the edge: 4 queries a side.  Every probe is
        # positive; each piece has offset c d^2/2 and drift W/d + d/2 = (c +
        # 1) d/2.  The mean p - g lies right of p, nearer than the probe at
        # i = 2, so the tangent row (p - g, -g^2/2, 0) runs left from the
        # mean to the left probe at i = 2, and the plateau keeps [p - g,
        # right probe at i = 2].
        o = quadratic_oracle(np.array([1.0, 30.0]), kappa=1e3)
        line = restrict(o, np.array([1.0, 0.5]), np.array([0.6, 0.8]))
        before = o.query_count
        cert = bracket_minimizer(line, 0.0)
        assert o.query_count - before == 3
        before = o.query_count
        env, shifted = build_line_envelope(line, cert)
        assert o.query_count - before == 8
        assert shifted.shift == cert.value == 125 / 652 == 0.19171779141104295
        assert -1e-13 < cert.slope < 0.0
        assert env.plateau_height == math.exp(0.5 * cert.slope**2)
        assert env.tail_offset == 0.5 * cert.slope**2
        mean = cert.lam - cert.slope
        assert env.pieces_minus[0] == (mean, -0.5 * cert.slope**2, 0.0)
        curvature = 0.6**2 + 30.0 * 0.8**2
        for side, pieces in ((-1.0, env.pieces_minus[1:]), (1.0, env.pieces_plus)):
            d = np.array([2.0**i for i in (2, 4, 5, 6)]) / math.sqrt(1e3)
            assert np.allclose([x for x, _, _ in pieces], cert.lam + side * d, rtol=1e-14, atol=0)
            assert np.allclose([w for _, w, _ in pieces], 0.5 * curvature * d**2, rtol=1e-12, atol=0)
            assert np.allclose([s for _, _, s in pieces], 0.5 * (curvature + 1.0) * d, rtol=1e-12, atol=0)
        assert (env.x_minus, env.x_plus) == (mean, env.pieces_plus[0][0])
        assert (env.drift_minus, env.drift_plus) == (env.pieces_minus[-1][2], env.pieces_plus[-1][2])
        # each piece starts from the quadratic's own value at its probe
        for x, w, s in env.pieces_minus[1:] + env.pieces_plus:
            point = line.point(x)
            value = 0.5 * (point[0] ** 2 + 30.0 * point[1] ** 2) - cert.value
            assert w == pytest.approx(value, rel=1e-12)
            d = abs(x - cert.lam)
            assert s == pytest.approx(w / d + 0.5 * d, rel=1e-15)

    def test_first_dyadic_offset_is_never_needed_at_zero(self):
        # the shifted value stays below the level 3 at every grid index
        # below the lo the sandwich derives, and lo >= 1 while |g| <= 1, so
        # index 0, one grid step from the certificate point, is among them
        for kappa, diag in ((4.0, (1.0, 4.0)), (100.0, (1.0, 30.0)), (1e6, (1.0, 1e6))):
            o = quadratic_oracle(np.asarray(diag, float), kappa=kappa)
            line = restrict(o, np.array([0.5, 0.4]), np.array([0.6, 0.8]))
            for start in (0.0, 0.62, 3.0, -5.0):
                cert = bracket_minimizer(line, start)
                for side in (-1, 1):
                    lo, _ = search_range(kappa, level=3.0, rise=side * cert.slope)
                    assert lo >= 1
                    for i in range(lo - 8, lo):
                        probe = line.value(cert.lam + side * 2.0**i / math.sqrt(kappa)) - cert.value
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
        lines = [(line, cert)]
        for name in ("isotropic", "hard:2", "skewed"):
            lines += never_worse_lines(name, 1e6)
        for line, cert in lines:
            env, shifted = build_line_envelope(line, cert)
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
        shifted.value, cert.lam, shifted.kappa, level=3.0, slope=cert.slope
    )
    return Envelope(
        x_minus,
        x_plus,
        w_minus / (cert.lam - x_minus),
        w_plus / (x_plus - cert.lam),
        math.exp(0.5),
        min(w_minus, w_plus) + 0.5,
    )


def never_worse_lines(name, kappa):
    """200 random lines at ``kappa`` and their certificates.

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
        yield line, bracket_minimizer(line, 0.0)


class TestNeverWorse:
    @pytest.mark.parametrize("name", ["isotropic", "hard:2", "skewed"])
    def test_below_the_edge_envelope_with_no_more_mass(self, name):
        # 200 random lines at kappa 1e6: the envelope from every probe is
        # pointwise at most the one from the two edges, so rho never falls
        for line, cert in never_worse_lines(name, 1e6):
            env, shifted = build_line_envelope(line, cert)
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
        for line, cert in never_worse_lines(name, kappa):
            _, shifted = build_line_envelope(line, cert)
            left, right = threshold_searches(shifted.value, cert.lam, kappa, level=3.0, slope=cert.slope)
            wide_top = math.ceil(math.log2(kappa) / 2 + math.log2(abs(cert.slope) + math.sqrt(7.0)))
            for side, (edge, _, _) in ((-1, left), (1, right)):
                lo, top = search_range(kappa, level=3.0, rise=side * cert.slope)
                assert 1 <= lo <= top <= wide_top
                index, _, probes = find_threshold_index(
                    shifted.value, cert.lam, side, kappa, 3.0, 1, wide_top
                )
                assert probes[index][0] == edge


class TestSearchRange:
    @pytest.mark.parametrize("kappa", [1e3, 1e6, 1e12])
    def test_curvature_one_lines_cost_two_queries_a_side(self, kappa):
        # on the isotropic quadratic W(p + t) = g t + t^2/2 is the lower
        # bound itself, so the edge is top: the search probes top - 1, below
        # the level, and then top
        oracle = isotropic(10, kappa)
        rng = np.random.default_rng(59)
        for _ in range(100):
            x, u = rng.standard_normal(10), rng.standard_normal(10)
            u /= np.linalg.norm(u)
            line = restrict(oracle, x, u)
            cert = bracket_minimizer(line, 0.0)
            before = oracle.query_count
            _, shifted = build_line_envelope(line, cert)
            assert oracle.query_count - before == 4
            left, right = threshold_searches(shifted.value, cert.lam, kappa, level=3.0, slope=cert.slope)
            for side, (edge, _, probes) in ((-1, left), (1, right)):
                _, top = search_range(kappa, level=3.0, rise=side * cert.slope)
                assert sorted(probes) == [top - 1, top]
                assert probes[top][0] == edge

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
ANISOTROPIC_POSITIONS = [
    [0.5878986735554335, -0.15765943136239413],
    [-0.3648962679272031, -0.5528456236540724],
    [-1.2186095643314485, -0.5809761893581298],
    [-0.18232026993905182, 0.041619059195821095],
    [0.009003811787477195, -0.008722873009276419],
    [-0.05745677078318184, 0.05982241459599183],
    [-0.012168335603342254, 0.22206568344320293],
    [0.22670197399563435, 0.20722837897624588],
    [0.22328622288668495, -0.053927386486701784],
    [-0.7007191341748731, 0.27076920432712615],
    [-0.5558866467980828, -0.09705853942327286],
    [-0.5898358750146889, 0.1039412297307199],
    [-0.6599406289082107, -0.007675602673050716],
    [-0.6447583280357025, -0.05370090803530219],
    [-0.432732050023932, 0.13321208083712405],
    [-0.4441327440946278, -0.07780256402799934],
    [-0.4555573064074253, -0.004831203418893731],
    [0.34234901719664645, 0.0023541380490448146],
    [0.4819228166364081, 0.44966510698659135],
    [0.1311674765577336, 0.11509713648104297],
]
ANISOTROPIC_QUERIES = [
    12, 11, 5, 11, 7, 11, 11, 7, 11, 7, 11, 11, 11, 9, 11, 12, 11, 5, 9, 11,
]

ISOTROPIC_10D_POSITIONS = [
    [
        -0.22565559150479544, -0.36011659868498613, -0.25150599689079955, 0.2134440705646971,
        0.3054779897505466, -0.014737942307069212, -0.188917094108983, -0.11167816553396384,
        -0.3970436242420417, -0.16467988147978618,
    ],
    [
        -0.3108373427068433, -0.3629234084876078, -0.29807460682252573, 0.29242929470714574,
        0.330518870632928, 0.05935060017186523, -0.14440522394948502, -0.16349991502750458,
        -0.31208132601396465, -0.13403127507576842,
    ],
    [
        -0.48026930003768464, -0.426869327217404, -0.3543081221346409, 0.39841161850248813,
        0.22121214197308062, 0.12835839240821875, -0.130003705386958, -0.055887655273162265,
        -0.2550666789172657, 0.2861289804254963,
    ],
    [
        -0.3110331883987013, 0.17940951307079034, 0.5617336897247194, 0.12148517085360555,
        0.7299502776797593, -0.21142413088383502, -0.9368863226332023, -0.00576856311274844,
        0.2367968797980275, 0.1140274276889709,
    ],
    [
        -0.03258784163336681, 0.44329548571096733, 0.7097861630385042, -0.059186274635729064,
        0.7187572569061068, -0.08569717685842701, -0.9810669250869358, -0.13297621479944094,
        0.07718960090018404, -0.017766006447941518,
    ],
    [
        0.029907987175665653, 0.07328273951373604, 0.5055532635451508, 0.8233844215940296,
        0.7630602637094245, 0.15498844086496208, -0.6845602714546585, 0.3391049441379846,
        -0.029027325499333442, -0.29064535518793866,
    ],
    [
        0.05507255558592361, 0.10503805262612337, 0.5247985168498802, 0.9864099836364884,
        0.6910442846926231, 0.09150233899669744, -0.5670881596276192, 0.3249824885636266,
        0.018867416134561492, -0.3873946707413437,
    ],
    [
        0.029024786997916396, 0.12089543590142333, 0.6090891495897384, 1.0037375537598656,
        0.6888358396760063, 0.05982182803972528, -0.5524090955070757, 0.2312238611416838,
        0.01701094099309642, -0.39976927140678764,
    ],
    [
        0.030365901370496832, 0.1167423681679129, 0.5809523226876163, 1.100172177853422,
        0.7169300877144031, 0.14985925169709863, -0.5447254718441273, 0.21942801368372772,
        0.007107559386877422, -0.3878475684312564,
    ],
    [
        0.039450967898128145, -0.5253730281637199, 0.2875290528515603, 1.2246332669180826,
        0.38906748400186814, -0.1376999752340663, -0.5038992532546156, 0.20303027731976622,
        0.3290194536423175, -0.20349921671025945,
    ],
    [
        -0.2767006995550324, -0.583826337616429, -0.6589545464915465, 1.0967925017510205,
        0.4888366067850447, 0.2726324812801595, -0.3441487955547405, 0.9500932263773141,
        0.9348177910315434, -0.8514835949540887,
    ],
    [
        -0.33280267010627035, -0.5240347113947187, -0.585974791016018, 0.9474833913409,
        0.5814412171018142, 0.20920161145703514, -0.24067836822044497, 1.005404132004785,
        0.922030775117438, -0.6567113633938522,
    ],
    [
        -0.4836218616040644, -0.6125317960153193, -0.6452810362856354, 0.9340434711560286,
        0.5462968947784765, 0.199929324612161, -0.14539659549662082, 0.9500961453156693,
        0.8961294340286858, -0.5723694307781524,
    ],
    [
        -0.2685714221548396, -0.6103271603201115, -0.8867489444791589, 1.014871488318951,
        0.5253872360792848, -0.016850694481150674, -0.4292148047960543, 0.817705001030546,
        0.9431845181217572, -0.6666997701239964,
    ],
    [
        -0.24614816593506192, -0.5918594112739254, -0.9203236794833244, 1.0763784030260515,
        0.4623102029413836, -0.022847325029387966, -0.4618040494503812, 0.8556720052801123,
        0.9013781786756347, -0.6996890469712731,
    ],
    [
        -0.2540671323605369, -0.5931473004923258, -0.9006983408265775, 1.0531496685449484,
        0.45660880823529865, 0.0022866011063895977, -0.4901872745333791, 0.8525493341457504,
        0.8908281796392655, -0.7406911225834802,
    ],
    [
        -0.5222705363703042, -0.4238758829510354, -0.6977084482751933, 1.2751984123296014,
        0.37468463324166756, 0.05864031152002716, -0.6042414290132762, 0.9541911871384707,
        1.1099180903735386, -0.7878383221305122,
    ],
    [
        -0.7040397003311877, -0.054112332798074536, -0.5683132400661022, 1.3149879578116865,
        0.38359013753364724, 0.2463246237924268, -0.3267092450830029, 0.6083927120783295,
        0.8728681302241077, -1.2572339049707983,
    ],
    [
        -0.9472485859149048, 0.23531919097480541, -0.21451697359075195, 1.6641226343537439,
        0.3943819141792406, 0.2771858152693236, -0.29634789490482516, 0.5782844550168273,
        0.6009730053081868, -1.3915226269737808,
    ],
    [
        -0.9809320122149646, 0.46918580142033484, -0.01574800015153824, 1.8114485882997526,
        0.41797507510881715, 0.11542225044734847, -0.27040638229295255, 0.5351607307056591,
        0.6837978669101745, -1.2547137218396132,
    ],
]
ISOTROPIC_10D_QUERIES = [
    6, 5, 6, 5, 6, 5, 5, 5, 5, 5, 5, 6, 5, 5, 6, 5, 5, 5, 5, 5,
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
        assert line.value(1.0) == pytest.approx(1.5)
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
            cert = bracket_minimizer(line, 0.0)
            env, _ = build_line_envelope(line, cert)
            grid = domination_grid(env)
            points = line.base[:, None] + grid[None, :] * line.direction[:, None]
            w = sum(m.evaluate(points[i])[0] for i, m in enumerate(members)) - cert.value
            assert float(np.min(env.value(grid) - np.exp(-w))) >= -1e-12

    @pytest.mark.parametrize("name, ceiling", [("hard:2", 25.0), ("skewed", 16.0)])
    def test_queries_per_step(self, name, ceiling):
        # 17.07 and 10.04 queries per step at this seed, 13.16 and 10.92
        # before each side's search range came from the certificate's
        # sandwich: the hard:2 chain takes another path, on which its
        # bracket costs 7.22 per step instead of 3.33, while its search
        # (8.36 -> 8.41) and trials (1.46 -> 1.45) barely move.  The
        # bisection from a radius of order kappa spent 48.0 and 50.3
        oracle = self.oracle(name, 1e6)
        res = run_chain(oracle, np.zeros(3), 3000, np.random.default_rng(31))
        assert res.mean_queries_per_step <= ceiling
