import math

import numpy as np
import pytest

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
        assert np.allclose(line.base, [1.0, 0.0])
        assert np.array_equal(line.point(0.0), x_t)  # x_t sits at lam = u @ x_t = 0
        assert line.value(2.0) == pytest.approx(2.5)  # (1 + 2^2) / 2
        assert line.query(0.0)[1] == 0.0

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
        return o, line, bracket_minimizer(line, float(u @ x_t))

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
        # The restriction has curvature c = 0.6^2 + 30 * 0.8^2 = 19.56, and
        # the certificate sits at its minimizer (slope g ~ -2e-14), so the
        # shifted value at d = 2^i/sqrt(1000) from p is c d^2/2 = 0.00978 4^i
        # on both sides.  Each side searches from lo = 2, where 1000 d^2/2
        # first reaches 3 (index 1 gives 2.0), to top = ceil(log2(1000)/2 +
        # log2(sqrt(6))) = 7; it probes i = 6 (W = 40.06), the pivot i = 2
        # (W = 0.156), then bisects to i = 4 (2.50) and i = 5 (10.01), the
        # edge: 4 queries a side.  Every probe is positive; each piece has
        # offset c d^2/2 and drift W/d + d/2 = (c + 1) d/2.  The mean p - g
        # lies left of p, nearer than the probe at i = 2, so the tangent row
        # (p - g, -g^2/2, 0) runs left from the mean to that probe and the
        # plateau keeps [p - g, probe i = 2 on the right].
        o = quadratic_oracle(np.array([1.0, 30.0]), kappa=1e3)
        line = restrict(o, np.array([1.0, 0.5]), np.array([0.6, 0.8]))
        cert = bracket_minimizer(line, 1.0)
        before = o.query_count
        env, shifted = build_line_envelope(line, cert)
        assert o.query_count - before == 8
        assert shifted.shift == cert.value == 0.19171779141104298
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

    def test_mass_is_proportional_to_plateau_width(self):
        # plateau e^(1/2) * width, and each tail at most e^(1/2 - 3.5) / drift
        # with drift = 3 / (distance from p to the far edge) >= 3 / width
        kappa = 4.0
        _, line, cert = self._restriction(kappa=kappa)
        env, _ = build_line_envelope(line, cert)
        width = env.x_plus - env.x_minus
        cap = (math.exp(0.5) + 2.0 * math.exp(-3.0) / 3.0) * width
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
        yield line, bracket_minimizer(line, float(u @ x))


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
            cert = bracket_minimizer(line, float(u @ x))
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
            lams[k] = step(o, x, rng, direction=np.array([0.0, 1.0]))[1]
        assert ks_statistic(lams, normal_cdf) < ks_critical_value(n)

    def test_one_step_preserves_stationary_mean(self):
        d = 5
        o = isotropic(d, 10.0)
        rng = np.random.default_rng(11)
        n = 3000
        after = np.empty((n, d))
        for k in range(n):
            after[k] = step(o, rng.standard_normal(d), rng)
        se = 1.0 / math.sqrt(n)
        assert np.all(np.abs(after.mean(axis=0)) <= 3.5 * se)

    def test_query_ledger_matches_oracle_counter(self):
        o = isotropic(3, 100.0)
        rng = np.random.default_rng(13)
        res = run_chain(o, np.array([0.5, -0.2, 0.1]), 5, rng)
        assert res.step_queries.size == 5
        assert res.step_queries.sum() == o.query_count


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
ANISOTROPIC_POSITIONS = [
    [0.5878986735554337, -0.15765943136239374],
    [0.8829612478172894, -0.035277741311777244],
    [0.9109326755327186, 0.4288044723446798],
    [1.100484868397125, 0.11803167718964491],
    [0.7803525321480236, -0.0027906085176010453],
    [0.8156425654368706, 0.260906599004689],
    [0.8026841423586426, 0.21448377801367458],
    [0.5789847708327936, 0.22837874758929144],
    [0.5752903791288809, -0.05408085282698259],
    [-0.5858672952843725, 0.35395134676791495],
    [-0.4553835488690757, 0.022564771080827606],
    [-0.47336054207583617, 0.12899934042029446],
    [-0.49323381258280885, 0.0973582407758872],
    [-0.4036207882410915, -0.1743045884880838],
    [-0.07033094916494105, 0.11950899238831535],
    [-0.07420251779936347, 0.047850400779976654],
    [-0.08656347050876849, 0.12680270660439302],
    [0.39487318490050755, 0.13113816135887174],
    [0.4926046968995983, 0.4443515115973754],
    [0.1468456402160336, 0.11454924585685655],
]
ANISOTROPIC_QUERIES = [
    12, 12, 12, 12, 12, 11, 12, 8, 12, 12, 12, 10, 12, 12, 12, 13, 12, 6, 12, 12,
]

ISOTROPIC_10D_POSITIONS = [
    [
        -0.22565559150479544, -0.36011659868498613, -0.25150599689079955, 0.2134440705646971,
        0.3054779897505466, -0.014737942307069212, -0.188917094108983, -0.11167816553396384,
        -0.3970436242420417, -0.16467988147978618,
    ],
    [
        -0.3108373427068433, -0.36292340848760773, -0.29807460682252573, 0.29242929470714574,
        0.330518870632928, 0.059350600171865234, -0.14440522394948502, -0.1634999150275046,
        -0.3120813260139646, -0.1340312750757684,
    ],
    [
        -0.48026930003768464, -0.4268693272174039, -0.3543081221346409, 0.39841161850248813,
        0.2212121419730806, 0.12835839240821875, -0.13000370538695796, -0.05588765527316229,
        -0.2550666789172656, 0.28612898042549634,
    ],
    [
        -0.3110331883987013, 0.1794095130707904, 0.5617336897247193, 0.1214851708536056,
        0.7299502776797593, -0.211424130883835, -0.9368863226332023, -0.005768563112748468,
        0.2367968797980276, 0.11402742768897098,
    ],
    [
        -0.03258784163336681, 0.4432954857109674, 0.7097861630385041, -0.059186274635729036,
        0.7187572569061068, -0.085697176858427, -0.9810669250869358, -0.13297621479944094,
        0.07718960090018415, -0.01776600644794142,
    ],
    [
        0.029907987175665656, 0.0732827395137361, 0.5055532635451507, 0.8233844215940296,
        0.7630602637094245, 0.1549884408649621, -0.6845602714546585, 0.33910494413798464,
        -0.02902732549933333, -0.29064535518793855,
    ],
    [
        0.05507255558592361, 0.10503805262612342, 0.5247985168498801, 0.9864099836364884,
        0.6910442846926231, 0.09150233899669745, -0.5670881596276192, 0.32498248856362666,
        0.018867416134561603, -0.3873946707413436,
    ],
    [
        0.02902478699791637, 0.1208954359014234, 0.6090891495897384, 1.0037375537598656,
        0.6888358396760063, 0.05982182803972527, -0.5524090955070757, 0.23122386114168378,
        0.01701094099309653, -0.3997692714067876,
    ],
    [
        0.03036590137049681, 0.11674236816791297, 0.5809523226876163, 1.100172177853422,
        0.7169300877144031, 0.14985925169709868, -0.5447254718441273, 0.21942801368372772,
        0.007107559386877536, -0.38784756843125634,
    ],
    [
        0.039450967898128124, -0.5253730281637199, 0.2875290528515603, 1.2246332669180826,
        0.3890674840018682, -0.13769997523406624, -0.5038992532546155, 0.20303027731976622,
        0.32901945364231766, -0.2034992167102594,
    ],
    [
        -0.27670069955503246, -0.583826337616429, -0.6589545464915465, 1.0967925017510205,
        0.48883660678504476, 0.2726324812801596, -0.34414879555474037, 0.9500932263773142,
        0.9348177910315437, -0.8514835949540888,
    ],
    [
        -0.33280267010627046, -0.5240347113947187, -0.585974791016018, 0.9474833913409,
        0.5814412171018144, 0.2092016114570352, -0.2406783682204448, 1.005404132004785,
        0.9220307751174384, -0.656711363393852,
    ],
    [
        -0.4836218616040644, -0.6125317960153193, -0.6452810362856353, 0.9340434711560286,
        0.5462968947784768, 0.19992932461216106, -0.1453965954966207, 0.9500961453156694,
        0.8961294340286863, -0.5723694307781523,
    ],
    [
        -0.26857142215483953, -0.6103271603201116, -0.8867489444791589, 1.014871488318951,
        0.5253872360792852, -0.016850694481150674, -0.42921480479605423, 0.817705001030546,
        0.9431845181217577, -0.6666997701239963,
    ],
    [
        -0.24614816593506178, -0.5918594112739254, -0.9203236794833245, 1.0763784030260517,
        0.4623102029413838, -0.022847325029387973, -0.4618040494503812, 0.8556720052801123,
        0.9013781786756352, -0.6996890469712731,
    ],
    [
        -0.2540671323605368, -0.5931473004923258, -0.9006983408265775, 1.0531496685449484,
        0.45660880823529887, 0.002286601106389674, -0.4901872745333792, 0.8525493341457504,
        0.890828179639266, -0.7406911225834805,
    ],
    [
        -0.522270536370304, -0.42387588295103545, -0.6977084482751933, 1.2751984123296012,
        0.3746846332416679, 0.058640311520027216, -0.604241429013276, 0.9541911871384707,
        1.1099180903735388, -0.7878383221305124,
    ],
    [
        -0.7040397003311875, -0.05411233279807458, -0.5683132400661023, 1.314987957811686,
        0.38359013753364757, 0.24632462379242684, -0.3267092450830028, 0.6083927120783295,
        0.8728681302241079, -1.2572339049707986,
    ],
    [
        -0.9472485859149045, 0.23531919097480525, -0.21451697359075217, 1.6641226343537432,
        0.39438191417924096, 0.2771858152693236, -0.29634789490482505, 0.5782844550168273,
        0.6009730053081872, -1.391522626973781,
    ],
    [
        -0.9809320122149644, 0.46918580142033495, -0.015748000151538266, 1.8114485882997522,
        0.4179750751088175, 0.11542225044734827, -0.2704063822929524, 0.5351607307056591,
        0.6837978669101751, -1.2547137218396132,
    ],
]
ISOTROPIC_10D_QUERIES = [
    6, 6, 7, 6, 7, 6, 6, 6, 6, 6, 6, 7, 6, 6, 7, 6, 6, 6, 6, 6,
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
        draws = np.array([step(oracle, x, rng, direction=axis)[0] for _ in range(n)])
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
            cert = bracket_minimizer(line, float(u @ x))
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
