import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    adaptive_quadrature,
    curvature_telescoping,
    ks_critical_value,
    ks_statistic,
    phi,
    psi,
    second_derivative_by_formula,
)
from lcsampler import PotentialOracle, UsageError, prepare_envelope, sample_exact
from lcsampler.hardfamily import (
    HardFamily,
    build_member,
    disagreement_band,
    distinct_response_count,
    identify,
    largest_m,
    make_exact_member_sampler,
    member_blocks,
    member_mass_in_window,
    member_window,
    run_identification_experiment,
)
from lcsampler.oracles import PiecewiseQuadraticPotential, check_class_member

# quadrature regression constants (tol 1e-10), pinned on first computation
WINDOW_MASS_1E6_I1 = 0.10265565705840798
WINDOW_MASSES_1E3 = [0.1027407, 0.15328867, 0.1903608, 0.21520978, 0.22600676, 0.21311884]
POPULATION_RATE_1E3 = 0.183454257564286
NORMALIZER_1E3_I1 = 0.15385117973666004


class TestLargestM:
    @pytest.mark.parametrize(
        "kappa,expected",
        [(1e6, 11), (1e3, 6), (2.0, 1), (4.0, 2), (10.0, 2), (1e9, 16), (1e12, 21)],
    )
    def test_values_by_direct_scan(self, kappa, expected):
        # independent scan of the defining inequality 2^(2m-2) <= 2*kappa*ln(2)
        scan = max(m for m in range(1, 64) if 2.0 ** (2 * m - 2) <= 2.0 * kappa * math.log(2.0))
        assert scan == expected
        assert largest_m(kappa) == expected

    def test_small_kappa_rejected(self):
        with pytest.raises(UsageError):
            largest_m(1.5)

    def test_closed_form_equals_the_loop(self):
        # the loop that defined m, against random kappas and every power of
        # two the bound 2*kappa*ln(2) can cross, with its float neighbours
        def loop(kappa):
            bound, m = 2.0 * kappa * math.log(2.0), 1
            while 2.0 ** (2 * (m + 1) - 2) <= bound:
                m += 1
            return m

        rng = np.random.default_rng(73)
        kappas = list(np.exp(rng.uniform(math.log(2.0), math.log(3.2e307), 3000)))
        for e in range(2, 1022):
            kappa = 2.0**e / (2.0 * math.log(2.0))
            kappas += [math.nextafter(kappa, 0.0), kappa, math.nextafter(kappa, math.inf)]
        for kappa in kappas:
            if 2.0 <= kappa and 2.0 * kappa * math.log(2.0) < 2.0**1022:
                assert largest_m(kappa) == loop(kappa), kappa


class TestBumpProfiles:
    def test_phi_plateau_values(self):
        assert phi(1.5, 7.0) == 1.0
        assert phi(2.2, 7.0) == 7.0
        assert phi(3.0, 7.0) == 0.0

    def test_psi_plateau_values(self):
        assert psi(3.0, 7.0) == 1.0
        assert psi(4.5, 7.0) == 7.0
        assert psi(10.0, 7.0) == 0.0

    def test_closed_left_endpoints(self):
        assert phi(0.5, 7.0) == 7.0
        assert psi(2.5, 7.0) == 1.0
        assert phi(2.5, 7.0) == 0.0  # open right end hands over to psi


class TestMemberConstruction:
    def test_kappa_four_member_one_blocks(self):
        # m(4) = 2, so member 1 carries one repeating block before the final
        # run; on x >= 0 the curvature is 1 on [0, 1/2), 4 on [1/2, 1),
        # 1 on [1, 2), 4 on [2, 5/2), 1 on [5/2, 4), 4 on [4, 5), 1 beyond.
        pot = build_member(4.0, 1)
        expected = [
            (0.2, 1.0),
            (0.7, 4.0),
            (1.5, 1.0),
            (2.2, 4.0),
            (3.0, 1.0),
            (4.5, 4.0),
            (6.0, 1.0),
            (10.0, 1.0),
        ]
        for x, curv in expected:
            assert pot.evaluate(x)[2] == curv, x
            assert pot.evaluate(-x)[2] == curv, -x

    def test_anchor_at_origin(self):
        for kappa, i in ((4.0, 1), (1e3, 3), (1e6, 11)):
            v, d, _ = build_member(kappa, i).evaluate(0.0)
            assert v == 0.0 and d == 0.0

    def test_membership_in_class(self):
        for i in (1, 4, 6):
            check_class_member(build_member(1e3, i), 1e3)

    def test_blocks_tile_the_half_line(self):
        for kappa, i in ((4.0, 1), (1e3, 2), (1e6, 7)):
            blocks = member_blocks(kappa, i)
            assert blocks[0][0] == 0.0
            assert math.isinf(blocks[-1][1])
            for (_, end_a, _), (start_b, _, _) in zip(blocks[:-1], blocks[1:]):
                assert end_a == start_b
            assert all(c in (1.0, kappa) for _, _, c in blocks)

    def test_formula_cross_check(self):
        # construction matches the direct indicator/bump expansion pointwise
        rng = np.random.default_rng(3)
        for kappa, i in ((1e3, 1), (1e3, 4), (1e6, 9)):
            pot = build_member(kappa, i)
            root = math.sqrt(kappa)
            blocks = member_blocks(kappa, i)
            edges = {s / root for s, _, _ in blocks}
            for x in rng.uniform(0.0, 6.0 * 2.0 ** largest_m(kappa) / root, 300):
                if min(abs(x - e) for e in edges) < 1e-12:
                    continue
                assert pot.evaluate(float(x))[2] == second_derivative_by_formula(kappa, i, float(x))

    def test_second_derivative_by_double_differentiation(self):
        pot = build_member(4.0, 1)
        for x in (0.1, 0.4, 0.8, 1.3, 2.2, 2.8, 6.0):
            h = 1e-5
            d_m = pot.evaluate(x - h)[1]
            d_p = pot.evaluate(x + h)[1]
            assert (d_p - d_m) / (2 * h) == pytest.approx(pot.evaluate(x)[2], rel=1e-6)

    def test_index_validation(self):
        with pytest.raises(UsageError):
            build_member(1e3, 0)
        with pytest.raises(UsageError):
            build_member(1e3, 7)  # m(1e3) = 6

    @pytest.mark.parametrize("kappa", [2.0, 4.0, 37.5, 1e3, 1e6, 1e9, 1e12, 2.6e11])
    def test_member_is_its_blocks(self, kappa, monkeypatch):
        # the grid build_member passes to _even is member_blocks' starts, the
        # unit run from 2^i split at 1.25 * 2^i, divided by the float
        # sqrt(kappa) read as a Fraction; mirrored, they are the member's
        # breakpoints, and the curvatures are the blocks'
        built = []
        even = PiecewiseQuadraticPotential._even

        def record(numerators, denominator, curvatures):
            built.append((numerators, denominator, curvatures))
            return even(numerators, denominator, curvatures)

        monkeypatch.setattr(PiecewiseQuadraticPotential, "_even", record)
        root = Fraction(math.sqrt(kappa))
        m = largest_m(kappa)
        for i in range(1, m + 1):
            segments = []
            for start, _, curv in member_blocks(kappa, i):
                segments.append((start, curv))
                if start == 2.0**i:
                    segments.append((1.25 * 2.0**i, curv))
            pos = [Fraction(start) / root for start, _ in segments[1:]]
            curvs = [curv for _, curv in segments]
            pot = build_member(kappa, i)
            numerators, denominator, curvatures = built.pop()
            assert len(numerators) == 2 * (m - i) + 5
            assert [Fraction(n, denominator) for n in numerators] == pos
            assert list(curvatures) == curvs
            assert pot.curvatures.tolist() == curvs[:0:-1] + curvs
            assert pot.breakpoints.tolist() == [float(b) for b in [-b for b in reversed(pos)] + pos]


class TestConsecutiveAgreement:
    @pytest.mark.parametrize("kappa", [1e3, 1e6, 1e12])
    def test_exact_agreement_outside_band(self, kappa):
        family = HardFamily.build(kappa)
        for i in range(1, family.m):
            lo, hi = disagreement_band(kappa, i)
            reach = float(family.member(i + 1).breakpoints[-1]) + 5.0
            grid = np.concatenate(
                [
                    np.linspace(-reach, -hi - 1e-9, 2500),
                    np.linspace(-lo + 1e-9, lo - 1e-9, 2500),
                    np.linspace(hi + 1e-9, reach, 5000),
                ]
            )
            for order in range(3):
                a = family.member(i).evaluate(grid)[order]
                b = family.member(i + 1).evaluate(grid)[order]
                assert float(np.abs(a - b).max()) == 0.0

    def test_members_do_differ_inside_band(self):
        family = HardFamily.build(1e3)
        lo, hi = disagreement_band(1e3, 2)
        x = 0.5 * (lo + hi)
        assert family.member(2).evaluate(x)[0] != family.member(3).evaluate(x)[0]

    @pytest.mark.parametrize("kappa", [1e3, 1e6])
    def test_curvature_telescoping_is_exactly_zero(self, kappa):
        for i in range(1, largest_m(kappa)):
            area, double = curvature_telescoping(kappa, i)
            assert area == 0.0
            assert double == 0.0


class TestWindowMass:
    def test_windows_are_disjoint_dyadic_blocks(self):
        edges = [member_window(1e3, i) for i in range(1, 7)]
        for (_, hi_a), (lo_b, _) in zip(edges[:-1], edges[1:]):
            assert hi_a == lo_b  # half-open adjacency

    def test_lemma_mass_bound_kappa_1e3(self):
        family = HardFamily.build(1e3)
        for i, frozen in enumerate(WINDOW_MASSES_1E3, start=1):
            mass = member_mass_in_window(family, i)
            assert mass >= 1.0 / 32.0
            assert mass == pytest.approx(frozen, abs=1e-7)

    def test_regression_value_kappa_1e6(self):
        family = HardFamily.build(1e6)
        assert member_mass_in_window(family, 1) == pytest.approx(WINDOW_MASS_1E6_I1, rel=1e-8)

    def test_closed_forms_match_quadrature(self):
        # quadrature is the independent check of density_cdf and the window mass
        for kappa, i in ((1e3, 1), (1e3, 4), (1e6, 11)):
            family = HardFamily.build(kappa)
            member = family.member(i)
            bps = member.breakpoints

            def density(x):
                return math.exp(-member.evaluate(x)[0])

            span = float(bps[-1]) + 12.0
            total = adaptive_quadrature(density, -span, span, tol=1e-10, breakpoints=bps).value
            assert member.density_mass() == pytest.approx(total, rel=1e-8)
            for x in (float(bps[0]), -0.3 * float(bps[-1]), 0.0, float(bps[len(bps) // 2 + 1]), 1.0):
                below = adaptive_quadrature(density, -span, x, tol=1e-10, breakpoints=bps).value
                assert member.density_cdf(x) == pytest.approx(below / total, abs=1e-9)
            lo, hi = member_window(kappa, i)
            window = adaptive_quadrature(density, lo, hi, tol=1e-10, breakpoints=bps).value
            assert member_mass_in_window(family, i) == pytest.approx(window / total, rel=1e-8)

    def test_normalizer_regression_and_closed_form(self):
        member = build_member(1e3, 1)
        bps = member.breakpoints
        quad = adaptive_quadrature(
            lambda x: math.exp(-member.evaluate(x)[0]),
            float(bps[0]) - 12.0,
            float(bps[-1]) + 12.0,
            tol=1e-10,
            breakpoints=bps,
        )
        assert quad.value == pytest.approx(NORMALIZER_1E3_I1, rel=1e-9)
        assert member.density_mass() == pytest.approx(quad.value, rel=1e-9)


    @pytest.mark.parametrize("i", [1, 3, 7])
    def test_mass_and_cdf_match_quadrature_at_large_kappa(self, i):
        # next to each kink the slope is about sqrt(kappa), so a curvature-1
        # segment's summit lies about sqrt(kappa) away: its values cannot be
        # taken from that summit (from 1e154 its value even overflows), and
        # the central band, 2/sqrt(kappa) wide, must not cancel
        for kappa in (1e20, 1e60, 1e154, 1e160, 1e200, 1e300):
            member = build_member(kappa, i)
            bps = member.breakpoints

            def density(x):
                return math.exp(-member.evaluate(x)[0])

            span = float(bps[-1]) + 12.0
            total = adaptive_quadrature(density, -span, span, tol=1e-12, breakpoints=bps).value
            assert member.density_mass() == pytest.approx(total, rel=1e-12)
            for x in (-2.0 / math.sqrt(kappa), 0.0, 0.5 / math.sqrt(kappa), float(bps[len(bps) // 2 + 2])):
                below = adaptive_quadrature(density, -span, x, tol=1e-12, breakpoints=bps).value
                assert member.density_cdf(x) == pytest.approx(below / total, abs=1e-12)

    def test_every_mass_is_finite_up_to_the_largest_kappa(self):
        # warnings are errors in this suite, so no overflow or inf - inf either
        kappa = 3e307
        top = largest_m(kappa)
        for i in (*range(1, top, 8), top):
            member = build_member(kappa, i)
            mass = member.density_mass()
            assert math.isfinite(mass) and mass > 0.0
            # every member is even
            assert member.density_cdf(0.0) == pytest.approx(0.5, abs=1e-12)


class TestIdentify:
    def test_examples_kappa_four(self):
        assert identify(0.3, 4.0) == 1  # window (1/4, 1/2]
        assert identify(0.6, 4.0) == 2  # window (1/2, 1]
        assert identify(-1.0, 4.0) is None

    def test_window_edges_are_closed_right(self):
        lo, hi = member_window(4.0, 2)
        assert identify(hi, 4.0) == 2
        assert identify(lo, 4.0) == 1

    def test_below_first_window_is_none(self):
        lo, _ = member_window(4.0, 1)
        assert identify(lo, 4.0) is None
        assert identify(0.0, 4.0) is None

    def test_matches_window_containment_on_random_points(self):
        rng = np.random.default_rng(5)
        for kappa in (4.0, 1e3):
            for y in rng.uniform(1e-4, 2.0, 500):
                k = identify(float(y), kappa)
                if k is None:
                    assert y <= member_window(kappa, 1)[0]
                else:
                    lo, hi = member_window(kappa, k)
                    assert lo < y <= hi


    def test_exponent_form_equals_the_loop(self):
        # the log2 form with its two correcting loops, against random (kappa,
        # y) pairs and, at each kappa, every 2^j / sqrt(kappa) with its float
        # neighbours
        def loop(y, kappa):
            if y <= 0.0:
                return None
            scaled = y * math.sqrt(kappa)
            k = math.ceil(math.log2(scaled)) + 1
            while k >= 1 and scaled <= 2.0 ** (k - 2):
                k -= 1
            while scaled > 2.0 ** (k - 1):
                k += 1
            return k if k >= 1 else None

        rng = np.random.default_rng(29)
        pairs = list(zip(np.exp(rng.uniform(0.0, math.log(1e12), 300_000)).tolist(),
                         np.exp(rng.uniform(-700.0, 690.0, 300_000)).tolist()))
        for kappa in (2.0, 37.5, 1e6, 1e12):
            root = math.sqrt(kappa)
            for j in range(-1070, 1000):
                y = 2.0**j / root
                pairs += [(kappa, math.nextafter(y, 0.0)), (kappa, y), (kappa, math.nextafter(y, math.inf))]
        assert len(pairs) == 324_840
        for kappa, y in pairs:
            assert identify(y, kappa) == loop(y, kappa), (kappa, y)

    @pytest.mark.parametrize("y", [math.nan, math.inf, 1e300])
    def test_non_finite_scaled_point_raises(self, y):
        # 1e300 * sqrt(1e20) overflows; -inf lies at or below 0 and gives None
        with pytest.raises(UsageError, match="finite"):
            identify(y, 1e20)
        assert identify(-math.inf, 1e20) is None


class TestResponseDegeneracy:
    def test_origin_has_single_response(self):
        assert distinct_response_count(0.0, HardFamily.build(1e3)) == 1

    def test_beyond_all_structure_members_coincide(self):
        family = HardFamily.build(1e3)
        far = float(family.member(family.m).breakpoints[-1]) + 1.0
        assert distinct_response_count(far, family) == 1

    @pytest.mark.parametrize("kappa", [1e3, 1e6])
    def test_at_most_five_distinct_responses(self, kappa):
        family = HardFamily.build(kappa)
        rng = np.random.default_rng(11)
        reach = float(family.member(family.m).breakpoints[-1]) * 1.5
        worst = max(
            distinct_response_count(float(x), family)
            for x in rng.uniform(-reach, reach, 4000)
        )
        assert worst <= 5


class TestIdentificationExperiment:
    def test_exact_sampler_beats_lemma_bound(self):
        rng = np.random.default_rng(13)
        trials = 12_000
        rate = run_identification_experiment(HardFamily.build(1e3), trials, rng)
        se = math.sqrt(rate * (1.0 - rate) / trials)
        assert rate >= 1.0 / 32.0 - 3.0 * se

    def test_population_rate_from_quadrature(self):
        family = HardFamily.build(1e3)
        masses = [member_mass_in_window(family, i) for i in range(1, 7)]
        assert sum(masses) / 6 == pytest.approx(POPULATION_RATE_1E3, rel=1e-7)

    def test_adversarial_constant_sampler_never_identifies(self):
        rng = np.random.default_rng(17)
        rate = run_identification_experiment(
            HardFamily.build(1e3), 500, rng, sampler=lambda index, rng: 0.0
        )
        assert rate == 0.0

    def test_member_sampler_draws_from_the_right_member(self):
        # sampled CDF against the member's exact density CDF
        kappa = 1e3
        sampler = make_exact_member_sampler(HardFamily.build(kappa))
        rng = np.random.default_rng(19)
        n = 8000
        draws = np.array([sampler(4, rng) for _ in range(n)])
        member = build_member(kappa, 4)
        assert ks_statistic(draws, member.density_cdf) < ks_critical_value(n)

    def test_rejection_pipeline_runs_on_members(self):
        kappa = 1e3
        member = build_member(kappa, 6)
        oracle = PotentialOracle(member, beta=kappa, hidden_offset=1.23)
        normalized, env = prepare_envelope(oracle)
        out = sample_exact(normalized, env, np.random.default_rng(23))
        assert out.trials == out.queries
        assert math.isfinite(out.result)
