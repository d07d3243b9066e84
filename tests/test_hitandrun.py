import math

import numpy as np
import pytest

from lcsampler import (
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
        a, b = bracket_minimizer(line)
        assert a <= 0.0 <= b
        assert b - a == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_anisotropic_line_contains_analytic_minimizer(self):
        # V(x) = (x1^2 + 4 x2^2)/2 restricted through (1, 0) along (0.6, 0.8)
        o = quadratic_oracle(np.array([1.0, 4.0]), kappa=4.0)
        line = restrict(o, np.array([1.0, 0.0]), np.array([0.6, 0.8]))
        diag = np.array([1.0, 4.0])
        denom = float(line.direction @ (diag * line.direction))
        lam_star = -float(line.direction @ (diag * line.base)) / denom
        a, b = bracket_minimizer(line)
        assert a <= lam_star <= b
        assert b - a == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_query_count_within_bisection_bound(self):
        kappa = 1e6
        o = quadratic_oracle(np.array([1.0, kappa]), kappa=kappa)
        line = restrict(o, np.array([1.0, 0.2]), np.array([0.6, 0.8]))
        x_star = float(np.linalg.norm(line.base))
        before = o.query_count
        bracket_minimizer(line)
        used = o.query_count - before
        bound = math.ceil(math.log2(4.0 * kappa * x_star / math.sqrt(2.0 / kappa))) + 2
        assert used <= bound

    def test_origin_line_degenerate_seed(self):
        o = isotropic(2, 4.0)
        line = restrict(o, np.zeros(2), np.array([1.0, 0.0]))
        a, b = bracket_minimizer(line)
        assert a <= 0.0 <= b

    def test_concave_target_raises_class_violation(self):
        oracle = MultivariateOracle(
            value_fn=lambda x: -0.5 * float(x @ x),
            grad_fn=lambda x: -x,
            dimension=2,
            kappa=4.0,
        )
        line = restrict(oracle, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ClassViolationError):
            bracket_minimizer(line)


    def test_minimizer_outside_seed_interval_raises_class_violation(self):
        # curvature 100 against a declared kappa of 1: the line minimizer sits
        # at -4.95, outside the seed interval [-2*sqrt(2), 2*sqrt(2)], so W' < 0
        # at both ends
        diag = np.array([1.0, 100.0])
        oracle = MultivariateOracle(
            value_fn=lambda x: 0.5 * float(x @ (diag * x)),
            grad_fn=lambda x: diag * x,
            dimension=2,
            kappa=1.0,
        )
        t = math.atan(0.1)
        line = restrict(
            oracle, np.array([-math.sin(t), math.cos(t)]), np.array([math.cos(t), math.sin(t)])
        )
        with pytest.raises(ClassViolationError, match="does not change sign"):
            bracket_minimizer(line)


class TestLineEnvelope:
    def _restriction(self, kappa=4.0, x_t=(1.0, 0.0), u=(0.0, 1.0), diag=None):
        diag = np.ones(2) if diag is None else np.asarray(diag, float)
        o = quadratic_oracle(diag, kappa=kappa)
        line = restrict(o, np.asarray(x_t, float), np.asarray(u, float))
        a, b = bracket_minimizer(line)
        return o, line, a, b

    def test_envelope_dominates_relabeled_density(self):
        kappa = 4.0
        _, line, a, b = self._restriction(kappa=kappa)
        env, shifted = build_line_envelope(line, a, b)
        grid = np.linspace(env.x_minus - 6.0, env.x_plus + 6.0, 4000)
        vals = np.array([math.exp(-shifted.value(g)) for g in grid])
        assert float(np.min(env.value(grid) - vals)) >= -1e-12

    def test_plateau_level_and_offset(self):
        kappa = 4.0
        _, line, a, b = self._restriction(kappa=kappa)
        env, _ = build_line_envelope(line, a, b)
        assert env.plateau_height == math.e
        assert env.tail_offset == 3.0
        assert env.x_minus < a and env.x_plus > b

    def test_geometry_and_queries_pinned(self):
        # values of the line step before it moved onto the shared plateau builder
        o = quadratic_oracle(np.array([1.0, 30.0]), kappa=1e3)
        line = restrict(o, np.array([1.0, 0.5]), np.array([0.6, 0.8]))
        a, b = bracket_minimizer(line)
        before = o.query_count
        env, shifted = build_line_envelope(line, a, b)
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
            a, b = bracket_minimizer(line)
            shift = max(line.value(a), line.value(b))
            probe = line.value(b + 1.0 / math.sqrt(kappa)) - shift
            assert probe < 3.0

    def test_mass_is_proportional_to_plateau_width(self):
        kappa = 4.0
        _, line, a, b = self._restriction(kappa=kappa)
        env, _ = build_line_envelope(line, a, b)
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
        env, shifted = build_line_envelope(line, a, b)
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
        with pytest.raises(ClassViolationError, match="log gap"):
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

    def test_negative_steps_rejected(self):
        with pytest.raises(UsageError):
            run_chain(isotropic(2, 1.0), np.zeros(2), -1, np.random.default_rng(0))


# The first 20 steps of two chains at seed 2024, positions and per-step
# queries.  A refactor of the line step that keeps its query sequence must
# reproduce them bit for bit.
ANISOTROPIC_POSITIONS = [
    [0.66165386004533, -0.03995586941208473],
    [0.7418654363302358, -0.011020999689015987],
    [0.7940242911838221, 0.3787248602787029],
    [0.3920110884800411, -0.1165252945796739],
    [-0.43067506532059047, 0.24689347268143175],
    [-0.3574490379928744, 0.09897393531748583],
    [-0.34566379867356867, 0.023698846024101355],
    [-0.34126185186368097, 0.05352181626433557],
    [-0.3514432188036949, 0.054967315741674676],
    [0.4480436420438905, -0.1549555825228165],
    [0.1922990038883753, 0.020220413524400987],
    [0.2018216787177016, 0.11894634975408047],
    [-1.831865774979069, -0.06284565147307984],
    [-0.49655701841088035, -0.37348834582242774],
    [-0.4771460732065451, -0.4869191484505726],
    [-1.2600358592679286, -0.07869175372573689],
    [-1.2811452518021746, -0.01910431815863417],
    [-0.9320614850404909, 0.21970016673918003],
    [0.8254506990327333, 0.1921679739950444],
    [0.5933771529601892, -0.01179046088600394],
]
ANISOTROPIC_QUERIES = [
    34, 30, 43, 31, 26, 30, 29, 32, 25, 30, 34, 38, 49, 36, 31, 32, 30, 33, 28, 45,
]

ISOTROPIC_10D_POSITIONS = [
    [
        0.2751913974840102, 0.4391692197319374, 0.3067164713200445, -0.2602992093910797,
        -0.3725363698699777, 0.01797320825278511, 0.23038808296210334, 0.13619370225571845,
        0.4842024480255866, 0.20083032917427382,
    ],
    [
        0.11048639709718028, 0.43374205249126857, 0.2166727376730812, -0.1075756366850153,
        -0.3241180380416454, 0.16122869719792426, 0.31645496334883083, 0.03599264804007522,
        0.6484831204119623, 0.2600915988522819,
    ],
    [
        0.11978770974307583, 0.5032441170243039, 0.2534960112563043, 0.1637875449703834,
        -0.4327619314508834, 0.3575358545488985, 0.250547235835358, -0.1208200408911701,
        0.846755875573383, 0.18814440234314,
    ],
    [
        0.07885155296143102, 0.4839699359069554, 0.24704567677486328, 0.2019773893304237,
        -0.4116825964144265, 0.2664437560410793, 0.24597462326487468, -0.1456617426298903,
        0.8161527596799183, 0.13941984847191277,
    ],
    [
        0.20054421828847224, 0.5577215679962948, 0.8717920016236267, -0.07400214208449962,
        -0.6549739448646941, 0.7166202143627004, 0.19185456928449207, 0.03788041751039467,
        0.4453901714921777, 0.151286021692307,
    ],
    [
        0.19552245364183227, 0.4856835191817822, 0.9051706027170016, -0.2871991005608645,
        -0.6591953681569329, 0.6884817134399062, 0.1475845787361953, 0.23564604742501452,
        0.2345684424100754, 0.149387520492976,
    ],
    [
        0.22948715183470492, 0.5180807455238645, 0.9791611832755562, -0.282591413796242,
        -0.9848579930853402, 0.5396657952797159, 0.2107076952317729, 0.06936348084761768,
        0.08872659965130003, 0.17009341477259948,
    ],
    [
        -0.11753807626207866, 0.6091998685770461, -1.3008131485035008, -0.9185330291041147,
        -1.102437293972482, -1.3641935576615127, -0.04644502946350565, 0.2700498716919197,
        0.9141136276908244, 0.4914327419829547,
    ],
    [
        0.21982417919952826, 0.24965032545625748, -1.7396678744310834, -0.020681175524029816,
        -1.6593036552721419, -0.9827598736186868, -0.6686516363988833, -0.06255541277069387,
        0.9910067650801107, -0.6798059630896223,
    ],
    [
        1.0372957775316896, 1.319921128836485, -1.2404244442642178, -0.19812462701971292,
        -1.3035864927827812, -1.2640625003894612, -0.5367961229968502, -0.1487197477485126,
        0.6612947521416379, -0.9513561185523225,
    ],
    [
        0.15226113250574014, 1.2408075861029777, -0.5659879488382609, 1.1583256600969367,
        -2.1895366412095485, -0.7049121120906828, 0.13373572986689314, 0.5847687709386935,
        0.3906765052803688, -0.7652042004225172,
    ],
    [
        0.1232668021436355, 1.1979331458817206, -0.51256741995541, 1.194946221366442,
        -2.1170222662220906, -0.7233539120844535, 0.11770520457075395, 0.599517674760459,
        0.4367482207729051, -0.8200319949984904,
    ],
    [
        0.28988781358664967, 1.0054767388931227, -0.634122898410466, 1.032773944797726,
        -2.248917060897965, -0.6010899791760844, 0.6201546374620656, 0.22999435918000954,
        0.12038902432228892, -0.6031689859034013,
    ],
    [
        0.5459349267542206, 0.28270886041138776, -1.3054194022859857, 1.1269851436082443,
        -2.2610069245246165, 0.1366953165058381, 1.1248656961713173, 0.016141005396787533,
        -0.3188713790402541, 0.03439506271096027,
    ],
    [
        0.45508705218429796, 0.2841320318782605, -1.3259283146009329, 1.1345049451700033,
        -2.2217711511027534, 0.1850734208755704, 1.150033903512949, -0.14151714722335912,
        -0.38113281120834125, 0.03941240170367473,
    ],
    [
        0.005654508778526288, -0.2619819912207395, -1.3580562921640358, 1.1270608803510418,
        -1.9783486632233203, -0.21906510328354817, 0.9631679045004, -0.3723046566390102,
        0.28328114811268096, 0.09794405769251223,
    ],
    [
        0.02912851400888014, -0.33427040316223633, -1.3021504258174832, 1.157564716948501,
        -2.0537981424722713, -0.28232875836973487, 0.9986345111253703, -0.4398299441938594,
        0.31710421208440975, 0.07164667183753876,
    ],
    [
        0.1650903827579727, -0.3501327988667808, -1.324766883141623, 1.0705463664152208,
        -2.041746017672726, -0.2741424593229223, 1.0878148195783648, -0.4655082351795916,
        0.22846969507165668, 0.09432570179070048,
    ],
    [
        0.29123503556272173, -0.43660573670079655, -1.4578545742623812, 1.1782846279520107,
        -2.069038684805095, -0.438865140669895, 0.9391806873671149, -0.6915529526383337,
        0.4579652674707184, 0.28026709201276206,
    ],
    [
        0.31413806303619257, -0.5325200870355334, -1.534823619306642, 1.1701375302584454,
        -2.0369106736676827, -0.5126849298328592, 0.9377495556696391, -0.4933142669864804,
        0.42264721454235193, 0.06238671766047754,
    ],
]
ISOTROPIC_10D_QUERIES = [
    10, 43, 49, 42, 42, 43, 41, 42, 48, 49, 45, 58, 54, 45, 62, 53, 50, 45, 42, 52,
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
