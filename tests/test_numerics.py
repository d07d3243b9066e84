import math
from functools import partial

import numpy as np
import pytest
from scipy import special

from helpers import (
    adaptive_quadrature,
    gaussian_tail_partial,
    ks_critical_value,
    ks_statistic,
    normal_cdf,
)
from lcsampler.errors import UsageError
from lcsampler.numerics import (
    _DRIFT_INVERSION_LIMIT,
    _ERFCINV_TAIL,
    _ERFCX_SERIES,
    erfcinv,
    erfcx,
    gaussian_piece_integral,
    gaussian_tail_integral,
    sample_gaussian_piece,
    sample_gaussian_tail,
)

# Drifts on both sides of the inversion limit 5 and lengths from a
# kappa = 1e12 grid step to far past the mean
PIECE_DRIFTS = (0.0, 0.5, 4.99, 5.01, 40.0)
PIECE_LENGTHS = (2e-6, 1e-3, 1.0, 30.0)


def _around(value: float, steps: int = 50) -> list[float]:
    """``value`` and the ``steps`` doubles on either side of it."""
    points, below, above = [value], value, value
    for _ in range(steps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        points += [below, above]
    return points


def _ulps_off(ours: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Distance of ``ours`` from ``reference`` in units of the reference's last place."""
    return np.abs(ours - reference) / np.spacing(np.abs(reference))


class TestSpecialFunctions:
    """erfcx and erfcinv against scipy.special, a reference the package does not import.

    The bounds are the ones the docstrings state: 12 ulps for erfcx (SciPy's
    own erfcx is up to 8 ulps off near 0) and 8 for erfcinv.
    """

    def test_erfcx_from_zero_to_1e300(self):
        rng = np.random.default_rng(7)
        xs = np.concatenate([
            rng.uniform(0.0, 30.0, 100_000),
            10.0 ** rng.uniform(-10.0, 300.0, 100_000),
            np.linspace(25.0, 27.0, 20_001),
            _around(_ERFCX_SERIES),
            [0.0, 5e-324, 1e300],
        ])
        ours = np.array([erfcx(x) for x in xs.tolist()])
        assert float(_ulps_off(ours, special.erfcx(xs)).max()) <= 12.0

    def test_erfcinv_from_1e_300_to_2(self):
        rng = np.random.default_rng(7)
        ys = np.concatenate([
            10.0 ** rng.uniform(-300.0, 0.0, 100_000),
            rng.uniform(0.0, 2.0, 100_000),
            1.0 + rng.uniform(-1e-3, 1e-3, 20_000),
            1.0 + 2.0**-52 * np.arange(-100, 101),
            *(_around(y) for y in (_ERFCINV_TAIL, 0.5, 1.5, 2.0 - _ERFCINV_TAIL)),
            [2.0**-52, 2.0 - 2.0**-52],
        ])
        ys = ys[(ys > 0.0) & (ys < 2.0)]
        ours = np.array([erfcinv(y) for y in ys.tolist()])
        reference = special.erfcinv(ys)
        assert float(_ulps_off(ours, reference).max()) <= 8.0
        # near y = 1 the root is near 0, and its error is absolute
        near = np.abs(ys - 1.0) < 1e-3
        assert float(np.abs(ours - reference)[near].max()) <= 1e-18

    def test_erfcinv_ends(self):
        assert erfcinv(0.0) == math.inf
        assert erfcinv(2.0) == -math.inf
        assert erfcinv(1.0) == 0.0
        # a subnormal y takes its root past where exp(x^2) is a float
        assert erfcinv(5e-324) == pytest.approx(27.2132932595262, rel=1e-12)

    # the inverting draws: tails up to the drift limit, pieces longer than 1
    @pytest.mark.parametrize("draw", [
        *(partial(sample_gaussian_tail, a) for a in (0.0, 0.7, 3.0, _DRIFT_INVERSION_LIMIT)),
        *(partial(sample_gaussian_piece, a, 30.0) for a in (0.0, 0.5, 4.99)),
    ])
    def test_scalar_and_array_inversions_agree_bitwise(self, draw):
        scalar_rng, array_rng = np.random.default_rng(23), np.random.default_rng(23)
        scalar = [draw(scalar_rng) for _ in range(2000)]
        assert draw(array_rng, size=2000).tolist() == scalar


class TestGaussianTailIntegral:
    def test_zero_drift_is_half_gaussian(self):
        assert gaussian_tail_integral(0.0) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-14)

    def test_unit_drift_matches_quadrature(self):
        # independent oracle: direct quadrature of the integrand
        quad = adaptive_quadrature(lambda t: math.exp(-t - 0.5 * t * t), 0.0, 45.0, tol=1e-12)
        assert quad.value == pytest.approx(0.6556795424187984, rel=1e-10)
        assert gaussian_tail_integral(1.0) == pytest.approx(quad.value, rel=1e-10)

    def test_large_drift_asymptotics(self):
        # Mills ratio: G(a) ~ 1/a within 0.2% at a = 1e3
        assert gaussian_tail_integral(1e3) == pytest.approx(1e-3, rel=2e-3)

    def test_mills_bound_on_log_grid(self):
        for a in np.logspace(-2, 3, 26):
            assert gaussian_tail_integral(float(a)) <= 1.0 / a

    def test_negative_drift_rejected(self):
        with pytest.raises(UsageError):
            gaussian_tail_integral(-0.1)

    def test_partial_tail(self):
        assert gaussian_tail_partial(1.0, 0.0) == pytest.approx(gaussian_tail_integral(1.0))
        quad = adaptive_quadrature(lambda t: math.exp(-t - 0.5 * t * t), 2.0, 45.0, tol=1e-12)
        assert gaussian_tail_partial(1.0, 2.0) == pytest.approx(quad.value, rel=1e-9)
        # vectorized and monotone decreasing
        vals = gaussian_tail_partial(0.5, np.array([0.0, 1.0, 2.0, 5.0]))
        assert np.all(np.diff(vals) < 0)


class TestTailSampling:
    def _tail_cdf(self, a):
        total = gaussian_tail_integral(a)
        return lambda t: 1.0 - gaussian_tail_partial(a, np.maximum(t, 0.0)) / total

    @pytest.mark.parametrize("drift", [0.0, 0.7, 3.0, 7.5, 40.0])
    def test_draws_match_analytic_cdf(self, drift):
        rng = np.random.default_rng(11)
        draws = sample_gaussian_tail(drift, rng, size=20_000)
        assert float(np.min(draws)) >= 0.0
        ks = ks_statistic(draws, self._tail_cdf(drift))
        assert ks < ks_critical_value(20_000)

    def test_scalar_draw(self):
        rng = np.random.default_rng(0)
        assert isinstance(sample_gaussian_tail(1.0, rng), float)


def piece_cdf(a, length):
    """CDF of exp(-a*t - t^2/2) on [0, length], from the half-line partial integrals."""
    head = gaussian_tail_partial(a, 0.0)
    mass = head - gaussian_tail_partial(a, length)
    return lambda t: (head - gaussian_tail_partial(a, np.clip(t, 0.0, length))) / mass


# pieces far narrower than a grid step, where an erfc difference cancels
NARROW_LENGTHS = (1e-10, 1e-14)


def piece_quadrature(a, length):
    return adaptive_quadrature(
        lambda t: math.exp(-a * t - 0.5 * t * t), 0.0, length, tol=1e-13 * min(length, 1.0)
    ).value


class TestGaussianPiece:
    @pytest.mark.parametrize("a", PIECE_DRIFTS)
    @pytest.mark.parametrize("length", PIECE_LENGTHS + NARROW_LENGTHS)
    def test_integral_matches_quadrature(self, a, length):
        # approx's default absolute 1e-12 would pass any value this small
        tol = {"rel": 1e-13, "abs": 0.0} if length in NARROW_LENGTHS else {"rel": 1e-9}
        assert gaussian_piece_integral(a, length) == pytest.approx(piece_quadrature(a, length), **tol)

    @pytest.mark.parametrize("length", [math.nextafter(1.0, 0.0), 1.0])
    def test_integral_on_both_sides_of_the_flat_switch(self, length):
        # at a = 0.5 the exponent rises length * (0.5 + length/2), 1 at
        # length 1: the Gauss-Legendre rule just below, the erfc difference there
        quad = piece_quadrature(0.5, length)
        assert gaussian_piece_integral(0.5, length) == pytest.approx(quad, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("a", PIECE_DRIFTS)
    @pytest.mark.parametrize("length", PIECE_LENGTHS)
    def test_draws_match_analytic_cdf(self, a, length):
        n = 3000
        rng = np.random.default_rng(13)
        scalar = np.array([sample_gaussian_piece(a, length, rng) for _ in range(n)])
        array = sample_gaussian_piece(a, length, rng, size=n)
        cdf = piece_cdf(a, length)
        for draws in (scalar, array):
            assert 0.0 <= float(draws.min()) and float(draws.max()) <= length
            assert ks_statistic(draws, cdf) < ks_critical_value(n)

    def test_bad_piece_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(UsageError):
            sample_gaussian_piece(-0.1, 1.0, rng)
        with pytest.raises(UsageError):
            sample_gaussian_piece(1.0, 0.0, rng)


class TestAdaptiveQuadrature:
    def test_linear(self):
        res = adaptive_quadrature(lambda x: x, 0.0, 1.0, tol=1e-12)
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.converged

    def test_gaussian_mass(self):
        res = adaptive_quadrature(lambda x: math.exp(-0.5 * x * x), -40.0, 40.0, tol=1e-10)
        assert res.value == pytest.approx(math.sqrt(2 * math.pi), rel=1e-10)

    def test_breakpoints_handle_kinks(self):
        res = adaptive_quadrature(abs, -1.0, 1.0, tol=1e-12, breakpoints=[0.0])
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_empty_interval(self):
        assert adaptive_quadrature(lambda x: x, 2.0, 2.0).value == 0.0

    def test_bad_bounds(self):
        with pytest.raises(UsageError):
            adaptive_quadrature(lambda x: x, 1.0, 0.0)

    def test_depth_exhaustion_is_flagged(self):
        # near-singular integrand: panels at the left edge never settle
        res = adaptive_quadrature(lambda x: (x + 1e-280) ** -0.5, 0.0, 1.0, tol=1e-14)
        assert not res.converged
        assert res.error_estimate > 0.0


class TestKsStatistic:
    def test_samples_from_the_cdf_itself(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(100_000)
        assert ks_statistic(samples, normal_cdf) < ks_critical_value(100_000)

    def test_constant_samples_vs_continuous_cdf(self):
        assert ks_statistic(np.zeros(100), normal_cdf) >= 0.5

    def test_single_sample_at_median(self):
        assert ks_statistic([0.0], normal_cdf) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            ks_statistic([], normal_cdf)

    def test_critical_value_table(self):
        assert ks_critical_value(100) == pytest.approx(0.163)
        with pytest.raises(UsageError):
            ks_critical_value(100, significance=0.5)
