"""The scalar path of the rejection trial: parity with the array path and pinned draws.

``evaluate``, ``Envelope.log_value``, ``Envelope.sample``,
``sample_gaussian_tail`` and ``sample_gaussian_piece`` take a float (or no
``size``) through plain float arithmetic and the generator's scalar draws;
every value must be bitwise equal to the array path, so ``==`` is the
comparison throughout.
"""
import math

import numpy as np
import pytest

from helpers import domination_grid, product_oracle
from lcsampler import (
    FAILURE,
    Envelope,
    PotentialOracle,
    bracket_minimizer,
    build_line_envelope,
    prepare_envelope,
    quadratic_oracle,
    restrict,
    sample_exact,
)
from lcsampler import hardfamily
from lcsampler.numerics import sample_gaussian_piece, sample_gaussian_tail
from lcsampler.targets import builtin_potential

PARITY_KAPPAS = (2.0, 1e3, 1e6, 1e12)


def _cases():
    for kappa in PARITY_KAPPAS:
        names = ["gaussian", "skewed"]
        names += [f"hard:{i}" for i in range(1, hardfamily.largest_m(kappa) + 1)]
        for name in names:
            yield name, kappa


def _setup(name, kappa, offset=0.0):
    potential = builtin_potential(name, kappa)
    oracle = PotentialOracle(potential, alpha=1.0, beta=kappa, hidden_offset=offset)
    normalized, env = prepare_envelope(oracle)
    return potential, normalized, env


def _grid(potential, env):
    """Points across the plateau, both tails, the plateau edges and the breakpoints."""
    width = env.x_plus - env.x_minus
    return np.concatenate(
        [
            np.linspace(env.x_minus - 6.0, env.x_plus + 6.0, 241),
            np.linspace(env.x_minus - 3.0 * width, env.x_plus + 3.0 * width, 121),
            [env.x_minus, env.x_plus, 0.0, -0.0, np.nextafter(env.x_plus, np.inf)],
            potential.breakpoints,
        ]
    )


@pytest.mark.parametrize("name, kappa", list(_cases()))
def test_scalar_path_equals_array_path(name, kappa):
    potential, _, env = _setup(name, kappa, offset=1.25)
    grid = _grid(potential, env)
    values, slopes, curvatures = potential.evaluate(grid)
    log_values = env.log_value(grid)
    for k, x in enumerate(grid.tolist()):
        assert potential.evaluate(x) == (values[k], slopes[k], curvatures[k]), x
        assert env.log_value(x) == log_values[k], x
    scalar_rng, array_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(300):
        assert env.sample(scalar_rng) == env.sample(array_rng, size=1)[0]


@pytest.mark.parametrize("drift", [0.0, 0.3, 2.0, 4.999, 5.0, 5.001, 8.0, 40.0])
def test_scalar_tail_draw_equals_size_one(drift):
    scalar_rng, array_rng = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(500):
        t = sample_gaussian_tail(drift, scalar_rng)
        assert isinstance(t, float)
        assert t == sample_gaussian_tail(drift, array_rng, size=1)[0]


@pytest.mark.parametrize("drift", [0.0, 0.5, 4.99, 5.01, 40.0])
@pytest.mark.parametrize("length", [2e-6, 1e-3, 1.0, 30.0])
def test_scalar_piece_draw_equals_size_one(drift, length):
    scalar_rng, array_rng = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(200):
        t = sample_gaussian_piece(drift, length, scalar_rng)
        assert isinstance(t, float)
        assert t == sample_gaussian_piece(drift, length, array_rng, size=1)[0]


def _line_envelopes():
    """Line envelopes with finite pieces: isotropic and hard-member products at kappa 1e6."""
    rng = np.random.default_rng(43)
    kappa = 1e6
    oracles = [quadratic_oracle(np.ones(3), kappa=kappa)]
    oracles += [
        product_oracle([builtin_potential(name, kappa)] + [builtin_potential("gaussian", kappa)] * 2, kappa)
        for name in ("hard:2", "skewed")
    ]
    for oracle in oracles:
        for _ in range(5):
            x = rng.standard_normal(3) * np.array([10.0 ** rng.uniform(-3.0, 0.0), 1.0, 1.0])
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            line = restrict(oracle, x, u)
            yield build_line_envelope(line, *bracket_minimizer(line, 0.0))[0]


def test_line_envelope_scalar_path_equals_array_path():
    for env in _line_envelopes():
        assert len(env.rows_minus) + len(env.rows_plus) > 2
        grid = domination_grid(env)
        log_values = env.log_value(grid)
        for k, x in enumerate(grid.tolist()):
            assert env.log_value(x) == log_values[k], x
        scalar_rng, array_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(300):
            assert env.sample(scalar_rng) == env.sample(array_rng, size=1)[0]


@pytest.mark.parametrize("mean, height", [(0.0, 1.0), (-0.0, 2.0), (-1.5, 0.25), (3.0, math.e), (1e6, 7.0)])
def test_gaussian_envelope_scalar_path_equals_array_path(mean, height):
    # the empty plateau at the mean and its two drift-0 tails; NaN gives
    # NaN on both paths, so it is compared apart
    env = Envelope.gaussian(mean, height)
    grid = np.concatenate([
        np.linspace(mean - 9.0, mean + 9.0, 1801),
        [mean, np.nextafter(mean, -np.inf), np.nextafter(mean, np.inf), -np.inf, np.inf, 0.0, -0.0],
    ])
    log_values = env.log_value(grid)
    for k, x in enumerate(grid.tolist()):
        assert env.log_value(x) == log_values[k], x
    assert math.isnan(env.log_value(math.nan)) and np.isnan(env.log_value(np.array([math.nan]))).all()
    scalar_rng, array_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(300):
        assert env.sample(scalar_rng) == env.sample(array_rng, size=1)[0]


def test_scalar_path_returns_plain_floats():
    potential, normalized, env = _setup("skewed", 1e3)
    assert all(type(v) is float for v in potential.evaluate(0.7))
    assert type(env.log_value(3.0)) is float
    assert type(env.sample(np.random.default_rng(0))) is float


# The first 20 (result, trials) of sample_exact at kappa = 1e6, seed 20240605,
# recorded when the tails were first built from the threshold search's edge
# values; the scalar path was already in place and equal to the array path.
# The gaussian draws 1, 4, 6 and 9 were re-recorded when erfcinv came to be
# computed from math rather than SciPy: each moved by 1 or 2 ulps, and every
# trial count stayed.
PINNED_DRAWS = {
    "gaussian": [
        (-0.7323118637348662, 1),
        (-1.565173057798301, 1),
        (-0.09344485586915496, 2),
        (-0.21722528055515344, 3),
        (1.5329672206991776, 2),
        (-0.45262144273861393, 1),
        (-1.9421248175929113, 1),
        (-0.6667096620276984, 2),
        (-0.11752467828272184, 1),
        (-1.8435651412681666, 1),
        (-2.0257307900216572, 2),
        (1.043409280942271, 1),
        (0.02393399451467948, 1),
        (-0.37258352810286555, 1),
        (0.8555155904483791, 2),
        (1.0805888330807703, 1),
        (-0.11119769720966566, 1),
        (-0.5982634012161568, 1),
        (0.8095969057316055, 1),
        (-0.06077067245287848, 1),
    ],
    "skewed": [
        (-0.7323118637348662, 1),
        (-0.04059256348648521, 1),
        (-0.09344485586915496, 2),
        (-0.11425743497322127, 2),
        (-0.21722528055515344, 1),
        (0.009907587334738954, 2),
        (-0.45262144273861393, 1),
        (-0.5102555231435727, 1),
        (-0.6667096620276984, 2),
        (-0.11752467828272184, 1),
        (-0.4082277492524715, 1),
        (-0.5862568943646331, 2),
        (0.9785217292752137, 1),
        (0.02393399451467948, 1),
        (-0.37258352810286555, 1),
        (0.8555155904483791, 2),
        (0.8927189098131396, 1),
        (-0.11119769720966566, 1),
        (-0.5982634012161568, 1),
        (0.8095969057316055, 1),
    ],
    "hard:1": [
        (-0.0014302966088571606, 1),
        (-3.858126401387347e-05, 10),
        (-0.0018975150047183234, 1),
        (-0.0022228367302663584, 1),
        (-0.0007527153553208224, 3),
        (0.0016709288875944904, 2),
        (-0.0008275835299080435, 2),
        (-0.0010760886523428245, 2),
        (-0.001278399996104525, 1),
        (-0.0023497003505271543, 1),
        (0.0026240174896137447, 2),
        (0.0008308945188625974, 1),
        (0.002567817758082561, 1),
        (-0.0005574194144897819, 3),
        (-0.00144464505742401, 3),
        (0.0016222145916630726, 2),
        (0.0008474523657892616, 2),
        (-0.0025021812144408015, 1),
        (0.0014271807820060846, 2),
        (-0.0016566670636915292, 2),
    ],
    "hard:3": [
        (-0.0003171294022381657, 2),
        (-0.0007300379364777732, 2),
        (0.004172618902751, 1),
        (-0.0008926362107282912, 1),
        (-0.0016970725043371363, 1),
        (7.740302605264808e-05, 2),
        (-0.0035361050213954213, 1),
        (-0.003986371274559162, 1),
        (-0.0009181615490837644, 3),
        (-0.0031892792910349337, 1),
        (-0.004580131987223696, 2),
        (0.00018698433214593344, 2),
        (-0.002910808813303637, 1),
        (0.003539038119542927, 1),
        (-0.000868732009450513, 3),
        (-0.004673932822001225, 1),
        (-0.00047477087853811314, 2),
        (0.0031213325521981146, 2),
        (0.0018729080343150573, 1),
        (0.0010112942604173156, 2),
    ],
}


# The same stream through the loop capped at two trials, recorded from the
# separate capped sampler that the one loop replaced; its gaussian draws
# moved with the uncapped ones.
PINNED_CAPPED_DRAWS = {
    "gaussian": [
        (-0.7323118637348662, 1),
        (-1.565173057798301, 1),
        (-0.09344485586915496, 2),
        (FAILURE, 2),
        (-0.21722528055515344, 1),
        (1.5329672206991776, 2),
        (-0.45262144273861393, 1),
        (-1.9421248175929113, 1),
        (-0.6667096620276984, 2),
        (-0.11752467828272184, 1),
        (-1.8435651412681666, 1),
        (-2.0257307900216572, 2),
        (1.043409280942271, 1),
        (0.02393399451467948, 1),
        (-0.37258352810286555, 1),
        (0.8555155904483791, 2),
        (1.0805888330807703, 1),
        (-0.11119769720966566, 1),
        (-0.5982634012161568, 1),
        (0.8095969057316055, 1),
    ],
    "skewed": PINNED_DRAWS["skewed"],  # no draw there needs a third trial
    "hard:1": [
        (-0.0014302966088571606, 1),
        (FAILURE, 2),
        (FAILURE, 2),
        (FAILURE, 2),
        (FAILURE, 2),
        (-3.858126401387347e-05, 2),
        (-0.0018975150047183234, 1),
        (-0.0022228367302663584, 1),
        (FAILURE, 2),
        (-0.0007527153553208224, 1),
        (0.0016709288875944904, 2),
        (-0.0008275835299080435, 2),
        (-0.0010760886523428245, 2),
        (-0.001278399996104525, 1),
        (-0.0023497003505271543, 1),
        (0.0026240174896137447, 2),
        (0.0008308945188625974, 1),
        (0.002567817758082561, 1),
        (FAILURE, 2),
        (-0.0005574194144897819, 1),
    ],
    "hard:3": [
        (-0.0003171294022381657, 2),
        (-0.0007300379364777732, 2),
        (0.004172618902751, 1),
        (-0.0008926362107282912, 1),
        (-0.0016970725043371363, 1),
        (7.740302605264808e-05, 2),
        (-0.0035361050213954213, 1),
        (-0.003986371274559162, 1),
        (FAILURE, 2),
        (-0.0009181615490837644, 1),
        (-0.0031892792910349337, 1),
        (-0.004580131987223696, 2),
        (0.00018698433214593344, 2),
        (-0.002910808813303637, 1),
        (0.003539038119542927, 1),
        (FAILURE, 2),
        (-0.000868732009450513, 1),
        (-0.004673932822001225, 1),
        (-0.00047477087853811314, 2),
        (0.0031213325521981146, 2),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_DRAWS))
@pytest.mark.parametrize(
    "cap, pinned", [(None, PINNED_DRAWS), (2, PINNED_CAPPED_DRAWS)], ids=["uncapped", "cap2"]
)
def test_pinned_exact_draws(name, cap, pinned):
    _, normalized, env = _setup(name, 1e6)
    rng = np.random.default_rng(20240605)
    draws = [sample_exact(normalized, env, rng, cap) for _ in range(20)]
    assert [(d.result, d.trials) for d in draws] == pinned[name]
