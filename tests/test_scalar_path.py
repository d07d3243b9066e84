"""The scalar path of the rejection trial: parity with the array path and pinned draws.

``evaluate``, ``Envelope.log_value``, ``Envelope.sample`` and
``sample_gaussian_tail`` take a float (or no ``size``) through plain float
arithmetic and the generator's scalar draws; every value must be bitwise
equal to the array path, so ``==`` is the comparison throughout.
"""
import numpy as np
import pytest

from lcsampler import PotentialOracle, prepare_envelope, sample_exact
from lcsampler import hardfamily
from lcsampler.numerics import sample_gaussian_tail
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


def test_scalar_path_returns_plain_floats():
    potential, normalized, env = _setup("skewed", 1e3)
    assert all(type(v) is float for v in potential.evaluate(0.7))
    assert type(env.log_value(3.0)) is float
    assert type(env.sample(np.random.default_rng(0))) is float


# The first 20 (result, trials) of sample_exact at kappa = 1e6, seed 20240605,
# recorded before the scalar path existed.
PINNED_DRAWS = {
    "gaussian": [
        (-0.7323118637348662, 1),
        (-1.57155079881466, 1),
        (-0.09344485586915496, 2),
        (-0.21722528055515344, 3),
        (1.5390510176448726, 2),
        (-0.45262144273861393, 1),
        (-1.9513949460157936, 1),
        (-0.6667096620276984, 2),
        (-0.11752467828272184, 1),
        (-1.8521653069855806, 1),
        (-2.0355290798369876, 2),
        (1.0437035722606192, 1),
        (0.02393399451467948, 1),
        (-0.37258352810286555, 1),
        (0.8555155904483791, 2),
        (-0.11119769720966566, 2),
        (-2.0498309299094064, 1),
        (0.8095969057316055, 1),
        (-1.5848468207042652, 1),
        (-1.0949609908644056, 1),
    ],
    "skewed": [
        (-0.7323118637348662, 1),
        (-0.09344485586915496, 3),
        (-0.21722528055515344, 3),
        (-0.45262144273861393, 3),
        (-0.6667096620276984, 3),
        (-0.11752467828272184, 1),
        (0.02393399451467948, 5),
        (-0.37258352810286555, 1),
        (0.8555155904483791, 2),
        (-0.11119769720966566, 2),
        (0.8095969057316055, 2),
        (-0.5343967487553472, 7),
        (-0.2488553056427777, 1),
        (0.28365080520942554, 3),
        (-0.3146575431554045, 1),
        (0.14701968989802405, 3),
        (0.4338956112841019, 5),
        (0.9963660613699039, 2),
        (-0.4797230715842109, 1),
        (-0.0327676805058279, 2),
    ],
    "hard:1": [
        (-0.0014302966088571606, 1),
        (-3.858126401387347e-05, 10),
        (-0.0018975150047183234, 1),
        (-0.0007900587464505339, 7),
        (-0.0026032562716627296, 1),
        (0.001581243956507042, 1),
        (-0.00020887190245114573, 5),
        (0.0018214005493136696, 2),
        (0.001548229730105293, 1),
        (-0.0006145655139753994, 2),
        (-0.0017115155054593357, 4),
        (-0.0016566670636915292, 7),
        (-0.003389697216580812, 5),
        (0.003442973472806334, 3),
        (-0.0005932333738208567, 2),
        (-0.0029863339604262905, 2),
        (-0.001105504524565443, 7),
        (0.002258265506761263, 2),
        (0.0014201914067209355, 1),
        (-0.0009091686964527047, 1),
    ],
    "hard:3": [
        (-0.00015432505605549388, 11),
        (-0.003310334119632174, 8),
        (-0.004304354609371298, 2),
        (0.0033235780754503896, 5),
        (-0.0022296776579591275, 4),
        (-0.002372933495283427, 21),
        (-0.004422018098261772, 9),
        (-0.0036366747858108187, 4),
        (-0.004542399574528247, 4),
        (0.0038061292827242504, 2),
        (0.0034411807104521522, 5),
        (0.0020765748943130866, 5),
        (-0.002196354907806201, 1),
        (-0.001740566939287108, 4),
        (-0.0051870360698489295, 1),
        (-0.002466237323431768, 4),
        (-0.0034693736397494665, 1),
        (0.002662391988344972, 3),
        (-0.005320964153184171, 14),
        (0.0026299663385459995, 8),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_DRAWS))
def test_pinned_exact_draws(name):
    _, normalized, env = _setup(name, 1e6)
    rng = np.random.default_rng(20240605)
    draws = [sample_exact(normalized, env, rng) for _ in range(20)]
    assert [(d.result, d.trials) for d in draws] == PINNED_DRAWS[name]
