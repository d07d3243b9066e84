"""Print one hash per behaviour area of a checkout's ``lcsampler``.

Run from anywhere; ``--root`` is the checkout whose ``src/`` is imported, by
default the one holding this script:

    python3 tools/fingerprint.py --root ../parent
    python3 tools/fingerprint.py

Two checkouts agree on an area exactly when every number the area reads is
bitwise equal, so a refactor can show which behaviour it kept and which it
changed.  The areas:

* ``potential`` - every builtin and hard-family potential at each kappa of
  ``KAPPAS``: ``breakpoints``, ``curvatures``, ``density_mass()``, and
  scalar and array ``evaluate`` on a grid holding every breakpoint, its two
  float neighbours, the midpoints between breakpoints and a span beyond
  them, so a change to how a potential is built shows here directly.
* ``envelope1d`` - every builtin and hard-family target at each kappa of
  ``KAPPAS``, with hidden offset 1.25: ``piece_masses``, ``mass_total``,
  ``x_minus``, ``x_plus``, scalar and array ``log_value`` on a grid, array
  and scalar ``sample`` draws, and 50 ``sample_exact`` draws with their
  trial and query counts.
* ``construction`` - the construction queries (normalization and both
  threshold searches) of each ``envelope1d`` envelope, apart from its
  geometry, so a change to how the searches spend queries shows here alone.
* ``line_envelope`` - fixed random lines of quadratic targets: certificate
  and envelope queries, ``piece_masses``, ``mass_total``, ``x_minus``,
  ``x_plus`` and scalar and array ``log_value`` on a grid, and the returned
  view's ``shift``, ``point(0.0)`` and ``point(1.0)``.  No draws.  Each
  envelope is built from the certificate alone, whether
  ``bracket_minimizer`` returns the certificate or a ``(certificate,
  probes)`` pair, so checkouts on both sides of that change compare.
* ``line_probes`` - the same lines, and as many of a product of non-quadratic
  members, each envelope built from the full ``(certificate, probes)``
  return of ``bracket_minimizer``, so the rows the certificate search's
  probes add are hashed line by line: the ``line_envelope`` numbers, the
  probes, and array and scalar ``sample`` draws.  Needs a checkout whose
  ``bracket_minimizer`` returns that pair.
* ``chain`` - positions and per-step queries of a Hit-and-Run chain on each
  quadratic target of the line area, and the value and gradient of its
  ``last`` answer; then the same and the per-step paths of a 300-step chain
  on the product ``[hard:2, skewed, gaussian, gaussian]`` at kappa 1e3,
  started from a probe whose cost record sends every step tangent first,
  so the tangent trial and its fallback to the line envelope are hashed;
  then the benchmark's own chain, the isotropic d = 10, kappa = 1e6 target
  burnt in for 150 steps and run in 100-step ``run_chain`` chunks, each
  restarted from the last position as a point array as ``lcbench``'s
  ``hitandrun10d`` runs it: each chunk's positions, per-step queries and
  paths.
* ``hardfamily`` - ``hardfamily.identify`` at each kappa of ``KAPPAS`` on
  every window edge ``2^j / sqrt(kappa)`` for j from -1070 to 999, the two
  float neighbours of each, and seeded random points.
* ``kernels`` - ``numerics.gaussian_piece_integral`` and
  ``gaussian_tail_integral`` on a grid of drifts and lengths that covers the
  piece's three branches and both switches between them (an exponent
  rising by 1, a drift of 5), and ``erfcx`` and ``erfcinv`` on grids across
  their own switches, so a change to a kernel shows here alone.
* ``cli.<command>`` - each command's outputs: ``bench-queries`` without its
  wall-clock ``throughput`` column, and ``envelope-inspect`` without its
  geometry-row keys, whose layout is the stored form rather than behaviour.

It reads only those envelope attributes, so it runs on checkouts on either
side of a change to how an envelope stores its geometry.  Standard library
and NumPy only; about two seconds.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

KAPPAS = (1.0, 2.0, 4.0, 37.5, 1e3, 1e6, 1e9, 1e12)
HIDDEN_OFFSET = 1.25
# the envelope-inspect keys every geometry layout shares
INSPECT_KEYS = ("x_minus", "x_plus", "plateau_height", "masses", "construction_queries",
                "acceptance_rate")


def feed(digest, value) -> None:
    """Add ``value`` to ``digest``: arrays by their float64 bytes, numbers by their exact repr."""
    if isinstance(value, np.ndarray):
        digest.update(str(value.shape).encode())
        digest.update(np.ascontiguousarray(value, dtype=float).tobytes())
    elif isinstance(value, (list, tuple)):
        digest.update(b"[")
        for item in value:
            feed(digest, item)
        digest.update(b"]")
    elif isinstance(value, (bool, str)) or value is None:
        digest.update(repr(value).encode())
    elif isinstance(value, (int, np.integer)):
        digest.update(repr(int(value)).encode())
    else:
        digest.update(repr(float(value)).encode())
    digest.update(b";")


def log_values(env, xs: np.ndarray) -> list:
    """``log_value`` at each point, scalar by scalar and as one array."""
    return [[env.log_value(float(x)) for x in xs], env.log_value(xs)]


def grid(env) -> np.ndarray:
    """Points across the plateau and the rows beyond it, the edges and their neighbours."""
    width = env.x_plus - env.x_minus
    edges = np.array([env.x_minus, env.x_plus])
    return np.concatenate([
        np.linspace(env.x_minus - 3.0 * width - 2.0, env.x_plus + 3.0 * width + 2.0, 97),
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
    ])


def target_names(lc, kappa: float) -> list[str]:
    """The builtin targets and, from kappa 2 on, every hard-family member."""
    names = ["gaussian", "skewed"]
    if kappa >= 2.0:
        names += [f"hard:{i}" for i in range(1, lc.largest_m(kappa) + 1)]
    return names


def potential(lc, digest) -> None:
    for kappa in KAPPAS:
        for name in target_names(lc, kappa):
            pot = lc.targets.builtin_potential(name, kappa)
            bp = pot.breakpoints
            xs = np.concatenate([np.linspace(-6.0, 6.0, 97), bp, np.nextafter(bp, -np.inf),
                                 np.nextafter(bp, np.inf), (bp[:-1] + bp[1:]) / 2])
            feed(digest, (name, kappa, bp, pot.curvatures, pot.density_mass(),
                          [pot.evaluate(float(x)) for x in xs], pot.evaluate(xs)))


def envelope1d(lc, digest) -> None:
    for kappa in KAPPAS:
        for name in target_names(lc, kappa):
            _, oracle = lc.targets.resolve_target(name, kappa, HIDDEN_OFFSET)
            normalized, env = lc.prepare_envelope(oracle)
            feed(digest, (name, kappa, env.piece_masses, env.mass_total, env.x_minus, env.x_plus,
                          log_values(env, grid(env))))
            rng = np.random.default_rng(7)
            feed(digest, env.sample(rng, size=200))
            feed(digest, [env.sample(rng) for _ in range(20)])
            feed(digest, [tuple(lc.sample_exact(normalized, env, rng)) for _ in range(50)])


def construction(lc, digest) -> None:
    for kappa in KAPPAS:
        for name in target_names(lc, kappa):
            _, oracle = lc.targets.resolve_target(name, kappa, HIDDEN_OFFSET)
            lc.prepare_envelope(oracle)
            feed(digest, (name, kappa, oracle.query_count))


def quadratic_targets(lc):
    """``(oracle, start scale)`` pairs: isotropic, anisotropic and two-scale quadratics."""
    yield lc.quadratic_oracle(np.ones(10), kappa=1e6), 1.0
    yield lc.quadratic_oracle(np.logspace(0.0, 3.0, 6), kappa=1e3), 1.0
    yield lc.quadratic_oracle(np.array([1.0, 30.0, 1e4]), kappa=1e6), 3.0


def line_envelope(lc, digest) -> None:
    rng = np.random.default_rng(11)
    for oracle, scale in quadratic_targets(lc):
        for _ in range(150):
            x = scale * rng.standard_normal(oracle.dimension)
            u = rng.standard_normal(oracle.dimension)
            line = lc.restrict(oracle, x, u / np.linalg.norm(u))
            before = oracle.query_count
            cert = lc.bracket_minimizer(line, 0.0)
            if not isinstance(cert[0], float):  # a (certificate, probes) pair
                cert = cert[0]
            env, view = lc.build_line_envelope(line, cert)
            feed(digest, (oracle.query_count - before, tuple(cert), env.piece_masses,
                          env.mass_total, env.x_minus, env.x_plus, log_values(env, grid(env)),
                          view.shift, view.point(0.0), view.point(1.0)))


def product_oracle(lc, kappa: float, names=("hard:2", "skewed") * 2):
    """``V(x) = sum_i V_i(x_i)`` over the named builtins, by default ``hard:2`` and ``skewed`` twice each."""
    members = [lc.targets.builtin_potential(name, kappa) for name in names]

    def value(x):
        return sum(m.evaluate(float(xi))[0] for m, xi in zip(members, x))

    def gradient(x):
        return np.array([m.evaluate(float(xi))[1] for m, xi in zip(members, x)])

    return lc.MultivariateOracle(value, gradient, dimension=len(members), kappa=kappa)


def line_probes(lc, digest) -> None:
    rng = np.random.default_rng(11)
    draws = np.random.default_rng(17)
    for oracle, scale in (*quadratic_targets(lc), (product_oracle(lc, 1e6), 2.0)):
        for _ in range(150):
            x = scale * rng.standard_normal(oracle.dimension)
            u = rng.standard_normal(oracle.dimension)
            line = lc.restrict(oracle, x, u / np.linalg.norm(u))
            before = oracle.query_count
            cert, probes = lc.bracket_minimizer(line, 0.0)
            env, view = lc.build_line_envelope(line, cert, probes)
            feed(digest, (oracle.query_count - before, tuple(cert), [tuple(p) for p in probes],
                          env.piece_masses, env.mass_total, env.x_minus, env.x_plus,
                          log_values(env, grid(env)), view.shift, view.point(0.0), view.point(1.0),
                          env.sample(draws, size=20), [env.sample(draws) for _ in range(5)]))


def chain(lc, digest) -> None:
    for (oracle, _), steps in zip(quadratic_targets(lc), (400, 200, 200)):
        result = lc.run_chain(oracle, np.zeros(oracle.dimension), steps, np.random.default_rng(5))
        feed(digest, (result.positions, result.step_queries, result.last.value,
                      result.last.gradient))
    # a record that claims one tangent-first step of 1 query against one search-first step of
    # a million sends every step tangent first, and on this product most fall back
    oracle = product_oracle(lc, 1e3, ("hard:2", "skewed", "gaussian", "gaussian"))
    forced = lc.hitandrun.ChainCosts(searched=1, search_queries=10**6, tangent=1, tangent_queries=1)
    start = lc.Probe(np.zeros(oracle.dimension), *oracle.query(np.zeros(oracle.dimension)), forced)
    result = lc.run_chain(oracle, start, 300, np.random.default_rng(5))
    feed(digest, (result.positions, result.step_queries, result.step_paths, result.last.value,
                  result.last.gradient))
    # hitandrun10d's chain: a search-first step opens each chunk, then its record picks the path
    oracle = lc.targets.resolve_multivariate_target("gaussian", 1e6, 10)
    rng = np.random.default_rng(np.random.SeedSequence(7))
    position = lc.run_chain(oracle, np.zeros(10), 150, rng).positions[-1]
    for _ in range(20):
        result = lc.run_chain(oracle, position, 100, rng)
        position = result.positions[-1]
        feed(digest, (result.positions, result.step_queries, result.step_paths))


def hardfamily(lc, digest) -> None:
    rng = np.random.default_rng(13)
    for kappa in KAPPAS:
        edges = [2.0**j / np.sqrt(kappa) for j in range(-1070, 1000)]
        ys = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                             np.exp(rng.uniform(-700.0, 690.0, 2000))])
        feed(digest, (kappa, [lc.hardfamily.identify(float(y), kappa) for y in ys]))


def around(values, steps: int = 2) -> list[float]:
    """Each value and its ``steps`` nearest doubles on either side."""
    out = []
    for value in values:
        below = above = value
        out.append(value)
        for _ in range(steps):
            below, above = float(np.nextafter(below, -np.inf)), float(np.nextafter(above, np.inf))
            out += [below, above]
    return out


def kernels(lc, digest) -> None:
    numerics = lc.numerics
    drifts = [0.0, 0.5, 1.0, *around([5.0]), 7.5, 40.0, 1e3, 1e8]
    for a in drifts:
        # the length at which the exponent a t + t^2/2 rises by 1, and its neighbours
        switch = 1.0 / (0.5 * a + (0.25 * a * a + 0.5) ** 0.5)
        lengths = [1e-14, 1e-10, 2e-6, 1e-3, *around([switch]), 3.0, 30.0, 1e3]
        feed(digest, (a, numerics.gaussian_tail_integral(a),
                      [numerics.gaussian_piece_integral(a, length) for length in lengths]))
    xs = [*np.linspace(0.0, 30.0, 301), *around([26.0], 5), *np.logspace(1.0, 300.0, 300)]
    feed(digest, [numerics.erfcx(float(x)) for x in xs])
    ys = [*np.logspace(-300.0, 0.0, 301), *np.linspace(0.0, 2.0, 201)[1:-1],
          *around([0.0485, 0.5, 1.0], 5)]
    feed(digest, [numerics.erfcinv(float(y)) for y in ys])


def cli_outputs(lc) -> dict:
    """Per command, a list of its output texts (or parsed documents) and exit codes."""
    from lcsampler.cli import main

    runs = {
        "sample": [["--target", "skewed", "--kappa", "1e6", "--trials", "300", "--seed", "3"],
                   ["--target", "hard:2", "--kappa", "1e3", "--trials", "100", "--seed", "4",
                    "--epsilon", "0.01"]],
        "envelope-inspect": [["--target", "gaussian", "--kappa", "1"],
                             ["--target", "hard:1", "--kappa", "1e6"],
                             ["--target", "skewed", "--kappa", "1e9"]],
        "bench-queries": [["--target", "skewed", "--kappa", "1e3", "--kappa", "1e9",
                           "--trials", "200", "--seed", "1", "--format", "json"]],
        "hardfamily-verify": [["--kappa", "1e3", "--trials", "400", "--seed", "2"]],
        "hitandrun": [["--kappa", "1e6", "--dimension", "10", "--trials", "150", "--seed", "9",
                       "--format", "json"]],
    }
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command, arg_lists in runs.items():
            texts = []
            for n, args in enumerate(arg_lists):
                out = Path(tmp) / f"{command}-{n}"
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    code = main([command, *args, "--out", str(out)])
                text = out.read_text()
                if command == "envelope-inspect":
                    doc = json.loads(text)
                    text = json.dumps({key: doc[key] for key in INSPECT_KEYS}, sort_keys=True)
                elif command == "bench-queries":
                    text = json.dumps([{k: v for k, v in row.items() if k != "throughput"}
                                       for row in json.loads(text)], sort_keys=True)
                meta = out.with_name(out.name + ".meta.json")
                texts += [code, text, meta.read_text() if meta.exists() else None, stderr.getvalue()]
            outputs[command] = texts
    return outputs


def fingerprint(root: Path) -> dict:
    """Area name to hex digest for the ``lcsampler`` under ``root/src``."""
    sys.path.insert(0, str(root / "src"))
    import lcsampler as lc
    import lcsampler.targets  # noqa: F401  (lc.targets)

    here = Path(lc.__file__).resolve()
    if root.resolve() / "src" not in here.parents:
        raise SystemExit(f"imported lcsampler from {here}, not from {root / 'src'}")
    hashes = {}
    for area, run in (("potential", potential), ("envelope1d", envelope1d),
                      ("construction", construction), ("line_envelope", line_envelope),
                      ("line_probes", line_probes), ("chain", chain), ("hardfamily", hardfamily),
                      ("kernels", kernels)):
        digest = hashlib.sha256()
        run(lc, digest)
        hashes[area] = digest.hexdigest()
    for command, texts in cli_outputs(lc).items():
        digest = hashlib.sha256()
        feed(digest, texts)
        hashes[f"cli.{command}"] = digest.hexdigest()
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ to fingerprint (default: this one)")
    args = parser.parse_args(argv)
    for area, digest in fingerprint(args.root).items():
        print(f"{area} {digest[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
