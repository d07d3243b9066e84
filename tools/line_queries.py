"""Print a checkout's Hit-and-Run queries per step, as bracket / search / trials = total.

Run from anywhere; ``--root`` is the checkout whose ``src/`` is imported and
whose ``tests/helpers.py`` builds the product targets, by default the one
holding this script:

    python3 tools/line_queries.py --root ../parent
    python3 tools/line_queries.py --target isotropic --kappa 2 --kappa 37.5

Each cell runs one chain of ``--steps`` steps from the origin for each seed
0, 1, ..., ``--seeds`` - 1 (default 4 x 1,500) and charges every query of a
step to one phase: the certificate search (``hitandrun.bracket_minimizer``),
the line envelope's threshold searches (``hitandrun.build_line_envelope``)
or the rejection trials (the rest of the step).  It prints the mean per
step of each phase over all the chains, their total, and in brackets the
smallest and largest per-seed total, the spread a change has to leave, then
the share of steps that tried the certificate's tangent first (``-`` for a
checkout whose chains record no paths).  The targets, d = 10 unless named:

* ``isotropic`` - the quadratic ``|x|^2/2`` at the declared kappa;
* ``hard2`` - ``[hard:2, gaussian, gaussian]``, d = 3;
* ``mixed`` - ``hard:1``, ``hard:2``, ``hard:3``, ``skewed`` and
  ``gaussian``, each twice;
* ``diagonal`` - the quadratic with curvatures ``[1, 30, 1e3, 1e6]``, d = 4.

The products are ``tests/helpers.product_oracle`` of the builtin members.
A target outside the class at a kappa prints ``-``.  A chain that stops on
an error prints the exit code the ``hitandrun`` command gives it: ``exit 3``
for a ClassViolationError (the target left the class), ``exit 4`` for a
UsageError (such as a kappa past double precision).  Needs the test
dependencies (``tests/helpers.py`` imports SciPy); about 15 s at the
defaults.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

TARGETS = {
    "isotropic": "isotropic d = 10",
    "hard2": "`[hard:2, g, g]`",
    "mixed": "mixed",
    "diagonal": "`diagonal [1, 30, 1e3, 1e6]`",
}
MIXED = ["hard:1", "hard:2", "hard:3", "skewed", "gaussian"] * 2


def oracle_for(lc, helpers, target: str, kappa: float):
    """The target's oracle at ``kappa``."""
    if target == "isotropic":
        return lc.quadratic_oracle(np.ones(10), kappa=kappa)
    if target == "diagonal":
        return lc.quadratic_oracle(np.array([1.0, 30.0, 1e3, 1e6]), kappa=kappa)
    names = ["hard:2", "gaussian", "gaussian"] if target == "hard2" else MIXED
    return helpers.product_oracle([lc.targets.builtin_potential(n, kappa) for n in names], kappa)


# the line step's two construction phases, by the hitandrun function that runs each
PHASES = {"bracket_minimizer": "bracket", "build_line_envelope": "search"}


class PhaseCounter:
    """Charges each phase its queries, through wrappers put in place of its ``hitandrun`` function."""

    def __init__(self, hitandrun):
        self.counts = dict.fromkeys(PHASES.values(), 0)
        for name, phase in PHASES.items():
            setattr(hitandrun, name, self._counted(getattr(hitandrun, name), phase))

    def _counted(self, run, phase: str):
        def counted(line, *args):
            before = line._oracle.query_count
            try:
                return run(line, *args)
            finally:
                self.counts[phase] += line._oracle.query_count - before
        return counted


# the hitandrun command's exit code for each error a chain can stop on
EXIT_CODES = {"ClassViolationError": 3, "UsageError": 4}


def cell(lc, helpers, phases: PhaseCounter, target: str, kappa: float, seeds: int, steps: int) -> str:
    """The cell's text: queries per step by phase, the per-seed spread and the tangent-first share.

    ``-`` when the target is outside the class at ``kappa``, and ``exit 3``
    or ``exit 4`` when a chain stops on a ClassViolationError or a UsageError.
    """
    phases.counts = dict.fromkeys(PHASES.values(), 0)
    total, per_seed, tangent = 0, [], 0
    for seed in range(seeds):
        try:
            oracle = oracle_for(lc, helpers, target, kappa)
        except (lc.ClassViolationError, lc.UsageError):
            return "-"
        try:
            result = lc.run_chain(oracle, np.zeros(oracle.dimension), steps, np.random.default_rng(seed))
        except (lc.ClassViolationError, lc.UsageError) as exc:
            return f"exit {EXIT_CODES[type(exc).__name__]}"
        queries = int(result.step_queries.sum())
        total += queries
        per_seed.append(queries / steps)
        paths = getattr(result, "step_paths", None)  # None where chains record no paths
        tangent = None if paths is None else tangent + int(np.count_nonzero(paths))
    bracket, search = phases.counts["bracket"], phases.counts["search"]
    n = seeds * steps
    share = "-" if tangent is None else f"{100.0 * tangent / n:.1f}%"
    return (f"{bracket / n:.2f} / {search / n:.2f} / {(total - bracket - search) / n:.2f} = {total / n:.2f} "
            f"[{min(per_seed):.2f}, {max(per_seed):.2f}] tangent {share}")


def table(root: Path, targets, kappas, seeds: int, steps: int) -> list[str]:
    """The markdown table's lines, one row per target and one column per kappa."""
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import helpers
    import lcsampler as lc
    import lcsampler.targets  # noqa: F401  (lc.targets)
    from lcsampler import hitandrun

    here = Path(lc.__file__).resolve()
    if root.resolve() / "src" not in here.parents:
        raise SystemExit(f"imported lcsampler from {here}, not from {root / 'src'}")
    phases = PhaseCounter(hitandrun)
    lines = ["| target | " + " | ".join(f"κ = {k:g}".replace("e+0", "e").replace("e+", "e")
                                        for k in kappas) + " |",
             "|---" * (len(kappas) + 1) + "|"]
    for target in targets:
        cells = [cell(lc, helpers, phases, target, kappa, seeds, steps) for kappa in kappas]
        lines.append(f"| {TARGETS[target]} | " + " | ".join(cells) + " |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and tests/helpers.py to use (default: this one)")
    parser.add_argument("--target", action="append", choices=list(TARGETS),
                        help="a row; repeat for more (default: all four)")
    parser.add_argument("--kappa", action="append", type=float,
                        help="a column; repeat for more (default: 1e6 and 1e12)")
    parser.add_argument("--seeds", type=int, default=4, help="chains per cell (default 4)")
    parser.add_argument("--steps", type=int, default=1500, help="steps per chain (default 1500)")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.steps < 1:
        parser.error("--seeds and --steps must be at least 1")
    kappas = args.kappa or [1e6, 1e12]
    for line in table(args.root, args.target or list(TARGETS), kappas, args.seeds, args.steps):
        print(line)
    print(f"{args.seeds} seeds x {args.steps} steps from the origin; [min, max] of the per-seed totals; "
          "share of steps that tried the tangent first")
    return 0


if __name__ == "__main__":
    sys.exit(main())
