"""The three benchmark workloads and their correctness gates.

Every workload is built from a seed alone, drives the library only through
its public functions, and runs its ops in fixed-size chunks so that the
runner can time each chunk.  ``run_chunk`` returns the number of ops in the
chunk that raised; ``query_total`` reads the program's own ``query_count``
counters, summed over every oracle the workload created after set-up.

The gates run outside the timed region.  Their significance levels are set
so that an exact sampler trips any gate of a run with probability of order
1e-5 or less, which keeps false alarms far below once per several dozen runs.
"""
from __future__ import annotations

import math
import sys
import traceback
from array import array
from typing import NamedTuple

import numpy as np

import lcsampler
from lcsampler import hardfamily, targets

# Per-target KS level for sample1d (four targets per run).
KS_ALPHA = 1e-6
# Two-sided z limit for each of the d coordinate means and the mean of
# |x|^2 in hitandrun10d; 11 tests at this level give about 1.3e-6 per run.
MOMENT_Z = 5.3
# Domination tolerance of acceptance criterion 2.
DOMINATION_TOL = -1e-12


def construction_budget(kappa: float) -> int:
    """Acceptance criterion 1's query budget for one envelope construction."""
    grid = math.ceil(0.5 * math.log2(kappa)) + 1
    return 2 * (math.ceil(math.log2(grid)) + 1) + 1


def normalized_mass(potential) -> float:
    """``int exp(-(V - V(0)))``: the mass the normalized oracle targets."""
    return potential.density_mass() * math.exp(potential.evaluate(0.0)[0])


# -- gates (pure functions, so tests can feed them wrong inputs) ----------


def ks_gate(name: str, draws, potential) -> list[str]:
    """KS test of ``draws`` against the potential's exact CDF."""
    from scipy import stats  # imported here so that set-up time excludes it

    result = stats.kstest(np.asarray(draws, dtype=float), potential.density_cdf)
    if result.pvalue < KS_ALPHA:
        return [
            f"KS {name}: D={result.statistic:.5f}, p={result.pvalue:.2e} < {KS_ALPHA:g} "
            f"(n={len(draws)})"
        ]
    return []


def domination_gap(potential, env) -> float:
    """Smallest ``q(x) - exp(-(V(x) - V(0)))`` over a grid around the plateau.

    The grid is that of criterion 2 plus a dense band of four plateau widths
    around the plateau, where narrow plateaus at large kappa live.
    """
    width = env.x_plus - env.x_minus
    grid = np.concatenate(
        [
            np.linspace(env.x_minus - 8.0, env.x_plus + 8.0, 10_000),
            np.linspace(env.x_minus - 4.0 * width, env.x_plus + 4.0 * width, 2_000),
        ]
    )
    v0 = potential.evaluate(0.0)[0]
    gap = env.value(grid) - np.exp(-(potential.evaluate(grid)[0] - v0))
    return float(gap.min())


def domination_gate(label: str, potential, env) -> list[str]:
    gap = domination_gap(potential, env)
    if not gap >= DOMINATION_TOL:
        return [f"domination {label}: min envelope - target gap {gap:.3e} < {DOMINATION_TOL:g}"]
    return []


def budget_gate(label: str, kappa: float, queries: int) -> list[str]:
    budget = construction_budget(kappa)
    if queries > budget:
        return [f"budget {label}: {queries} construction queries > {budget}"]
    return []


def chain_moments_gate(steps: int, sum_x, sum_sq: float, dimension: int) -> list[str]:
    """Mean and second-moment check of a Hit-and-Run chain on N(0, I_d).

    For the isotropic standard Gaussian an exact Hit-and-Run step gives
    ``E[f(x') | x] = (1 - 1/d) f(x) + const`` for f = x_i and f = |x|^2,
    so both statistics are AR(1) with integrated autocorrelation time
    ``tau = 2d - 1``; the standard error of a mean over n steps is
    ``sqrt(tau * var / n)`` with var = 1 for x_i and 2d for |x|^2.
    """
    if steps <= 0:
        return ["chain: no steps recorded"]
    tau = 2.0 * dimension - 1.0
    mean = np.asarray(sum_x, dtype=float) / steps
    z_mean = np.abs(mean) / math.sqrt(tau / steps)
    z_sq = (sum_sq / steps - dimension) / math.sqrt(tau * 2.0 * dimension / steps)
    failures = []
    if float(z_mean.max()) > MOMENT_Z:
        failures.append(
            f"chain mean: max |z| {float(z_mean.max()):.2f} > {MOMENT_Z} over {steps} steps"
        )
    if abs(z_sq) > MOMENT_Z:
        failures.append(f"chain second moment: z {z_sq:.2f} beyond {MOMENT_Z} over {steps} steps")
    return failures


# -- workloads ------------------------------------------------------------


class Workload:
    """Failure reporting shared by the workloads below."""

    name = ""
    _failure_printed = False

    def note_failure(self) -> None:
        """Print the first failed op's traceback to stderr (results go to stdout)."""
        if not self._failure_printed:
            self._failure_printed = True
            print(f"[{self.name}] op failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


class Case(NamedTuple):
    """One sample1d target: its oracle views, envelope and kept draws."""

    name: str
    potential: object
    oracle: object
    normalized: object
    env: object
    draws: array


class Sample1D(Workload):
    """Steady-state exact sampling from four prebuilt envelopes at kappa = 1e6.

    Draws rotate round-robin over a flat target with no breakpoints
    (``gaussian``), a skewed 7-breakpoint member and two sharply peaked
    members of the worst-case family, so both ``evaluate`` paths and
    acceptance rates from about 0.22 to 0.66 are exercised.
    """

    name = "sample1d"
    TARGETS = ("gaussian", "skewed", "hard:1", "hard:3")
    KAPPA = 1e6
    ROUNDS = 100  # a chunk draws ROUNDS times from each target
    WARMUP_ROUNDS = 50
    LEDGER_OPS = 60_000
    LEDGER_PHASES = ("oracles.normalize", "envelope.threshold_search")
    KS_CAP = 25_000  # draws kept per target for the KS gate

    def __init__(self, seed: int):
        offsets_seq, sample_seq = np.random.SeedSequence(seed).spawn(2)
        offsets = np.random.default_rng(offsets_seq).uniform(-3.0, 3.0, len(self.TARGETS))
        self.rng = np.random.default_rng(sample_seq)
        self.chunk_ops = self.ROUNDS * len(self.TARGETS)
        self.cases = []
        for name, offset in zip(self.TARGETS, offsets):
            potential, oracle = targets.resolve_target(name, self.KAPPA, float(offset))
            normalized, env = lcsampler.prepare_envelope(oracle)
            self.cases.append(Case(name, potential, oracle, normalized, env, array("d")))
        for _ in range(self.WARMUP_ROUNDS):
            for case in self.cases:
                lcsampler.sample_exact(case.normalized, case.env, self.rng)
        self._query_base = self._raw_queries()

    def _raw_queries(self) -> int:
        return sum(case.oracle.query_count for case in self.cases)

    def query_total(self) -> int:
        return self._raw_queries() - self._query_base

    def op(self, case: Case) -> float:
        return lcsampler.sample_exact(case.normalized, case.env, self.rng).result

    def run_chunk(self) -> int:
        failed = 0
        op, cases, cap = self.op, self.cases, self.KS_CAP
        for _ in range(self.ROUNDS):
            for case in cases:
                try:
                    x = op(case)
                except Exception:
                    failed += 1
                    self.note_failure()
                    continue
                if len(case.draws) < cap:
                    case.draws.append(x)
        return failed

    def gate(self) -> list[str]:
        failures = []
        for case in self.cases:
            if not case.draws:
                failures.append(f"KS {case.name}: no draws")
                continue
            failures += ks_gate(case.name, case.draws, case.potential)
        return failures

    def envelope_rhos(self, tracer) -> list[float]:
        return [normalized_mass(c.potential) / c.env.mass_total for c in self.cases]


class Build1D(Workload):
    """The kappa x target sweep of the identification experiment.

    One op resolves a target with a seeded hidden offset, builds its envelope
    and draws once, so construction dominates and the paper's
    O(log log kappa) query bill is most of the cost.
    """

    name = "build1d"
    KAPPAS = (1e3, 1e6, 1e9, 1e12)
    LEDGER_SWEEPS = 60
    LEDGER_PHASES = ("oracles.normalize", "envelope.threshold_search")

    def __init__(self, seed: int):
        self.cells = [
            (kappa, name)
            for kappa in self.KAPPAS
            for name in (
                "gaussian",
                "skewed",
                *(f"hard:{i}" for i in range(1, hardfamily.largest_m(kappa) + 1)),
            )
        ]
        self.chunk_ops = len(self.cells)
        self.LEDGER_OPS = self.LEDGER_SWEEPS * self.chunk_ops
        offsets_seq, sample_seq = np.random.SeedSequence(seed).spawn(2)
        self.offset_rng = np.random.default_rng(offsets_seq)
        self.rng = np.random.default_rng(sample_seq)
        self.queries = 0
        # per cell: the potential, the distinct envelopes built, the most
        # construction queries seen
        self.potentials = [None] * len(self.cells)
        self.envelopes = [set() for _ in self.cells]
        self.construction = [0] * len(self.cells)
        self.run_chunk()
        self.queries = 0

    def query_total(self) -> int:
        return self.queries

    def op(self, index: int, offset: float) -> float:
        kappa, name = self.cells[index]
        potential, oracle = targets.resolve_target(name, kappa, offset)
        try:
            normalized, env = lcsampler.prepare_envelope(oracle)
            built = oracle.query_count
            x = lcsampler.sample_exact(normalized, env, self.rng).result
        finally:
            self.queries += oracle.query_count
        if self.potentials[index] is None:
            self.potentials[index] = potential
        self.envelopes[index].add(env)
        if built > self.construction[index]:
            self.construction[index] = built
        return x

    def run_chunk(self) -> int:
        offsets = self.offset_rng.uniform(-3.0, 3.0, self.chunk_ops).tolist()
        failed = 0
        op = self.op
        for index, offset in enumerate(offsets):
            try:
                op(index, offset)
            except Exception:
                failed += 1
                self.note_failure()
        return failed

    def gate(self) -> list[str]:
        failures = []
        for index, (kappa, name) in enumerate(self.cells):
            label = f"{name} at kappa={kappa:g}"
            if self.potentials[index] is None:
                failures.append(f"{label}: no envelope built")
                continue
            failures += budget_gate(label, kappa, self.construction[index])
            for env in self.envelopes[index]:
                failures += domination_gate(label, self.potentials[index], env)
        return failures

    def envelope_rhos(self, tracer) -> list[float]:
        return [
            normalized_mass(potential) / env.mass_total
            for potential, envs in zip(self.potentials, self.envelopes)
            if potential is not None
            for env in envs
        ]


class HitAndRun10D(Workload):
    """A Hit-and-Run chain on the isotropic quadratic, d = 10, kappa = 1e6.

    One op is one chain step.  The chain starts at the origin, is burnt in
    during set-up and continues across chunks, so every timed step is a
    stationary step.  The bracket, line envelope and line rejection carry
    all the work; the 1D construction path is unused.
    """

    name = "hitandrun10d"
    DIMENSION = 10
    KAPPA = 1e6
    CHUNK_STEPS = 100
    BURN_IN = 150
    LEDGER_OPS = 6_000
    LEDGER_PHASES = ("hitandrun.bracket", "hitandrun.line_envelope")

    def __init__(self, seed: int):
        self.oracle = targets.resolve_multivariate_target("gaussian", self.KAPPA, self.DIMENSION)
        self.diagonal = np.ones(self.DIMENSION)  # the curvatures of that target
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.chunk_ops = self.CHUNK_STEPS
        chain = lcsampler.run_chain(self.oracle, np.zeros(self.DIMENSION), self.BURN_IN, self.rng)
        self.position = chain.positions[-1]
        self._query_base = self.oracle.query_count
        self.steps = 0
        self.sum_x = np.zeros(self.DIMENSION)
        self.sum_sq = 0.0

    def query_total(self) -> int:
        return self.oracle.query_count - self._query_base

    def run_chunk(self) -> int:
        try:
            chain = lcsampler.run_chain(self.oracle, self.position, self.CHUNK_STEPS, self.rng)
        except Exception:
            self.note_failure()
            return self.CHUNK_STEPS
        visited = chain.positions[1:]
        self.position = chain.positions[-1]
        self.steps += len(visited)
        self.sum_x += visited.sum(axis=0)
        self.sum_sq += float(np.einsum("ij,ij->", visited, visited))
        return 0

    def gate(self) -> list[str]:
        return chain_moments_gate(self.steps, self.sum_x, self.sum_sq, self.DIMENSION)

    def envelope_rhos(self, tracer) -> list[float]:
        """Analytic acceptance of each traced line envelope.

        The relabeled line potential is ``W(l) = V(b + l u) - s`` with V the
        diagonal quadratic, so ``int exp(-W)`` is a Gaussian integral.
        """
        rhos = []
        diag = self.diagonal
        for _, (env, line) in tracer.results["hitandrun.line_envelope"]:
            b = line.point(0.0)
            u = line.point(1.0) - b
            a2 = float(u @ (diag * u))
            a1 = float(u @ (diag * b))
            a0 = 0.5 * float(b @ (diag * b)) - line.shift
            mass = math.sqrt(2.0 * math.pi / a2) * math.exp(a1 * a1 / (2.0 * a2) - a0)
            rhos.append(mass / env.mass_total)
        return rhos


WORKLOADS = {cls.name: cls for cls in (Sample1D, Build1D, HitAndRun10D)}
