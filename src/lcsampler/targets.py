"""Builtin targets for benchmarks, demos, and the command line.

Three families, chosen to cover both extremes of the class:

* ``gaussian`` - the pure quadratic ``V(x) = x^2/2`` (flattest member; its
  envelope threshold sits at the top of the dyadic search grid).
* ``skewed`` - an asymmetric piecewise quadratic whose curvature alternates
  between 1 and kappa in narrow bands at distinct distances on each side of
  the mode.
* ``hard:i`` - member i of the dyadic-block worst-case family (sharply
  peaked; thresholds sit at small, kappa-independent indices).
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from . import hardfamily
from .errors import UsageError
from .hitandrun import MultivariateOracle, quadratic_oracle
from .oracles import PiecewiseQuadraticPotential, PotentialOracle, check_class_member

BUILTIN_NAMES = ("gaussian", "skewed")


def gaussian_potential() -> PiecewiseQuadraticPotential:
    return PiecewiseQuadraticPotential.gaussian(1.0)


def skewed_potential(kappa: float) -> PiecewiseQuadraticPotential:
    """Asymmetric class member with alternating unit / kappa curvature bands.

    The right-hand bands start at x = 1 and the left-hand bands at x =
    -0.75, each of width 1/sqrt(kappa), so the density is genuinely skewed
    while staying inside the curvature sandwich.
    """
    if not 1.0 <= kappa < math.inf:
        raise UsageError(f"skewed target needs a finite kappa >= 1, got {kappa}")
    w = 1.0 / math.sqrt(kappa)
    right_edge, left_edge = 1.0, -0.75
    breakpoints = [
        left_edge - 2 * w,
        left_edge - w,
        left_edge,
        right_edge,
        right_edge + w,
        right_edge + 2 * w,
        right_edge + 3 * w,
    ]
    curvatures = [kappa, 1.0, kappa, 1.0, kappa, 1.0, kappa, 1.0]
    return PiecewiseQuadraticPotential(breakpoints, curvatures)


def builtin_potential(name: str, kappa: float) -> PiecewiseQuadraticPotential:
    if name == "gaussian":
        return gaussian_potential()
    if name == "skewed":
        return skewed_potential(kappa)
    if name.startswith("hard:"):
        try:
            index = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad hard-family target {name!r}") from exc
        return hardfamily.build_member(kappa, index)
    raise UsageError(
        f"unknown builtin target {name!r}; expected one of {BUILTIN_NAMES} or 'hard:i'"
    )


@contextmanager
def _document_fields():
    """Report a missing, mistyped or out-of-range field of a target document as a UsageError."""
    try:
        yield
    except UsageError:
        raise
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise UsageError(f"bad target document: {exc!r}") from exc


def _read_document(spec: str) -> dict:
    """Parse a target document given inline (starting with '{') or as a file path."""
    text = spec
    if not text.lstrip().startswith("{"):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise UsageError("a target document must be a JSON object")
    return doc


def _declared_kappa(doc: dict, kappa: float | None) -> float:
    """A document's ``beta``, or ``kappa`` when given; UsageError unless its ``alpha`` is 1."""
    alpha = float(doc.get("alpha", 1.0))
    if alpha != 1.0:
        raise UsageError(f"a target document's alpha must be 1, got {alpha:g}")
    return float(doc.get("beta", 1.0)) if kappa is None else float(kappa)


def resolve_target(
    spec: str,
    kappa: float | None,
    hidden_offset: float = 0.0,
) -> tuple[PiecewiseQuadraticPotential, PotentialOracle]:
    """Map a target name or JSON document/path to (potential, oracle).

    Builtin names are declared with kappa (1 when kappa is None).  A JSON
    document ``{"type": "gaussian"|"piecewise", "alpha", "beta",
    "breakpoints", "curvatures", "offset"}`` declares its own beta and
    hidden offset; a kappa that is not None replaces its beta, and its alpha
    must be 1 (UsageError otherwise).  Its curvatures must lie in [1, beta],
    or ClassViolationError is raised.
    """
    if spec in BUILTIN_NAMES or spec.startswith("hard:"):
        kappa = 1.0 if kappa is None else kappa
        potential = builtin_potential(spec, kappa)
        oracle = PotentialOracle(potential, beta=kappa, hidden_offset=hidden_offset)
        return potential, oracle
    with _document_fields():
        doc = _read_document(spec)
        beta = _declared_kappa(doc, kappa)
        kind = doc.get("type")
        if kind == "gaussian":
            potential = PiecewiseQuadraticPotential.gaussian()
        elif kind == "piecewise":
            potential = PiecewiseQuadraticPotential(doc.get("breakpoints", []), doc["curvatures"])
        else:
            raise UsageError(f"unknown potential type {kind!r}")
        check_class_member(potential, beta)
        oracle = PotentialOracle(potential, beta=beta, hidden_offset=float(doc.get("offset", 0.0)))
    return potential, oracle


def resolve_multivariate_target(
    spec: str, kappa: float | None, dimension: int = 10
) -> MultivariateOracle:
    """Builtin 'gaussian' (isotropic quadratic) or a JSON document.

    The builtin is declared like the 1D builtins.  A ``gaussian`` document
    (optional ``dimension``) follows the 1D rule for alpha, beta and kappa;
    a ``diagonal`` document takes its largest curvature as kappa.  Either
    document's alpha must be 1.
    """
    if spec == "gaussian":
        beta = 1.0 if kappa is None else kappa
        dimension = int(dimension)
    else:
        with _document_fields():
            doc = _read_document(spec)
            beta = _declared_kappa(doc, kappa)  # also rejects alpha != 1 for a diagonal
            if doc.get("type") == "diagonal":
                return quadratic_oracle(np.asarray(doc["curvatures"], dtype=float))
            if doc.get("type") != "gaussian":
                raise UsageError(f"unsupported multivariate target type {doc.get('type')!r}")
            dimension = int(doc.get("dimension", dimension))
    if dimension < 1:
        raise UsageError(f"dimension must be positive, got {dimension}")
    try:
        curvatures = np.ones(dimension)
    except (MemoryError, ValueError, OverflowError) as exc:
        raise UsageError(f"dimension {dimension} is too large: {exc}") from exc
    return quadratic_oracle(curvatures, kappa=beta)
