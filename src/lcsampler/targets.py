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


def skewed_potential(kappa: float) -> PiecewiseQuadraticPotential:
    """Asymmetric class member with alternating unit / kappa curvature bands.

    The right-hand bands start at x = 1 and the left-hand bands at x =
    -0.75, each of width 1/sqrt(kappa), so the density is genuinely skewed
    while staying inside the curvature sandwich.  A kappa whose bands round
    onto their edges in double precision (from about 2.9e31) is a UsageError.
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
    if len(set(breakpoints)) < len(breakpoints):
        raise UsageError(
            f"skewed target cannot resolve its 1/sqrt(kappa) bands at kappa {kappa:g}: "
            "they round onto their edges"
        )
    curvatures = [kappa, 1.0, kappa, 1.0, kappa, 1.0, kappa, 1.0]
    return PiecewiseQuadraticPotential(breakpoints, curvatures)


def builtin_potential(name: str, kappa: float) -> PiecewiseQuadraticPotential:
    if name == "gaussian":
        return PiecewiseQuadraticPotential.gaussian()
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


# a JSON number reads as int or float, never bool, though Python counts a bool an int;
# an integer may be written as an integral float such as 10.0
_KINDS = {
    "a number": lambda v: type(v) in (int, float),
    "an integer": lambda v: type(v) is int or type(v) is float and v.is_integer(),
    "a list of numbers": lambda v: type(v) is list and all(type(x) in (int, float) for x in v),
}


def _field(doc: dict, name: str, kind: str, *default):
    """The document's field ``name``, or ``default`` when given and the field is absent.

    A value that is not ``kind`` (a key of ``_KINDS``) is a UsageError naming
    the field: a string is not read as a list, nor a bool as a number.
    """
    if default and name not in doc:
        return default[0]
    value = doc[name]
    if not _KINDS[kind](value):
        raise UsageError(f"a target document's {name!r} must be {kind}, got {value!r}")
    return value


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


def _declared_kappa(doc: dict, kappa: float | None, default: float | None = 1.0) -> float | None:
    """``kappa`` when given, else the document's ``beta``, else ``default``.

    UsageError unless the document's ``alpha`` is 1 and its ``beta``, if any,
    a number.
    """
    alpha = float(_field(doc, "alpha", "a number", 1.0))
    if alpha != 1.0:
        raise UsageError(f"a target document's alpha must be 1, got {alpha:g}")
    beta = _field(doc, "beta", "a number", None)
    if kappa is not None:
        return float(kappa)
    return default if beta is None else float(beta)


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
            potential = PiecewiseQuadraticPotential(
                _field(doc, "breakpoints", "a list of numbers", []),
                _field(doc, "curvatures", "a list of numbers"),
            )
        else:
            raise UsageError(f"unknown potential type {kind!r}")
        check_class_member(potential, beta)
        offset = float(_field(doc, "offset", "a number", 0.0))
        oracle = PotentialOracle(potential, beta=beta, hidden_offset=offset)
    return potential, oracle


def resolve_multivariate_target(
    spec: str, kappa: float | None, dimension: int | None = None
) -> MultivariateOracle:
    """Builtin 'gaussian' (isotropic quadratic) or a JSON document.

    The builtin is declared like the 1D builtins.  A ``gaussian`` document
    follows the 1D rule for alpha, beta and kappa.  A ``diagonal`` document
    takes kappa from ``kappa``, else its ``beta``, else its largest
    curvature; a kappa below that curvature is a ClassViolationError.
    Either document's alpha must be 1.  ``dimension`` (10 when None) sizes
    the builtin and replaces a ``gaussian`` document's ``dimension``; a
    ``diagonal`` document's dimension is its curvature count, so giving one
    is a UsageError.
    """
    if spec == "gaussian":
        beta = 1.0 if kappa is None else kappa
        dimension = 10 if dimension is None else int(dimension)
    else:
        with _document_fields():
            doc = _read_document(spec)
            kind = doc.get("type")
            if kind == "diagonal":
                if dimension is not None:
                    raise UsageError("a diagonal document's dimension is its curvature count")
                curvatures = np.asarray(_field(doc, "curvatures", "a list of numbers"), dtype=float)
                return quadratic_oracle(curvatures, _declared_kappa(doc, kappa, default=None))
            if kind != "gaussian":
                raise UsageError(f"unsupported multivariate target type {kind!r}")
            beta = _declared_kappa(doc, kappa)
            dimension = int(_field(doc, "dimension", "an integer", 10) if dimension is None else dimension)
    if dimension < 1:
        raise UsageError(f"dimension must be positive, got {dimension}")
    try:
        curvatures = np.ones(dimension)
    except (MemoryError, ValueError, OverflowError) as exc:
        raise UsageError(f"dimension {dimension} is too large: {exc}") from exc
    return quadratic_oracle(curvatures, kappa=beta)
