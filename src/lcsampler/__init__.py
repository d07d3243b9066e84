"""Few-query rejection sampling for strongly log-concave targets.

The library builds a dominating proposal for a univariate target known only
through a counting oracle, draws exact or TV-capped samples against it,
materializes the dyadic-block family on which any sampler must spend
queries to localize the target, and lifts the exact 1D step into a
Hit-and-Run chain for multivariate targets.
"""

from .envelope import (
    Envelope,
    build_envelope,
    find_threshold_index,
    prepare_envelope,
    threshold_searches,
)
from .errors import ClassViolationError, UsageError
from .hardfamily import (
    HardFamily,
    build_member,
    distinct_response_count,
    identify,
    largest_m,
    member_mass_in_window,
    run_identification_experiment,
)
from .hitandrun import (
    ChainResult,
    LineOracle,
    MultivariateOracle,
    Probe,
    bracket_minimizer,
    build_line_envelope,
    quadratic_oracle,
    restrict,
    run_chain,
    step,
)
from .numerics import gaussian_tail_integral
from .oracles import (
    OracleResponse,
    PiecewiseQuadraticPotential,
    PotentialOracle,
    normalize_at_zero,
)
from .rejection import (
    FAILURE,
    SampleOutcome,
    acceptance_probability,
    capped_trials,
    sample_exact,
)

__version__ = "0.1.0"

__all__ = [
    "ChainResult",
    "ClassViolationError",
    "Envelope",
    "FAILURE",
    "HardFamily",
    "LineOracle",
    "MultivariateOracle",
    "OracleResponse",
    "PiecewiseQuadraticPotential",
    "PotentialOracle",
    "Probe",
    "SampleOutcome",
    "UsageError",
    "acceptance_probability",
    "bracket_minimizer",
    "build_envelope",
    "build_line_envelope",
    "build_member",
    "capped_trials",
    "distinct_response_count",
    "find_threshold_index",
    "gaussian_tail_integral",
    "identify",
    "largest_m",
    "member_mass_in_window",
    "normalize_at_zero",
    "prepare_envelope",
    "quadratic_oracle",
    "restrict",
    "run_chain",
    "run_identification_experiment",
    "sample_exact",
    "step",
    "threshold_searches",
]
