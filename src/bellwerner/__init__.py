"""Bounds and detectability analysis for two-setting, two-outcome Bell expressions.

The package computes exact classical (local-hidden-variable) bounds by
exhaustive strategy enumeration, analytic and numeric quantum bounds for
single-qubit observables, Werner-state separability and violation
thresholds, and sampled minima of the block-ratio gamma used to certify
undetectable visibility windows.
"""

from .errors import CapExceeded, ParseError
from .expressions import (
    ABSENT,
    BellExpression,
    block,
    block_sizes,
    builtin,
    canonical_patterns,
    is_homogeneous,
    new_expression,
)
from .classical import (
    ClassicalBoundResult,
    DeterministicStrategy,
    closed_form_classical,
    lhv_bound,
)
from .quantum import (
    ObservableAssignment,
    QubitObservable,
    SeesawResult,
    analytic_quantum_upper,
    bell_operator,
    composite_ratio_upper,
    seesaw_lower,
)
from .werner import (
    Detection,
    GhzFamily,
    MeasureConditionVerdict,
    MonteCarloEstimate,
    PureFamily,
    ThetaRange,
    detect_visibility,
    exact_pair_fraction,
    ghz_amplitudes,
    ghz_separability_threshold,
    max_pair_product,
    measure_lower_bound,
    measure_monte_carlo,
    necessary_check_first_failure,
    separability_upper_bound,
    undetectable_measure_condition,
    undetectable_range_general,
    undetectable_range_homogeneous,
    visibility_lower_bound,
)
from .gamma import (
    GammaIndexEstimate,
    GammaScanConfig,
    GammaScanResult,
    gamma_scan,
)

__version__ = "0.1.0"

__all__ = [
    "ABSENT",
    "BellExpression",
    "CapExceeded",
    "ClassicalBoundResult",
    "DeterministicStrategy",
    "Detection",
    "GammaIndexEstimate",
    "GammaScanConfig",
    "GammaScanResult",
    "GhzFamily",
    "MeasureConditionVerdict",
    "MonteCarloEstimate",
    "ObservableAssignment",
    "ParseError",
    "PureFamily",
    "QubitObservable",
    "SeesawResult",
    "ThetaRange",
    "analytic_quantum_upper",
    "bell_operator",
    "block",
    "block_sizes",
    "builtin",
    "canonical_patterns",
    "closed_form_classical",
    "composite_ratio_upper",
    "detect_visibility",
    "exact_pair_fraction",
    "gamma_scan",
    "ghz_amplitudes",
    "ghz_separability_threshold",
    "is_homogeneous",
    "lhv_bound",
    "max_pair_product",
    "measure_lower_bound",
    "measure_monte_carlo",
    "necessary_check_first_failure",
    "new_expression",
    "seesaw_lower",
    "separability_upper_bound",
    "undetectable_measure_condition",
    "undetectable_range_general",
    "undetectable_range_homogeneous",
    "visibility_lower_bound",
]
