"""Strict Jensen-Shannon measures for intuitionistic fuzzy sets.

Distance, similarity, and entropy measures on intuitionistic fuzzy
values/sets built from the Jensen-Shannon divergence, three rival measures
for comparison, a sampling-based axiom auditor, a max-similarity classifier,
and a golden-value scenario runner.
"""

from .audit import (
    AuditConfig,
    AxiomCheck,
    AxiomReport,
    audit_distance,
    audit_entropy,
    grid_points,
    sample_simplex,
    sample_strict_chain,
)
from .baselines import InvalidGammaError, dist_xiao, dist_yc, j_gamma, sim_xiao
from .core import (
    IFS,
    IFV,
    IfsimError,
    OutOfRangeError,
    SimplexViolationError,
    UniverseMismatchError,
    WeightLengthMismatchError,
    WeightVector,
    atanassov_strict_subset,
    atanassov_subset,
    complement,
    ifs_strict_subset,
    ifs_subset,
    indeterminacy,
    uniform_weights,
)
from .datasets import (
    BUILTIN_DATASET_NAMES,
    DatasetParseError,
    DatasetValidationError,
    builtin_dataset,
    dumps_dataset,
    load_dataset,
    parse_dataset,
    resolve_dataset,
    save_dataset,
)
from .measures import (
    InvalidLambdaError,
    NegativeInputError,
    NumericalConsistencyError,
    dist_wu,
    dist_wu_lambda,
    entropy_ifs,
    entropy_ifv,
    js_if,
    js_norm,
    l_divergence,
    shannon_interval_entropy,
    sim_wu,
    sim_wu_lambda,
    z_score,
    zeta,
)
from .recognition import ClassificationResult, PatternLibrary, classify
from .registry import (
    MEASURE_NAMES,
    InvalidMeasureParamsError,
    MeasureDescriptor,
    UnknownMeasureError,
    get_measure,
)
from .scenarios import (
    FAMILY_IDS,
    SCENARIO_IDS,
    CurveTable,
    ReproCheck,
    ReproReport,
    UnknownFamilyError,
    UnknownScenarioError,
    run_all_scenarios,
    run_scenario,
    sweep_curve,
)

__version__ = "0.1.0"

__all__ = [
    "AuditConfig", "AxiomCheck", "AxiomReport", "audit_distance", "audit_entropy",
    "grid_points", "sample_simplex", "sample_strict_chain",
    "InvalidGammaError", "dist_xiao", "dist_yc", "j_gamma", "sim_xiao",
    "IFS", "IFV", "IfsimError", "OutOfRangeError", "SimplexViolationError",
    "UniverseMismatchError", "WeightLengthMismatchError", "WeightVector",
    "atanassov_strict_subset", "atanassov_subset", "complement",
    "ifs_strict_subset", "ifs_subset", "indeterminacy", "uniform_weights",
    "BUILTIN_DATASET_NAMES", "DatasetParseError", "DatasetValidationError",
    "builtin_dataset", "dumps_dataset", "load_dataset", "parse_dataset",
    "resolve_dataset", "save_dataset",
    "InvalidLambdaError", "NegativeInputError", "NumericalConsistencyError",
    "dist_wu", "dist_wu_lambda", "entropy_ifs", "entropy_ifv", "js_if", "js_norm",
    "l_divergence", "shannon_interval_entropy", "sim_wu", "sim_wu_lambda",
    "z_score", "zeta",
    "ClassificationResult", "PatternLibrary", "classify",
    "MEASURE_NAMES", "InvalidMeasureParamsError", "MeasureDescriptor",
    "UnknownMeasureError", "get_measure",
    "FAMILY_IDS", "SCENARIO_IDS", "CurveTable", "ReproCheck", "ReproReport",
    "UnknownFamilyError", "UnknownScenarioError", "run_all_scenarios",
    "run_scenario", "sweep_curve",
    "__version__",
]
