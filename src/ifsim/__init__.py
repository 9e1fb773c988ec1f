"""Strict Jensen-Shannon measures for intuitionistic fuzzy sets.

Distance, similarity, and entropy measures on intuitionistic fuzzy
values/sets built from the Jensen-Shannon divergence, three rival measures
for comparison, a sampling-based axiom auditor, a max-similarity classifier,
and a golden-value scenario runner.

`import ifsim` loads the value layer: core, measures, baselines, registry
and datasets.  The auditor (audit), the classifier (recognition) and the
scenario runner (scenarios) load on first use (PEP 562): the first access
to one of their public names, or to the submodule itself, imports it and
binds the name here, so later accesses are plain attribute reads.  A CLI
run imports only what its command runs, which matters when bytecode
caching is off and every imported module is compiled from source.
"""

import importlib

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
    js_norm,
    l_divergence,
    sim_wu,
    sim_wu_lambda,
    z_score,
    zeta,
)
from .registry import (
    MEASURE_NAMES,
    InvalidMeasureParamsError,
    MeasureDescriptor,
    UnknownMeasureError,
    get_measure,
)

__version__ = "0.1.0"

__all__ = [
    "AuditConfig", "AxiomCheck", "AxiomReport", "audit_distance", "audit_entropy",
    "grid_points",
    "InvalidGammaError", "dist_xiao", "dist_yc", "j_gamma", "sim_xiao",
    "IFS", "IFV", "IfsimError", "OutOfRangeError", "SimplexViolationError",
    "UniverseMismatchError", "WeightLengthMismatchError", "WeightVector",
    "atanassov_strict_subset", "atanassov_subset", "complement",
    "ifs_strict_subset", "ifs_subset", "indeterminacy", "uniform_weights",
    "BUILTIN_DATASET_NAMES", "DatasetParseError", "DatasetValidationError",
    "builtin_dataset", "dumps_dataset", "load_dataset", "parse_dataset",
    "resolve_dataset", "save_dataset",
    "InvalidLambdaError", "NegativeInputError", "NumericalConsistencyError",
    "dist_wu", "dist_wu_lambda", "entropy_ifs", "entropy_ifv", "js_norm",
    "l_divergence", "sim_wu", "sim_wu_lambda", "z_score", "zeta",
    "ClassificationResult", "PatternLibrary", "classify",
    "MEASURE_NAMES", "InvalidMeasureParamsError", "MeasureDescriptor",
    "UnknownMeasureError", "get_measure",
    "FAMILY_IDS", "SCENARIO_IDS", "CurveTable", "ReproCheck", "ReproReport",
    "UnknownFamilyError", "UnknownScenarioError", "run_all_scenarios",
    "run_scenario", "sweep_curve",
    "__version__",
]

# submodule -> its public names, loaded and bound here on first access
_LAZY_MODULES = {
    "audit": ("AuditConfig", "AxiomCheck", "AxiomReport", "audit_distance", "audit_entropy",
              "grid_points"),
    "recognition": ("ClassificationResult", "PatternLibrary", "classify"),
    "scenarios": ("FAMILY_IDS", "SCENARIO_IDS", "CurveTable", "ReproCheck", "ReproReport",
                  "UnknownFamilyError", "UnknownScenarioError", "run_all_scenarios",
                  "run_scenario", "sweep_curve"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in (module, *names)}


def __getattr__(name: str):
    try:
        home = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
