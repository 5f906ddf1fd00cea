"""Proximal causal inference with sieve moments and data-driven selection.

Estimates average treatment effects under unmeasured confounding using two
imperfect proxies: an outcome-side proxy supporting a confounding bridge
function and a treatment-side proxy supplying instruments. The main
estimator fits the bridge and the effect jointly by spectrally regularized
GMM over a sieve of instrument moments whose size is chosen by a
finite-sample mean-squared-error criterion; reference estimators (naive
regression, exactly identified proxy GMM, 2SLS, inverse weighting, doubly
robust) and a Monte Carlo harness round out the toolkit.
"""

from .baselines import (
    EstimateReport,
    naive_gformula,
    p2sls,
    pdr,
    pipw,
    plugin,
    rgmm,
)
from .bridges import DgpCoefficients, OutcomeBridge, TreatmentBridge, true_bridge_params
from .data import Dataset, VariableRoles, load_csv, transform_column, write_csv
from .errors import ProxiGmmError
from .gmm import (
    GmmFit,
    MomentDecomposition,
    confidence_interval,
    estimate_upsilon,
    fit_initial,
    fit_optimal,
    fit_with_weight,
    joint_score,
    regularize_moments,
    variance,
    wald_test,
)
from .selection import (
    SelectionDiagnostics,
    coefficientwise_components,
    select_and_fit,
    select_k,
    sgmm_components,
    sgmm_score,
)
from .sieve import (
    BasisMatrix,
    SieveSpec,
    build_basis,
    evaluate_basis,
    fit_sieve,
    orthonormalize,
)
from .simulation import (
    ReplicationSummary,
    ScenarioConfig,
    generate,
    k_histogram,
    run_bspline_study,
    run_misspec_study,
    run_replications,
    run_study,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "BasisMatrix",
    "Dataset",
    "DgpCoefficients",
    "EstimateReport",
    "GmmFit",
    "MomentDecomposition",
    "OutcomeBridge",
    "ProxiGmmError",
    "ReplicationSummary",
    "ScenarioConfig",
    "SelectionDiagnostics",
    "SieveSpec",
    "TreatmentBridge",
    "VariableRoles",
    "build_basis",
    "coefficientwise_components",
    "confidence_interval",
    "estimate_upsilon",
    "evaluate_basis",
    "fit_initial",
    "fit_optimal",
    "fit_sieve",
    "fit_with_weight",
    "generate",
    "joint_score",
    "k_histogram",
    "load_csv",
    "naive_gformula",
    "orthonormalize",
    "p2sls",
    "pdr",
    "pipw",
    "plugin",
    "regularize_moments",
    "rgmm",
    "run_bspline_study",
    "run_misspec_study",
    "run_replications",
    "run_study",
    "select_and_fit",
    "select_k",
    "sgmm_components",
    "sgmm_score",
    "summarize",
    "transform_column",
    "true_bridge_params",
    "variance",
    "wald_test",
    "write_csv",
]
