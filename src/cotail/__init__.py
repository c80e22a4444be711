"""Nonparametric estimation of extreme CoVaR and CoES under tail dependence."""

from .core import (
    LossPairSample,
    MarginIndex,
    TailConfig,
    WarningRecord,
    build_margin_index,
    validate_tail_config,
)
from .covar_coes import (
    ESTIMATOR_NAMES,
    RECORD_KEYS,
    RiskEstimates,
    estimate_all,
    intermediate_coes,
    intermediate_covar,
)
from .data_io import (
    ReturnSeries,
    RollingPlan,
    RollingRow,
    diagnostics_export,
    load_pair_series,
    loss_pair,
    rolling_estimates,
)
from .empirical import (
    HillCurve,
    TailProbCurve,
    empirical_var,
    hill_curve,
    hill_estimate,
    tail_prob_curve,
)
from .harness import ExperimentPlan, MsreTable, msre, plan_from_record, run_experiment, run_grid
from .models import (
    ModelSpec,
    make_spec,
    marginal_quantiles,
    sample_model,
    student_t_cdf,
    true_tail_copula,
)
from .oracle import (
    OracleResult,
    eta_star,
    eta_true,
    joint_survival,
    oracle_result,
    true_coes,
    true_covar,
)
from .tail_copula import EtaEstimate, eta_hat, r_hat

__version__ = "0.1.0"

__all__ = [
    "ESTIMATOR_NAMES",
    "EtaEstimate",
    "ExperimentPlan",
    "HillCurve",
    "LossPairSample",
    "MarginIndex",
    "ModelSpec",
    "MsreTable",
    "OracleResult",
    "RECORD_KEYS",
    "ReturnSeries",
    "RiskEstimates",
    "RollingPlan",
    "RollingRow",
    "TailConfig",
    "TailProbCurve",
    "WarningRecord",
    "build_margin_index",
    "diagnostics_export",
    "empirical_var",
    "estimate_all",
    "eta_hat",
    "eta_star",
    "eta_true",
    "hill_curve",
    "hill_estimate",
    "intermediate_coes",
    "intermediate_covar",
    "joint_survival",
    "load_pair_series",
    "loss_pair",
    "make_spec",
    "marginal_quantiles",
    "msre",
    "oracle_result",
    "plan_from_record",
    "r_hat",
    "rolling_estimates",
    "run_experiment",
    "run_grid",
    "sample_model",
    "student_t_cdf",
    "tail_prob_curve",
    "true_coes",
    "true_covar",
    "true_tail_copula",
    "validate_tail_config",
]
