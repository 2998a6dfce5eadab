"""Treatment-effect estimation engine for randomized experiments.

One interacted linear model per dataset; every query — average, conditional,
heterogeneous, or per-period effects, relative effects, and posterior arm
rankings — reduces to linear functionals of the fitted coefficients and
their covariance.
"""

from .config import ConfigError, QuerySpec, RunConfig, load_config, parse_config
from .data import Dataset, LabelColumn, add_period_covariate, load_csv
from .effects import EffectEstimate, ate, cate, dte, hte
from .model import (
    COVARIANCE_KINDS,
    BayesPrior,
    ColumnSchema,
    FittedModel,
    ModelSpec,
    as_flat_prior_posterior,
    build_design,
    build_schema,
    covariate_matrix,
    fit_bayes,
    fit_model,
    fit_ols,
)
from .mvnorm import OrthantResult, mvn_orthant
from .predicates import Clause, Predicate, parse_predicate, resolve_mask
from .ranking import ArmProbability, ProbEstimate, RankingResult, prob_best, prob_positive
from .relative import RatioEstimate, ratio_moments, relative_effect
from .report import build_report, render_report, write_report
from .vectors import (
    CovariateProfile,
    baseline_vector,
    delta_vector,
    moments,
    profile_from_subset,
)

__version__ = "0.1.0"

__all__ = [
    "ArmProbability",
    "BayesPrior",
    "COVARIANCE_KINDS",
    "Clause",
    "ColumnSchema",
    "ConfigError",
    "CovariateProfile",
    "Dataset",
    "EffectEstimate",
    "FittedModel",
    "LabelColumn",
    "ModelSpec",
    "OrthantResult",
    "Predicate",
    "ProbEstimate",
    "QuerySpec",
    "RankingResult",
    "RatioEstimate",
    "RunConfig",
    "add_period_covariate",
    "as_flat_prior_posterior",
    "ate",
    "baseline_vector",
    "build_design",
    "build_report",
    "build_schema",
    "cate",
    "covariate_matrix",
    "delta_vector",
    "dte",
    "fit_bayes",
    "fit_model",
    "fit_ols",
    "hte",
    "load_config",
    "load_csv",
    "moments",
    "mvn_orthant",
    "parse_config",
    "parse_predicate",
    "prob_best",
    "prob_positive",
    "profile_from_subset",
    "ratio_moments",
    "relative_effect",
    "render_report",
    "resolve_mask",
    "write_report",
    "__version__",
]
