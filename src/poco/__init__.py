"""Predictive online convex optimization for parametric objectives.

The library plays the online game f_t(x) = f(x, theta_t) where the functional
form f is fixed and only the parameter theta_t moves.  It provides:

* constraint sets with exact and heuristic projections (:mod:`poco.domains`),
* parametric objective families with regularity constants (:mod:`poco.objectives`),
* one-step-ahead parameter predictors (:mod:`poco.predictors`),
* standard and predictive projected gradient descent (:mod:`poco.descent`),
* SMAD, an expert-learning loop over candidate parameter models (:mod:`poco.smad`),
* dynamic-regret accounting and empirical bound checks (:mod:`poco.regret`),
* scenario generators and market-data ingestion (:mod:`poco.scenarios`),
* the three Monte-Carlo studies and a CLI (:mod:`poco.experiments`, :mod:`poco.cli`).
"""

from poco.domains import EuclideanBall, UnitSimplex
from poco.objectives import (
    FunctionalTimeSeries,
    Markowitz,
    ObjectiveConstants,
    QuadraticTracking,
    contraction_factor,
)
from poco.predictors import NoisyOracle, Persistence, VarPredictor, fit_var_yule_walker
from poco.descent import DescentConfig, Trajectory, ogd_step, run_predictive_ogd
from poco.smad import ExpertPool, SmadTrajectory, run_smad
from poco.regret import (
    RegretLedger,
    build_ledger,
    dynamic_regret,
    expert_regret_bound,
    minimizer_oracle,
    path_length,
    predictive_regret_bound,
    suggested_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "EuclideanBall",
    "UnitSimplex",
    "ObjectiveConstants",
    "QuadraticTracking",
    "FunctionalTimeSeries",
    "Markowitz",
    "contraction_factor",
    "VarPredictor",
    "Persistence",
    "NoisyOracle",
    "fit_var_yule_walker",
    "DescentConfig",
    "Trajectory",
    "ogd_step",
    "run_predictive_ogd",
    "ExpertPool",
    "SmadTrajectory",
    "run_smad",
    "suggested_gamma",
    "RegretLedger",
    "build_ledger",
    "dynamic_regret",
    "path_length",
    "minimizer_oracle",
    "predictive_regret_bound",
    "expert_regret_bound",
    "__version__",
]
