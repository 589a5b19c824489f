"""Constructive superposition decomposition of multivariate functions
and its realization as deep ReLU networks, with exact-rational grid
arithmetic at desk scale."""

from .params import KstParams, LambdaCoeffs, beta, lambda_coeffs, make_params
from .inner import InnerEvaluator
from .bumps import b_k, disjoint_support_audit
from .target import TargetFunction, builtin_target, expression_target, parse
from .decompose import (
    DecompositionCaps,
    DecompositionState,
    choose_k_r,
    init_state,
    iterate,
    lipschitz_report,
    state_from_json_dict,
)
from .relunet import ReluNetwork, UnivariateNet, assemble_kst, build_univariate
from .pipeline import (
    PipelineCaps,
    PipelineReport,
    assemble_from_state,
    epsilon_split,
    r_of_epsilon,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "DecompositionCaps",
    "DecompositionState",
    "InnerEvaluator",
    "KstParams",
    "LambdaCoeffs",
    "PipelineCaps",
    "PipelineReport",
    "ReluNetwork",
    "TargetFunction",
    "UnivariateNet",
    "assemble_from_state",
    "assemble_kst",
    "b_k",
    "beta",
    "build_univariate",
    "builtin_target",
    "choose_k_r",
    "disjoint_support_audit",
    "epsilon_split",
    "expression_target",
    "init_state",
    "iterate",
    "lambda_coeffs",
    "lipschitz_report",
    "make_params",
    "parse",
    "r_of_epsilon",
    "run_pipeline",
    "state_from_json_dict",
]
