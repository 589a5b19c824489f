"""Constructive superposition decomposition of multivariate functions
and its realization as deep ReLU networks, with exact-rational grid
arithmetic at desk scale."""

from .params import KstParams, LambdaCoeffs, beta, lambda_coeffs, make_params
from .inner import BaseGammaPoint, InnerEvaluator
from .bumps import b_k, disjoint_support_audit
from .target import (
    TargetFunction,
    builtin_target,
    eval_expr,
    expression_target,
    modulus_estimate,
    parse,
)
from .decompose import (
    DecompositionCaps,
    DecompositionState,
    choose_k_r,
    evaluate_f_r,
    init_state,
    iterate,
    lipschitz_report,
    state_from_json_dict,
    state_to_json_dict,
)
from .relunet import ReluNetwork, UnivariateNet, assemble_kst, build_univariate
from .pipeline import (
    PipelineCaps,
    PipelineReport,
    assemble_from_state,
    epsilon_split,
    r_of_epsilon,
    run_pipeline,
    size_bound_report,
)

__version__ = "0.1.0"

__all__ = [
    "BaseGammaPoint",
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
    "eval_expr",
    "evaluate_f_r",
    "expression_target",
    "init_state",
    "iterate",
    "lambda_coeffs",
    "lipschitz_report",
    "make_params",
    "modulus_estimate",
    "parse",
    "r_of_epsilon",
    "run_pipeline",
    "size_bound_report",
    "state_from_json_dict",
    "state_to_json_dict",
]
