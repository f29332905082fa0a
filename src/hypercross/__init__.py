"""Recovery of mixed derivatives from hyperbolic-cross point samples."""

from .bspline import (
    SplineTranslate,
    active_translates,
    bspline_derivative,
    bspline_eval,
    covering_translates,
    refinement_coeffs,
    translate_deriv,
)
from .dyadic import DyadicEvaluator
from .functions import MixedDifference, TestFunction, get_function, mixed_difference, modulus_estimate, registry
from .grid import (
    RecoveryPlan,
    SmoothnessParams,
    build_plan,
    choose_radius,
    count_profile,
    derive_params,
    index_set,
    tail_sum,
    weighted_sum,
    write_plan,
)
from .interp import TensorPoly, lagrange_basis_eval, nodes, tensor_interpolate
from .recovery import Approximant, Quadrature, SampleSet, lq_error, reconstruct, sample

__version__ = "0.1.0"

__all__ = [
    "Approximant",
    "DyadicEvaluator",
    "MixedDifference",
    "Quadrature",
    "RecoveryPlan",
    "SampleSet",
    "SmoothnessParams",
    "SplineTranslate",
    "TensorPoly",
    "TestFunction",
    "active_translates",
    "bspline_derivative",
    "bspline_eval",
    "build_plan",
    "choose_radius",
    "count_profile",
    "covering_translates",
    "derive_params",
    "get_function",
    "index_set",
    "lagrange_basis_eval",
    "lq_error",
    "mixed_difference",
    "modulus_estimate",
    "nodes",
    "reconstruct",
    "refinement_coeffs",
    "registry",
    "sample",
    "tail_sum",
    "tensor_interpolate",
    "translate_deriv",
    "weighted_sum",
    "write_plan",
]
