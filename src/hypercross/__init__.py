"""Recovery of mixed derivatives from hyperbolic-cross point samples."""

from .bspline import bspline_derivative, refinement_coeffs
from .dyadic import DyadicEvaluator
from .functions import TestFunction, get_function, modulus_estimate, registry
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
from .interp import TensorPoly, interpolate, nodes
from .recovery import Approximant, Quadrature, lq_error, reconstruct, sample

__version__ = "0.1.0"

__all__ = [
    "Approximant",
    "DyadicEvaluator",
    "Quadrature",
    "RecoveryPlan",
    "SmoothnessParams",
    "TensorPoly",
    "TestFunction",
    "bspline_derivative",
    "build_plan",
    "choose_radius",
    "count_profile",
    "derive_params",
    "get_function",
    "index_set",
    "interpolate",
    "lq_error",
    "modulus_estimate",
    "nodes",
    "reconstruct",
    "refinement_coeffs",
    "registry",
    "sample",
    "tail_sum",
    "weighted_sum",
    "write_plan",
]
