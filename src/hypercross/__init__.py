"""Recovery of mixed derivatives from hyperbolic-cross point samples.

The namespace is lazy (PEP 562): ``import hypercross`` loads no submodule.
A public name is imported from its home module on first access and then
cached here; a submodule (``hypercross.grid``) is imported when first named.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule the namespace serves, with the public names it is home to.
_HOME = {
    "bspline": ("bspline_derivative", "refinement_coeffs"),
    "dyadic": ("DyadicEvaluator",),
    "functions": ("TestFunction", "get_function", "modulus_estimate", "registry"),
    "grid": (
        "RecoveryPlan", "SmoothnessParams", "build_plan", "choose_radius", "count_profile",
        "derive_params", "index_set", "tail_sum", "weighted_sum", "write_plan",
    ),
    "interp": ("TensorPoly", "interpolate", "nodes"),
    "recovery": ("Approximant", "Quadrature", "lq_error", "reconstruct", "sample"),
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _HOME:
        return import_module(f".{name}", __name__)  # the import binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOME})
