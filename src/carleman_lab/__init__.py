"""Numerical laboratory for Carleman-weight identities and stochastic wave experiments.

The names below are exported lazily (PEP 562): ``from carleman_lab import X``
imports the one module that defines X, so a run loads only what it reads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "fields": ("AnalyticFn", "BrownianPath", "Grid", "Jet2", "make_fn", "make_grid", "sample_brownian"),
    "weights": (
        "CarlemanFrame", "DQuantities", "WeightFamily", "WeightParams", "assumption_check",
        "build_M", "eval_D", "eval_VN", "psd_certificate",
    ),
    "identities": (
        "CutoffSpec", "IdentityReport", "RegionSpec", "conjugation_residual", "inequality_gap", "qv_check",
    ),
    "solver": ("Coefficients", "WaveState", "solve", "total_energy"),
    "propagation": ("EnergyTrace", "Mollifier", "SupportSet", "distance_to_set", "run_propagation"),
    "cones": ("ConeSpec", "SweepState", "c3_constant", "membership", "sweep_cover", "vertex"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        # not an export: the import system then looks for a submodule of that name
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
