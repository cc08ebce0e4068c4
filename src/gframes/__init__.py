"""Finite-dimensional toolkit for operator frames and two-index coherent
states: construction, classification, duality, perturbation bounds, and
numerically exact resolutions of identity.

The exported names resolve on first use (PEP 562): `import gframes` loads
no submodule, and `gframes.build_fock` imports `gframes.coherent` then.
Every access reads the defining module's attribute, so the package never
holds a copy of its own.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "frames": (
        "Classification",
        "FrameBounds",
        "GFrame",
        "analysis",
        "canonical_dual",
        "check_biorthogonal",
        "check_dual_pair",
        "classify",
        "frame_bounds",
        "frame_operator",
        "make_gon_basis",
        "make_griesz",
        "parseval_transform",
    ),
    "coherent": (
        "BicoherentFamily",
        "CoherentState",
        "FockStructure",
        "LadderPair",
        "bicoherent_family",
        "build_fock",
        "coherent_state",
        "ladder_ops",
        "quadrature_identity",
        "truncation_defect",
        "uncertainty_product",
    ),
    "duality": (
        "check_similar",
        "construct_alternate_dual",
        "dual_norm_decomposition",
        "gram_characterization",
    ),
    "perturbation": (
        "GavrutaReport",
        "PerturbationReport",
        "gavruta_check",
        "one_sided_M",
        "optimal_M",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules that the eager package bound as attributes
_SUBMODULES = frozenset(_EXPORTS) | {"linalg", "errors"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
