"""Finite-dimensional toolkit for operator frames and two-index coherent
states: construction, classification, duality, perturbation bounds, and
numerically exact resolutions of identity."""

__version__ = "0.1.0"

from .frames import (  # noqa: F401
    Classification,
    FrameBounds,
    GFrame,
    analysis,
    canonical_dual,
    check_biorthogonal,
    check_dual_pair,
    classify,
    frame_bounds,
    frame_operator,
    induce_vector_frame,
    make_gon_basis,
    make_griesz,
    parseval_transform,
)
from .coherent import (  # noqa: F401
    BicoherentFamily,
    CoherentState,
    FockStructure,
    LadderPair,
    bicoherent_family,
    build_fock,
    coherent_state,
    ladder_ops,
    quadrature_identity,
    truncation_defect,
    uncertainty_product,
)
from .duality import (  # noqa: F401
    check_similar,
    construct_alternate_dual,
    dual_norm_decomposition,
    gram_characterization,
)
from .perturbation import (  # noqa: F401
    GavrutaReport,
    PerturbationReport,
    gavruta_check,
    one_sided_M,
    optimal_M,
)
