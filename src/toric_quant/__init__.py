"""toric_quant: desk-scale numerics for toric Kahler quantization.

Delzant polytope combinatorics, symplectic potential families, Legendre
coordinate changes, degenerating polarization frames, monomial section
norms, and polytope quadrature for concentration experiments.
"""

from .polytope import (
    DelzantPolytope,
    DelzantCertificate,
    EmptySliceError,
    PolytopeError,
    Slice,
    Vertex,
    face_slice,
    facet_value,
    is_delzant,
    lattice_points,
    weight_multiplicities,
)
from .subtorus import (
    AdaptedBasis,
    ConvexFunction,
    ProjectionError,
    SubtorusProjection,
    adapted_basis,
    default_convex,
    pullback,
    quadratic,
    strict_convexity_check,
)
from .potential import (
    DomainBoundaryError,
    SymplecticPotential,
    g0_gradient,
    g0_hessian,
    g0_value,
    validate_potential,
)
from .legendre import (
    LegendrePair,
    NewtonConvergenceError,
    flow_identity_residual,
    forward,
    inverse,
    kahler_potential,
)
from .polarization import (
    PolarizationFrame,
    decay_report,
    grassmann_distance,
    limit_frame,
    polarization_frame,
)
from .sections import (
    ConcentrationWeight,
    MonomialSection,
    closed_form_norm_g0,
    l1_norm,
    l1_norms,
    monomial_basis,
    norm_factorization_check,
    norm_matrix,
    pairwise_orthogonality,
    pointwise_norm,
    radial_gram,
    relative_orthogonality,
    torus_average,
)
from .quadrature import (
    ConcentrationResult,
    QuadratureError,
    QuadratureRule,
    box_rule,
    concentration_experiment,
    delta_pairing,
    grid_rule,
    integrate,
    make_rule,
    slice_rule,
)

__version__ = "0.1.0"
