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
    ConvexFunction,
    ProjectionError,
    SubtorusProjection,
    default_convex,
    pullback,
    quadratic,
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
    NewtonConvergenceError,
    flow_identity_residual,
    inverse,
    kahler_potential,
)
from .polarization import decay_report
from .sections import (
    ConcentrationWeight,
    closed_form_norm_g0,
    l1_norms,
    norm_factorization_check,
    norm_matrix,
    orthogonality_residual,
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
