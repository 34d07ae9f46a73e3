"""toric_quant: desk-scale numerics for toric Kahler quantization.

Delzant polytope combinatorics, symplectic potential families, Legendre
coordinate changes, degenerating polarization frames, monomial section
norms, and polytope quadrature for concentration experiments.
"""

from .polytope import (
    DelzantPolytope,
    DelzantCertificate,
    PolytopeError,
    Slice,
    Vertex,
    facet_value,
    is_delzant,
    lattice_points,
    weight_multiplicities,
)
from .subtorus import (
    ConvexFunction,
    NotConvexError,
    ProjectionError,
    SubtorusProjection,
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
from .legendre import NewtonConvergenceError, inverse
from .polarization import decay_report
from .sections import (
    ConcentrationWeight,
    closed_form_log_norm_g0,
    log_norm_matrix,
    norm_factorization_check,
)
from .quadrature import (
    ConcentrationResult,
    QuadratureError,
    QuadratureRule,
    TensorRule,
    box_rule,
    concentration_experiment,
    l1_norms,
    make_rule,
)

__version__ = "0.1.0"
