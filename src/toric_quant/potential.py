"""The canonical symplectic potential and its convex perturbation family.

g0(x) = 1/2 sum_j l_j(x) log l_j(x) on the polytope interior (linear part
fixed to zero), and g_t = g0 + t * psi for a convex pullback psi.  All
evaluators broadcast over leading axes, so grids can be fed directly.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .polytope import DelzantPolytope
from .subtorus import ConvexFunction, SubtorusProjection, pullback


class DomainBoundaryError(ValueError):
    """Evaluation requested at a point not strictly inside the polytope."""

    def __init__(self, facet_index, point, value):
        self.facet_index = facet_index  # 1-based
        self.point = point
        self.value = value
        super().__init__(
            f"facet {facet_index} has l_j = {value!r} <= 0 at x = {point!r}")


def _interior_l(P: DelzantPolytope, x):
    x = np.asarray(x, dtype=float)
    L = P.facet_values_array(x)
    if np.any(L <= 0):
        flat = L.reshape(-1, P.num_facets)
        xf = x.reshape(-1, P.dim)
        idx = np.argwhere(flat <= 0)[0]
        raise DomainBoundaryError(int(idx[1]) + 1, tuple(xf[idx[0]]),
                                  float(flat[idx[0], idx[1]]))
    return x, L


def g0_value(P: DelzantPolytope, x):
    x, L = _interior_l(P, x)
    return 0.5 * np.sum(L * np.log(L), axis=-1)


def g0_gradient(P: DelzantPolytope, x):
    x, L = _interior_l(P, x)
    return 0.5 * ((np.log(L) + 1.0) @ P.normal_matrix)


def g0_hessian(P: DelzantPolytope, x):
    """Hess g0 = 1/2 sum_j r_j r_j^T / l_j(x), symmetric positive definite."""
    x, L = _interior_l(P, x)
    R = P.normal_matrix
    return 0.5 * np.einsum("...d,di,dj->...ij", 1.0 / L, R, R)


@dataclass(frozen=True)
class SymplecticPotential:
    """g_t = g0 + t * psi with psi = phi o proj (phi=None means the t=0 family)."""

    polytope: DelzantPolytope
    proj: Optional[SubtorusProjection] = None
    phi: Optional[ConvexFunction] = None
    time: float = 0.0

    def __post_init__(self):
        if self.time < 0:
            raise ValueError("time must be nonnegative")
        if self.perturbation is not None and self.perturbation.dim != self.polytope.dim:
            raise ValueError("perturbation dimension does not match the polytope")

    @classmethod
    def canonical(cls, P: DelzantPolytope) -> "SymplecticPotential":
        return cls(P)

    @classmethod
    def perturbed(cls, P: DelzantPolytope, proj: SubtorusProjection,
                  phi: ConvexFunction, t: float) -> "SymplecticPotential":
        return cls(P, proj, phi, float(t))

    @cached_property
    def perturbation(self) -> Optional[ConvexFunction]:
        """The convex pullback psi on the polytope, or None."""
        return None if self.phi is None else pullback(self.phi, self.proj)

    def at_time(self, t: float) -> "SymplecticPotential":
        return replace(self, time=float(t))

    def value(self, x):
        g = g0_value(self.polytope, x)
        if self.perturbation is not None and self.time != 0.0:
            g = g + self.time * self.perturbation.value(x)
        return g

    def gradient(self, x):
        g = g0_gradient(self.polytope, x)
        if self.perturbation is not None and self.time != 0.0:
            g = g + self.time * self.perturbation.gradient(x)
        return g

    def hessian(self, x):
        h = g0_hessian(self.polytope, x)
        if self.perturbation is not None and self.time != 0.0:
            h = h + self.time * self.perturbation.hessian(x)
        return h


@dataclass(frozen=True)
class PotentialReport:
    """Sampled validity certificate for a symplectic potential.

    ``product_min``/``product_max`` bracket det(Hess g) * prod_j l_j over the
    samples (the reciprocal of the boundary-regularity density); a valid
    potential keeps this inside (0, inf) all the way to the boundary.
    """

    positive_definite: bool
    witness: tuple | None
    min_eigenvalue: float
    product_min: float
    product_max: float

    def __bool__(self):
        return self.positive_definite and self.product_min > 0 and np.isfinite(self.product_max)


def interior_samples(P: DelzantPolytope, count: int, seed: int = 0):
    """Deterministic interior points: Dirichlet mixtures of the vertices."""
    rng = np.random.default_rng(seed)
    V = np.array([v.as_array() for v in P.vertices])
    w = rng.dirichlet(np.ones(len(V)), size=count)
    return w @ V


def boundary_approach_samples(P: DelzantPolytope, decades=range(2, 9)):
    """Rays from each facet midpoint toward the barycenter.

    For facet j the point at "distance" 10^-e has l_j = 10^-e * l_j(barycenter),
    so the samples approach every facet geometrically.
    """
    bary = P.barycenter_array()
    pts = []
    for j in range(P.num_facets):
        active = [v.as_array() for v in P.vertices if j in v.active_facets]
        if not active:
            continue
        mid = np.mean(active, axis=0)
        for e in decades:
            s = 10.0 ** (-e)
            pts.append(mid + s * (bary - mid))
    return np.array(pts)


def validate_potential(pot: SymplecticPotential, interior_points,
                       boundary_points=None) -> PotentialReport:
    """Check Definition-style validity on samples.

    (a) Hess g_t positive definite at every interior sample; (b) the product
    det(Hess g_t) * prod l_j stays positive and bounded along the
    boundary-approach samples.  Returns the observed product range.
    """
    interior_points = np.asarray(interior_points, dtype=float)
    if interior_points.size == 0:
        raise ValueError("need at least one interior sample")
    P = pot.polytope
    pts = interior_points.reshape(-1, P.dim)
    count = len(pts)
    if boundary_points is not None and len(boundary_points):
        pts = np.concatenate([pts, np.asarray(boundary_points, dtype=float)])
    # one Hessian for all samples; the eigenvalues are taken on the interior
    H = pot.hessian(pts)
    mins = np.linalg.eigvalsh(H[:count])[:, 0]
    worst = int(np.argmin(mins))
    pd = bool(mins[worst] > 0.0)
    prods = np.linalg.det(H) * np.prod(P.facet_values_array(pts), axis=-1)
    return PotentialReport(
        positive_definite=pd,
        witness=None if pd else tuple(pts[worst]),
        min_eigenvalue=float(mins[worst]),
        product_min=float(prods.min()),
        product_max=float(prods.max()),
    )
