"""The family of symplectic potentials g_t = g0 + t * psi.

g0(x) = 1/2 sum_j l_j(x) log l_j(x) on the polytope interior (linear part
fixed to zero) is the t = 0 member, and psi = phi o A is a convex
pullback.  All evaluators broadcast over leading axes, so grids can be fed
directly, and take t the same way, so a time ladder is g0 and psi
evaluated once plus one term per t.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def _interior_l(P: DelzantPolytope, x, L=None):
    """x and its facet values L (evaluated unless given), each checked to be positive."""
    x = np.asarray(x, dtype=float)
    L = P.facet_values_array(x) if L is None else L
    if (L <= 0).any():
        flat = L.reshape(-1, P.num_facets)
        i, j = np.argwhere(flat <= 0)[0]  # the first point, and its first facet
        raise DomainBoundaryError(int(j) + 1, tuple(x.reshape(-1, P.dim)[i].tolist()),
                                  float(flat[i, j]))
    return x, L


def g0_value(P: DelzantPolytope, x, L=None):
    x, L = _interior_l(P, x, L)
    return 0.5 * np.sum(L * np.log(L), axis=-1)


def g0_gradient(P: DelzantPolytope, x, L=None):
    x, L = _interior_l(P, x, L)  # a lone row goes in as two: numpy's gemv for one row rounds
    rows = np.log(L).reshape(-1, P.num_facets) + 1.0  # apart from the gemm of a stack
    g = (np.repeat(rows, 2, axis=0) if len(rows) == 1 else rows) @ P.normal_matrix
    return 0.5 * g[:len(rows)].reshape(L.shape[:-1] + (P.dim,))


def g0_hessian(P: DelzantPolytope, x, L=None):
    """Hess g0 = 1/2 sum_j r_j r_j^T / l_j(x), symmetric positive definite: one product
    of 1/2 / l_j with the flattened outer products, over every leading axis."""
    x, L = _interior_l(P, x, L)
    return ((0.5 / L) @ P.normal_outer).reshape(L.shape[:-1] + (P.dim, P.dim))


@dataclass(frozen=True)
class SymplecticPotential:
    """The family g_t = g0 + t * psi with psi = phi o proj; its t = 0 member is g0.

    Each evaluator takes t (default 0), a number or an array broadcast
    against the leading axes of x.  ``gradient`` and ``hessian`` take by keyword L, the facet
    values at x (``legendre.inverse`` has them), which g0 then checks instead of evaluating.
    """

    polytope: DelzantPolytope
    proj: SubtorusProjection
    phi: ConvexFunction

    def __post_init__(self):
        if self.perturbation.dim != self.polytope.dim:
            raise ValueError("perturbation dimension does not match the polytope")

    @cached_property
    def perturbation(self) -> ConvexFunction:
        """The convex pullback psi on the polytope."""
        return pullback(self.phi, self.proj)

    def _family(self, g0, psi, x, t, axes, L=None):
        """g0(x) + t psi(x); psi is skipped at a scalar t = 0.  L goes to g0 (None: evaluate)."""
        g = g0(self.polytope, x, L)
        if np.ndim(t) == 0 and t == 0.0:
            return g
        with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
            return g + np.reshape(t, np.shape(t) + (1,) * axes) * psi(x)

    def value(self, x, t=0.0):
        return self._family(g0_value, self.perturbation.value, x, t, 0)

    def gradient(self, x, t=0.0, *, L=None):
        return self._family(g0_gradient, self.perturbation.gradient, x, t, 1, L)

    def hessian(self, x, t=0.0, *, L=None):
        return self._family(g0_hessian, self.perturbation.hessian, x, t, 2, L)


@dataclass(frozen=True)
class PotentialReport:
    """Sampled validity certificate for a symplectic potential.

    ``product_min``/``product_max`` bracket det(Hess g) * prod_j l_j over the
    samples (the reciprocal of the boundary-regularity density); a valid
    potential keeps this inside (0, inf) all the way to the boundary.
    """

    positive_definite: bool
    min_eigenvalue: float
    product_min: float
    product_max: float


def mixture_weights(P: DelzantPolytope, count: int, seed: int = 0):
    """The Dirichlet weights of ``interior_samples``: a draw of fewer rows is the first rows."""
    return np.random.default_rng(seed).dirichlet(np.ones(len(P.vertex_array)), size=count)


def interior_samples(P: DelzantPolytope, count: int, seed: int = 0, weights=None):
    """Deterministic interior points: Dirichlet mixtures of the vertices, by the first count
    rows of weights when given (a larger draw of ``mixture_weights``)."""
    w = mixture_weights(P, count, seed) if weights is None else weights[:count]
    return w @ P.vertex_array


def boundary_approach_samples(P: DelzantPolytope):
    """Rays from each facet midpoint toward the barycenter.

    For facet j the point at "distance" 10^-e has l_j = 10^-e * l_j(barycenter),
    so the samples approach every facet geometrically.
    """
    V, bary = P.vertex_array, P.barycenter_array()
    on = np.array([[j in v.active_facets for v in P.vertices] for j in range(P.num_facets)])
    mids = np.array([np.mean(V[row], axis=0) for row in on if row.any()])[:, None]
    s = np.array([10.0 ** (-e) for e in range(2, 9)])[:, None]  # numpy's power rounds apart
    return (mids + s * (bary - mids)).reshape(-1, P.dim)


def validate_potential(pot: SymplecticPotential, interior_points,
                       boundary_points=None, times=(0.0,)):
    """Check Definition-style validity on samples, one PotentialReport per t of ``times``:
    (a) Hess g_t positive definite at every interior sample (its lowest eigenvalue); (b) the
    product det(Hess g_t) * prod l_j positive and bounded along the boundary-approach samples
    (its observed range)."""
    P = pot.polytope
    pts = np.asarray(interior_points, dtype=float).reshape(-1, P.dim)
    if not (count := len(pts)):
        raise ValueError("need at least one interior sample")
    if boundary_points is not None and len(boundary_points):
        pts = np.concatenate([pts, np.asarray(boundary_points, dtype=float)])
    # one Hessian of g0 and of psi for all samples, G_t stacked over t
    H = pot.hessian(pts, np.reshape(times, (-1, 1)))
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite product fails its flag
        low, det = _lowest_eigenvalue_and_det(H, count)
        prods = det * np.prod(P.facet_values_array(pts), axis=-1)
    return [PotentialReport(positive_definite=low > 0.0, min_eigenvalue=low,
                            product_min=float(p.min()), product_max=float(p.max()))
            for low, p in zip(np.min(low, axis=-1).tolist(), prods)]


def _lowest_eigenvalue_and_det(H, count):
    """lambda_min of H[:, :count] and det of H, symmetric (T, N, n, n); for n = 2 from the LDL^T
    pivots a and d = c - (b / a) b: det = a d, lambda_min = det / lambda_max, lambda_max = (a +
    c)/2 + hypot((a - c)/2, b), nearer the exact values than LAPACK on stiff H; LAPACK at n = 3."""
    if H.shape[-1] == 1:
        return H[:, :count, 0, 0], H[..., 0, 0]
    if H.shape[-1] == 2:
        a, b, c = H[..., 0, 0], H[..., 0, 1], H[..., 1, 1]
        det = a * (c - b / a * b)
        return (det / (0.5 * (a + c) + np.hypot(0.5 * (a - c), b)))[:, :count], det
    return np.linalg.eigvalsh(H[:, :count])[..., 0], np.linalg.det(H)
