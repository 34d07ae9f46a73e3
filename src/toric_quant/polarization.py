"""Polarization frames and their degeneration.

A frame is a stack of complex rows of shape (..., n, 2n) in the 2n real
coordinates (dx_1..dx_n, dtheta_1..dtheta_n) on the open orbit.  The Kahler
polarization of g_t at x is span{(w, -i G_t w)} with G_t = Hess g_t, written
with the rows (G_t^{-1}, -i I).  Along g_t = g0 + t phi(A x) the Hessian is
G_t = G0 + t A^T Hess(phi) A, so (w, -i G_t w) = (w, -i G0 w) for w in ker A,
while (G_t^{-1} A^T, -i A^T) tends to (0, -i A^T).  With B a Z-basis of
ker A, the mixed-polarization limit therefore has the rows (0, A) and
(B, -i B G0) in any lattice coordinates (Baier, Florentino, Mourao, Nunes,
J. Differential Geom. 89 (2011)).  Distances between spans are principal
angles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._intlin import integer_kernel_basis
from .potential import SymplecticPotential
from .subtorus import SubtorusProjection


def subspace_angle(rows_a, rows_b):
    """Largest principal angle between row spans (complex subspaces).

    Batched over leading axes with stacked QR and SVD; a single pair of
    frames gives a float.  Cosine SVD is accurate near pi/2 but floors out at
    sqrt(eps) for nearly equal spans, so angles below pi/4 are taken from the
    sine instead (the residual of one orthonormal basis against the other's
    projector).
    """
    Qa, _ = np.linalg.qr(np.swapaxes(np.asarray(rows_a, dtype=complex), -1, -2))
    Qb, _ = np.linalg.qr(np.swapaxes(np.asarray(rows_b, dtype=complex), -1, -2))
    C = np.swapaxes(Qa.conj(), -1, -2) @ Qb
    cosines = np.clip(np.linalg.svd(C, compute_uv=False), 0.0, 1.0)
    theta = np.arccos(cosines.min(axis=-1))
    sines = np.linalg.svd(Qb - Qa @ C, compute_uv=False)
    theta = np.where(theta < np.pi / 4,
                     np.arcsin(np.clip(sines.max(axis=-1), 0.0, 1.0)), theta)
    return float(theta) if theta.ndim == 0 else theta


def _kernel_rows(B, G):
    """Rows (B, -i B G) over the leading axes of G: {(w, -i G w) : w in span B}."""
    BG = B @ G
    return np.concatenate([np.broadcast_to(B, BG.shape), -1j * BG], axis=-1)


@dataclass(frozen=True)
class DecayReport:
    """Degeneration of the time-t frames toward the limit at N points."""

    top_block_norms: np.ndarray  # (N, T): max |entry| of A G_t^{-1}
    distances: np.ndarray  # (N, T): principal angle to the limit
    fitted_slopes: np.ndarray  # (N,): least-squares slope of log distance vs log t
    subframe_invariance: float  # max angle of the ker A rows at t against t = 0
    limit: np.ndarray  # (N, n, 2n): rows (0, A) and (B, -i B G0)


def decay_report(pot_family: SymplecticPotential, proj: SubtorusProjection,
                 x, t_list) -> DecayReport:
    """Track frame degeneration along increasing t at a stack of interior points.

    G_t = Hess g0 + t Hess psi comes from one Hessian of each at every
    point.  The time-t frames (G_t^{-1}, -i I) are one stack over points and
    times, and their distances to the limit come from one stacked
    principal-angle computation.  The ker A rows (B, -i B G_t) must not move
    with t; their angle against t = 0 is the subframe check, and it fails
    when psi does not factor through A.
    """
    t_list = [float(t) for t in t_list]
    if any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise ValueError("t_list must be strictly increasing")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    A, n, k = proj.array, proj.n, proj.k
    B = np.array(integer_kernel_basis(proj.matrix), dtype=float).reshape(n - k, n)
    H0 = pot_family.hessian(x)
    Hpsi = pot_family.perturbation.hessian(x)
    G = H0[:, None] + np.reshape(t_list, (-1, 1, 1)) * Hpsi[:, None]
    Ginv = np.linalg.inv(G)
    frames = np.concatenate([Ginv, np.broadcast_to(-1j * np.eye(n), Ginv.shape)], axis=-1)
    top = np.broadcast_to(np.hstack([np.zeros((k, n)), A]), (len(x), k, 2 * n))
    lim = np.concatenate([top, _kernel_rows(B, H0)], axis=-2)
    dists = subspace_angle(frames, lim[:, None])
    subinv = 0.0
    if k < n:
        subinv = float(np.max(subspace_angle(_kernel_rows(B, G), lim[:, None, k:])))
    slopes = np.polyfit(np.log(t_list), np.log(dists).T, 1)[0]
    return DecayReport(top_block_norms=np.max(np.abs(A @ Ginv), axis=(-2, -1)),
                       distances=dists, fitted_slopes=slopes, subframe_invariance=subinv,
                       limit=lim)
