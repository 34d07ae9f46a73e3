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


def _frames(pot: SymplecticPotential, x, t_list):
    """Hess g0, Hess psi (N, n, n); G_t = Hess g0 + t Hess psi, G_t^{-1}, frames (G_t^{-1}, -iI)."""
    H0, Hpsi = pot.hessian(x), pot.perturbation.hessian(x)
    G = H0[:, None] + np.reshape(t_list, (-1, 1, 1)) * Hpsi[:, None]
    Ginv, eye = np.linalg.inv(G), np.broadcast_to(-1j * np.eye(H0.shape[-1]), G.shape)
    return H0, Hpsi, G, Ginv, np.concatenate([Ginv, eye], axis=-1)


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

    The time-t frames (``_frames``) are one stack over points and times, and their distances
    to the limit one stacked principal-angle computation.  The ker A rows (B, -i B G_t) must
    not move with t; their angle against t = 0 is the subframe check, and it fails when psi
    does not factor through A.
    """
    t_list = [float(t) for t in t_list]
    if any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise ValueError("t_list must be strictly increasing")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    A, n, k = proj.array, proj.n, proj.k
    B = np.array(integer_kernel_basis(proj.matrix), dtype=float).reshape(n - k, n)
    H0, _, G, Ginv, frames = _frames(pot_family, x, t_list)
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


def _hamiltonian_jacobian(Hpsi):
    """dX_psi in (x, theta) at each point: X_psi = -grad psi . d/dtheta solves iota_X omega
    = d psi for omega = sum_i dx_i ^ dtheta_i, so only its theta components vary, with x."""
    O = np.zeros_like(Hpsi)
    return np.block([[O, O], [-Hpsi, O]])


def flow_residual(pot: SymplecticPotential, x, t_list):
    """max |G_t^{-1} D_t - I| over the points x, per t: claim 3 with no Legendre solve.

    w_t = e^{itX_psi} w carries the J_0-holomorphic coordinates w = grad g0 + i theta to
    J_t-holomorphic ones (Mourao, Nunes, IMRN 2015).  Each term is affine in theta, which
    X_psi alone moves, so d(X_psi f) = df dX_psi; the series of differentials stops at its
    first zero term (X_psi^2 w = 0) and gives d w_t = (D_t, i I), D_t = Hess g0 + t Hess psi.
    The frame rows (G_t^{-1}, -i I) pair with d conj(w_t) to G_t^{-1} D_t - I.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    H0, Hpsi, _, _, frames = _frames(pot, x, t_list)
    dX, t, coef, dw = _hamiltonian_jacobian(Hpsi), np.reshape(t_list, (-1, 1, 1)), 1.0, 0.0
    term = np.concatenate([H0, 1j * np.broadcast_to(np.eye(x.shape[-1]), H0.shape)], axis=-1)
    for k in range(1, dX.shape[-1] + 2):  # dX is nilpotent: dX^{2n} = 0
        dw = dw + coef * term[:, None]
        if not np.any(term := term @ dX):
            break
        coef = coef * 1j * t / k
    return np.max(np.abs(frames @ np.swapaxes(dw.conj(), -1, -2)), axis=(0, -2, -1))
