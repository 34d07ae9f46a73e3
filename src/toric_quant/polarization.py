"""Polarization frames and their degeneration.

A frame is a stack of complex rows of shape (..., n, 2n) in the 2n real coordinates
(dx_1..dx_n, dtheta_1..dtheta_n) on the open orbit.  The Kahler polarization of g_t at x is
span{(w, -i G_t w)} with G_t = Hess g_t, written with the rows (G_t^{-1}, -i I).  Along
g_t = g0 + t phi(A x) the Hessian is G_t = G0 + t A^T Hess(phi) A, so (w, -i G_t w) =
(w, -i G0 w) for w in ker A, while (G_t^{-1} A^T, -i A^T) tends to (0, -i A^T).  With B a
Z-basis of ker A, the mixed-polarization limit therefore has the rows (0, A) and (B, -i B G0)
in any lattice coordinates (Baier, Florentino, Mourao, Nunes, J. Differential Geom. 89
(2011)).  Distances between spans are principal angles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._intlin import integer_kernel_basis
from .legendre import _solve_spd
from .potential import SymplecticPotential
from .subtorus import SubtorusProjection


def subspace_angle(rows_a, rows_b):
    """Largest principal angle between row spans (complex subspaces), batched over leading
    axes (a single pair of frames gives a float).  With orthonormal rows Q and C = Q_b Q_a^H,
    the cosines (singular values of C) floor out at sqrt(eps) for nearly equal spans, so angles
    below pi/4 take the sines, of M = Q_b - C Q_a (Bjorck, Golub, Math. Comp. 27 (1973)).  For
    p <= 2 rows each row stands alone: Q is Gram-Schmidt applied twice, the largest sine
    sqrt(lambda_max(M M^H)), the smallest cosine |det C| / sigma_max(C); QR and SVD for p = 3."""
    a, b = (np.asarray(r, dtype=complex) for r in (rows_a, rows_b))
    if a.shape[-2] > 2:
        Qa, Qb = (np.linalg.qr(np.swapaxes(r, -1, -2))[0] for r in (a, b))
        C = np.swapaxes(Qa.conj(), -1, -2) @ Qb
        cos = np.linalg.svd(C, compute_uv=False).min(axis=-1)
        sin = np.linalg.svd(Qb - Qa @ C, compute_uv=False).max(axis=-1)
    else:
        Qa, Qb = _orthonormal_rows(a), _orthonormal_rows(b)
        C = Qb @ np.swapaxes(Qa.conj(), -1, -2)
        sin = np.sqrt(_top_eigenvalue(Qb - C @ Qa))
        cos = np.abs(C[..., 0, 0]) if C.shape[-1] == 1 else np.abs(  # 0 when C = 0
            C[..., 0, 0] * C[..., 1, 1] - C[..., 0, 1] * C[..., 1, 0]) / np.sqrt(
            np.maximum(_top_eigenvalue(C), np.finfo(float).tiny))
    theta = np.arccos(np.clip(cos, 0.0, 1.0))
    theta = np.where(theta < np.pi / 4, np.arcsin(np.clip(sin, 0.0, 1.0)), theta)
    return float(theta) if theta.ndim == 0 else theta


def _orthonormal_rows(R):
    """Gram-Schmidt on the p <= 2 rows of R (..., p, m), the projection taken twice."""
    q, r = R[..., :1, :] / np.linalg.norm(R[..., :1, :], axis=-1, keepdims=True), R[..., 1:, :]
    for _ in range(2):  # r has no rows for p = 1
        r = r - (q.conj() * r).sum(axis=-1, keepdims=True) * q
    return np.concatenate([q, r / np.linalg.norm(r, axis=-1, keepdims=True)], axis=-2)


def _top_eigenvalue(M):
    """lambda_max of G = M M^H for the p <= 2 rows of M: (a + c)/2 + hypot((a - c)/2, |b|) for
    G = [[a, b], [conj b, c]], where p = 1 has a = c and b = 0."""
    G = M @ np.swapaxes(M.conj(), -1, -2)
    a, b, c = G[..., 0, 0].real, np.abs(G[..., 0, -1]) * (G.shape[-1] > 1), G[..., -1, -1].real
    return 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)


def _kernel_rows(B, G):
    """Rows (B, -i B G) over the leading axes of G: {(w, -i G w) : w in span B}."""
    BG = B @ G
    return np.concatenate([np.broadcast_to(B, BG.shape), -1j * BG], axis=-1)


def _frames(pot: SymplecticPotential, x, t_list):
    """Hess g0, Hess psi (N, n, n); G_t = Hess g0 + t Hess psi, G_t^{-1}, frames (G_t^{-1}, -iI)."""
    H0, Hpsi = pot.hessian(x), pot.perturbation.hessian(x)
    G = H0[:, None] + np.reshape(t_list, (-1, 1, 1)) * Hpsi[:, None]
    Ginv = _solve_spd(G, eye := np.broadcast_to(np.eye(H0.shape[-1]), G.shape))
    return H0, Hpsi, G, Ginv, np.concatenate([Ginv, -1j * eye], axis=-1)


def loglog_slope(t, v):
    """The least-squares slope sum (x - mean x)(y - mean y) / sum (x - mean x)^2 of y = log v
    against x = log t, along the last axis of v; a v of 0 gives NaN, which reports refuse."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x, y = np.log(t) - np.mean(np.log(t)), np.log(v)
        return ((y - y.mean(axis=-1, keepdims=True)) * x).sum(axis=-1) / (x * x).sum()


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
    """Track frame degeneration along increasing t at a stack of interior points: the time-t
    frames (``_frames``) and their distances to the limit are one stack over points and times.
    The ker A rows (B, -i B G_t) must not move with t; their angle against t = 0 is the
    subframe check, and it fails when psi does not factor through A."""
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
    return DecayReport(top_block_norms=np.max(np.abs(A @ Ginv), axis=(-2, -1)),
                       distances=dists, fitted_slopes=loglog_slope(t_list, dists),
                       subframe_invariance=subinv, limit=lim)


def _hamiltonian_jacobian(Hpsi):
    """dX_psi in (x, theta) at each point: X_psi = -grad psi . d/dtheta solves iota_X omega
    = d psi for omega = sum_i dx_i ^ dtheta_i, so only its theta components vary, with x."""
    O = np.zeros_like(Hpsi)
    return np.block([[O, O], [-Hpsi, O]])


def flow_residual(pot: SymplecticPotential, x, t_list):
    """max |G_t^{-1} D_t - I| over the points x, per t: claim 3 with no Legendre solve.

    w_t = e^{itX_psi} w carries the J_0-holomorphic coordinates w = grad g0 + i theta to
    J_t-holomorphic ones (Mourao, Nunes, IMRN 2015).  Each term is affine in theta, which
    X_psi alone moves, so d(X_psi f) = df dX_psi, and dX_psi = [[0, 0], [-Hess psi, 0]] squares
    to 0: d w_t = dw + i t dw dX_psi = (D_t, i I), D_t = Hess g0 + t Hess psi, exactly.
    The frame rows (G_t^{-1}, -i I) pair with d conj(w_t) to G_t^{-1} D_t - I.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    H0, Hpsi, _, _, frames = _frames(pot, x, t_list)
    dw = np.concatenate([H0, 1j * np.broadcast_to(np.eye(x.shape[-1]), H0.shape)], axis=-1)
    dwX = (dw @ _hamiltonian_jacobian(Hpsi))[:, None]  # the second term is i t dw dX_psi
    dwt = dw[:, None] + 1j * np.reshape(t_list, (-1, 1, 1)) * dwX
    return np.max(np.abs(frames @ np.swapaxes(dwt.conj(), -1, -2)), axis=(0, -2, -1))
