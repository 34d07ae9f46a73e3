"""Polarization frames and their degeneration.

Frames are n complex vectors in the 2n real coordinates (dx_1..dx_n,
dtheta_1..dtheta_n) on the open orbit.  The frame of the Kahler polarization
at time t has row j = (row j of G_t^{-1}, -i e_j) with G_t = Hess g_t; as
t grows the first k rows flatten onto pure angle directions, and the
distance to that limit frame is measured by principal angles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potential import SymplecticPotential
from .subtorus import SubtorusProjection


@dataclass(frozen=True)
class PolarizationFrame:
    rows: np.ndarray  # (n, 2n) complex
    basepoint: np.ndarray
    label: str

    @property
    def n(self) -> int:
        return self.rows.shape[0]


def _require_standard(proj: SubtorusProjection):
    if not proj.is_standard():
        raise ValueError(
            "frames expect adapted coordinates (projection onto the first k "
            "coordinates); apply subtorus.adapted_basis first")


def polarization_frame(pot: SymplecticPotential, proj: SubtorusProjection,
                       x) -> PolarizationFrame:
    """Frame of the Kahler polarization of g_t at x (adapted coordinates)."""
    _require_standard(proj)
    x = np.asarray(x, dtype=float)
    rows = _frame_rows(np.linalg.inv(pot.hessian(x)))
    return PolarizationFrame(rows=rows, basepoint=x, label=f"t={pot.time:g}")


def _frame_rows(Ginv):
    """Rows (row j of G^{-1}, -i e_j), stacked over leading axes of Ginv."""
    n = Ginv.shape[-1]
    rows = np.zeros(Ginv.shape[:-1] + (2 * n,), dtype=complex)
    rows[..., :n] = Ginv
    rows[..., n:] = -1j * np.eye(n)
    return rows


def limit_frame(proj: SubtorusProjection, pot0: SymplecticPotential,
                x) -> PolarizationFrame:
    """Frame of the mixed-polarization limit at x.

    Rows 1..k are pure angle directions; rows k+1..n keep the t=0 Kahler
    rows, which are unchanged along the family because the potential only
    moves in the projected variables.
    """
    _require_standard(proj)
    x = np.asarray(x, dtype=float)
    n = pot0.polytope.dim
    rows = _frame_rows(np.linalg.inv(pot0.at_time(0.0).hessian(x)))
    rows[:proj.k] = np.eye(n, 2 * n, n)[:proj.k]  # (0, e_j) for j <= k
    return PolarizationFrame(rows=rows, basepoint=x, label="limit")


def isotropy_defect(frame: PolarizationFrame) -> float:
    """max |Omega(row_a, row_b)| over all pairs; zero for Lagrangian frames."""
    return _max_pairing(frame.rows)


def _max_pairing(rows) -> float:
    """max |Omega(row_a, row_b)| over pairs of rows and any leading axes."""
    n = rows.shape[-1] // 2
    a = rows[..., :n]
    b = rows[..., n:]
    M = a @ np.swapaxes(b, -1, -2) - b @ np.swapaxes(a, -1, -2)
    return float(np.max(np.abs(M)))


def positivity_matrix(frame: PolarizationFrame):
    """Hermitian matrix i*Omega(conj(row_a), row_b) on the frame span.

    Positive definite for Kahler frames (it equals 2 G^{-1} there); positive
    semidefinite with k-dimensional kernel for the mixed-polarization limit.
    """
    n = frame.n
    a = np.conj(frame.rows[:, :n])
    b = np.conj(frame.rows[:, n:])
    c = frame.rows[:, :n]
    d = frame.rows[:, n:]
    return 1j * (a @ d.T - b @ c.T)


def degenerate_directions(frame: PolarizationFrame, tol: float = 1e-10) -> int:
    """Complex dimension of the kernel of the positivity form."""
    eigs = np.linalg.eigvalsh(positivity_matrix(frame))
    return int(np.sum(np.abs(eigs) < tol))


def grassmann_distance(A: PolarizationFrame, B: PolarizationFrame) -> float:
    """Largest principal angle between the two frame spans in C^{2n}."""
    if A.rows.shape != B.rows.shape:
        raise ValueError("frames have different dimensions")
    if not np.allclose(A.basepoint, B.basepoint):
        raise ValueError("frames sit at different basepoints")
    return subspace_angle(A.rows, B.rows)


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


@dataclass(frozen=True)
class DecayReport:
    """Degeneration of the time-t frames toward the limit frame at one point."""

    basepoint: np.ndarray
    t_values: tuple
    top_block_norms: tuple  # max |entry| of rows 1..k of G_t^{-1}
    distances: tuple  # Grassmann distance to the limit frame
    fitted_slope: float  # least-squares slope of log distance vs log t
    subframe_invariance: float  # max over t of d(span rows k+1..n at t, at 0)
    isotropy_defect: float  # max over t of the time-t frame's isotropy defect

    def rows(self):
        return list(zip(self.t_values, self.top_block_norms, self.distances))


def decay_report(pot_family: SymplecticPotential, proj: SubtorusProjection,
                 x, t_list) -> DecayReport:
    """Track frame degeneration along increasing t at a fixed interior point.

    The time-t frames (G_t^{-1}, -i I) are built as one stack over t, and
    their distances to the limit frame and to the t = 0 frame come from one
    stacked principal-angle computation each.
    """
    _require_standard(proj)
    t_list = [float(t) for t in t_list]
    if any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise ValueError("t_list must be strictly increasing")
    x = np.asarray(x, dtype=float)
    n, k = pot_family.polytope.dim, proj.k
    lim = limit_frame(proj, pot_family, x)
    frame0 = polarization_frame(pot_family.at_time(0.0), proj, x)
    Ginv = np.linalg.inv(np.stack([pot_family.at_time(t).hessian(x) for t in t_list]))
    frames = _frame_rows(Ginv)
    norms = np.max(np.abs(Ginv[:, :k, :]), axis=(1, 2))
    dists = subspace_angle(frames, lim.rows)
    subinv = 0.0
    if k < n:
        subinv = float(np.max(subspace_angle(frames[:, k:], frame0.rows[k:])))
    slope = float(np.polyfit(np.log(t_list), np.log(dists), 1)[0])
    return DecayReport(basepoint=x, t_values=tuple(t_list),
                       top_block_norms=tuple(map(float, norms)),
                       distances=tuple(map(float, dists)),
                       fitted_slope=slope, subframe_invariance=subinv,
                       isotropy_defect=_max_pairing(frames))
