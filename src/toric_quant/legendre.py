"""Legendre bridge between moment coordinates x and complex coordinates y.

The forward map y = grad g(x) is ``SymplecticPotential.gradient``; here is its Newton
inversion with facet-aware damping, batched over leading axes of its points.
"""
from __future__ import annotations

import numpy as np

from .potential import SymplecticPotential

TOLERANCE = 1e-12  # Newton stops once |grad g(x) - y| is within this, not counting
ROUNDING = 4 * np.finfo(float).eps  # components below ROUNDING |y_i|, the rounding floor
FLOOR = 0.2  # a step keeps every facet value above FLOOR times its current value
MAX_ITERATIONS = 200


class NewtonConvergenceError(RuntimeError):
    def __init__(self, iterate, residual, iterations, index=None):
        self.iterate = iterate
        self.residual = residual
        self.iterations = iterations
        self.index = index  # position of the failing point in a stack of y
        where = "" if index is None else f" at point {index}"
        super().__init__(
            f"Newton did not reach tolerance{where} in {iterations} iterations "
            f"(last residual {residual:.3e})")


@np.errstate(all="ignore")  # a non-finite row fails its trials: NewtonConvergenceError
def inverse(pot: SymplecticPotential, y, t=0.0):
    """Solve grad g_t(x) = y by damped Newton from the vertex barycenter.

    Batched over leading axes of y (..., n), with t broadcast as in ``pot.gradient``: a
    time ladder is one Newton loop, and each (time, point) row stops at its own TOLERANCE
    with its own step length.  Facet values are affine along a step, so its first trial
    goes 0.99 of the way to where a facet value falls to FLOOR times its current value
    (fraction to the boundary) or is the full step; halving only checks the recomputed
    values, which the next round's gradient, Hessian and step rule read, and iterates stay
    strictly interior.  A residual component below ROUNDING |y_i| is not counted: grad g_t
    cannot be evaluated closer to a large y_i (at t = 128 and b = 1e6 in phi, y_i reaches
    1.3e8, whose ulp is 1.5e-8).
    """
    P = pot.polytope
    y = np.asarray(y, dtype=float)
    if y.ndim == 0 or y.shape[-1] != P.dim:
        raise ValueError(f"y must have shape (..., {P.dim})")
    T = np.broadcast_to(np.asarray(t, dtype=float), y.shape[:-1]).reshape(-1)
    if np.any(T < 0):
        raise ValueError("t must be nonnegative")
    Y = y.reshape(-1, P.dim)
    Yfloor, Rneg = ROUNDING * np.abs(Y), -P.normal_matrix.T
    X = np.array(np.broadcast_to(P.barycenter_array(), y.shape)).reshape(-1, P.dim)
    active, x = np.arange(len(Y)), X  # the rows still iterating and their iterates
    L = P.facet_values_array(x)  # then each round's accepted trial values
    for iteration in range(MAX_ITERATIONS + 1):
        res = pot.gradient(x, T, L=L) - Y
        beyond = np.where(np.abs(res) < Yfloor, 0.0, res)
        moving = ~(np.sqrt((beyond * beyond).sum(axis=-1)) <= TOLERANCE)  # NaN keeps iterating
        if not moving.all():  # gather only when some row has converged
            X[active[~moving]] = x[~moving]
            active, x, L, res = active[moving], x[moving], L[moving], res[moving]
            Y, Yfloor, T = Y[moving], Yfloor[moving], T[moving]
        if not active.size:
            return X.reshape(y.shape)
        if iteration == MAX_ITERATIONS:
            raise _failure(x, res, iteration, active, 0)
        step = -_solve_spd(pot.hessian(x, T, L=L), res)
        rate = ((step @ Rneg) / L).max(axis=-1)  # facet values are affine along the step
        reach = 0.99 * (1 - FLOOR)
        s = reach / np.maximum(rate, reach)  # min(1, reach / rate); a NaN step stays NaN
        trial = x + s[:, None] * step  # every first trial in one check, at recomputed values
        Lt = P.facet_values_array(trial)
        rejected = np.flatnonzero(~(Lt > FLOOR * L).all(axis=-1))
        for _ in range(59):  # 60 trials in all: halve and recheck only the rejected rows
            if not rejected.size:
                break
            s[rejected] *= 0.5
            trial[rejected] = x[rejected] + s[rejected, None] * step[rejected]
            Lt[rejected] = P.facet_values_array(trial[rejected])
            rejected = rejected[~(Lt[rejected] > FLOOR * L[rejected]).all(axis=-1)]
        if rejected.size:
            raise _failure(x, res, iteration, active, rejected[0])
        x, L = trial, Lt


def _solve_spd(H, r):
    """x with H x = r for a stack of SPD H (..., n, n) and r (..., n) or (..., n, m) (r = I:
    H^-1).  For n <= 2 each row's LDL^T is written out (l = b / a, d = c - l b), stable on stiff
    H where the adjugate form is not, and a row's x does not depend on its stack; LAPACK at 3."""
    if r.ndim < H.ndim:  # a vector: one column
        return _solve_spd(H, r[..., None])[..., 0]
    if H.shape[-1] == 1:
        return r / H
    if H.shape[-1] == 2:
        a, b = H[..., 0, :1], H[..., 0, 1:]
        lo, x = b / a, np.empty(H.shape[:-1] + r.shape[-1:])
        x[..., 1, :] = (r[..., 1, :] - lo * r[..., 0, :]) / (H[..., 1, 1:] - lo * b)
        x[..., 0, :] = r[..., 0, :] / a - lo * x[..., 1, :]
        return x
    return np.linalg.solve(H, r)


def _failure(x, res, iteration, active, i):
    """The NewtonConvergenceError of row i of the iterating rows x."""
    resnorm = np.sqrt((res[i] * res[i]).sum())
    return NewtonConvergenceError(x[i], float(resnorm), iteration, int(active[i]))
