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


def inverse(pot: SymplecticPotential, y, t=0.0):
    """Solve grad g_t(x) = y by damped Newton from the vertex barycenter.

    Batched over leading axes of y (..., n), with t broadcast as in ``pot.gradient``: a
    time ladder is one Newton loop, and each (time, point) row stops at its own TOLERANCE
    with its own step length.  Facet values are affine along a step, so its first trial
    goes 0.99 of the way to where a facet value falls to FLOOR times its current value
    (fraction to the boundary) or is the full step; halving only checks the recomputed
    values, and iterates stay strictly interior.  A residual component below ROUNDING |y_i|
    is not counted: grad g_t cannot be evaluated closer to a large y_i (at t = 128 and
    b = 1e6 in phi, y_i reaches 1.3e8, whose ulp is 1.5e-8).
    """
    P = pot.polytope
    y = np.asarray(y, dtype=float)
    if y.ndim == 0 or y.shape[-1] != P.dim:
        raise ValueError(f"y must have shape (..., {P.dim})")
    T = np.broadcast_to(np.asarray(t, dtype=float), y.shape[:-1]).reshape(-1)
    if np.any(T < 0):
        raise ValueError("t must be nonnegative")
    Y = y.reshape(-1, P.dim)
    X = np.array(np.broadcast_to(P.barycenter_array(), y.shape)).reshape(-1, P.dim)
    active, x = np.arange(len(Y)), X  # the rows still iterating and their iterates
    for iteration in range(MAX_ITERATIONS + 1):
        res = pot.gradient(x, T) - Y
        beyond = np.where(np.abs(res) < ROUNDING * np.abs(Y), 0.0, res)
        moving = ~(np.linalg.norm(beyond, axis=-1) <= TOLERANCE)  # NaN keeps iterating
        if not moving.all():  # gather only when some row has converged
            X[active[~moving]] = x[~moving]
            active, x, res, Y, T = active[moving], x[moving], res[moving], Y[moving], T[moving]
        if not active.size:
            return X.reshape(y.shape)
        if iteration == MAX_ITERATIONS:
            raise _failure(x, res, iteration, active, 0)
        step = -np.linalg.solve(pot.hessian(x, T), res[..., None])[..., 0]
        lcur = P.facet_values_array(x)
        rate = np.max(-(step @ P.normal_matrix.T) / lcur, axis=-1)  # facet values are affine
        reach = 0.99 * (1 - FLOOR)
        s = reach / np.maximum(rate, reach)  # min(1, reach / rate); a NaN step stays NaN
        trial = x + s[:, None] * step  # every first trial in one check, at recomputed values
        rejected = np.flatnonzero(~np.all(P.facet_values_array(trial) > FLOOR * lcur, axis=-1))
        for _ in range(59):  # 60 trials in all: halve and recheck only the rejected rows
            if not rejected.size:
                break
            s[rejected] *= 0.5
            trial[rejected] = x[rejected] + s[rejected, None] * step[rejected]
            ok = np.all(P.facet_values_array(trial[rejected]) > FLOOR * lcur[rejected], axis=-1)
            rejected = rejected[~ok]
        if rejected.size:
            raise _failure(x, res, iteration, active, rejected[0])
        x = trial


def _failure(x, res, iteration, active, i):
    """The NewtonConvergenceError of row i of the iterating rows x."""
    resnorm = np.linalg.norm(res[i:i + 1], axis=-1)[0]
    return NewtonConvergenceError(x[i], float(resnorm), iteration, int(active[i]))
