"""Legendre bridge between moment coordinates x and complex coordinates y.

The forward map y = grad g(x) is ``SymplecticPotential.gradient``; here are its Newton
inversion with facet-aware damping and the dual potential h(y) = -g(x(y)) + <x(y), y>,
each batched over leading axes of its points.
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
    active = np.arange(len(Y))  # points still iterating
    for iteration in range(MAX_ITERATIONS + 1):
        x = X[active]
        res = pot.gradient(x, T[active]) - Y[active]
        resnorm = np.linalg.norm(res, axis=-1)
        beyond = np.where(np.abs(res) < ROUNDING * np.abs(Y[active]), 0.0, res)
        moving = ~(np.linalg.norm(beyond, axis=-1) <= TOLERANCE)  # NaN keeps iterating
        active, x, res, resnorm = active[moving], x[moving], res[moving], resnorm[moving]
        if not active.size:
            return X.reshape(y.shape)
        if iteration == MAX_ITERATIONS:
            raise NewtonConvergenceError(x[0], float(resnorm[0]), iteration, int(active[0]))
        step = -np.linalg.solve(pot.hessian(x, T[active]), res[..., None])[..., 0]
        lcur = P.facet_values_array(x)
        rate = np.max(-(step @ P.normal_matrix.T) / lcur, axis=-1)  # facet values are affine
        reach = 0.99 * (1 - FLOOR)
        s = reach / np.maximum(rate, reach)  # min(1, reach / rate); a NaN step stays NaN
        rejected = np.arange(len(active))
        for _ in range(60):
            trial = x[rejected] + s[rejected, None] * step[rejected]
            ok = np.all(P.facet_values_array(trial) > FLOOR * lcur[rejected], axis=-1)
            rejected = rejected[~ok]
            if not rejected.size:
                break
            s[rejected] *= 0.5
        else:
            i = rejected[0]
            raise NewtonConvergenceError(x[i], float(resnorm[i]), iteration, int(active[i]))
        X[active] = x + s[:, None] * step


def kahler_potential(pot: SymplecticPotential, y, t=0.0):
    """h_t(y) = -g_t(x(y)) + <x(y), y>, the convex conjugate of g_t.

    Batched over leading axes, with t broadcast as in ``inverse``; a single
    point gives a float.
    """
    y = np.asarray(y, dtype=float)
    x = inverse(pot, y, t)
    h = -pot.value(x, t) + np.sum(x * y, axis=-1)
    return float(h) if np.ndim(h) == 0 else h

