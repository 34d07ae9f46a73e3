"""Legendre bridge between moment coordinates x and complex coordinates y.

The forward map y = grad g(x) is ``SymplecticPotential.gradient``; here
are its Newton inversion with facet-aware damping, the
dual potential h(y) = -g(x(y)) + <x(y), y>, and the residual of the
imaginary-time-flow identity h_t(grad g_t(x)) = h_0(grad g_0(x))
- t psi(x) + t <x, grad psi(x)>.  Every map is batched over leading axes
of its points.
"""
from __future__ import annotations

import numpy as np

from .potential import SymplecticPotential

TOLERANCE = 1e-12  # Newton stops once |grad g(x) - y| is within this, not counting
ROUNDING = 4 * np.finfo(float).eps  # components below ROUNDING |y_i|, the rounding floor
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

    Batched over leading axes: y of shape (..., n) gives x of the same
    shape, and t broadcasts against y's leading axes as in ``pot.gradient``,
    so a whole time ladder is one Newton loop.  A step is halved until no
    facet value drops below 0.4 of its current value, which keeps iterates
    strictly interior; the log-barrier shape of g0 then makes the iteration
    globally convergent in practice.  Each (time, point) row leaves the
    loop once its own residual is within TOLERANCE and halves only its own
    rejected steps, so it follows the iterates it would follow alone.  A
    residual component below ROUNDING |y_i| is not counted: grad g_t cannot
    be evaluated closer to a large y_i (at t = 128 and b = 1e6 in phi,
    y_i reaches 1.3e8, whose ulp is 1.5e-8).
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
        s = np.ones(len(active))
        rejected = np.arange(len(active))
        for _ in range(60):
            trial = x[rejected] + s[rejected, None] * step[rejected]
            ok = np.all(P.facet_values_array(trial) > 0.4 * lcur[rejected], axis=-1)
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


def flow_identity_residual(pot: SymplecticPotential, times, x):
    """|h_t(grad g_t(x)) - [h_0(grad g_0(x)) - t psi(x) + t <x, grad psi(x)>]| per t.

    Zero (to solver tolerance) exactly when the convex-perturbation family of
    potentials agrees with the family generated by the imaginary-time flow of
    the same convex Hamiltonian.  One Newton stack solves h_0 and every h_t,
    and psi and <x, grad psi> are evaluated once.  Batched over leading axes
    of x: the result has shape (len(times),) + x.shape[:-1].
    """
    x = np.asarray(x, dtype=float)
    t = np.reshape([0.0, *map(float, times)], (-1,) + (1,) * (x.ndim - 1))
    h = kahler_potential(pot, pot.gradient(x, t), t)
    psi = pot.perturbation
    pv, xg = psi.value(x), np.sum(x * psi.gradient(x), axis=-1)
    return np.abs(h[1:] - (h[0] + (-t[1:] * pv + t[1:] * xg)))
