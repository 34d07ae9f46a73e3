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

TOLERANCE = 1e-12  # Newton stops once |grad g(x) - y| is within this
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


def inverse(pot: SymplecticPotential, y):
    """Solve grad g(x) = y by damped Newton from the vertex barycenter.

    Batched over leading axes: y of shape (..., n) gives x of the same
    shape.  A step is shortened (halved) until no facet value drops below
    0.4 of its current value, which keeps iterates strictly interior; the
    log-barrier shape of g0 then makes the iteration globally convergent in
    practice.  Each point leaves the loop once its own residual is within
    TOLERANCE and halves only its own rejected steps, so it follows the
    iterates it would follow alone.
    """
    P = pot.polytope
    y = np.asarray(y, dtype=float)
    if y.ndim == 0 or y.shape[-1] != P.dim:
        raise ValueError(f"y must have shape (..., {P.dim})")
    Y = y.reshape(-1, P.dim)
    X = np.array(np.broadcast_to(P.barycenter_array(), y.shape)).reshape(-1, P.dim)
    active = np.arange(len(Y))  # points still iterating
    for _ in range(MAX_ITERATIONS):
        x = X[active]
        res = pot.gradient(x) - Y[active]
        resnorm = np.linalg.norm(res, axis=-1)
        moving = ~(resnorm <= TOLERANCE)  # a NaN residual keeps iterating
        active, x, res, resnorm = active[moving], x[moving], res[moving], resnorm[moving]
        if not active.size:
            return X.reshape(y.shape)
        step = -np.linalg.solve(pot.hessian(x), res[..., None])[..., 0]
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
            raise NewtonConvergenceError(x[i], float(resnorm[i]), MAX_ITERATIONS,
                                         int(active[i]))
        X[active] = x + s[:, None] * step
    resnorm = np.linalg.norm(pot.gradient(X[active]) - Y[active], axis=-1)
    failed = np.flatnonzero(~(resnorm <= TOLERANCE))
    if not failed.size:
        return X.reshape(y.shape)
    i = failed[0]
    raise NewtonConvergenceError(X[active[i]], float(resnorm[i]),
                                 MAX_ITERATIONS, int(active[i]))


def kahler_potential(pot: SymplecticPotential, y):
    """h(y) = -g(x(y)) + <x(y), y>, the convex conjugate of g.

    Batched over leading axes; a single point gives a float.
    """
    y = np.asarray(y, dtype=float)
    x = inverse(pot, y)
    h = -pot.value(x) + np.sum(x * y, axis=-1)
    return float(h) if np.ndim(h) == 0 else h


def flow_identity_residual(pot0: SymplecticPotential, times, x):
    """|h_t(grad g_t(x)) - [h_0(grad g_0(x)) - t psi(x) + t <x, grad psi(x)>]| per t.

    Zero (to solver tolerance) exactly when the convex-perturbation family of
    potentials agrees with the family generated by the imaginary-time flow of
    the same convex Hamiltonian.  h_0, psi and <x, grad psi> are evaluated
    once and each t solves for h_t alone.  Batched over leading axes of x:
    the result has shape (len(times),) + x.shape[:-1].
    """
    if pot0.time != 0.0:
        raise ValueError("pot0 must sit at t = 0")
    x = np.asarray(x, dtype=float)
    h_0 = kahler_potential(pot0, pot0.gradient(x))
    psi = pot0.perturbation
    pv, xg = psi.value(x), np.sum(x * psi.gradient(x), axis=-1)
    out = []
    for t in map(float, times):
        pot_t = pot0.at_time(t)
        h_t = kahler_potential(pot_t, pot_t.gradient(x))
        out.append(np.abs(h_t - (h_0 + (-t * pv + t * xg))))
    return np.array(out).reshape((-1,) + x.shape[:-1])
