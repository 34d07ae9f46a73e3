"""Monomial sections through their pointwise norms in the action-angle chart.

Every normed quantity reduces to exponent algebra: the section indexed by a
lattice point m has |sigma^m|(x) = exp(g(x) - <x - m, grad g(x)>), with the
closed product form below for the canonical potential, and the convex weight
f_m(x) = <x - m, grad psi(x)> - psi(x) controlling how the time-t norm
factors through the t = 0 norm.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polytope import DelzantPolytope, facet_value
from .potential import SymplecticPotential
from .subtorus import ConvexFunction, SubtorusProjection, pullback


def norm_matrix(pot: SymplecticPotential, ms, x):
    """Rows |sigma^m|(x) = exp(g(x) - <x - m, grad g(x)>), one per lattice point.

    g and grad g are evaluated once for all rows; x is (..., n) interior
    points and the result has shape (len(ms), ...).
    """
    x = np.asarray(x, dtype=float)
    g, grad = pot.value(x), pot.gradient(x)
    # row by row, so temporaries stay the size of x, not len(ms) times it
    out = np.empty((len(ms),) + x.shape[:-1])
    for i, m in enumerate(np.asarray(ms, dtype=float)):
        out[i] = np.exp(g - np.einsum("...i,...i->...", x - m, grad))
    return out


def _facet_values_at(P: DelzantPolytope, m):
    """The exact l_j(m) of every facet, as floats; m must be a point of P."""
    if len(m) != P.dim or not P.contains(m):
        raise ValueError(f"{tuple(m)} is not a point of the polytope")
    return np.array([float(facet_value(P, j + 1, m)) for j in range(P.num_facets)])


def _log_norm_g0(L, lm):
    """log |sigma^m_0| from facet values L (..., d) and lm = l_j(m) (d,).

    The sum over facets of 1/2 (l_j(m) log l_j - l_j + l_j(m)), with one log
    per facet where l_j(m) > 0; log 0 = -inf gives the exact zeros.  Any
    subset of the facets gives the product of their factors.
    """
    on = lm > 0
    with np.errstate(divide="ignore"):
        logs = np.log(L[..., on]) @ lm[on]
    return 0.5 * (logs + np.sum(lm - L, axis=-1))


def closed_form_norm_g0(P: DelzantPolytope, m, x):
    """Canonical-potential norm prod_j l_j(x)^{l_j(m)/2} e^{(l_j(m)-l_j(x))/2}.

    Defined on all of P including the boundary; vanishes exactly on facets
    with l_j(m) > 0 and agrees with norm_matrix on the interior.  Taken
    in log form (_log_norm_g0), with one exp per point.
    """
    L = P.facet_values_array(np.asarray(x, dtype=float))
    if np.any(L < -1e-12):
        raise ValueError("point outside the polytope")
    return np.exp(_log_norm_g0(np.clip(L, 0.0, None), _facet_values_at(P, m)))


@dataclass(frozen=True)
class ConcentrationWeight:
    """f_m(x) = <x - m, grad psi(x)> - psi(x) for a convex pullback psi.

    Along the fiber directions of the projection f_m is constant, and over
    the projected variable it has a unique minimum at the image of m, so
    e^{-t f_m} localizes onto the slice through m as t grows.
    """

    m: tuple
    psi: ConvexFunction

    @classmethod
    def from_projection(cls, proj: SubtorusProjection, phi: ConvexFunction,
                        m) -> "ConcentrationWeight":
        return cls(tuple(int(v) for v in m), pullback(phi, proj))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        m = np.array(self.m, dtype=float)
        grad = self.psi.gradient(x)
        return np.einsum("...i,...i->...", x - m, grad) - self.psi.value(x)


def norm_factorization_check(P: DelzantPolytope, proj: SubtorusProjection,
                             phi: ConvexFunction, m, times, x):
    """Residuals of |sigma^m_t| = e^{-t f_m} |sigma^m_0| at the points x, per t.

    |sigma^m_0| and f_m are evaluated once; each t evaluates |sigma^m_t|
    from g_t.  Returns two arrays over times: the max residual and the max
    of |sigma^m_t| (the scale of the norms at that t).
    """
    pot0 = SymplecticPotential.perturbed(P, proj, phi, 0.0)
    norm0 = norm_matrix(pot0, [m], x)[0]
    fm = ConcentrationWeight.from_projection(proj, phi, m)(x)
    residuals, peaks = [], []
    for t in times:
        lhs = norm_matrix(pot0.at_time(t), [m], x)[0]
        residuals.append(float(np.max(np.abs(lhs - np.exp(-t * fm) * norm0))))
        peaks.append(float(np.max(lhs)))
    return np.array(residuals), np.array(peaks)


def l1_norms(pot: SymplecticPotential, m, resolution: int, times) -> list:
    """The L1 norm over P of sigma^m under g_t for each t in times.

    Through the factorization |sigma^m_t| = e^{-t f_m} |sigma^m_0|: make_rule
    at resolution integrates against |sigma^m_0| dx, its weights are summed over each fiber
    of the projection once, and each t costs one exponential per fiber.  A
    non-finite norm raises QuadratureError.
    """
    from .quadrature import QuadratureError, make_rule, pushforward  # avoids a cycle

    P = pot.polytope
    # f_m = 0 for the canonical potential, so any projection groups the nodes
    push = pushforward(make_rule(P, resolution, m),
                       pot.proj or SubtorusProjection.standard(1, P.dim))
    f = (lambda x: np.zeros(len(x))) if pot.phi is None else ConcentrationWeight(
        m, pot.perturbation)
    masses, fmin = push.masses(None, f, times)
    norms = []
    for t, (mass,) in zip(map(float, times), masses):
        # e^{-t min f_m} is applied in log form: it may leave float64 where
        # the norm does not
        with np.errstate(over="ignore", divide="ignore"):
            l1 = float(np.exp(np.log(mass) - t * fmin))
        if not np.isfinite(l1):
            raise QuadratureError(f"non-finite L1 norm of sigma^{tuple(m)} at t={t:g}")
        norms.append(l1)
    return norms


def radial_gram(pot: SymplecticPotential, ms, rule):
    """Gram matrix G[a, b] = sum_k |sigma^a|(x_k) |sigma^b|(x_k) w_k of the radial pairings.

    The potential is evaluated once on the rule for all the lattice points
    ms.  Non-finite norms or pairings are rejected the way
    ``quadrature.integrate`` rejects non-finite integrands.
    """
    from .quadrature import QuadratureError  # local import to avoid a cycle

    ms = np.asarray(ms)
    S = norm_matrix(pot, ms, rule.points)
    bad = ~np.isfinite(S)
    if np.any(bad):
        where = rule.points[np.argmax(np.any(bad, axis=0))]
        raise QuadratureError(f"non-finite section norm at {tuple(where)}")
    with np.errstate(over="ignore"):  # overflow is reported just below
        G = (S * rule.weights) @ S.T
        bad = ~np.isfinite(G)
        if np.any(bad):
            a, b = np.unravel_index(np.argmax(bad), G.shape)
            where = rule.points[np.argmax(S[a] * S[b] * rule.weights)]
            raise QuadratureError(f"non-finite pairing of {ms[a].tolist()} and "
                                  f"{ms[b].tolist()}, largest at {tuple(where)}")
    return G


@lru_cache(maxsize=1024)
def _roots_mean(d: int, theta_resolution: int):
    """Mean of e^{i d theta} over the theta_resolution-th roots of unity."""
    angles = 2.0 * np.pi * np.arange(theta_resolution) / theta_resolution
    return np.mean(np.exp(1j * d * angles))


def torus_average(dm, theta_resolution: int) -> complex:
    """Average of e^{i <dm, theta>} over a uniform grid of theta_resolution points per axis.

    Roots of unity cancel exactly when dm != 0 and the grid outresolves
    every coordinate of dm; the average is 1 for dm = 0.  The grid average
    is the product of one mean per coordinate, each computed once per
    (coordinate, resolution) and shared.
    """
    dm = np.asarray(dm, dtype=int).tolist()
    if theta_resolution <= max(map(abs, dm), default=0):
        raise ValueError(
            f"theta resolution {theta_resolution} aliases weight difference {tuple(dm)}")
    avg = complex(1.0)
    for di in dm:
        avg *= _roots_mean(di, theta_resolution)
    return avg


def relative_orthogonality(gram, ia, ib, torus):
    """|T_ab G[a, b]| / sqrt(G[a, a] G[b, b]) for the pairs (ia, ib).

    T_ab is the pair's torus average.  The Cauchy-Schwarz scale makes the
    residual independent of how large the radial pairings grow; an aliased
    theta grid (T_ab = 1) gives a residual of order one.
    """
    scale = np.sqrt(np.diagonal(gram))
    return np.abs(torus) * np.abs(gram[ia, ib]) / (scale[ia] * scale[ib])
