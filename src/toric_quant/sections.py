"""Monomial sections through their pointwise norms in the action-angle chart.

Every normed quantity reduces to exponent algebra: the section indexed by a
lattice point m has |sigma^m|(x) = exp(g(x) - <x - m, grad g(x)>), with the
closed product form below for g0 (the t = 0 member, on facet values L (d, N)),
and the convex weight f_m(x) = <x - m, grad psi(x)> - psi(x) controlling how
the time-t norm factors through the t = 0 norm.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polytope import DelzantPolytope
from .potential import SymplecticPotential
from .subtorus import ConvexFunction


def norm_matrix(pot: SymplecticPotential, ms, x, t=0.0):
    """Rows |sigma^m_t|(x) = exp(g_t(x) - <x - m, grad g_t(x)>), one per lattice point.

    g_t and grad g_t are evaluated once for all rows; x is (..., n) interior
    points, t broadcasts as in ``pot.value``, and the result has shape
    (len(ms),) + that of g_t(x).
    """
    x = np.asarray(x, dtype=float)
    g, grad = pot.value(x, t), pot.gradient(x, t)
    # row by row, so temporaries stay the size of g, not len(ms) times it
    out = np.empty((len(ms),) + np.shape(g))
    for i, m in enumerate(np.asarray(ms, dtype=float)):
        out[i] = np.exp(g - np.einsum("...i,...i->...", x - m, grad))
    return out


def _facet_values_at(P: DelzantPolytope, m):
    """l_j(m), (d,) for a point m of P or (M, d) for a stack; exact for lattice points."""
    m = np.asarray(m, dtype=float)
    lm = m @ P.normal_matrix.T + P.offset_vector if m.shape[-1:] == (P.dim,) else None
    if lm is None or np.any(lm < 0):
        raise ValueError(f"{m.tolist()} is not a point of the polytope")
    return lm


def _log_norm_g0(L, lm):
    """log |sigma^m_0|, (N,) or (M, N), from facet values L (d, N) and lm = l_j(m), (d,) or (M, d).

    1/2 (sum_j l_j(m) log l_j + sum_j (l_j(m) - l_j)): the second sum facet by
    facet, the first one product over the facets with some l_j(m) > 0 (log 0 =
    -inf gives the exact zeros; a stack needs l_j > 0 where one of its l_j(m)
    is 0).  Any subset of the facets gives the product of their factors.
    """
    s = np.add.reduce(lm[..., None] - L, axis=-2)  # over the facet axis, in facet order
    on = (lm > 0).reshape(-1, len(L)).any(axis=0)
    with np.errstate(divide="ignore"):
        logs = lm[..., on] @ np.log(L[on])
    return 0.5 * (logs + s)


def closed_form_norm_g0(P: DelzantPolytope, m, x):
    """The t = 0 norm prod_j l_j(x)^{l_j(m)/2} e^{(l_j(m)-l_j(x))/2}.

    Defined on all of P including the boundary; vanishes exactly on facets
    with l_j(m) > 0 and agrees with norm_matrix on the interior.  Taken in
    log form (_log_norm_g0), with one exp per point x (..., n); a stack of
    lattice points m (M, n) on interior x gives shape (M,) + x.shape[:-1].
    """
    x = np.asarray(x, dtype=float)
    L = P.normal_matrix @ x.reshape(-1, P.dim).T + P.offset_vector[:, None]
    if np.any(L < -1e-12):
        raise ValueError("point outside the polytope")
    lm = _facet_values_at(P, m)
    return np.exp(_log_norm_g0(np.clip(L, 0.0, None), lm).reshape(lm.shape[:-1] + x.shape[:-1]))


@dataclass(frozen=True)
class ConcentrationWeight:
    """f_m(x) = <x - m, grad psi(x)> - psi(x) for a convex pullback psi.

    Along the fiber directions of the projection f_m is constant, and over
    the projected variable it has a unique minimum at the image of m, so
    e^{-t f_m} localizes onto the slice through m as t grows.
    """

    m: tuple
    psi: ConvexFunction

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        m = np.array(self.m, dtype=float)
        grad = self.psi.gradient(x)
        return np.einsum("...i,...i->...", x - m, grad) - self.psi.value(x)


def norm_factorization_check(pot: SymplecticPotential, m, times, x):
    """Residuals of |sigma^m_t| = e^{-t f_m} |sigma^m_0| at the points x, per t.

    |sigma^m_0| and f_m are evaluated once, and |sigma^m_t| for every t in
    one stacked call.  Returns two arrays over times: the max residual and
    the max of |sigma^m_t| (the scale of the norms at that t).
    """
    norm0 = norm_matrix(pot, [m], x)[0]
    fm = ConcentrationWeight(m, pot.perturbation)(x)
    t = np.reshape(times, (-1,) + (1,) * np.ndim(norm0))
    lhs = norm_matrix(pot, [m], x, t)[0].reshape(len(t), -1)
    res = np.abs(lhs - (np.exp(-t * fm) * norm0).reshape(len(t), -1))
    return np.max(res, axis=1), np.max(lhs, axis=1)


def l1_norms(pot: SymplecticPotential, m, resolution: int, times) -> list:
    """The L1 norm over P of sigma^m under g_t for each t in times.

    Through the factorization |sigma^m_t| = e^{-t f_m} |sigma^m_0|: make_rule
    at resolution integrates against |sigma^m_0| dx, its weights are summed over each fiber
    of the projection once, and each t costs one exponential per fiber.  A
    non-finite norm raises QuadratureError.
    """
    from .quadrature import QuadratureError, make_rule, pushforward  # avoids a cycle

    push = pushforward(make_rule(pot.polytope, resolution, m), pot.proj)
    masses, fmin = push.masses(None, ConcentrationWeight(m, pot.perturbation), times)
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


def radial_gram(pot: SymplecticPotential, ms, rule, t=0.0):
    """Gram matrix G[a, b] = sum_k |sigma^a_t|(x_k) |sigma^b_t|(x_k) w_k of the radial pairings.

    g_t is evaluated once on the rule for all the lattice points ms.
    Non-finite norms or pairings are rejected the way
    ``quadrature.integrate`` rejects non-finite integrands.
    """
    from .quadrature import QuadratureError  # local import to avoid a cycle

    ms = np.asarray(ms)
    S = norm_matrix(pot, ms, rule.points, t)
    bad = ~np.isfinite(S)
    if np.any(bad):
        where = rule.points[np.argmax(np.any(bad, axis=0))]
        raise QuadratureError(f"non-finite section norm at {tuple(where.tolist())}")
    with np.errstate(over="ignore"):  # overflow is reported just below
        S *= np.sqrt(rule.weights)  # in place: G = S S^T holds one (len(ms), N) array
        G = S @ S.T
        bad = ~np.isfinite(G)
        if np.any(bad):
            a, b = np.unravel_index(np.argmax(bad), G.shape)
            where = rule.points[np.argmax(S[a] * S[b])]
            raise QuadratureError(f"non-finite pairing of {ms[a].tolist()} and "
                                  f"{ms[b].tolist()}, largest at {tuple(where.tolist())}")
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


def orthogonality_residual(gram, ms) -> float:
    """The largest relative_orthogonality over all pairs a < b of the lattice points ms.

    Each distinct difference m_a - m_b takes its torus average once, on the
    coarsest theta grid that outresolves it (at least 4 angles per axis).
    """
    ia, ib = np.triu_indices(len(ms), 1)
    # the distinct differences in row order, through one int64 key per row:
    # offset components, combined in mixed radix, keep lexicographic order
    M = np.array(ms)
    d = M[ia] - M[ib]
    off = np.abs(d).max(axis=0, initial=0)
    key = np.zeros(len(d), dtype=np.int64)
    for c, o in enumerate(off):
        key = key * (2 * o + 1) + (d[:, c] + o)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    diffs = d[first]
    res = np.maximum(4, np.max(np.abs(diffs), axis=1, initial=0) + 1).tolist()
    torus = np.array([torus_average(dm, r) for dm, r in zip(diffs, res)])
    return float(np.max(relative_orthogonality(gram, ia, ib, torus[inverse.ravel()]),
                        initial=0.0))
