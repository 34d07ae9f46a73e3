"""Monomial sections through their pointwise norms in the action-angle chart.

Every norm is kept as its logarithm: the section indexed by a lattice point m has
log |sigma^m|(x) = g(x) - <x - m, grad g(x)>, with the closed product form below for
g0 (the t = 0 member, on facet values L (d, N)), and the convex weight f_m(x) =
<x - m, grad psi(x)> - psi(x) controlling how the time-t norm factors through the t = 0 norm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polytope import DelzantPolytope
from .potential import SymplecticPotential
from .subtorus import ConvexFunction


def log_norm_matrix(pot: SymplecticPotential, ms, x, t=0.0):
    """Rows log |sigma^m_t|(x) = g_t(x) - <x - m, grad g_t(x)>, one per lattice point.

    g_t and grad g_t are evaluated once for all rows; x is (..., n) interior
    points, t broadcasts as in ``pot.value``, and the result has shape
    (len(ms),) + that of g_t(x).
    """
    x = np.asarray(x, dtype=float)
    g, grad = pot.value(x, t), pot.gradient(x, t)
    ms = np.asarray(ms, dtype=float).reshape((len(ms),) + (1,) * (np.ndim(grad) - 1) + (-1,))
    return g - np.einsum("...i,...i->...", x - ms, grad)


def peak_relative_gap(a, b):
    """max |e^a - e^b| / max(1, max e^a) over the last axis, from the logs a and b, as
    e^{a - max(0, max a)} |expm1(b - a)|: it leaves float64 only where the gap does, and
    an absolute log difference would read the roundoff of a large exponent as a gap."""
    top = np.maximum(0.0, np.max(a, axis=-1, keepdims=True))
    with np.errstate(over="ignore", invalid="ignore"):  # a gap past float64 reads inf or NaN
        return np.max(np.exp(a - top) * np.abs(np.expm1(b - a)), axis=-1)


def _facet_values_at(P: DelzantPolytope, m):
    """l_j(m), (d,) for a point m of P or (M, d) for a stack; exact for lattice points."""
    m = np.asarray(m, dtype=float)
    lm = P.facet_values_array(m) if m.shape[-1:] == (P.dim,) else None
    if lm is None or np.any(lm < 0):
        raise ValueError(f"{m.tolist()} is not a point of the polytope")
    return lm


def _log_norm_g0(L, lm):
    """log |sigma^m_0|, (N,) or (M, N), from facet values L (d, N) and lm = l_j(m), (d,) or (M, d).

    1/2 (sum_j l_j(m) log l_j + sum_j (l_j(m) - l_j)): the second sum facet by facet, the
    first one product over the facets with some l_j(m) > 0 (log 0 = -inf gives the exact
    zeros; a stack needs l_j > 0 where one of its l_j(m) is 0).  L < -1e-12 raises, L < 0 reads 0.
    """
    if np.any(L < -1e-12):
        raise ValueError("point outside the polytope")
    L = np.maximum(L, 0.0, order="C")  # facet rows, whatever L's layout: a sum in facet order
    s = np.add.reduce(lm[..., None] - L, axis=-2)  # over the facet axis, in facet order
    on = (lm > 0).reshape(-1, len(L)).any(axis=0)
    with np.errstate(divide="ignore"):
        logs = lm[..., on] @ np.log(L[on])
    return 0.5 * (logs + s)


def closed_form_log_norm_g0(P: DelzantPolytope, m, x):
    """log of the t = 0 norm prod_j l_j(x)^{l_j(m)/2} e^{(l_j(m)-l_j(x))/2} (``_log_norm_g0``).

    Defined on all of P including the boundary; -inf exactly on facets with
    l_j(m) > 0, and equal to log_norm_matrix on the interior.  x is (..., n);
    a stack of lattice points m (M, n) on interior x gives shape (M,) + x.shape[:-1].
    """
    lm, L = _facet_values_at(P, m), P.facet_values_array(x)
    return _log_norm_g0(L.reshape(-1, P.num_facets).T, lm).reshape(lm.shape[:-1] + L.shape[:-1])


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
    """Residuals of |sigma^m_t| = e^{-t f_m} |sigma^m_0| at the points x, one per t, and
    the scale of their roundoff, max(|log |sigma^m_t||, |log |sigma^m_0| - t f_m|, |t f_m|).

    f_m is evaluated once and log |sigma^m_t| in one stacked call over t = 0, *times (row 0 is
    log |sigma^m_0|: g0 + 0 psi = g0); residuals are ``peak_relative_gap``s of the logs.
    """
    fm = ConcentrationWeight(m, pot.perturbation)(x)
    t = np.reshape([0.0, *times], (-1,) + (1,) * np.ndim(fm))
    with np.errstate(over="ignore", invalid="ignore"):  # a g_t past float64: reports refuse it
        logs = log_norm_matrix(pot, [m], x, t)[0].reshape(len(t), -1)
        tfm = (t[1:] * fm).reshape(len(t) - 1, -1)
    lhs, rhs = logs[1:], logs[:1] - tfm
    return peak_relative_gap(lhs, rhs), np.max(np.abs([lhs, rhs, tfm]), axis=(0, 2))
