"""Quadrature over the polytope and its slices, and the concentration runs.

Box polytopes get tensor Gauss-Legendre rules; general polytopes get
midpoint grids over the bounding box with an exact rational containment
test.  Given a lattice point m, ``make_rule`` returns the rule for the
measure |sigma^m_0| dx: on a box the norm is a product of one factor per
axis, folded into that axis's Gauss weights before the tensor product (a
Jacobi weight (s - a)^{(m_i - a)/2} (b - s)^{(b - m_i)/2} without redundant
facets), and a grid multiplies each cell weight by the norm at its node.
``pushforward`` groups the nodes of a rule into the fibers of the
projection y = A x and sums node-wise integrands per fiber: every weight
e^{-t f_m} depends on y alone, so the concentration runs and the L1 norms
pay per node once and per fiber for each t.  The concentration experiment
reproduces the localization of L1-normalized sections onto the slice
through their lattice point, with the slice pairing as the t = infinity
reference value.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .polytope import (
    NODE_BLOCK,
    DelzantPolytope,
    Slice,
    _grid_scan,
    _is_box,
    _vertex_bounds,
    face_slice,
)
from .sections import (ConcentrationWeight, _facet_values_at, _log_norm_g0,
                       closed_form_norm_g0)
from .potential import SymplecticPotential
from .subtorus import SubtorusProjection


class QuadratureError(RuntimeError):
    pass


class GridOverflowError(QuadratureError):
    """The integer midpoint grid at this resolution leaves int64 or the scan limit."""


@dataclass(frozen=True)
class QuadratureRule:
    kind: str  # "gauss" or "grid"
    resolution: int
    points: np.ndarray  # (N, dim)
    weights: np.ndarray  # (N,)

    @property
    def size(self) -> int:
        return len(self.weights)

    def total_weight(self) -> float:
        return float(self.weights.sum())


@lru_cache(maxsize=32)
def _gauss_legendre(resolution: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per resolution."""
    nodes, weights = np.polynomial.legendre.leggauss(resolution)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _gauss_axis(lo: float, hi: float, resolution: int):
    nodes, weights = _gauss_legendre(resolution)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def _tensor_rule(bounds, resolution, factor=None):
    axes = [_gauss_axis(float(lo), float(hi), resolution) for lo, hi in bounds]
    if factor is not None:  # a product weight, one factor(i, nodes) per axis
        axes = [(nodes, w * factor(i, nodes)) for i, (nodes, w) in enumerate(axes)]
    dim = len(axes)
    # the nodes in meshgrid "ij" order, but each coordinate is broadcast into
    # the (N, dim) array and the weights are the running outer product
    # (w_1 w_2) w_3 ..., so no full-size meshgrid copies are made
    points = np.empty((resolution,) * dim + (dim,))
    for i, (nodes, _) in enumerate(axes):
        points[..., i] = nodes.reshape((-1,) + (1,) * (dim - 1 - i))
    weights = axes[0][1]
    for _, w in axes[1:]:
        weights = np.multiply.outer(weights, w)
    return points.reshape(-1, dim), weights.reshape(-1)


def _axis_norms(P: DelzantPolytope, m):
    """(i, s) -> the factor of |sigma^m_0| along axis i at the coordinates s.

    On a box every facet normal lies on one axis, so the facets of axis i
    give a factor of x_i alone, in log form with one exp per axis node.
    """
    R, lam, lm = P.normal_matrix, P.offset_vector, _facet_values_at(P, m)

    def factor(i, s):
        on = R[:, i] != 0
        return np.exp(_log_norm_g0(np.multiply.outer(s, R[on, i]) + lam[on], lm[on]))
    return factor


def box_rule(P: DelzantPolytope, resolution: int, m=None) -> QuadratureRule:
    """Tensor Gauss-Legendre rule; exact for polynomial degree < 2*resolution.

    Given m, the rule for |sigma^m_0| dx, with the norm folded into the
    weights axis by axis.
    """
    if resolution < 8:
        raise QuadratureError("resolution must be at least 8")
    factor = None if m is None else _axis_norms(P, m)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        points, weights = _tensor_rule(P.box_bounds(), resolution, factor)
    if m is not None:
        _finite(weights, points)
    return QuadratureRule("gauss", resolution, points, weights)


def _midpoint_rule(normals, offsets, vertices, dim, resolution):
    """Midpoint grid over the rational bounding box, exact containment.

    Grid points are rational with one common denominator, so each axis is
    an integer progression and membership reduces to exact int64 interval
    ends on each grid line.
    """
    lo, hi = _vertex_bounds(vertices, dim)
    widths = [h - l for l, h in zip(lo, hi)]
    if any(w == 0 for w in widths):
        raise QuadratureError("degenerate bounding box for grid rule")
    D = 1
    for v in list(widths) + list(lo) + list(offsets):
        D = lcm(D, Fraction(v).denominator)
    den = 2 * resolution * D
    # coordinates: x_i = lo + (2j+1) * width / (2*resolution), j = 0..res-1,
    # times den: the integer progression from lo*den + width*D in steps of 2*width*D
    axes_num = [range(int(l * den + w * D), int(h * den), int(2 * w * D))
                for l, w, h in zip(lo, widths, hi)]
    # strict: cells whose midpoint lands exactly on a facet are dropped, so
    # every node is usable by interior-only evaluators
    try:
        num = _grid_scan(axes_num, [[int(c) for c in r] for r in normals],
                         [int(off * den) for off in offsets], strict=True)
    except OverflowError as exc:
        raise GridOverflowError(f"midpoint grid at resolution {resolution}: {exc}") from exc
    cell = float(np.prod([w / resolution for w in widths]))
    # num / den overwrites num block by block through a float64 view, so
    # the int64 grid and its coordinates never coexist
    points = num.view(np.float64)
    for s in range(0, len(num), NODE_BLOCK):
        np.divide(num[s:s + NODE_BLOCK], den, out=points[s:s + NODE_BLOCK])
    weights = np.full(points.shape[0], cell)
    return points, weights


def grid_rule(P: DelzantPolytope, resolution: int, m=None) -> QuadratureRule:
    """Midpoint rule with exact containment; volume accurate to O(1/resolution).

    Given m, the rule for |sigma^m_0| dx: each cell weight times the norm
    at its node, NODE_BLOCK nodes at a time.
    """
    if resolution < 8:
        raise QuadratureError("resolution must be at least 8")
    normals = [r for r, _ in P.facets]
    offsets = [Fraction(lam) for _, lam in P.facets]
    points, weights = _midpoint_rule(normals, offsets, P.vertices, P.dim, resolution)
    if len(points) == 0:
        raise QuadratureError("empty grid rule (resolution too coarse?)")
    if m is not None:
        with np.errstate(over="ignore"):  # reported just below
            for s in range(0, len(weights), NODE_BLOCK):
                weights[s:s + NODE_BLOCK] *= closed_form_norm_g0(P, m, points[s:s + NODE_BLOCK])
        _finite(weights, points)
    return QuadratureRule("grid", resolution, points, weights)


def slice_rule(sl: Slice, resolution: int) -> QuadratureRule:
    """Rule over the chart polytope of a slice (Lebesgue measure du).

    Zero-dimensional slices get a single point of weight one, so slice
    integrals degenerate to point evaluation.
    """
    if sl.dim == 0:
        return QuadratureRule("point", 1, np.zeros((1, 0)), np.ones(1))
    if resolution < 8:
        raise QuadratureError("resolution must be at least 8")
    normals, offsets = sl.chart_halfspaces()
    verts = sl.chart_vertices
    if not verts:
        raise QuadratureError("slice chart polytope is empty")
    if _is_box(normals, sl.dim):
        points, weights = _tensor_rule(zip(*_vertex_bounds(verts, sl.dim)), resolution)
        return QuadratureRule("gauss", resolution, points, weights)
    points, weights = _midpoint_rule(normals, offsets, verts, sl.dim, resolution)
    return QuadratureRule("grid", resolution, points, weights)


def make_rule(domain: DelzantPolytope, resolution: int, m=None) -> QuadratureRule:
    """Pick tensor Gauss for boxes and midpoint grids otherwise; given m,
    the rule for |sigma^m_0| dx."""
    if domain.is_box:
        return box_rule(domain, resolution, m)
    return grid_rule(domain, resolution, m)


@dataclass(frozen=True)
class Pushforward:
    """The nodes of a rule grouped into fibers of a projection y = A x.

    A fiber is a maximal run of consecutive nodes with equal images.  Rules
    in meshgrid "ij" order with A = [I_k | 0] get one fiber per image node;
    a skew A gets singleton fibers.
    """

    rule: QuadratureRule
    images: np.ndarray  # (fibers, k): the image of each fiber
    starts: np.ndarray  # (fibers,): the index of each fiber's first node

    def sums(self, h) -> np.ndarray:
        """Per-fiber sums of w, then of w * h, shape (1 + rows, fibers), for h
        mapping NODE_BLOCK nodes (B, n) at a time to (B,) or (rows, B) values;
        h = None gives the weight sums alone."""
        rule, starts = self.rule, self.starts
        for s in range(0, rule.size, NODE_BLOCK):
            x, w = rule.points[s:s + NODE_BLOCK], rule.weights[s:s + NODE_BLOCK]
            vals = np.empty((0, len(x))) if h is None else _finite(
                np.atleast_2d(np.asarray(h(x), dtype=float)), x)
            if s == 0:
                out = np.zeros((1 + len(vals), len(starts)))
            # the fiber holding node s, then every fiber that starts in the block
            f0 = np.searchsorted(starts, s, side="right") - 1
            f1 = np.searchsorted(starts, s + len(x))
            cuts = np.maximum(starts[f0:f1] - s, 0)
            out[0, f0:f1] += np.add.reduceat(w, cuts)
            out[1:, f0:f1] += np.add.reduceat(vals * w, cuts, axis=1)
        return out

    def at_fibers(self, g) -> np.ndarray:
        """g, constant on fibers, at their first nodes, NODE_BLOCK at a time."""
        out = np.empty(len(self.starts))
        for s in range(0, len(out), NODE_BLOCK):
            x = self.rule.points[self.starts[s:s + NODE_BLOCK]]
            out[s:s + NODE_BLOCK] = _finite(np.asarray(g(x), dtype=float), x)
        return out

    def masses(self, h, f, times):
        """sum_r e^{-t (f_r - min f)} F_r, shape (len(times), 1 + rows), and min f.

        F are the fiber sums of the weights and of the node-wise h (sums) and
        f_r is the fiber-constant f at fiber r: h is summed once, and each t
        costs one exp per fiber."""
        F = self.sums(h)
        fr = self.at_fibers(f)
        fmin = fr.min()
        fr -= fmin
        out, w = np.empty((len(times), len(F))), np.empty_like(fr)
        for i, t in enumerate(times):
            np.exp(np.multiply(fr, -t, out=w), out=w)
            out[i] = [w @ row for row in F]
        return out, float(fmin)


def _finite(vals, x):
    """vals, after checking that every value at the nodes x is finite."""
    bad = ~np.isfinite(vals)
    if np.any(bad):
        where = x[np.argmax(bad.reshape(-1, len(x)).any(axis=0))]
        raise QuadratureError(f"non-finite integrand value at {tuple(where.tolist())}")
    return vals


def pushforward(rule: QuadratureRule, proj: SubtorusProjection) -> Pushforward:
    """Group the nodes of a rule into fibers, NODE_BLOCK nodes at a time."""
    starts, images, last = [], [], np.full(proj.k, np.nan)
    for s in range(0, rule.size, NODE_BLOCK):
        y = proj.apply(rule.points[s:s + NODE_BLOCK])
        # a node opens a fiber when any column differs from the node before
        new = np.zeros(len(y), dtype=bool)
        new[0] = np.any(y[0] != last)
        for c in range(proj.k):
            new[1:] |= y[1:, c] != y[:-1, c]
        starts.append(s + np.flatnonzero(new))
        images.append(y[new])
        last = y[-1]
    return Pushforward(rule, np.concatenate(images), np.concatenate(starts))


def _one_fiber(rule: QuadratureRule) -> Pushforward:
    return Pushforward(rule, np.zeros((1, 0)), np.zeros(1, dtype=int))


def integrate(f, rule: QuadratureRule) -> float:
    """Weighted sum of f over the rule points (one fiber); rejects non-finite values."""
    return float(_one_fiber(rule).sums(f)[1, 0])


def delta_pairing(P: DelzantPolytope, proj: SubtorusProjection, m, u,
                  resolution: int = 256) -> float:
    """Normalized slice pairing of the t=0 section norm against a weight u.

    Integrates over the fiber through the lattice point m (a face of P when
    the image of m is a boundary level, including a single point for vertex
    fibers) in the chart measure du of x = x0 + B^T u, numerator and
    denominator in one pass.  The normalization makes the result a weighted
    mean of u, so chart constants cancel.
    """
    m = tuple(int(v) for v in m)
    sl = face_slice(P, proj, proj.apply(m))

    def h(v):  # (|sigma^m_0|, |sigma^m_0| u) at the slice nodes, one norm per node
        x = sl.embed(v)
        norm = closed_form_norm_g0(P, m, x)
        return norm, norm * np.asarray(u(x), dtype=float)
    den, num = _one_fiber(slice_rule(sl, resolution)).sums(h)[1:, 0]
    if den <= 0:
        raise QuadratureError("slice norm integral vanished")
    return float(num / den)


# errors at or below this, relative to max(1, |R_infinity|), are quadrature
# roundoff: they carry no decay rate
ROUNDOFF_FLOOR = 1e-13


def roundoff_floor(slice_value: float) -> float:
    """The error floor of a concentration fit whose limit is slice_value."""
    return ROUNDOFF_FLOOR * max(1.0, abs(slice_value))


@dataclass(frozen=True)
class ConcentrationResult:
    t_values: tuple
    ratios: tuple  # R_t = weighted pairing at each t
    slice_value: float  # R_infinity from the slice pairing
    errors: tuple  # |R_t - R_infinity|
    # least-squares slope of log error vs log t over the errors above
    # roundoff_floor(slice_value); None when fewer than two errors clear it
    decay_exponent: float | None


def concentration_experiment(pot: SymplecticPotential, m, u, t_list,
                             resolution: int = 256) -> ConcentrationResult:
    """R_t = int e^{-t f_m} |sigma^m_0| u dx / int e^{-t f_m} |sigma^m_0| dx.

    pot is the potential family; f_m comes from its psi.  Uses the
    factorization of the time-t norm through the t=0 norm; the rule
    integrates against |sigma^m_0| dx and f_m depends on y = A x alone, so
    both integrals are sums over fibers r of e^{-t f_m(y_r)} times the fiber
    sums of the weights and of u.
    The minimum of f_m is subtracted before exponentiating so the weights
    stay finite for large t.  The errors compare against R_infinity.
    """
    t_list = [float(t) for t in t_list]
    if any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise ValueError("t_list must be strictly increasing")
    P, proj = pot.polytope, pot.proj
    m = tuple(int(v) for v in m)
    fm = ConcentrationWeight(m, pot.perturbation)
    # the norm is in the weights: the fiber sums are of w and of w * u
    masses, _ = pushforward(make_rule(P, resolution, m), proj).masses(u, fm, t_list)
    ratios = []
    for t, (den, num) in zip(t_list, masses):
        if den <= 0 or not np.isfinite(den):
            raise QuadratureError(f"degenerate concentration mass at t={t}")
        ratios.append(float(num) / float(den))
    rinf = delta_pairing(P, proj, m, u, resolution=max(resolution, 64))
    errors = [abs(r - rinf) for r in ratios]
    floor = roundoff_floor(rinf)
    above = [(t, e) for t, e in zip(t_list, errors) if e > floor]
    slope = None
    if len(above) >= 2:
        slope = float(np.polyfit(np.log([t for t, _ in above]),
                                 np.log([e for _, e in above]), 1)[0])
    return ConcentrationResult(t_values=tuple(t_list), ratios=tuple(ratios),
                               slice_value=rinf, errors=tuple(errors),
                               decay_exponent=slope)
