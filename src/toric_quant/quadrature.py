"""Rules for the section norms on the fibers of y = A x, the concentration runs and L1 norms.

Boxes get tensor Gauss-Legendre rules, polygons under one row of A segment fibers, and the
other polytopes midpoint grids over the bounding box with an exact rational containment
test.  Every fold of the norm takes one scale, |sigma^m_0| / |sigma^m_0|(m) <= 1
(``_log_norm_ratio``): R_t and R_infinity are ratios, and the L1 norms add the peak back in
log form.  Given a lattice point m, ``make_rule`` returns the rule for that measure: on a
box the norm is a product of one factor per axis, folded into that axis's Gauss weights (a
Jacobi weight without redundant facets), and the rule keeps those per-axis factors
(``TensorRule``: the product's nodes are built only when read); a grid multiplies each cell
weight by the norm at its node, NODE_BLOCK nodes at a time.  ``pushforward`` takes a rule
to the fibers of the projection y = A x: every weight e^{-t f_m} depends on y alone, so the
concentration runs and the L1 norms pay per node once and per fiber for each t.  When every
row of A is a coordinate vector, the fibers of a tensor rule are the product grid of the
other axes and the fiber sums are contractions of the axis factors (``AxisFibers``: a
``Polynomial`` weight is evaluated on no node); any other rule groups its nodes
(``NodeFibers``).  A polygon under one row of A (not a box under a coordinate row) takes no
rule over P: its fibers are segments whose ends move affinely in y between vertex images,
and ``segment_fibers`` puts cosine-mapped Gauss nodes on each chamber in y and on each
segment.  Along a segment every facet value is affine, and the norm is folded in from these
values, LEVEL_BLOCK levels at a time.  The concentration experiment reproduces the
localization of L1-normalized sections onto the slice through their lattice point, with the
slice pairing as the t = infinity reference value (``slice_pairing``): box fibers read it
off their fiber-axis moments, segment fibers off the one segment through m, and the other
node fibers (n = 3, or k = n = 2) integrate over the slice chart (``delta_pairing``).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, prod

import numpy as np

from ._intlin import exact_int
from .polytope import (
    NODE_BLOCK,
    DelzantPolytope,
    Slice,
    _grid_scan,
    _is_box,
    _vertex_bounds,
    face_slice,
)
from .sections import ConcentrationWeight, _facet_values_at, _log_norm_g0, _log_norm_ratio
from .potential import SymplecticPotential
from .subtorus import SubtorusProjection

# nodes per Gauss axis: the O(n^2) Newton solve takes 0.1-0.25 s at this cap
MAX_GAUSS_NODES = 4096


class QuadratureError(RuntimeError):
    pass


class GridOverflowError(QuadratureError):
    """A midpoint grid leaves int64 or the scan limit, or a Gauss axis passes MAX_GAUSS_NODES."""


@dataclass(frozen=True)
class QuadratureRule:
    kind: str  # "grid", "segment" or "point"; "gauss" for a materialized TensorRule
    resolution: int
    points: np.ndarray  # (N, dim)
    weights: np.ndarray  # (N,)

    @property
    def size(self) -> int:
        return len(self.weights)

    def total_weight(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class Polynomial:
    """A weight u(x) = sum_beta C[beta] (x - c)^beta: ``expand(c)`` gives the dense tensor C
    (an axis per coordinate), and calls evaluate u on point arrays (..., n)."""

    expand: object
    evaluate: object

    def __call__(self, x):  # constants stay scalars; a constant expression is broadcast once
        with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
            v = self.evaluate(x := np.asarray(x, dtype=float))
        return v if np.ndim(v) else np.full(x.shape[:-1], v)


@dataclass(frozen=True, eq=False)
class TensorRule:
    """A tensor Gauss rule kept as its factors, one (nodes, weights) pair per axis.

    The product's ``points`` (N, dim) and ``weights`` (N,), in meshgrid
    "ij" order, are built on first read; ``AxisFibers`` contracts the
    factors instead.
    """

    resolution: int
    axes: tuple  # ((nodes, weights), ...), one pair per axis
    center: tuple = None  # where AxisFibers expands a weight: m, or the middle of the box
    kind = "gauss"

    @property
    def size(self) -> int:
        return prod(len(w) for _, w in self.axes)

    def total_weight(self) -> float:
        return float(prod(w.sum() for _, w in self.axes))

    @cached_property
    def _product(self):
        return _tensor_product(self.axes)

    points = property(lambda self: self._product[0])
    weights = property(lambda self: self._product[1])


@lru_cache(maxsize=32)
def _gauss_legendre(resolution: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per resolution."""
    if resolution > MAX_GAUSS_NODES:
        raise GridOverflowError(
            f"Gauss rule at resolution {resolution}: more than {MAX_GAUSS_NODES} nodes per axis")
    nodes, weights = _legendre_newton(resolution)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _legendre_newton(n: int):
    """The roots of P_n and their Gauss weights, in O(n^2) time and O(n) memory.

    Newton on the three-term recurrence, over all nonnegative roots at once
    from Tricomi's guesses, which are then mirrored.  The weight
    2 / ((1 - x^2) P_n'(x)^2) is taken at the last evaluated iterate and
    moved to the root by its first-order term.
    """
    # Tricomi: (1 - (n-1)/(8n^3)) cos(pi (4k-1)/(4n+2)), k <= n/2, as a sine: 0 exact for odd n
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.sin(np.pi * np.arange(n - 1, -1, -2) / (2 * n + 1))
    for _ in range(10):  # at most 4 steps for every n up to MAX_GAUSS_NODES
        p, q = x, np.ones_like(x)  # P_j(x), P_{j-1}(x)
        for j in range(1, n):
            p, q = ((2 * j + 1) * x * p - j * q) / (j + 1), p
        s = (1.0 - x) * (1.0 + x)
        dp = n * (q - x * p) / s
        x = x - (dx := p / dp)
        if np.abs(dx).max() <= 1e-15:
            break
    w = 2.0 / (s * dp ** 2) * (1.0 + 2.0 * (x + dx) * dx / s)  # s, dp were taken at x + dx
    return np.concatenate((-x[:n // 2], x[::-1])), np.concatenate((w[:n // 2], w[::-1]))


def _gauss_axis(lo: float, hi: float, resolution: int):
    nodes, weights = _gauss_legendre(resolution)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def _tensor_axes(bounds, resolution, factor=None):
    axes = [_gauss_axis(float(lo), float(hi), resolution) for lo, hi in bounds]
    if factor is not None:  # a product weight, one factor(i, nodes) per axis
        axes = [(nodes, w * factor(i, nodes)) for i, (nodes, w) in enumerate(axes)]
    return tuple(axes)


def _tensor_product(axes):
    """The nodes of per-axis (nodes, weights) in meshgrid "ij" order, and their weights.

    Each coordinate is broadcast into the (N, dim) array and the weights
    are the running outer product (w_1 w_2) w_3 ..., so no full-size
    meshgrid copies are made.
    """
    dim = len(axes)
    points = np.empty(tuple(len(nodes) for nodes, _ in axes) + (dim,))
    for i, (nodes, _) in enumerate(axes):
        points[..., i] = nodes.reshape((-1,) + (1,) * (dim - 1 - i))
    return points.reshape(-1, dim), _outer([w for _, w in axes])


def _axis_norms(P: DelzantPolytope, m):
    """(i, s) -> the factor of |sigma^m_0| / |sigma^m_0|(m) along axis i at the coordinates s.

    On a box every facet normal lies on one axis, so the facets of axis i
    give a factor of x_i alone, in log form with one exp per axis node.
    """
    R, lam, lm = P.normal_matrix, P.offset_vector, _facet_values_at(P, m)

    def factor(i, s):
        on = R[:, i] != 0
        return np.exp(_log_norm_ratio(np.multiply.outer(R[on, i], s) + lam[on, None], lm[on]))
    return factor


def box_rule(P: DelzantPolytope, resolution: int, m=None) -> TensorRule:
    """Tensor Gauss-Legendre rule; exact for polynomial degree < 2*resolution.

    Given m, the rule for |sigma^m_0| / |sigma^m_0|(m) dx, with the norm
    folded into the weights axis by axis.
    """
    if resolution < 8:
        raise QuadratureError("resolution must be at least 8")
    axes = _tensor_axes(P.box_bounds, resolution, None if m is None else _axis_norms(P, m))
    return TensorRule(resolution, axes, [s.mean() for s, _ in axes] if m is None else m)


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

    Given m, the rule for |sigma^m_0| / |sigma^m_0|(m) dx: each cell weight
    times that ratio at its node, NODE_BLOCK nodes at a time.
    """
    if resolution < 8:
        raise QuadratureError("resolution must be at least 8")
    normals = [r for r, _ in P.facets]
    offsets = [Fraction(lam) for _, lam in P.facets]
    points, weights = _midpoint_rule(normals, offsets, P.vertices, P.dim, resolution)
    if len(points) == 0:
        raise QuadratureError("empty grid rule (resolution too coarse?)")
    if m is not None:
        lm = _facet_values_at(P, m)
        for s in range(0, len(weights), NODE_BLOCK):
            L = P.normal_matrix @ points[s:s + NODE_BLOCK].T + P.offset_vector[:, None]
            weights[s:s + NODE_BLOCK] *= np.exp(_log_norm_ratio(L, lm))
    return QuadratureRule("grid", resolution, points, weights)


def slice_rule(sl: Slice, resolution: int):
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
        return TensorRule(resolution, _tensor_axes(zip(*_vertex_bounds(verts, sl.dim)), resolution))
    points, weights = _midpoint_rule(normals, offsets, verts, sl.dim, resolution)
    return QuadratureRule("grid", resolution, points, weights)


def make_rule(domain: DelzantPolytope, resolution: int, m=None):
    """Pick tensor Gauss for boxes and midpoint grids otherwise; given m,
    the rule for |sigma^m_0| / |sigma^m_0|(m) dx (``_log_norm_ratio``)."""
    if domain.is_box:
        return box_rule(domain, resolution, m)
    return grid_rule(domain, resolution, m)


class Pushforward:
    """The measure of a rule pushed forward to the image of y = A x, fiber by fiber.

    ``sums(h)`` gives the fiber sums of the weights and of w * h, shape (1 + rows,
    fibers), h = None for the weight sums alone: ``NodeFibers`` takes h mapping at most
    NODE_BLOCK nodes (B, n) to (B,) or (rows, B) values, ``AxisFibers`` a ``Polynomial``.
    ``at_fibers(g)`` gives a fiber-constant g at each fiber's first node.
    """

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


@dataclass(frozen=True)
class NodeFibers(Pushforward):
    """The nodes of a rule grouped into fibers: maximal runs of consecutive
    nodes with equal images (a skew A gets singleton fibers)."""

    rule: QuadratureRule
    starts: np.ndarray  # (fibers,): the index of each fiber's first node

    def sums(self, h) -> np.ndarray:
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
        out = np.empty(len(self.starts))
        for s in range(0, len(out), NODE_BLOCK):
            x = self.rule.points[self.starts[s:s + NODE_BLOCK]]
            out[s:s + NODE_BLOCK] = _finite(np.asarray(g(x), dtype=float), x)
        return out


class AxisFibers(Pushforward):
    """The fibers of a tensor rule under an A whose rows pick the image axes.

    Every fiber is the product grid Z of the other axes, and the fibers
    are the image grid in "ij" order.  With (s_i, w_i) the norm-folded axis
    rules, w_y the image-axis weights at y and u = sum_beta C_beta (x - c)^beta
    about the rule's center c (m, where R_t concentrates), F_u(y) = w_y sum_beta
    C_beta (y - c)^beta_image prod_{i in Z} w_i . (s_i - c_i)^beta_i: a moment per
    fiber axis and exponent, a matrix product per image axis, and no node
    array.  F_1 is the beta = 0 case of the same contraction.  ``moments`` is
    the fiber step alone: its entries at image exponent 0 are the slice sums
    behind R_infinity (``slice_pairing``).
    """

    def __init__(self, rule: TensorRule, image: tuple):
        axes = rule.axes
        self.rule, self.image = rule, image
        self.fiber = tuple(i for i in range(len(axes)) if i not in image)
        self.wy = _outer([axes[i][1] for i in image])

    def _nodes(self, r0, r1):
        """The first nodes of the fibers r0:r1: an (r1 - r0, n) view of contiguous columns."""
        axes, idx = self.rule.axes, np.arange(r0, r1)
        x = np.empty((len(axes), r1 - r0))
        for i in reversed(self.image):  # the image grid in "ij" order
            idx, j = np.divmod(idx, len(axes[i][0]))
            x[i] = axes[i][0][j]
        for i in self.fiber:
            x[i] = axes[i][0][0]
        return x.T

    def moments(self, u) -> list:
        """The fiber step of ``sums``: the coefficients of 1 and of u (u = None: 1 alone)
        with every fiber exponent contracted, one array over the image exponents each."""
        axes, c, out = self.rule.axes, self.rule.center, []
        with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
            for C in [np.ones([1] * len(axes))] + ([u.expand(c)] if u else []):
                C = C.transpose(self.image + self.fiber)
                for i in reversed(self.fiber):  # a moment per exponent of the last axis
                    s, w = axes[i]
                    C = C @ (w * np.vander(s - c[i], C.shape[-1], increasing=True).T).sum(1)
                out.append(C)
        return out

    def sums(self, u) -> np.ndarray:
        axes, c, out = self.rule.axes, self.rule.center, []
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            for C in self.moments(u):
                for i, q in zip(self.image, C.shape):  # axis i's grid replaces its exponents
                    C = (np.vander(axes[i][0] - c[i], q, increasing=True) @ C.reshape(q, -1)).T
                out.append(C.reshape(-1) * self.wy)
        out = np.array(out)
        if not np.isfinite(out).all():  # name the first node of the first non-finite fiber
            r = int(np.argmin(np.all(np.isfinite(out), axis=0)))
            _finite(out[:, r], self._nodes(r, r + 1))
        return out

    def at_fibers(self, g) -> np.ndarray:
        out = np.empty(len(self.wy))
        for s in range(0, len(out), NODE_BLOCK):
            x = self._nodes(s, min(s + NODE_BLOCK, len(out)))
            out[s:s + NODE_BLOCK] = _finite(np.asarray(g(x), dtype=float), x)
        return out


def _outer(ws):
    """The flat outer product (w_1 w_2) w_3 ... of the vectors ws in "ij" order
    (a single 1 for none)."""
    out = np.ones(1)
    for w in ws:
        out = np.multiply.outer(out, w).reshape(-1)
    return out


def _finite(vals, x):
    """vals, after checking that every value at the nodes x is finite."""
    bad = ~np.isfinite(vals)
    if np.any(bad):
        where = x[np.argmax(bad.reshape(-1, len(x)).any(axis=0))]
        raise QuadratureError(f"non-finite integrand value at {tuple(where.tolist())}")
    return vals


def pushforward(rule, proj: SubtorusProjection) -> Pushforward:
    """The fibers of a rule under y = A x.

    A tensor rule whose A has one nonzero per row contracts its axes
    (``AxisFibers``); any other rule groups its nodes NODE_BLOCK at a time.
    """
    if isinstance(rule, TensorRule) and np.all(np.count_nonzero(proj.array, axis=1) == 1):
        return AxisFibers(rule, tuple(int(np.flatnonzero(r)[0]) for r in proj.array))
    starts, last = [], np.full(proj.k, np.nan)
    for s in range(0, rule.size, NODE_BLOCK):
        y = proj.apply(rule.points[s:s + NODE_BLOCK])
        # a node opens a fiber when any column differs from the node before
        new = np.zeros(len(y), dtype=bool)
        new[0] = np.any(y[0] != last)
        for c in range(proj.k):
            new[1:] |= y[1:, c] != y[:-1, c]
        starts.append(s + np.flatnonzero(new))
        last = y[-1]
    return NodeFibers(rule, np.concatenate(starts))


# nodes per segment fiber: R_t and R_inf move by < 1e-14 from 32 to 128 on the shipped polygons
FIBER_NODES = 32
# segment levels whose norm is folded at once (8,192 nodes): 64 or 512 take 1.2-1.5 times as long
LEVEL_BLOCK = 256


def _cosine_rule(n: int):
    """n Gauss-Legendre nodes on [0, 1] under s = sin^2(theta / 2), 0 < theta < pi, with their
    weights: the map makes the half-integer powers of s and 1 - s at the ends analytic."""
    xi, w = _gauss_legendre(n)
    half = 0.25 * np.pi * (xi + 1.0)
    return np.sin(half) ** 2, 0.5 * np.pi * np.sin(half) * np.cos(half) * w


def _is_planar(P: DelzantPolytope, proj: SubtorusProjection) -> bool:
    """n = 2 and k = 1, except a box under a coordinate row (``AxisFibers``): segment fibers."""
    return P.dim == 2 and proj.k == 1 and not (P.is_box and np.count_nonzero(proj.array) == 1)


def segment_fibers(P: DelzantPolytope, proj: SubtorusProjection, resolution: int,
                   m=None) -> NodeFibers:
    """The fibers of a planar input over resolution cosine-mapped levels y on each chamber
    of A(P), the intervals between consecutive vertex images, where the fiber ends move
    affinely (``_segments``)."""
    if resolution < 8:
        raise QuadratureError("resolution must be at least 8")
    cuts = np.array(sorted({proj.apply(v.point)[0] for v in P.vertices}), dtype=float)
    (s, w), width = _cosine_rule(resolution), np.diff(cuts)
    return _segments(P, proj, m, (cuts[:-1, None] + np.multiply.outer(width, s)).reshape(-1),
                     np.multiply.outer(width, w).reshape(-1))


def _segments(P: DelzantPolytope, proj: SubtorusProjection, m, ys, wy) -> NodeFibers:
    """FIBER_NODES cosine-mapped nodes on the fiber segment over each level y in ys (weight
    wy), for dx or for |sigma^m_0| / |sigma^m_0|(m) dx; levels whose fiber is a point drop.

    With a the row of A and d = (-a_2, a_1), x = y a / |a|^2 + s d has Jacobian 1, so the
    nodes are made in x and P, m, u and psi need no transform.  On a fiber each facet value
    is affine in s, l_j = c_j(y) + <r_j, d> s with c_j = <r_j, a> y / |a|^2 + lambda_j: a
    facet with <r_j, d> != 0 bounds s at -c_j / <r_j, d>, the fiber [lo, hi] runs from the
    largest lower to the smallest upper bound, and the norm is folded into the weights from
    these values (``_log_norm_ratio``), LEVEL_BLOCK levels at a time.
    """
    a = proj.array[0]
    d, base = np.array([-a[1], a[0]]), a / (a @ a)
    rd = P.normal_matrix @ d
    c = np.multiply.outer(P.normal_matrix @ base, ys) + P.offset_vector[:, None]  # (facets, levels)
    lo, hi = (-c[rd > 0] / rd[rd > 0, None]).max(0), (-c[rd < 0] / rd[rd < 0, None]).min(0)
    keep = hi > lo
    ys, lo, length, c = ys[keep], lo[keep], (hi - lo)[keep], c[:, keep]
    s, ws = _cosine_rule(FIBER_NODES)
    S = lo[:, None] + np.multiply.outer(length, s)  # (levels, FIBER_NODES), fiber-major
    points = np.empty(S.shape + (2,))
    for i in (0, 1):  # a broadcast over the length-2 axis takes 8x as long
        np.add(ys[:, None] * base[i], S * d[i], out=points[..., i])
    points, weights = points.reshape(-1, 2), np.multiply.outer(wy[keep] * length, ws)
    if m is not None:
        lm = _facet_values_at(P, m)
        for b in range(0, len(S), LEVEL_BLOCK):
            L = c[:, b:b + LEVEL_BLOCK, None] + np.multiply.outer(rd, S[b:b + LEVEL_BLOCK])
            weights[b:b + LEVEL_BLOCK] *= np.exp(_log_norm_ratio(L.reshape(len(L), -1), lm)
                                                 ).reshape(-1, FIBER_NODES)
    return NodeFibers(QuadratureRule("segment", FIBER_NODES, points, weights.reshape(-1)),
                      np.arange(0, weights.size, FIBER_NODES))


def _fibers(P: DelzantPolytope, proj: SubtorusProjection, resolution: int, m) -> Pushforward:
    """The fibers of y = A x under |sigma^m_0| / |sigma^m_0|(m) dx: segments over the
    chambers on planar inputs, else the pushforward of ``make_rule``."""
    if _is_planar(P, proj):
        return segment_fibers(P, proj, resolution, m)
    return pushforward(make_rule(P, resolution, m), proj)


def _one_fiber(rule: QuadratureRule) -> Pushforward:
    return NodeFibers(rule, np.zeros(1, dtype=int))


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
    mean of u, so chart constants and the norm's scale cancel.  ``slice_pairing`` takes this path
    for node fibers other than planar segments (grids, and skew A on boxes in n >= 3).
    """
    m = tuple(map(exact_int, m))
    sl, lm = face_slice(P, proj, proj.apply(m)), _facet_values_at(P, m)

    def h(v):  # (|sigma^m_0|, |sigma^m_0| u) at the slice nodes, one norm per node
        x = sl.embed(v)
        norm = np.exp(_log_norm_ratio(P.normal_matrix @ x.T + P.offset_vector[:, None], lm))
        return norm, norm * np.asarray(u(x), dtype=float)
    den, num = _one_fiber(slice_rule(sl, resolution)).sums(h)[1:, 0]
    if den <= 0:
        raise QuadratureError("slice norm integral vanished")
    return float(num / den)


def slice_pairing(push: Pushforward | None, P: DelzantPolytope, proj: SubtorusProjection, m, u,
                  resolution: int) -> float:
    """R_infinity, the mean of u against |sigma^m_0| on the fiber through m, with
    resolution nodes per slice axis: the one place R_infinity is taken.

    Box fibers (push, the R_t rule's) read it off their fiber-axis moments at
    image exponent 0 (of a resolution-node rule when theirs has fewer nodes):
    the rule's center is m, so every term with an image exponent vanishes at
    y_m = A m, and the image weights are constant on the slice and cancel.
    Planar inputs take F_u(y_m) / F_1(y_m) from ``_segments`` at the one level
    y_m (u(m) when that fiber is the vertex m).  Any other input integrates over the
    slice chart (``delta_pairing``).
    """
    if isinstance(push, AxisFibers):
        if push.rule.resolution < resolution:
            push = AxisFibers(box_rule(P, resolution, m), push.image)
        den, num = (M.flat[0] for M in push.moments(u))
    elif _is_planar(P, proj):
        push = _segments(P, proj, m, np.array([float(proj.apply(m)[0])]), np.ones(1))
        if push.rule.size == 0:
            return float(u(np.array(m, dtype=float)))
        den, num = push.sums(u)[:, 0]
    else:
        return delta_pairing(P, proj, m, u, resolution)
    with np.errstate(all="ignore"):  # reported just below
        rinf = num / den
    if not (den > 0 and np.isfinite(rinf)):
        raise QuadratureError(f"non-finite or vanishing slice pairing at m = {m}")
    return float(rinf)


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

    pot is the potential family; f_m comes from its psi; u is a ``Polynomial``;
    m is a lattice point (a coordinate that is not an integer raises ValueError).
    Uses the factorization of the time-t norm through the t=0 norm; the rule
    integrates against |sigma^m_0| / |sigma^m_0|(m) dx (the scale cancels in
    R_t) and f_m depends on y = A x alone, so
    both integrals are sums over fibers r of e^{-t f_m(y_r)} times the fiber
    sums of the weights and of u.
    The minimum of f_m is subtracted before exponentiating so the weights
    stay finite for large t.  The errors compare against R_infinity (``slice_pairing``).
    """
    if not isinstance(u, Polynomial):
        raise TypeError("u must be a Polynomial that expands about a point (cli.parse_weight)")
    t_list = [float(t) for t in t_list]
    if any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise ValueError("t_list must be strictly increasing")
    P, proj = pot.polytope, pot.proj
    m = tuple(map(exact_int, m))
    fm = ConcentrationWeight(m, pot.perturbation)
    u = Polynomial(lru_cache(maxsize=1)(u.expand), u.evaluate)  # one expansion: R_t and R_inf
    # the norm is in the weights: the fiber sums are of w and of w * u
    push = _fibers(P, proj, resolution, m)
    masses, _ = push.masses(u, fm, t_list)
    ratios = []
    for t, (den, num) in zip(t_list, masses):
        if not den > 0:  # the folded weights keep every mass finite
            raise QuadratureError(f"degenerate concentration mass at t={t}")
        ratios.append(float(num) / float(den))
    # node fibers hold every node of the rule: they go before the slice rule is built
    if not isinstance(push, AxisFibers):
        push = None
    rinf = slice_pairing(push, P, proj, m, u, max(resolution, 64))
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


def l1_norms(pot: SymplecticPotential, m, resolution: int, times) -> list:
    """The L1 norm over P of sigma^m under g_t for each t in times.

    Through the factorization |sigma^m_t| = e^{-t f_m} |sigma^m_0|: the rule at resolution
    (``_fibers``) integrates against |sigma^m_0| / |sigma^m_0|(m) dx, its weights are summed
    over each fiber once, and each t costs one exponential per fiber.  A vanishing mass or
    a non-finite norm raises QuadratureError.
    """
    push = _fibers(pot.polytope, pot.proj, resolution, m)
    masses, fmin = push.masses(None, ConcentrationWeight(m, pot.perturbation), times)
    lm, norms = _facet_values_at(pot.polytope, m), []
    peak = _log_norm_g0(lm[:, None], lm)[0]  # log |sigma^m_0|(m), which the folds divide out
    for t, (mass,) in zip(map(float, times), masses):
        if not mass > 0:
            raise QuadratureError(f"vanishing fiber mass of sigma^{tuple(m)} at t={t:g}")
        # the peak and e^{-t min f_m} are applied in log form: they may leave
        # float64 where the norm does not
        with np.errstate(over="ignore"):
            l1 = float(np.exp(np.log(mass) + peak - t * fmin))
        if not np.isfinite(l1):
            raise QuadratureError(f"non-finite L1 norm of sigma^{tuple(m)} at t={t:g}")
        norms.append(l1)
    return norms
