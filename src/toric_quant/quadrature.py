"""Quadrature over the polytope and its slices, and the concentration runs.

Box polytopes get tensor Gauss-Legendre rules; general polytopes get
midpoint grids over the bounding box with an exact rational containment
test.  The concentration experiment reproduces the localization of
L1-normalized sections onto the slice through their lattice point, with the
slice pairing as the t = infinity reference value.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .polytope import DelzantPolytope, Slice, face_slice
from .sections import ConcentrationWeight, closed_form_norm_g0
from .subtorus import ConvexFunction, SubtorusProjection


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    kind: str  # "gauss" or "grid"
    resolution: int
    points: np.ndarray  # (N, dim)
    weights: np.ndarray  # (N,)
    domain: object  # DelzantPolytope or Slice

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


def _tensor_rule(bounds, resolution):
    axes = [_gauss_axis(float(lo), float(hi), resolution) for lo, hi in bounds]
    pts = [a[0] for a in axes]
    wts = [a[1] for a in axes]
    grids = np.meshgrid(*pts, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*wts, indexing="ij")
    weights = np.prod(np.stack([w.ravel() for w in wgrids], axis=-1), axis=-1)
    return points, weights


def box_rule(P: DelzantPolytope, resolution: int) -> QuadratureRule:
    """Tensor Gauss-Legendre rule; exact for polynomial degree < 2*resolution."""
    if resolution < 8:
        raise QuadratureError("resolution must be at least 8")
    points, weights = _tensor_rule(P.box_bounds(), resolution)
    return QuadratureRule("gauss", resolution, points, weights, P)


def _rational_bbox(vertices, dim):
    lo = [min(Fraction(v.point[i]) for v in vertices) for i in range(dim)]
    hi = [max(Fraction(v.point[i]) for v in vertices) for i in range(dim)]
    return lo, hi


def _midpoint_rule(normals, offsets, vertices, dim, resolution):
    """Midpoint grid over the rational bounding box, exact containment.

    Grid points are rational with one common denominator, so membership
    reduces to integer comparisons (vectorized in int64).
    """
    lo, hi = _rational_bbox(vertices, dim)
    widths = [h - l for l, h in zip(lo, hi)]
    if any(w == 0 for w in widths):
        raise QuadratureError("degenerate bounding box for grid rule")
    den = 1
    for v in list(widths) + list(lo) + list(offsets):
        den = lcm(den, Fraction(v).denominator)
    den *= 2 * resolution
    # coordinates: x_i = lo + (2j+1) * width / (2*resolution), j = 0..res-1
    axes_num = []
    for l, w in zip(lo, widths):
        nums = [int((l + Fraction(2 * j + 1, 2 * resolution) * w) * den)
                for j in range(resolution)]
        axes_num.append(np.array(nums, dtype=np.int64))
    grids = np.meshgrid(*axes_num, indexing="ij")
    num = np.stack([g.ravel() for g in grids], axis=-1)  # (N, dim) integers
    R = np.array([[int(c) for c in r] for r in normals], dtype=np.int64)
    lam = np.array([int(off * den) for off in offsets], dtype=np.int64)
    # strict: cells whose midpoint lands exactly on a facet are dropped, so
    # every node is usable by interior-only evaluators
    feas = np.all(num @ R.T + lam > 0, axis=1)
    cell = float(np.prod([w / resolution for w in widths]))
    points = num[feas].astype(float) / den
    weights = np.full(points.shape[0], cell)
    return points, weights


def grid_rule(P: DelzantPolytope, resolution: int) -> QuadratureRule:
    """Midpoint rule with exact containment; volume accurate to O(1/resolution)."""
    if resolution < 8:
        raise QuadratureError("resolution must be at least 8")
    normals = [r for r, _ in P.facets]
    offsets = [Fraction(lam) for _, lam in P.facets]
    points, weights = _midpoint_rule(normals, offsets, P.vertices, P.dim, resolution)
    if len(points) == 0:
        raise QuadratureError("empty grid rule (resolution too coarse?)")
    return QuadratureRule("grid", resolution, points, weights, P)


def _slice_is_box(normals, dim):
    seen = set()
    for r in normals:
        nz = [(i, v) for i, v in enumerate(r) if v != 0]
        if len(nz) == 0:
            continue  # constraint constant on the chart
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            return False
        seen.add(nz[0])
    return len(seen) == 2 * dim


def slice_rule(sl: Slice, resolution: int) -> QuadratureRule:
    """Rule over the chart polytope of a slice (Lebesgue measure du).

    Zero-dimensional slices get a single point of weight one, so slice
    integrals degenerate to point evaluation.
    """
    if sl.dim == 0:
        return QuadratureRule("point", 1, np.zeros((1, 0)), np.ones(1), sl)
    if resolution < 8:
        raise QuadratureError("resolution must be at least 8")
    normals, offsets = sl.chart_halfspaces()
    verts = sl.chart_vertices
    if not verts:
        raise QuadratureError("slice chart polytope is empty")
    if _slice_is_box(normals, sl.dim):
        lo, hi = _rational_bbox(verts, sl.dim)
        points, weights = _tensor_rule(list(zip(map(float, lo), map(float, hi))),
                                       resolution)
        return QuadratureRule("gauss", resolution, points, weights, sl)
    points, weights = _midpoint_rule(normals, offsets, verts, sl.dim, resolution)
    return QuadratureRule("grid", resolution, points, weights, sl)


def make_rule(domain, resolution: int, kind: str | None = None) -> QuadratureRule:
    """Pick tensor Gauss for boxes and midpoint grids otherwise."""
    if isinstance(domain, Slice):
        return slice_rule(domain, resolution)
    if kind == "gauss" or (kind is None and domain.is_box):
        return box_rule(domain, resolution)
    if kind in (None, "grid"):
        return grid_rule(domain, resolution)
    raise QuadratureError(f"unknown rule kind {kind!r}")


def integrate(f, rule: QuadratureRule) -> float:
    """Weighted sum of f over the rule points; rejects non-finite values."""
    vals = np.asarray(f(rule.points), dtype=float)
    if vals.shape != (rule.size,):
        raise QuadratureError(
            f"integrand returned shape {vals.shape}, expected ({rule.size},)")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        where = rule.points[np.argmax(bad)]
        raise QuadratureError(f"non-finite integrand value at {tuple(where)}")
    return float(vals @ rule.weights)


def integrate_slice(f, sl: Slice, resolution: int = 128,
                    rule: QuadratureRule | None = None) -> float:
    """Integral over the slice in lattice-normalized chart coordinates.

    f receives ambient points x = x0 + B^T u; the measure is Lebesgue du in
    the integer chart, which is the slice volume normalization every pairing
    ratio relies on.
    """
    if rule is None:
        rule = slice_rule(sl, resolution)
    if rule.domain is not sl:
        raise QuadratureError("rule was built for a different slice")
    return integrate(lambda u: np.asarray(f(sl.embed(u)), dtype=float), rule)


def delta_pairing(P: DelzantPolytope, proj: SubtorusProjection, m, u,
                  resolution: int = 256) -> float:
    """Normalized slice pairing of the t=0 section norm against a weight u.

    Integrates over the fiber through the lattice point m (a face of P when
    the image of m is a boundary level, including a single point for vertex
    fibers).  The normalization makes the result a weighted mean of u, so
    chart constants cancel.
    """
    m = tuple(int(v) for v in m)
    sl = face_slice(P, proj, proj.apply(m))
    rule = slice_rule(sl, resolution)
    norm = lambda x: closed_form_norm_g0(P, m, x)
    den = integrate_slice(norm, sl, rule=rule)
    if den <= 0:
        raise QuadratureError("slice norm integral vanished")
    num = integrate_slice(lambda x: norm(x) * np.asarray(u(x), dtype=float),
                          sl, rule=rule)
    return num / den


# errors at or below this are quadrature roundoff: they carry no decay rate
ROUNDOFF_FLOOR = 1e-13


@dataclass(frozen=True)
class ConcentrationResult:
    t_values: tuple
    ratios: tuple  # R_t = weighted pairing at each t
    slice_value: float  # R_infinity from the slice pairing
    errors: tuple  # |R_t - R_infinity|
    # least-squares slope of log error vs log t over the errors above
    # ROUNDOFF_FLOOR; None when fewer than two errors clear it
    decay_exponent: float | None

    def rows(self):
        return list(zip(self.t_values, self.ratios, self.errors))


def concentration_experiment(P: DelzantPolytope, proj: SubtorusProjection,
                             phi: ConvexFunction, m, u, t_list,
                             rule: QuadratureRule | None = None,
                             resolution: int = 256) -> ConcentrationResult:
    """R_t = int e^{-t f_m} |sigma^m_0| u dx / int e^{-t f_m} |sigma^m_0| dx.

    Uses the factorization of the time-t norm through the t=0 norm, with the
    minimum of f_m over the rule subtracted before exponentiating so the
    weights stay finite for large t.  The reported errors compare against
    the slice pairing R_infinity.
    """
    t_list = [float(t) for t in t_list]
    if any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise ValueError("t_list must be strictly increasing")
    if rule is None:
        rule = make_rule(P, resolution)
    m = tuple(int(v) for v in m)
    fm = ConcentrationWeight.from_projection(proj, phi, m)
    fvals = fm(rule.points)
    base = closed_form_norm_g0(P, m, rule.points) * rule.weights
    uvals = np.asarray(u(rule.points), dtype=float)
    if not (np.all(np.isfinite(fvals)) and np.all(np.isfinite(uvals))):
        raise QuadratureError("non-finite integrand in concentration weights")
    fmin = float(fvals.min())
    ratios = []
    for t in t_list:
        w = np.exp(-t * (fvals - fmin)) * base
        den = float(w.sum())
        if den <= 0 or not np.isfinite(den):
            raise QuadratureError(f"degenerate concentration mass at t={t}")
        ratios.append(float((w * uvals).sum()) / den)
    rinf = delta_pairing(P, proj, m, u, resolution=max(rule.resolution, 64))
    errors = [abs(r - rinf) for r in ratios]
    above = [(t, e) for t, e in zip(t_list, errors) if e > ROUNDOFF_FLOOR]
    slope = None
    if len(above) >= 2:
        slope = float(np.polyfit(np.log([t for t, _ in above]),
                                 np.log([e for _, e in above]), 1)[0])
    return ConcentrationResult(t_values=tuple(t_list), ratios=tuple(ratios),
                               slice_value=rinf, errors=tuple(errors),
                               decay_exponent=slope)
