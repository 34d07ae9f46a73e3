"""Delzant polytopes from halfspace data.

A polytope is stored as integer facet data (primitive normals r_j and
integer offsets lambda_j) defining P = {x : l_j(x) = <x, r_j> + lambda_j >= 0}.
Vertices, smoothness certificates and the vertices of a ``Slice`` chart run
in exact rational arithmetic; the lattice (one int64 array), its weight counts
and the default point m in exact int64 arithmetic, whose range ``vertices``
checks.  Numpy views of the facet data are provided for the analytic modules.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, lcm, prod

import numpy as np

from ._intlin import (
    exact_int,
    integer_det,
    integer_kernel_basis,
    is_primitive,
    rational_rank,
    rational_solve,
)

# points per block when a grid is scanned or a node-wise integrand is
# evaluated: the temporaries stay at a few MB however fine the grid is
NODE_BLOCK = 1 << 15
# grid points one exact lattice scan may cover
MAX_SCAN = 1 << 32
_INT64 = np.iinfo(np.int64)


class GridRangeError(OverflowError):
    """An exact grid scan would walk more than MAX_SCAN points or leave int64."""


class PolytopeError(ValueError):
    """Invalid halfspace data (unbounded, empty interior, bad normals...)."""


@dataclass(frozen=True)
class Vertex:
    point: tuple  # exact rational coordinates
    active_facets: tuple  # 0-based facet indices where l_j vanishes


@dataclass(frozen=True)
class DelzantCertificate:
    """Result of the vertex-unimodularity smoothness test."""

    smooth: bool
    vertex: tuple | None = None
    determinant: int | None = None
    reason: str = ""

    def __bool__(self):
        return self.smooth


@dataclass(frozen=True)
class Slice:
    """Affine chart for one fiber {x in P : proj(x) = level}: ``chart`` rows are integer
    directions along it (a Z-basis of ker(proj) at an interior level), and ``active_facets``
    the facets that vanish on it (a boundary level, where the fiber is a face of P)."""

    base: "DelzantPolytope"
    chart: tuple  # rows = integer direction vectors, possibly empty
    base_point: tuple  # exact rational, satisfies proj(base_point) = level
    active_facets: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.chart)

    @cached_property
    def chart_array(self):
        return np.array(self.chart, dtype=float).reshape(-1, self.base.dim)

    def embed(self, u):
        """Map chart coordinates u (..., dim) to ambient points (..., n)."""
        x0 = np.array([float(c) for c in self.base_point])
        return x0 + np.asarray(u, dtype=float) @ self.chart_array

    def chart_halfspaces(self):
        """Facet data of the chart polytope {u : l_j(x0 + B^T u) >= 0}.

        Facets identically zero on the fiber are dropped.  Returns
        (normals, offsets) with integer normals and Fraction offsets.
        """
        keep = [j for j in range(self.base.num_facets) if j not in self.active_facets]
        normals = tuple(tuple(sum(b * r for b, r in zip(row, self.base.facets[j][0]))
                              for row in self.chart) for j in keep)
        return normals, tuple(facet_value(self.base, j + 1, self.base_point) for j in keep)

    @cached_property
    def chart_vertices(self):
        normals, offsets = self.chart_halfspaces()
        return _hpoly_vertices(normals, offsets, self.dim)


@dataclass(frozen=True)
class DelzantPolytope:
    """Bounded lattice polytope with primitive integer facet normals."""

    dim: int
    facets: tuple  # ((normal, offset), ...)

    def __post_init__(self):
        try:  # exactly: int() would truncate 2.5 or 1.9 to another polytope
            n = exact_int(self.dim)
            norm = [(tuple(map(exact_int, r)), exact_int(lam)) for r, lam in self.facets]
        except (TypeError, ValueError) as exc:
            raise PolytopeError(f"polytope data must be integers: {exc}") from None
        if n < 1:
            raise PolytopeError("dimension must be >= 1")
        for r, _ in norm:
            if len(r) != n:
                raise PolytopeError(f"normal {r} has wrong length for dim {n}")
            if not is_primitive(r):
                raise PolytopeError(f"facet normal {r} is not primitive")
        if len(norm) < n + 1:
            raise PolytopeError("a bounded polytope needs at least dim+1 facets")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "facets", tuple(norm))

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    @cached_property
    def normal_matrix(self):
        return np.array([r for r, _ in self.facets], dtype=float)

    @cached_property
    def normal_outer(self):
        """The outer products r_j r_j^T flattened, (d, n * n): sum_j c_j r_j r_j^T is c @ this."""
        R = self.normal_matrix
        return (R[:, :, None] * R[:, None, :]).reshape(self.num_facets, -1)

    @cached_property
    def offset_vector(self):
        return np.array([lam for _, lam in self.facets], dtype=float)

    def facet_values_array(self, x):
        """All l_j at float points x of shape (..., n); returns (..., d)."""
        x = np.asarray(x, dtype=float)
        return x @ self.normal_matrix.T + self.offset_vector

    @cached_property
    def vertices(self):
        self._check_bounded()
        verts = _hpoly_vertices(tuple(r for r, _ in self.facets),
                                tuple(Fraction(lam) for _, lam in self.facets),
                                self.dim)
        if not verts:
            raise PolytopeError("polytope is empty")
        bary = _mean_point([v.point for v in verts])
        for j in range(self.num_facets):
            if facet_value(self, j + 1, bary) <= 0:
                raise PolytopeError("polytope has empty interior")
        try:  # the exact scans run in int64: scan the corners of the vertex box once
            _grid_scan(zip(*_vertex_bounds(verts, self.dim)), [r for r, _ in self.facets],
                       [lam for _, lam in self.facets])
        except OverflowError as exc:  # the scan's guard, or an offset past int64 itself
            raise PolytopeError(f"facet values leave int64: {exc}") from exc
        return verts

    @cached_property
    def vertex_array(self):
        """The vertices as floats: a read-only (V, n) array in the order of ``vertices``."""
        V = np.array([v.point for v in self.vertices], dtype=float)
        V.flags.writeable = False
        return V

    @cached_property
    def lattice_array(self):
        """P intersected with Z^n, sorted: a read-only (N, n) int64 array, one exact scan."""
        lo, hi = _vertex_bounds(self.vertices, self.dim)
        pts = _grid_scan([range(ceil(a), floor(b) + 1) for a, b in zip(lo, hi)],
                         [r for r, _ in self.facets], [lam for _, lam in self.facets])
        pts.flags.writeable = False
        return pts

    @cached_property
    def barycenter(self):
        return _mean_point([v.point for v in self.vertices])

    @cached_property
    def lattice_center(self):
        """The lattice point nearest the barycenter b, the first (smallest) on a tie: an exact int64
        argmin of |q (m - c) - q (b - c)|^2, with q the lcm of b's denominators and c = floor(b)."""
        b, pts = self.barycenter, self.lattice_array
        q, c = lcm(*(v.denominator for v in b)), [floor(v) for v in b]
        d = pts - np.array(c, dtype=np.int64)
        if self.dim * (q * int(np.abs(d).max()) + q) ** 2 >= 2 ** 63:
            raise GridRangeError("squared distances to the barycenter leave int64")
        d = q * d - np.array([int(q * (v - k)) for v, k in zip(b, c)], dtype=np.int64)
        return tuple(pts[np.argmin(np.einsum("ij,ij->i", d, d))].tolist())

    def barycenter_array(self):
        return np.array([float(c) for c in self.barycenter])

    def contains(self, x) -> bool:
        return all(facet_value(self, j + 1, x) >= 0 for j in range(self.num_facets))

    @cached_property
    def is_box(self) -> bool:
        """True when every normal is a signed coordinate vector and all 2*dim of them occur: the
        facets then cut out an axis-aligned box.  Redundant parallel facets are allowed."""
        nz = [[(i, v) for i, v in enumerate(r) if v != 0] for r, _ in self.facets]
        return (all(len(z) == 1 and abs(z[0][1]) == 1 for z in nz)
                and len({z[0] for z in nz}) == 2 * self.dim)

    @cached_property
    def box_bounds(self):
        """Per-axis (lo, hi) for box polytopes (exact rationals)."""
        if not self.is_box:
            raise PolytopeError("polytope is not an axis-aligned box")
        return tuple(zip(*_vertex_bounds(self.vertices, self.dim)))

    def _check_bounded(self):
        rows = [r for r, _ in self.facets]
        if rational_rank(rows) < self.dim:
            raise PolytopeError("polytope is unbounded (normals do not span)")
        # A nontrivial recession cone is pointed here, so it has an extreme
        # ray lying on dim-1 independent facet normals; scan those candidates.
        for subset in itertools.combinations(range(self.num_facets), self.dim - 1):
            kernel = integer_kernel_basis([rows[j] for j in subset], ncols=self.dim)
            if len(kernel) != 1:
                continue  # the normals are dependent
            for cand in (kernel[0], tuple(-c for c in kernel[0])):
                if all(sum(c * ri for c, ri in zip(cand, r)) >= 0 for r in rows):
                    raise PolytopeError(f"polytope is unbounded along direction {cand}")


def facet_value(P: DelzantPolytope, j: int, x):
    """Affine facet function l_j(x) = <x, r_j> + lambda_j (j is 1-based).

    Exact when x has integer/rational entries.
    """
    if not 1 <= j <= P.num_facets:
        raise IndexError(f"facet index {j} out of range 1..{P.num_facets}")
    r, lam = P.facets[j - 1]
    return sum(xi * ri for xi, ri in zip(x, r)) + lam


def _vertex_bounds(vertices, dim):
    """Exact per-axis (lo, hi) lists of the bounding box of the vertices."""
    lo = [min(Fraction(v.point[i]) for v in vertices) for i in range(dim)]
    hi = [max(Fraction(v.point[i]) for v in vertices) for i in range(dim)]
    return lo, hi


def _grid_scan(axes, normals, offsets):
    """The points num of the integer grid axes[0] x axes[1] x ... (ascending axes) with
    normals . num + offsets >= 0, in meshgrid "ij" order, as an (N, dim) int64 array.

    The grid is walked line by line along the last axis: the halfspaces keep one run of it
    per line, whose ends are exact integer divisions, so the cost is O(lines x facets + kept
    points), and the kept points fill one preallocated array NODE_BLOCK at a time.  Raises
    GridRangeError for more than MAX_SCAN grid points or facet values that could leave int64.
    """
    axes = list(axes)
    shape = tuple(len(a) for a in axes)
    total = prod(shape)
    if total > MAX_SCAN:  # refused before any axis is built
        raise GridRangeError(f"grid of {total} points exceeds the 2^32 scan limit")
    axes = [np.asarray(a, dtype=np.int64) for a in axes]
    R = np.array(normals, dtype=np.int64).reshape(-1, len(axes))
    lam = np.array(offsets, dtype=np.int64)
    # numpy would wrap int64 facet values silently
    amax = [float(np.abs(a).max(initial=0)) for a in axes]
    if np.any(np.abs(R) @ amax + np.abs(lam) >= 2.0 ** 62):
        raise GridRangeError("grid coordinates too large for int64 facet values")
    if total == 0:
        return np.empty((0, len(axes)), dtype=np.int64)
    # only lines that keep points are listed
    lead, first, count = map(np.concatenate, zip(*_line_runs(axes, R, lam)))
    ends = count.cumsum()
    starts, shift = ends - count, first - ends + count  # point k of line l is z[k + shift[l]]
    out = np.empty((int(count.sum()), len(axes)), dtype=np.int64)
    for p in range(0, len(out), NODE_BLOCK):
        rows = out[p:p + NODE_BLOCK]
        q = p + len(rows)
        # the lines with points in rows, and how many of their points are there
        l0, l1 = ends.searchsorted((p, q - 1), side="right")
        n = np.minimum(ends[l0:l1 + 1], q) - np.maximum(starts[l0:l1 + 1], p)
        rows[:, :-1] = lead[l0:l1 + 1].repeat(n, axis=0)
        rows[:, -1] = axes[-1][np.arange(p, q) + shift[l0:l1 + 1].repeat(n)]
    return out


def _line_runs(axes, R, lam):
    """Per block of NODE_BLOCK lines along the last axis z, for the lines that keep points:
    their other coordinates (B, dim-1), and the first index and length of their run of z.

    On a line with C = R' . (its other coordinates) + lam, facet j keeps a_j z + C_j >= 0:
    z at least -floor(C_j / a_j) for a_j > 0, at most floor(C_j / -a_j) for a_j < 0, and
    all of z or none for a_j = 0 (taken with divisor 1).
    """
    z = axes[-1]  # ascending, for searchsorted
    # facets grouped as a_j > 0, a_j < 0, a_j = 0, so each group is a slice
    a = R[:, -1].tolist()
    up, down = [j for j, v in enumerate(a) if v > 0], [j for j, v in enumerate(a) if v < 0]
    order = up + down + [j for j, v in enumerate(a) if v == 0]
    R, lam, nup, ndown = R[order], lam[order], len(up), len(up) + len(down)
    div = np.maximum(np.abs(R[:, -1]), 1)
    shape = tuple(len(x) for x in axes[:-1])
    for s in range(0, prod(shape), NODE_BLOCK):
        lines = np.arange(s, min(s + NODE_BLOCK, prod(shape)))
        lead = np.empty((len(lines), len(shape)), dtype=np.int64)
        for j, i in enumerate(np.unravel_index(lines, shape) if shape else ()):
            lead[:, j] = axes[j][i]
        D = (lead @ R[:, :-1].T + lam) // div
        lo = -np.minimum.reduce(D[:, :nup], axis=1, initial=_INT64.max)
        hi = np.minimum.reduce(D[:, nup:ndown], axis=1, initial=_INT64.max)
        first = z.searchsorted(lo)
        count = z.searchsorted(hi, side="right") - first
        keep = (count > 0) & (np.minimum.reduce(D[:, ndown:], axis=1, initial=0) >= 0)
        yield lead[keep], first[keep], count[keep]


def _mean_point(points):
    return tuple(sum(map(Fraction, coords)) / len(points) for coords in zip(*points))


def _hpoly_vertices(normals, offsets, dim):
    """Vertices of {u : <u, normals[j]> + offsets[j] >= 0} (exact, bounded).

    Integer normals, rational offsets.  Handles dim 0 (the polytope is the
    single empty-tuple point when all offsets are nonnegative: the empty
    subset solves to it) and polytopes that are not full-dimensional.
    """
    d = len(normals)
    found = {}
    for subset in itertools.combinations(range(d), dim):
        try:
            pt = rational_solve([normals[j] for j in subset], [-offsets[j] for j in subset])
        except ValueError:  # the normals are dependent
            continue
        vals = [sum(p * ri for p, ri in zip(pt, normals[j])) + offsets[j]
                for j in range(d)]
        if any(v < 0 for v in vals):
            continue
        active = tuple(j for j, v in enumerate(vals) if v == 0)
        found[pt] = Vertex(point=pt, active_facets=active)
    return tuple(found[p] for p in sorted(found))


def is_delzant(P: DelzantPolytope) -> DelzantCertificate:
    """Vertex-unimodularity smoothness test.

    Smooth iff every vertex has exactly dim active facets whose normals form
    a Z-basis (|det| = 1).  On failure the certificate carries the offending
    vertex and the determinant of its active normals.
    """
    n = P.dim
    for v in P.vertices:
        at = f"({', '.join(map(str, v.point))})"  # as fractions: (1, 1/2)
        if len(v.active_facets) != n:
            return DelzantCertificate(
                False, vertex=v.point, determinant=None,
                reason=f"vertex {at} lies on {len(v.active_facets)} facets")
        det = integer_det([P.facets[j][0] for j in v.active_facets])
        if abs(det) != 1:
            return DelzantCertificate(
                False, vertex=v.point, determinant=det,
                reason=f"active normals at {at} have determinant {det}")
    return DelzantCertificate(True)


def lattice_points(P: DelzantPolytope):
    """P intersected with Z^n, sorted: the read-only (N, n) int64 array ``P.lattice_array``."""
    return P.lattice_array


def weight_multiplicities(P: DelzantPolytope, proj):
    """Counts of lattice points per image A m, keyed by sorted tuples of ints: one sort of the
    A (m - m0) from the first point m0, in int64 when P's width keeps them there (else in Python
    ints), plus the exact A m0."""
    if proj.n != P.dim:
        raise PolytopeError("projection width does not match polytope dimension")
    pts, A = P.lattice_array, proj.matrix
    width = (pts.max(axis=0) - pts.min(axis=0)).tolist()
    bound = max(sum(abs(a) * w for a, w in zip(r, width)) for r in A)  # of every |A (m - m0)|
    dtype = np.int64 if bound < 2 ** 63 else object
    y = (pts - pts[0]).astype(dtype) @ np.array(A, dtype=dtype).T
    y = y[np.lexsort(y.T[::-1])]
    first = np.flatnonzero(np.r_[True, np.any(y[1:] != y[:-1], axis=1)])
    y0 = [sum(a * x for a, x in zip(r, pts[0].tolist())) for r in A]
    return {tuple(a + b for a, b in zip(y0, key)): n for key, n in
            zip(y[first].tolist(), np.diff(np.r_[first, len(y)]).tolist())}
