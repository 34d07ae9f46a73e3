"""Delzant polytopes from halfspace data.

A polytope is stored as integer facet data (primitive normals r_j and
integer offsets lambda_j) defining P = {x : l_j(x) = <x, r_j> + lambda_j >= 0}.
All combinatorial operations (vertices, smoothness certificates, lattice
points, slice charts) run in exact rational arithmetic; numpy views of the
facet data are provided for the analytic modules.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, prod

import numpy as np

from ._intlin import (
    _rref,
    integer_det,
    integer_kernel_basis,
    is_primitive,
    rational_rank,
    rational_solve,
)

# points per block when a grid is scanned or a node-wise integrand is
# evaluated: the temporaries stay at a few MB however fine the grid is
NODE_BLOCK = 1 << 15
# grid points one exact scan may cover; the simplex2 midpoint grid at
# resolution 1024, the largest scan of the shipped configs, covers 2^20
MAX_SCAN = 1 << 32
_INT64 = np.iinfo(np.int64)


class GridRangeError(OverflowError):
    """An exact grid scan would walk more than MAX_SCAN points or leave int64."""


class PolytopeError(ValueError):
    """Invalid halfspace data (unbounded, empty interior, bad normals...)."""


class EmptySliceError(PolytopeError):
    """Requested level set does not meet the relative interior of the image."""


@dataclass(frozen=True)
class Vertex:
    point: tuple  # exact rational coordinates
    active_facets: tuple  # 0-based facet indices where l_j vanishes

    def as_array(self):
        return np.array([float(c) for c in self.point])


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
    """Affine chart for one fiber {x in P : proj(x) = level}.

    ``chart`` rows are an integer basis of the lattice directions along the
    fiber; for a level in the relative interior of the image they form a
    Z-basis of ker(proj) inside Z^n.  ``active_facets`` lists facets that
    vanish identically on the fiber (nonempty exactly for boundary levels,
    where the fiber is a face of P).
    """

    base: "DelzantPolytope"
    level: tuple
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
        normals, offsets = [], []
        for j, (r, _) in enumerate(self.base.facets):
            if j in self.active_facets:
                continue
            nu = tuple(sum(b[i] * r[i] for i in range(self.base.dim))
                       for b in self.chart)
            offsets.append(facet_value(self.base, j + 1, self.base_point))
            normals.append(nu)
        return tuple(normals), tuple(offsets)

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
        n = self.dim
        if n < 1:
            raise PolytopeError("dimension must be >= 1")
        norm = []
        for entry in self.facets:
            r, lam = entry
            r = tuple(int(v) for v in r)
            if len(r) != n:
                raise PolytopeError(f"normal {r} has wrong length for dim {n}")
            if not is_primitive(r):
                raise PolytopeError(f"facet normal {r} is not primitive")
            norm.append((r, int(lam)))
        if len(norm) < n + 1:
            raise PolytopeError("a bounded polytope needs at least dim+1 facets")
        object.__setattr__(self, "facets", tuple(norm))

    @classmethod
    def from_box(cls, bounds):
        """Axis-aligned box from per-axis (lo, hi) integer bounds."""
        n = len(bounds)
        facets = []
        for i, (lo, hi) in enumerate(bounds):
            if not hi > lo:
                raise PolytopeError("box bounds must satisfy hi > lo")
            e = tuple(1 if t == i else 0 for t in range(n))
            me = tuple(-1 if t == i else 0 for t in range(n))
            facets.append((e, -int(lo)))
            facets.append((me, int(hi)))
        return cls(n, tuple(facets))

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    @cached_property
    def normal_matrix(self):
        return np.array([r for r, _ in self.facets], dtype=float)

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
        return verts

    @cached_property
    def barycenter(self):
        return _mean_point([v.point for v in self.vertices])

    def barycenter_array(self):
        return np.array([float(c) for c in self.barycenter])

    def contains(self, x, strict=False) -> bool:
        for j in range(self.num_facets):
            v = facet_value(self, j + 1, x)
            if v < 0 or (strict and v == 0):
                return False
        return True

    @cached_property
    def is_box(self) -> bool:
        """True when the facets cut out an axis-aligned box."""
        return _is_box(tuple(r for r, _ in self.facets), self.dim)

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


def _is_box(normals, dim) -> bool:
    """True when every nonzero normal is a signed coordinate vector and all
    2*dim of them occur: the halfspaces then cut out an axis-aligned box.

    Zero normals (constraints constant on a slice chart) and redundant
    parallel facets are allowed.
    """
    seen = set()
    for r in normals:
        nz = [(i, v) for i, v in enumerate(r) if v != 0]
        if not nz:
            continue
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            return False
        seen.add(nz[0])
    return len(seen) == 2 * dim


def _vertex_bounds(vertices, dim):
    """Exact per-axis (lo, hi) lists of the bounding box of the vertices."""
    lo = [min(Fraction(v.point[i]) for v in vertices) for i in range(dim)]
    hi = [max(Fraction(v.point[i]) for v in vertices) for i in range(dim)]
    return lo, hi


def _grid_scan(axes, normals, offsets, strict=False):
    """Points of the integer grid axes[0] x axes[1] x ... inside the halfspaces.

    Keeps num with normals . num + offsets >= 0 (> 0 when strict), in
    meshgrid "ij" order, as an (N, dim) int64 array; every axis must be
    monotone.  The grid is walked line by line along the last axis: on a
    line the halfspaces keep one run of that axis, whose ends are exact
    integer divisions, so the cost is O(lines x facets + kept points).  The
    kept points go into one preallocated array, NODE_BLOCK at a time, so no
    temporary has the size of the grid.  Raises GridRangeError for a grid
    of more than MAX_SCAN points or facet values that could leave int64.
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
    # on integers, > 0 is >= 1; only lines that keep points are listed
    lead, first, count = map(np.concatenate, zip(*_line_runs(axes, R, lam - strict)))
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
    """Per block of NODE_BLOCK lines along the last axis z, for the lines
    that keep points: their other coordinates (B, dim-1), and the first
    index and the length of the run of z where R . x + lam >= 0.

    On a line with C = R' . (its other coordinates) + lam, facet j keeps
    a_j z + C_j >= 0: z at least ceil(-C_j / a_j) = -floor(C_j / a_j) for
    a_j > 0, at most floor(C_j / -a_j) for a_j < 0, and all of z or none
    for a_j = 0 (taken with divisor 1).
    """
    z = axes[-1]
    desc = len(z) > 1 and z[0] > z[-1]
    zs = z[::-1] if desc else z  # ascending, for searchsorted
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
        i0 = zs.searchsorted(lo)
        count = zs.searchsorted(hi, side="right") - i0
        keep = (count > 0) & (np.minimum.reduce(D[:, ndown:], axis=1, initial=0) >= 0)
        first = len(z) - i0 - count if desc else i0
        yield lead[keep], first[keep], count[keep]


def _mean_point(points):
    n = len(points[0])
    cnt = len(points)
    return tuple(sum(Fraction(p[i]) for p in points) / cnt for i in range(n))


def _hpoly_vertices(normals, offsets, dim):
    """Vertices of {u : <u, normals[j]> + offsets[j] >= 0} (exact, bounded).

    Integer normals, rational offsets.  Handles dim 0 (the polytope is the
    single empty-tuple point when all offsets are nonnegative: the empty
    subset solves to it) and polytopes that are not full-dimensional.
    """
    d = len(normals)
    found = {}
    for subset in itertools.combinations(range(d), dim):
        sub = [normals[j] for j in subset]
        if integer_det(sub) == 0:
            continue
        pt = rational_solve(sub, [-offsets[j] for j in subset])
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
        if len(v.active_facets) != n:
            return DelzantCertificate(
                False, vertex=v.point, determinant=None,
                reason=f"vertex {v.point} lies on {len(v.active_facets)} facets")
        det = integer_det([P.facets[j][0] for j in v.active_facets])
        if abs(det) != 1:
            return DelzantCertificate(
                False, vertex=v.point, determinant=det,
                reason=f"active normals at {v.point} have determinant {det}")
    return DelzantCertificate(True)


def lattice_points(P: DelzantPolytope):
    """P intersected with Z^n by exact bounding-box scan, sorted."""
    lo, hi = _vertex_bounds(P.vertices, P.dim)
    pts = _grid_scan([range(ceil(a), floor(b) + 1) for a, b in zip(lo, hi)],
                    [r for r, _ in P.facets], [lam for _, lam in P.facets])
    return tuple(map(tuple, pts.tolist()))


def weight_multiplicities(P: DelzantPolytope, proj):
    """Counts of lattice points per image value under the subtorus projection."""
    A = proj.matrix
    if len(A[0]) != P.dim:
        raise PolytopeError("projection width does not match polytope dimension")
    counts = Counter(tuple(sum(a * mi for a, mi in zip(row, m)) for row in A)
                     for m in lattice_points(P))
    return {k: counts[k] for k in sorted(counts)}


def _particular_solution(A, q):
    """Some rational x with A x = q, for full-row-rank integer A.

    The pivot entries of the reduced [A | q]; x is zero off the pivots.
    """
    n = len(A[0])
    M, pivots = _rref([list(A[i]) + [q[i]] for i in range(len(A))], n)
    if len(pivots) < len(A):
        raise PolytopeError("projection matrix is rank deficient")
    x = [Fraction(0)] * n
    for row, c in zip(M, pivots):
        x[c] = row[n]
    return tuple(x)


def face_slice(P: DelzantPolytope, proj, q) -> Slice:
    """Chart for the fiber {x in P : proj(x) = q}, valid for any feasible q.

    For q in the relative interior of the image the chart directions form a
    Z-basis of ker(proj); for boundary q the fiber is a face of P and the
    chart is the correspondingly smaller lattice basis along that face.
    """
    A = proj.matrix
    n = P.dim
    if len(A[0]) != n:
        raise PolytopeError("projection width does not match polytope dimension")
    q = tuple(Fraction(v) for v in q)
    if len(q) != len(A):
        raise PolytopeError("level has wrong length for the projection")
    x0 = _particular_solution(A, q)
    B0 = integer_kernel_basis(A, ncols=n)
    verts = Slice(base=P, level=q, chart=B0, base_point=x0).chart_vertices
    if not verts:
        raise EmptySliceError(f"level {tuple(map(str, q))} lies outside the image polytope")
    ustar = _mean_point([v.point for v in verts]) if len(B0) else ()
    xstar = tuple(x0[i] + sum(Fraction(u) * b[i] for u, b in zip(ustar, B0))
                  for i in range(n))
    # the facets that vanish at every chart vertex vanish on the whole fiber
    active = sorted(set.intersection(*(set(v.active_facets) for v in verts)))
    chart = integer_kernel_basis([*A, *(P.facets[j][0] for j in active)], ncols=n)
    return Slice(base=P, level=q, chart=chart, base_point=xstar,
                 active_facets=tuple(active))

