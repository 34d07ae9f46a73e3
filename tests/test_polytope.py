import itertools
from fractions import Fraction
from math import ceil, factorial, floor, gcd, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_quant import (
    DelzantPolytope,
    EmptySliceError,
    PolytopeError,
    SubtorusProjection,
    face_slice,
    facet_value,
    is_delzant,
    lattice_points,
    weight_multiplicities,
)
from toric_quant.polytope import NODE_BLOCK, _grid_scan


class TestFacetValue:
    def test_interval_first_facet(self, interval):
        assert facet_value(interval, 1, (0.25,)) == 0.25

    def test_interval_second_facet(self, interval):
        assert facet_value(interval, 2, (0.25,)) == 0.75

    def test_unit_square_negative_normal(self, square1):
        # facet with normal (-1, 0), offset 1 evaluates to 1 - x1
        j = next(i + 1 for i, (r, _) in enumerate(square1.facets) if r == (-1, 0))
        assert facet_value(square1, j, (0.3, 0.9)) == pytest.approx(0.7)

    def test_exact_for_rationals(self, interval):
        v = facet_value(interval, 2, (Fraction(1, 3),))
        assert v == Fraction(2, 3)
        assert isinstance(v, Fraction)

    def test_index_out_of_range(self, interval):
        with pytest.raises(IndexError):
            facet_value(interval, 0, (0.5,))
        with pytest.raises(IndexError):
            facet_value(interval, 3, (0.5,))


class TestVertices:
    def test_interval(self, interval):
        pts = sorted(v.point for v in interval.vertices)
        assert pts == [(0,), (1,)]

    def test_square_has_four(self, square1):
        assert len(square1.vertices) == 4

    def test_triangle_solved_by_hand(self, triangle_nonsmooth):
        # pairwise facet systems give (0,0), (2,0), (0,1)
        pts = sorted(v.point for v in triangle_nonsmooth.vertices)
        assert pts == [(0, 0), (0, 1), (2, 0)]

    def test_all_facets_nonnegative_at_vertices(self, simplex, square2):
        for P in (simplex, square2):
            for v in P.vertices:
                for j in range(P.num_facets):
                    val = facet_value(P, j + 1, v.point)
                    assert val >= 0
                    assert (val == 0) == (j in v.active_facets)

    def test_unbounded_rejected(self):
        P = DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((1, 1), 1)))
        with pytest.raises(PolytopeError, match="unbounded"):
            P.vertices

    def test_empty_rejected(self):
        P = DelzantPolytope(1, (((1,), 0), ((-1,), -1)))
        with pytest.raises(PolytopeError):
            P.vertices

    def test_nonprimitive_normal_rejected(self):
        with pytest.raises(PolytopeError, match="primitive"):
            DelzantPolytope(1, (((2,), 0), ((-1,), 1)))

    def test_too_few_facets_rejected(self):
        with pytest.raises(PolytopeError, match="dim\\+1"):
            DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0)))


class TestIsDelzant:
    def test_square(self, square1):
        assert bool(is_delzant(square1))

    def test_simplex_vertex_determinants(self, simplex):
        # dets at the three vertices are +-1 by direct 2x2 evaluation
        assert bool(is_delzant(simplex))

    def test_triangle_certificate(self, triangle_nonsmooth):
        cert = is_delzant(triangle_nonsmooth)
        assert not cert
        assert cert.vertex == (0, 1)
        assert abs(cert.determinant) == 2


class TestLatticePoints:
    def test_interval(self, interval):
        assert lattice_points(interval) == ((0,), (1,))

    def test_square2_grid(self, square2):
        pts = lattice_points(square2)
        assert len(pts) == 9
        assert set(pts) == {(i, j) for i in range(3) for j in range(3)}

    def test_simplex(self, simplex):
        assert set(lattice_points(simplex)) == {(0, 0), (1, 0), (0, 1)}

    def test_unimodular_invariance(self, square2, simplex):
        # transform x -> M x, normals by the inverse transpose: counts agree
        M = ((1, 1), (0, 1))
        Minv_t = ((1, 0), (-1, 1))  # (M^-1)^T
        for P in (square2, simplex):
            facets = tuple(
                (tuple(sum(Minv_t[i][a] * r[a] for a in range(2)) for i in range(2)), lam)
                for r, lam in P.facets)
            Q = DelzantPolytope(2, facets)
            assert len(lattice_points(Q)) == len(lattice_points(P))


@st.composite
def small_delzant(draw):
    """A box or a dilated simplex in dim 1-3, shifted, and sheared by a
    unimodular x -> M x (normals by M^-T) half of the time."""
    dim = draw(st.integers(1, 3))
    shift = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
        P = DelzantPolytope.from_box([(s, s + w) for s, w in zip(shift, sizes)])
    else:
        k = draw(st.integers(1, 4))
        facets = [(tuple(int(i == j) for j in range(dim)), -shift[i]) for i in range(dim)]
        P = DelzantPolytope(dim, tuple(facets) + (((-1,) * dim, k + sum(shift)),))
    if dim > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(dim)))[:2]
        c = draw(st.integers(-2, 2))
        # M = I + c e_i e_j^T, so M^-T r = r - c r_i e_j
        P = DelzantPolytope(dim, tuple(
            (tuple(v - c * r[i] if a == j else v for a, v in enumerate(r)), lam)
            for r, lam in P.facets))
    return P


def _brute_lattice(P):
    box = [range(floor(min(float(v.point[i]) for v in P.vertices)) - 1,
                 ceil(max(float(v.point[i]) for v in P.vertices)) + 2) for i in range(P.dim)]
    return tuple(m for m in itertools.product(*box)
                 if all(sum(a * b for a, b in zip(r, m)) + lam >= 0 for r, lam in P.facets))


class TestLatticeScan:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(small_delzant())
    def test_matches_brute_force(self, P):
        assert is_delzant(P)
        pts = lattice_points(P)
        assert pts == _brute_lattice(P)
        assert all(type(c) is int for m in pts for c in m)

    def test_several_blocks(self):
        # 37^3 = 50,653 grid points: one full scan block and a partial one
        P = DelzantPolytope(3, ((((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                                 ((-1, -1, -1), 36))))
        assert len(lattice_points(P)) == 39 * 38 * 37 // 6 == len(_brute_lattice(P))


    def test_int64_overflow_is_refused(self):
        # [0, 2] with the redundant facet x + 2^63 - 1 >= 0, whose value at
        # x = 1 does not fit int64: wrapped, it would drop x = 1 and x = 2
        P = DelzantPolytope(1, (((1,), 0), ((-1,), 2), ((1,), 2 ** 63 - 1)))
        with pytest.raises(OverflowError):
            lattice_points(P)

    def test_scan_limit_refused_before_any_axis(self, monkeypatch):
        from toric_quant import polytope

        # x + y <= 2^57: one axis of the bounding box alone would not fit memory
        P = DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), 2 ** 57)))
        with pytest.raises(polytope.GridRangeError, match="2\\^32 scan limit"):
            lattice_points(P)
        # the limit is inclusive: the 3 x 4 grid of [0, 2] x [0, 3] has 12 points
        box = DelzantPolytope.from_box([(0, 2), (0, 3)])
        monkeypatch.setattr(polytope, "MAX_SCAN", 12)
        assert len(lattice_points(box)) == 12
        monkeypatch.setattr(polytope, "MAX_SCAN", 11)
        with pytest.raises(polytope.GridRangeError):
            lattice_points(box)


def _meshgrid_scan(axes, normals, offsets, strict):
    """The brute-force scan: filter the whole "ij" meshgrid of the axes."""
    grids = np.meshgrid(*[np.array(a, dtype=np.int64) for a in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = pts @ np.array(normals, dtype=np.int64).reshape(-1, len(axes)).T \
        + np.array(offsets, dtype=np.int64)
    return pts[np.all(vals > 0 if strict else vals >= 0, axis=1)]


def _assert_same_scan(got, want):
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def halfspace_grids(draw):
    """1-3 monotone integer axes of either step sign, and integer halfspaces,
    some of them parallel copies (redundant or not) of others."""
    dim = draw(st.integers(1, 3))
    axes = []
    for _ in range(dim):
        start = draw(st.integers(-8, 8))
        step = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        axes.append(range(start, start + step * draw(st.integers(0, 7)), step))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    normals = draw(st.lists(row, max_size=5))
    for r in draw(st.lists(st.sampled_from(normals), max_size=2)) if normals else ():
        normals.append([draw(st.sampled_from([1, 2])) * c for c in r])
    offsets = draw(st.lists(st.integers(-12, 12), min_size=len(normals),
                            max_size=len(normals)))
    return axes, normals, offsets


class TestLineScan:
    """_grid_scan keeps one interval of the last axis per line of the grid;
    the whole-meshgrid filter is its oracle."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(halfspace_grids(), st.booleans())
    # zero last-axis coefficient; negative non-unit step; parallel facets
    # with an empty result; no facets at all
    @example(([range(-3, 4), range(5, -6, -2)], [[1, 0], [-1, 0]], [1, 2]), False)
    @example(([range(4, -9, -3), range(-2, 9, 2)], [[1, 2], [2, 4], [-1, -2]],
              [3, 0, -9]), True)
    @example(([range(3), range(2), range(4)], [], []), True)
    def test_matches_meshgrid_filter(self, grid, strict):
        axes, normals, offsets = grid
        _assert_same_scan(_grid_scan(axes, normals, offsets, strict),
                          _meshgrid_scan(axes, normals, offsets, strict))

    def test_blocks_of_lines_and_of_kept_points(self):
        # 40,000 lines (two line blocks) keeping about 100,000 points
        # (several output blocks)
        axes = [range(-20, 20), range(1000, 0, -1), range(-1, 2)]
        normals, offsets = [[1, 0, 3], [-1, 1, 0], [0, -1, -2]], [20, 0, 900]
        for strict in (False, True):
            got = _grid_scan(axes, normals, offsets, strict)
            assert len(got) > NODE_BLOCK
            _assert_same_scan(got, _meshgrid_scan(axes, normals, offsets, strict))

    def test_thin_strip_scans_per_line(self):
        # |x - 2y| <= 1 on the 2^16 x 2^15 grid: 2^31 points, more than a
        # per-point scan walks in reasonable time; per line it is 2^16
        # intervals.  Even x keep y = x/2, odd x keep (x -+ 1)/2 but for
        # x = 2^16 - 1, whose (x + 1)/2 = 2^15 is off the grid.
        axes = [range(1 << 16), range(1 << 15)]
        x = np.arange(1 << 16, dtype=np.int64)
        lo, hi = x // 2, np.minimum((x + 1) // 2, (1 << 15) - 1)
        want = np.stack([np.repeat(x, hi - lo + 1),
                         np.concatenate([np.arange(a, b + 1) for a, b in zip(lo, hi)])],
                        axis=1)
        got = _grid_scan(axes, [[1, -2], [-1, 2]], [1, 1])
        assert len(got) == 3 * (1 << 15) - 1
        _assert_same_scan(got, want)
        # strictly inside the strip only x = 2y is left
        strict = _grid_scan(axes, [[1, -2], [-1, 2]], [1, 1], strict=True)
        assert strict.tolist() == [[2 * y, y] for y in range(1 << 15)]


def _dilate(P, k):
    return DelzantPolytope(P.dim, tuple((r, k * lam) for r, lam in P.facets))


def _det(M):
    """Exact determinant by Laplace expansion along the first row."""
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)))


def _polygon(P):
    """The vertices of a polygon in angular order, as Fractions."""
    V = [tuple(Fraction(c) for c in v.point) for v in P.vertices]
    cx, cy = (sum(v[i] for v in V) / len(V) for i in range(2))
    return sorted(V, key=lambda v: np.arctan2(float(v[1] - cy), float(v[0] - cx)))


def _exact_volume(P):
    """Shoelace area in dim 2, |det| / n! for a simplex, the width product for a box."""
    n = P.dim
    if n == 2:
        V = _polygon(P)
        return abs(sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(V, V[1:] + V[:1]))) / 2
    V = [tuple(Fraction(c) for c in v.point) for v in P.vertices]
    if len(V) == n + 1:
        return abs(_det([[v[i] - V[0][i] for i in range(n)] for v in V[1:]])) / factorial(n)
    return prod(max(v[i] for v in V) - min(v[i] for v in V) for i in range(n))


def _interpolant(values):
    """Monomial coefficients (Fraction, lowest first) of the polynomial
    through (k, values[k]), k = 0..len(values)-1, by exact Lagrange."""
    N = len(values)
    coeffs = [Fraction(0)] * N
    for j, yj in enumerate(values):
        basis = [Fraction(1)]  # prod_{i != j} (k - i) / (j - i), lowest first
        for i in range(N):
            if i != j:
                basis = [(a - i * b) / (j - i) for a, b in zip([Fraction(0)] + basis,
                                                                basis + [Fraction(0)])]
        coeffs = [c + yj * b for c, b in zip(coeffs, basis)]
    return coeffs


class TestEhrhart:
    @pytest.mark.parametrize("P,volume", [
        (DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), 2))), 2),
        (DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((0, -1), 2), ((-1, -1), 4))), 6),
        (DelzantPolytope(3, (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                             ((-1, -1, -1), 2))), Fraction(4, 3)),
        (DelzantPolytope.from_box([(0, 2), (0, 2), (0, 2)]), 8),
    ], ids=["2simplex2", "hirzebruch", "2simplex3", "cube2"])
    def test_leading_coefficient_is_the_volume(self, P, volume):
        # L(k) = |kP cap Z^n| is a polynomial of degree n with leading
        # coefficient vol(P) (Ehrhart; Beck and Robins 2007, ch. 3)
        n = P.dim
        counts = [1] + [len(lattice_points(_dilate(P, k))) for k in range(1, n + 2)]
        coeffs = _interpolant(counts)
        assert coeffs[n + 1] == 0 and coeffs[n] != 0
        assert coeffs[n] == _exact_volume(P) == volume
        assert type(_exact_volume(P)) is Fraction
        assert coeffs[0] == 1
        if n == 2:  # the k^1 coefficient is half the lattice length of the boundary
            V = _polygon(P)
            edges = [gcd(int(b[0] - a[0]), int(b[1] - a[1])) for a, b in zip(V, V[1:] + V[:1])]
            assert coeffs[1] == Fraction(sum(edges), 2)


class TestWeightMultiplicities:
    def test_square2_first_coordinate(self, square2, proj_first_of_two):
        assert weight_multiplicities(square2, proj_first_of_two) == {
            (0,): 3, (1,): 3, (2,): 3}

    def test_interval_identity(self, interval, proj_id1):
        assert weight_multiplicities(interval, proj_id1) == {(0,): 1, (1,): 1}

    def test_simplex(self, simplex, proj_first_of_two):
        assert weight_multiplicities(simplex, proj_first_of_two) == {(0,): 2, (1,): 1}

    def test_counts_sum_to_lattice_count(self, square2, simplex, cube):
        for P, rows in ((square2, ((1, 0),)), (simplex, ((1, 1),)),
                        (cube, ((1, 0, 0), (0, 1, 0)))):
            proj = SubtorusProjection(rows)
            mult = weight_multiplicities(P, proj)
            assert sum(mult.values()) == len(lattice_points(P))


class TestSliceChart:
    def test_square2_interior_level(self, square2, proj_first_of_two):
        sl = face_slice(square2, proj_first_of_two, (1,))
        assert sl.chart == ((0, 1),)
        assert proj_first_of_two.apply(sl.base_point) == (1,)
        assert sl.active_facets == ()
        # chart polytope is the segment [0 - u0, 2 - u0] of length 2
        verts = sorted(v.point for v in sl.chart_vertices)
        assert verts[1][0] - verts[0][0] == 2

    def test_level_outside_image(self, square2, proj_first_of_two):
        with pytest.raises(EmptySliceError):
            face_slice(square2, proj_first_of_two, (3,))

    def test_cube_two_dim_projection(self, cube):
        proj = SubtorusProjection(((1, 0, 0), (0, 1, 0)))
        sl = face_slice(cube, proj, (Fraction(1, 2), Fraction(1, 2)))
        assert sl.dim == 1
        assert sl.chart == ((0, 0, 1),)
        verts = sorted(v.point for v in sl.chart_vertices)
        assert verts[1][0] - verts[0][0] == 1  # segment of length 1

    def test_base_point_exact(self, square2):
        proj = SubtorusProjection(((1, 1),))
        sl = face_slice(square2, proj, (Fraction(3, 2),))
        assert proj.apply(sl.base_point) == (Fraction(3, 2),)
        assert all(isinstance(c, Fraction) for c in sl.base_point)

    def test_chart_rows_span_integer_kernel(self, cube):
        proj = SubtorusProjection(((1, 1, 0),))
        sl = face_slice(cube, proj, (1,))
        A = np.array(proj.matrix)
        B = np.array(sl.chart)
        assert B.shape == (2, 3)
        assert np.all(A @ B.T == 0)
        # basis is unimodular within the kernel: solving for standard kernel
        # generators must give integer coefficients
        for gen in ((1, -1, 0), (0, 0, 1)):
            coeff, res, *_ = np.linalg.lstsq(B.T.astype(float), np.array(gen, float),
                                             rcond=None)
            assert np.allclose(B.T @ coeff, gen, atol=1e-12)
            assert np.allclose(coeff, np.round(coeff), atol=1e-9)


class TestFaceSlice:
    def test_vertex_fiber_is_point(self, interval, proj_id1):
        sl = face_slice(interval, proj_id1, (0,))
        assert sl.dim == 0
        assert sl.base_point == (0,)
        assert sl.active_facets == (0,)

    def test_vertex_fiber_of_diagonal_projection(self, simplex):
        # x + y = 0 meets the simplex in the vertex (0, 0), although
        # ker(1, 1) is a line: the chart comes from the active facets too
        sl = face_slice(simplex, SubtorusProjection(((1, 1),)), (0,))
        assert sl.dim == 0 and sl.active_facets == (0, 1)
        assert sl.base_point == (0, 0)

    def test_boundary_fiber_of_square(self, square2, proj_first_of_two):
        sl = face_slice(square2, proj_first_of_two, (0,))
        assert sl.dim == 1
        assert sl.active_facets != ()
        assert proj_first_of_two.apply(sl.base_point) == (0,)
