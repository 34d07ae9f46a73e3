import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toric_quant import (
    ConcentrationWeight,
    DelzantPolytope,
    EmptySliceError,
    QuadratureError,
    SubtorusProjection,
    SymplecticPotential,
    box_rule,
    closed_form_norm_g0,
    concentration_experiment,
    delta_pairing,
    face_slice,
    grid_rule,
    integrate,
    make_rule,
    pullback,
    slice_rule,
)
from toric_quant import ProjectionError, quadrature
from toric_quant.quadrature import NODE_BLOCK, _gauss_axis, _tensor_rule, pushforward

from test_polytope import small_delzant


def ones(x):
    return np.ones(x.shape[:-1])


class TestRules:
    def test_box_total_weight_is_volume(self, square2):
        rule = box_rule(square2, 16)
        assert rule.total_weight() == pytest.approx(4.0, abs=1e-8)
        assert np.all(rule.weights > 0)

    def test_grid_volume_first_order(self, simplex):
        rule = grid_rule(simplex, 64)
        assert abs(rule.total_weight() - 0.5) < 2.0 / 64

    def test_grid_containment_exact(self, simplex):
        rule = grid_rule(simplex, 32)
        vals = simplex.facet_values_array(rule.points)
        assert np.all(vals > 0)

    def test_resolution_floor(self, square2):
        with pytest.raises(QuadratureError):
            box_rule(square2, 4)

    @pytest.mark.parametrize("side,res", [(2 ** 57, 8), (2 ** 50, 1024)])
    def test_grid_past_int64_names_the_resolution(self, side, res):
        P = DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), side)))
        with pytest.raises(quadrature.GridOverflowError, match=f"resolution {res}:"):
            grid_rule(P, res)

    def test_make_rule_dispatch(self, square2, simplex):
        assert make_rule(square2, 16).kind == "gauss"
        assert make_rule(simplex, 16).kind == "grid"

    def test_gauss_nodes_cached_read_only(self, square2):
        from toric_quant.quadrature import _gauss_legendre

        nodes, weights = _gauss_legendre(24)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(24)
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
        assert _gauss_legendre(24)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        # a rule built from the cache is not a view that could alter it
        rule = box_rule(square2, 24)
        rule.points[:] = 0.0
        assert np.array_equal(_gauss_legendre(24)[0], ref_nodes)
        assert np.array_equal(box_rule(square2, 24).points[:, 0],
                              np.repeat(1.0 + ref_nodes, 24))


def _meshgrid_rule(bounds, resolution):
    """The tensor rule built from full meshgrid copies, as a reference."""
    axes = [_gauss_axis(float(lo), float(hi), resolution) for lo, hi in bounds]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    weights = np.prod(np.stack([w.ravel() for w in wgrids], axis=-1), axis=-1)
    return points, weights


def _peak_node_vectors(f, size):
    """Traced peak allocation of f() in units of one float per node."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / (8.0 * size)
    finally:
        tracemalloc.stop()


class TestNodeBlocks:
    def test_tensor_rule_bitwise_meshgrid(self):
        for bounds in ([(0, 1)], [(0, 2), (-1, 3)], [(0.5, 7), (-3, 1.25), (0, 1)]):
            for resolution in (8, 33, 64):
                got = _tensor_rule(bounds, resolution)
                ref = _meshgrid_rule(bounds, resolution)
                for a, b in zip(got, ref):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_fiber_sums_blocked_equal_whole(self, square2, proj_first_of_two):
        # fibers of 260 nodes straddle the block edges; the last block holds one node
        rule = box_rule(square2, 260)
        rule = type(rule)(rule.kind, 260, rule.points[:2 * NODE_BLOCK + 1],
                          rule.weights[:2 * NODE_BLOCK + 1])
        push = pushforward(rule, proj_first_of_two)
        assert np.array_equal(push.starts, np.arange(0, rule.size, 260))
        assert np.array_equal(push.images, rule.points[push.starts, :1])
        h = lambda x: (closed_form_norm_g0(square2, (1, 1), x), x[..., 0] ** 2 + x[..., 1])
        # the weights themselves are the first row
        vals = np.vstack([np.ones(rule.size), *h(rule.points)]) * rule.weights
        ref = np.add.reduceat(vals, push.starts, axis=1)
        assert np.allclose(push.sums(h), ref, rtol=1e-14, atol=0)
        assert np.array_equal(push.sums(None), push.sums(h)[:1])

    def test_box_rule_builds_no_meshgrid_copies(self, square2):
        # the rule itself is three node vectors (two coordinates, one weight)
        assert _peak_node_vectors(lambda: box_rule(square2, 512), 512 ** 2) < 4.0

    def test_concentration_temporaries_stay_blocked(self, square2, proj_first_of_two,
                                                   phi_half_square):
        # 0.8 node vectors beyond the rule's own three (two coordinates, one
        # weight); 1.8 with the norm taken per node in the fiber sums, 6 with
        # node-wise weights, and 15 with the whole-rule evaluation before them
        rule = box_rule(square2, 512)
        peak = _peak_node_vectors(lambda: concentration_experiment(
            SymplecticPotential(square2, proj_first_of_two, phi_half_square), (1, 1),
            lambda x: x[..., 0] ** 2, [8, 16, 32], resolution=512), rule.size)
        assert peak - (rule.points.nbytes + rule.weights.nbytes) / (8.0 * rule.size) < 2.2


class TestFiberMasses:
    @pytest.mark.parametrize("fixture,rows,res", [
        ("square2", ((1, 0),), 48), ("simplex", ((1, 0),), 40), ("simplex", ((1, 1),), 40),
        ("cube", ((1, 0, 0), (0, 1, 0)), 12)])
    def test_against_per_t_references(self, fixture, rows, res, request, phi_half_square):
        from toric_quant import quadratic

        P = request.getfixturevalue(fixture)
        proj = SubtorusProjection(rows)
        phi = phi_half_square if proj.k == 1 else quadratic(np.eye(2))
        m = tuple(int(v) for v in P.vertices[0].point)
        f = ConcentrationWeight(m, pullback(phi, proj))
        h = lambda x: (closed_form_norm_g0(P, m, x), x[..., -1] * closed_form_norm_g0(P, m, x))
        rule, times = make_rule(P, res), (0.0, 3.0, 17.5, 90.0)
        push = pushforward(rule, proj)
        got, fmin = push.masses(h, f, times)
        assert got.shape == (4, 3) and fmin == push.at_fibers(f).min()
        # the per-t loop over fiber sums, in the same arithmetic: bit for bit
        F, fr = push.sums(h), push.at_fibers(f)
        for t, row in zip(times, got):
            w = np.exp(-t * (fr - fmin))
            assert row.tolist() == [w @ F[0], w @ F[1], w @ F[2]]
        # a direct integral of e^{-t (f_m - min f_m)} times 1 and h over the
        # nodes for each t
        for t, row in zip(times, got):
            direct = [integrate(lambda x, i=i: np.exp(-t * (f(x) - fmin)) * (
                1.0 if i < 0 else h(x)[i]), rule) for i in (-1, 0, 1)]
            assert np.allclose(row, direct, rtol=1e-12, atol=0)

    def test_one_loop_behind_ratios_and_l1_norms(self, square2, proj_first_of_two,
                                                phi_half_square, monkeypatch):
        from toric_quant import l1_norms

        calls = []
        real = quadrature.Pushforward.masses
        monkeypatch.setattr(quadrature.Pushforward, "masses",
                            lambda self, h, f, times: calls.append(tuple(times))
                            or real(self, h, f, times))
        concentration_experiment(SymplecticPotential(square2, proj_first_of_two, phi_half_square),
                                 (1, 1), lambda x: x[..., 0] ** 2, [8, 16], resolution=32)
        pot = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        l1_norms(pot, (1, 1), 32, (0.0, 4.0))
        assert calls == [(8.0, 16.0), (0.0, 4.0)]


@st.composite
def rule_and_projection(draw):
    """A box (Gauss) or non-box (midpoint grid) rule in dim 1-3 with a
    standard projection [I_k | 0] or a random integer one of rank k."""
    P = draw(small_delzant())
    rule = make_rule(P, draw(st.integers(8, 24)))
    k = draw(st.integers(1, P.dim))
    if draw(st.booleans()):
        return rule, SubtorusProjection.standard(k, P.dim), True
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=P.dim, max_size=P.dim),
                         min_size=k, max_size=k))
    try:
        return rule, SubtorusProjection(rows), False
    except ProjectionError:
        assume(False)


class TestPushforward:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(rule_and_projection(), st.integers(5, 300))
    def test_fibers_partition_the_rule(self, drawn, block):
        rule, proj, standard = drawn
        h = lambda x: np.cos(x @ np.arange(1.0, x.shape[-1] + 1))
        # small blocks, so fibers straddle block edges
        with mock.patch.object(quadrature, "NODE_BLOCK", block):
            push = pushforward(rule, proj)
            sums = push.sums(h)
            last = push.at_fibers(lambda x: x[:, -1])
        starts = push.starts
        assert np.array_equal(last, rule.points[starts, -1])
        assert starts[0] == 0 and np.all(np.diff(starts) > 0) and starts[-1] < rule.size
        # every node's image is its fiber's image, and neighbouring fibers differ
        fiber = np.searchsorted(starts, np.arange(rule.size), side="right") - 1
        assert np.array_equal(proj.apply(rule.points), push.images[fiber])
        assert np.all(np.any(push.images[1:] != push.images[:-1], axis=1))
        if standard and rule.kind == "gauss":
            assert len(starts) == rule.resolution ** proj.k
        # each fiber sum is its nodes' share, and they add up to the integral;
        # the weights themselves are the first row
        vals = np.vstack([np.ones(rule.size), h(rule.points)]) * rule.weights
        assert np.allclose(sums, np.add.reduceat(vals, starts, axis=1), rtol=1e-12, atol=1e-12)
        assert np.allclose(sums.sum(axis=1), vals.sum(axis=1), rtol=1e-12, atol=1e-12)

    def test_first_nodes_and_non_finite_values(self, square2, proj_first_of_two):
        push = pushforward(box_rule(square2, 16), proj_first_of_two)
        assert np.array_equal(push.at_fibers(lambda x: x[..., 0]), push.images[:, 0])
        bad = lambda x: np.where(x[..., 1] > 1.9, np.nan, 1.0)
        with pytest.raises(QuadratureError, match="non-finite integrand value at"):
            push.sums(bad)
        with pytest.raises(QuadratureError, match="non-finite integrand value at"):
            push.at_fibers(lambda x: np.where(x[..., 0] > 1.9, np.inf, 1.0))


def _meshgrid_midpoint_rule(P, resolution):
    """The midpoint grid rule built on the whole bounding-box meshgrid."""
    lo = [min(Fraction(v.point[i]) for v in P.vertices) for i in range(P.dim)]
    hi = [max(Fraction(v.point[i]) for v in P.vertices) for i in range(P.dim)]
    widths = [b - a for a, b in zip(lo, hi)]
    den = 2 * resolution * math.lcm(*(Fraction(v).denominator for v in widths + lo))
    axes = [np.array([int((a + Fraction(2 * j + 1, 2 * resolution) * w) * den)
                      for j in range(resolution)], dtype=np.int64)
            for a, w in zip(lo, widths)]
    num = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    R = np.array([r for r, _ in P.facets], dtype=np.int64)
    lam = np.array([lam * den for _, lam in P.facets], dtype=np.int64)
    points = num[np.all(num @ R.T + lam > 0, axis=1)].astype(float) / den
    cell = float(np.prod([w / resolution for w in widths]))
    return points, np.full(len(points), cell)


SIMPLEX2 = DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), 2)))
REDUNDANT_BOXES = (
    # [0, 2] with the redundant facet x >= -1
    DelzantPolytope(1, (((1,), 0), ((-1,), 2), ((1,), 1))),
    # [0, 2] x [0, 1] with the redundant facets x >= -1 and y <= 3
    DelzantPolytope(2, (((1, 0), 0), ((-1, 0), 2), ((0, 1), 0), ((0, -1), 1),
                        ((1, 0), 1), ((0, -1), 3))),
)


class TestBlockedGrid:
    @pytest.mark.parametrize("P,resolution", [
        (SIMPLEX2, 1024),  # 32 full scan blocks
        (SIMPLEX2, 999),  # 30 full blocks and a partial one
        (DelzantPolytope(3, (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                             ((-1, -2, -1), 3))), 41),  # not a lattice-width box
    ])
    def test_grid_rule_bitwise_meshgrid(self, P, resolution):
        rule = grid_rule(P, resolution)
        points, weights = _meshgrid_midpoint_rule(P, resolution)
        assert rule.points.tobytes() == points.tobytes()
        assert rule.weights.tobytes() == weights.tobytes()

    def test_grid_rule_peak_is_twice_the_rule(self):
        # the whole-box scan this replaced peaked at 6.7 times the rule's
        # bytes, and the int64 grid held beside its float copy at 1.67 times
        rule = grid_rule(SIMPLEX2, 1024)
        tracemalloc.start()
        try:
            rule = grid_rule(SIMPLEX2, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (rule.points.nbytes + rule.weights.nbytes)

    @pytest.mark.parametrize("P,volume", [(REDUNDANT_BOXES[0], 2.0), (REDUNDANT_BOXES[1], 2.0)])
    def test_box_with_redundant_facet_gets_gauss(self, P, volume):
        assert P.is_box and P.box_bounds() == tuple((0, hi) for hi in (2, 1)[:P.dim])
        rule = make_rule(P, 16)
        assert rule.kind == "gauss"
        assert rule.total_weight() == pytest.approx(volume, rel=1e-14)

    def test_non_box_normals_are_not_a_box(self, simplex):
        assert not simplex.is_box
        assert not DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-1, 0), 1),
                                       ((0, -1), 1), ((-1, -1), 3))).is_box


class TestNormWeightedRules:
    @pytest.mark.parametrize("P,ms,res", [
        (DelzantPolytope.from_box([(-2, 3)]), [(-2,), (3,), (0,)], 64),
        (DelzantPolytope.from_box([(-1, 2), (0, 3)]), [(-1, 0), (-1, 1), (0, 1)], 33),
        (DelzantPolytope.from_box([(0, 2), (-1, 1), (0, 2)]),
         [(0, -1, 0), (1, 0, 0), (1, 0, 1)], 16),
        (DelzantPolytope.from_box([(0, 2), (0, 2), (0, 2), (-1, 1)]),
         [(0, 0, 0, -1), (1, 1, 0, 0), (1, 1, 1, 0)], 9),
        (REDUNDANT_BOXES[0], [(0,), (2,), (1,)], 24),
        (REDUNDANT_BOXES[1], [(0, 0), (2, 1), (1, 0)], 24),
    ])
    def test_box_fold_equals_node_norms(self, P, ms, res):
        # m at a vertex, on a facet (a vertex in dim 1) and inside where P has lattice points there
        plain = make_rule(P, res)
        for m in ms:
            rule = make_rule(P, res, m)
            assert rule.kind == "gauss" and np.array_equal(rule.points, plain.points)
            ref = plain.weights * closed_form_norm_g0(P, m, plain.points)
            np.testing.assert_allclose(rule.weights, ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("P,m,block", [
        (SIMPLEX2, (0, 1), NODE_BLOCK), (SIMPLEX2, (1, 1), 1000),
        (DelzantPolytope(3, (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                             ((-1, -2, -1), 3))), (1, 0, 1), 777),
    ])
    def test_grid_fold_is_cell_times_node_norm(self, P, m, block):
        plain = grid_rule(P, 64)
        with mock.patch.object(quadrature, "NODE_BLOCK", block):
            rule = make_rule(P, 64, m)
        assert rule.kind == "grid" and rule.points.tobytes() == plain.points.tobytes()
        ref = plain.weights * closed_form_norm_g0(P, m, plain.points)
        assert rule.weights.tobytes() == ref.tobytes()

    def test_concentrate_norms_only_the_slice_nodes(self, square2, proj_first_of_two,
                                                    phi_half_square, monkeypatch):
        seen = []
        real = quadrature.closed_form_norm_g0
        monkeypatch.setattr(quadrature, "closed_form_norm_g0",
                            lambda P, m, x: seen.append(len(x)) or real(P, m, x))
        concentration_experiment(SymplecticPotential(square2, proj_first_of_two, phi_half_square),
                                 (1, 1), lambda x: x[..., 0] ** 2, [8, 16], resolution=96)
        sl = face_slice(square2, proj_first_of_two, (1,))
        assert sum(seen) == slice_rule(sl, 96).size == 96

    def test_overflowing_box_norm_raises(self):
        # |sigma^m_0| on [0, 3000] at m = 1500 is about 1500^1500 at the center
        P = DelzantPolytope.from_box([(0, 3000), (0, 1)])
        with pytest.raises(QuadratureError, match="non-finite"):
            make_rule(P, 16, (1500, 0))
        assert np.all(np.isfinite(make_rule(P, 16).weights))


class TestIntegrate:
    def test_constant_on_unit_square(self, square1):
        assert integrate(ones, box_rule(square1, 12)) == pytest.approx(1.0, abs=1e-10)

    def test_sqrt_integrand(self, interval):
        rule = box_rule(interval, 128)
        val = integrate(lambda x: np.sqrt(1 - x[..., 0]), rule)
        assert val == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_separable_polynomial(self, square2):
        rule = box_rule(square2, 16)
        assert integrate(lambda x: x[..., 0] * x[..., 1], rule) == pytest.approx(
            4.0, abs=1e-10)

    def test_nonfinite_rejected(self, interval):
        rule = box_rule(interval, 8)

        def bad(x):
            v = ones(x)
            v[0] = np.inf
            return v

        with pytest.raises(QuadratureError, match="non-finite"):
            integrate(bad, rule)

    def test_richardson_self_convergence(self, interval, square2):
        for P, f in ((interval, lambda x: np.sqrt(1 - x[..., 0])),
                     (square2, lambda x: np.exp(-x[..., 0]) * x[..., 1])):
            a = integrate(f, box_rule(P, 128))
            b = integrate(f, box_rule(P, 256))
            assert abs(a - b) < 1e-5


def _slice_integral(f, sl, resolution):
    """Integral of f over the slice in its chart measure du."""
    return integrate(lambda u: f(sl.embed(u)), slice_rule(sl, resolution))


class TestSliceIntegration:
    def test_segment_constant(self, square2, proj_first_of_two):
        sl = face_slice(square2, proj_first_of_two, (1,))
        assert _slice_integral(ones, sl, 32) == pytest.approx(2.0, abs=1e-10)

    def test_norm_profile_against_finer_rule(self, square2, proj_first_of_two):
        sl = face_slice(square2, proj_first_of_two, (1,))
        f = lambda x: closed_form_norm_g0(square2, (1, 1), x)
        coarse = _slice_integral(f, sl, 64)
        fine = _slice_integral(f, sl, 640)
        assert abs(coarse - fine) < 1e-5

    def test_boundary_level_errors(self, square2, proj_first_of_two):
        # the boundary level 2 is the face x1 = 2; a level past it is empty
        assert face_slice(square2, proj_first_of_two, (2,)).active_facets != ()
        with pytest.raises(EmptySliceError):
            face_slice(square2, proj_first_of_two, (Fraction(5, 2),))

    def test_zero_dim_slice_is_point_evaluation(self, interval, proj_id1):
        sl = face_slice(interval, proj_id1, (0,))
        rule = slice_rule(sl, 16)
        assert rule.size == 1
        val = integrate(lambda u: 5.0 * ones(sl.embed(u)), rule)
        assert val == pytest.approx(5.0)

    def test_simplex_diagonal_slice_grid(self, simplex):
        proj = SubtorusProjection(((1, 1),))
        sl = face_slice(simplex, proj, (0.5,))
        # fiber {x + y = 1/2} inside the simplex has length sqrt(2) but chart
        # measure du along the primitive direction (1,-1) gives extent 1/2
        val = _slice_integral(ones, sl, 64)
        assert val == pytest.approx(0.5, abs=2e-2)


class TestDeltaPairing:
    def test_constant_weight_normalized(self, square2, proj_first_of_two):
        assert delta_pairing(square2, proj_first_of_two, (1, 1), ones) == pytest.approx(1.0)
        assert delta_pairing(square2, proj_first_of_two, (1, 1),
                             lambda x: 3.5 * ones(x)) == pytest.approx(3.5)

    def test_symmetric_weight_gives_center(self, square2, proj_first_of_two):
        # the slice norm profile is mirror symmetric about x2 = 1
        val = delta_pairing(square2, proj_first_of_two, (1, 1), lambda x: x[..., 1])
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_slice_coordinate_weight(self, square2, proj_first_of_two):
        val = delta_pairing(square2, proj_first_of_two, (1, 1), lambda x: x[..., 0])
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_one_slice_rule_per_pairing(self, square2, proj_first_of_two, monkeypatch):
        from toric_quant import quadrature

        built = []
        orig = quadrature.slice_rule
        monkeypatch.setattr(quadrature, "slice_rule",
                            lambda sl, res: built.append(res) or orig(sl, res))
        delta_pairing(square2, proj_first_of_two, (1, 1), lambda x: x[..., 1],
                      resolution=64)
        assert built == [64]

    @pytest.mark.parametrize("fixture,rows,m", [
        ("square2", ((1, 0),), (1, 1)), ("simplex", ((1, 1),), (0, 0)),
        ("simplex", ((1, 0),), (0, 1)), ("cube", ((1, 0, 0),), (0, 1, 1))])
    def test_one_norm_per_slice_node(self, fixture, rows, m, request, monkeypatch):
        P = request.getfixturevalue(fixture)
        proj = SubtorusProjection(rows)
        u = lambda x: 1.0 + x[..., -1] ** 2
        sl = face_slice(P, proj, proj.apply(m))
        rule = slice_rule(sl, 64)
        # the two-pass reference: denominator and numerator integrated apart
        norm = lambda v: closed_form_norm_g0(P, m, sl.embed(v))
        ref = integrate(lambda v: norm(v) * u(sl.embed(v)), rule) / integrate(norm, rule)
        seen = []
        real = quadrature.closed_form_norm_g0
        monkeypatch.setattr(quadrature, "closed_form_norm_g0",
                            lambda P, m, x: seen.append(len(x)) or real(P, m, x))
        assert delta_pairing(P, proj, m, u, resolution=64) == ref
        assert sum(seen) == rule.size

    def test_vertex_point_mass(self, interval, proj_id1):
        val = delta_pairing(interval, proj_id1, (0,), lambda x: 7.0 + x[..., 0])
        assert val == pytest.approx(7.0)

    def test_boundary_face_slice_of_square(self, square2, proj_first_of_two):
        # m = (0, 1) projects to the boundary level 0; the fiber is the left
        # edge and the norm profile is still symmetric about its midpoint
        val = delta_pairing(square2, proj_first_of_two, (0, 1), lambda x: x[..., 1])
        assert val == pytest.approx(1.0, abs=1e-12)


class TestConcentration:
    def test_uniform_weight_trivial(self, square2, proj_first_of_two, phi_half_square):
        res = concentration_experiment(
            SymplecticPotential(square2, proj_first_of_two, phi_half_square), (1, 1),
            ones, [8, 16, 32], resolution=64)
        assert res.slice_value == pytest.approx(1.0)
        assert np.allclose(res.ratios, 1.0, atol=1e-12)

    def test_square_symmetric_weights_converged(self, square2, proj_first_of_two,
                                                phi_half_square):
        # mirror symmetry makes R_t = R_inf = 1 identically for u = x2 and x1
        for axis in (0, 1):
            res = concentration_experiment(
                SymplecticPotential(square2, proj_first_of_two, phi_half_square), (1, 1),
                lambda x, a=axis: x[..., a], [8, 16, 32, 64, 128], resolution=256)
            assert res.slice_value == pytest.approx(1.0, abs=1e-12)
            assert max(res.errors) < 1e-12
            # errors at roundoff carry no rate: no exponent is fitted to them
            assert res.decay_exponent is None

    def test_square_asymmetric_weight_laplace_rate(self, square2, proj_first_of_two,
                                                   phi_half_square):
        # u = x1^2 breaks the mirror symmetry: genuine C/t error decay
        res = concentration_experiment(
            SymplecticPotential(square2, proj_first_of_two, phi_half_square), (1, 1),
            lambda x: x[..., 0] ** 2, [16, 32, 64, 128, 256], resolution=256)
        assert res.slice_value == pytest.approx(1.0, abs=1e-10)
        for e0, e1 in zip(res.errors, res.errors[1:]):
            assert 0.3 <= e1 / e0 <= 0.7
        assert -1.1 <= res.decay_exponent <= -0.9

    def test_errors_eventually_monotone(self, square2, proj_first_of_two,
                                        phi_half_square):
        res = concentration_experiment(
            SymplecticPotential(square2, proj_first_of_two, phi_half_square), (1, 1),
            lambda x: np.exp(x[..., 0]), [8, 16, 32, 64, 128], resolution=256)
        assert all(b < a for a, b in zip(res.errors, res.errors[1:]))

    def test_interval_vertex_experiment(self, interval, proj_id1, phi_half_square):
        # m = 0 sits at a vertex: the slice pairing is point evaluation u(0) = 0
        # and the one-sided Laplace mean decays like sqrt(2 / (pi t))
        res = concentration_experiment(SymplecticPotential(interval, proj_id1, phi_half_square),
                                       (0,), lambda x: x[..., 0], [32, 64, 128],
                                       resolution=256)
        assert res.slice_value == 0.0
        for t, r in zip(res.t_values, res.ratios):
            predicted = math.sqrt(2.0 / (math.pi * t))
            assert abs(r - predicted) < 0.15 * predicted
        assert all(b < a for a, b in zip(res.errors, res.errors[1:]))

    def test_mass_escapes_slice_neighborhood(self, square2, proj_first_of_two,
                                             phi_half_square):
        # e^{-t f_m} mass at distance > 1/4 from the slice x1 = 1 goes to 0
        rule = make_rule(square2, 128)
        w = ConcentrationWeight((1, 1), pullback(phi_half_square, proj_first_of_two))
        f = w(rule.points)
        fmin = f.min()
        outside = np.abs(rule.points[:, 0] - 1.0) > 0.25
        masses = []
        for t in (8, 16, 32, 64, 128):
            e = np.exp(-t * (f - fmin)) * rule.weights
            masses.append(float(e[outside].sum() / e.sum()))
        assert all(b < a for a, b in zip(masses, masses[1:]))
        assert masses[-1] < 0.1 * masses[0]

    def test_overflow_guard_large_t(self, square2, proj_first_of_two, phi_half_square):
        # min-subtraction keeps every weight finite up to t = 10^4
        res = concentration_experiment(
            SymplecticPotential(square2, proj_first_of_two, phi_half_square), (1, 1),
            lambda x: x[..., 0] ** 2, [100.0, 10000.0], resolution=64)
        assert all(np.isfinite(res.ratios))

    def test_t_list_must_increase(self, square2, proj_first_of_two, phi_half_square):
        with pytest.raises(ValueError):
            concentration_experiment(
                SymplecticPotential(square2, proj_first_of_two, phi_half_square), (1, 1),
                ones, [8, 8], resolution=64)
