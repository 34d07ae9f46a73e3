import json
import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_quant import (
    ConcentrationWeight,
    DelzantPolytope,
    DomainBoundaryError,
    QuadratureError,
    SymplecticPotential,
    l1_norms,
    lattice_points,
    make_rule,
    norm_factorization_check,
    pullback,
)
from toric_quant.cli import load_config, run

from conftest import (
    box_polytope,
    closed_form_norm_g0,
    exact_log_l1,
    g0_on,
    integrate,
    node_rule,
    norm_matrix,
    radial_gram,
    sample_interior,
    torus_average,
    trailing_axis_norm_g0,
)


def _norm(pot, m, x, t=0.0):
    """|sigma^m_t|(x): the one-row norm matrix."""
    return norm_matrix(pot, [m], x, t)[0]


class TestPointwiseNorm:
    def test_interval_m0_is_sqrt_one_minus_x(self, interval):
        # expanding g0 - x g0' gives log sqrt(1-x)
        xs = np.linspace(0.02, 0.98, 25)[:, None]
        assert np.max(np.abs(_norm(g0_on(interval), (0,), xs) - np.sqrt(1 - xs[:, 0]))) \
            < 1e-12

    def test_interval_m1_mirror(self, interval):
        xs = np.linspace(0.02, 0.98, 25)[:, None]
        assert np.max(np.abs(_norm(g0_on(interval), (1,), xs) - np.sqrt(xs[:, 0]))) < 1e-12

    def test_norm_at_own_lattice_point(self, square2):
        pot = g0_on(square2)
        x = np.array([1.0, 1.0])
        assert _norm(pot, (1, 1), x) == pytest.approx(np.exp(pot.value(x)))

    def test_invalid_lattice_point_rejected(self):
        # m = (3,) lies outside [0, 2] and (1, 1) has the wrong length: every
        # consumer of |sigma^m_0| refuses them
        P = box_polytope([(0, 2)])
        x = np.array([[0.5], [1.5]])
        for call in (lambda: l1_norms(g0_on(P), (3,), 16, [0.0]),
                     lambda: closed_form_norm_g0(P, (3,), x),
                     lambda: make_rule(P, 16, (3,)),
                     lambda: closed_form_norm_g0(P, (1, 1), x)):
            with pytest.raises(ValueError, match="not a point of the polytope"):
                call()


class TestClosedForm:
    def test_interval_value_by_hand(self, interval):
        assert closed_form_norm_g0(interval, (0,), np.array([0.75])) == pytest.approx(0.5)

    def test_vanishes_on_active_facets(self, square2):
        # at the vertex (0,0) every facet with positive exponent kills the norm
        assert closed_form_norm_g0(square2, (1, 1), np.array([0.0, 0.0])) == 0.0

    def test_simplex_origin_value_one(self, simplex):
        assert closed_form_norm_g0(simplex, (0, 0), np.array([0.0, 0.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("fixture", ["interval", "square2", "simplex"])
    def test_matches_exponent_formula_for_all_m(self, fixture, request):
        P = request.getfixturevalue(fixture)
        pot = g0_on(P)
        pts = sample_interior(P, 40, seed=9)
        for m in lattice_points(P):
            a = _norm(pot, m, pts)
            b = closed_form_norm_g0(P, m, pts)
            assert np.max(np.abs(a - b)) < 1e-10

    def test_boundary_continuity(self, interval):
        # closed form extends the interior norm continuously to the faces
        eps = np.array([[1e-9], [1e-12]])
        near = closed_form_norm_g0(interval, (0,), eps)
        assert near == pytest.approx([1.0, 1.0], abs=1e-6)


def _product_form(P, m, x):
    """prod_j l_j(x)^{l_j(m)/2} e^{(l_j(m) - l_j(x))/2}, one power per facet."""
    L = np.clip(P.facet_values_array(x), 0.0, None)
    lm = P.facet_values_array(np.array(m, dtype=float))
    return np.prod(L ** (lm / 2.0), axis=-1) * np.exp(0.5 * np.sum(lm - L, axis=-1))


def _boundary_points(P):
    """The vertices and the midpoint of every edge between two of them."""
    V = P.vertex_array
    return np.concatenate([V, 0.5 * (V[:, None] + V[None, :]).reshape(-1, P.dim)])


class TestClosedFormLogForm:
    POLYTOPES = [
        box_polytope([(0, 2), (0, 2)]),
        DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((0, -1), 2), ((-1, -1), 4))),
        DelzantPolytope(3, (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                            ((-1, -1, -1), 8))),
    ]

    @pytest.mark.parametrize("P", POLYTOPES, ids=["square2", "hirzebruch", "8simplex3"])
    def test_agrees_with_product_form(self, P):
        pts = np.concatenate([sample_interior(P, 60, seed=2), _boundary_points(P)])
        for m in lattice_points(P):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # log 0 on a facet warns nothing
                got = closed_form_norm_g0(P, m, pts)
            ref = _product_form(P, m, pts)
            assert np.all((got == 0.0) == (ref == 0.0))
            assert np.allclose(got, ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("P", POLYTOPES, ids=["square2", "hirzebruch", "8simplex3"])
    def test_exact_zeros_and_vertex_values(self, P):
        lm_of = lambda x: P.facet_values_array(np.array(x, dtype=float))
        for m in lattice_points(P):
            lm = lm_of(m)
            for v, x in zip(P.vertices, P.vertex_array):
                val = closed_form_norm_g0(P, m, x)
                if any(lm[j] > 0 for j in v.active_facets):
                    assert val == 0.0
                else:
                    L = lm_of(v.point)
                    on = lm > 0
                    assert val == pytest.approx(
                        np.prod(L[on] ** (lm[on] / 2)) * np.exp(0.5 * np.sum(lm - L)),
                        rel=1e-14)
            # at m itself the norm is prod_j l_j(m)^{l_j(m)/2}
            assert closed_form_norm_g0(P, m, np.array(m, dtype=float)) == pytest.approx(
                np.prod(lm[lm > 0] ** (lm[lm > 0] / 2)), rel=1e-14)


class TestConcentrationWeight:
    def test_full_torus_quadratic(self, interval, proj_id1, phi_half_square):
        w = ConcentrationWeight((0,), pullback(phi_half_square, proj_id1))
        xs = np.linspace(0.1, 0.9, 9)[:, None]
        assert np.allclose(w(xs), 0.5 * xs[:, 0] ** 2)

    def test_square_slice_profile(self, square2, proj_first_of_two, phi_half_square):
        # f(x) = x1^2/2 - x1: constant in x2, minimum -1/2 on the slice x1 = 1
        w = ConcentrationWeight((1, 1), pullback(phi_half_square, proj_first_of_two))
        pts = np.array([[1.0, 0.3], [1.0, 1.9], [0.5, 1.0], [1.5, 0.2]])
        vals = w(pts)
        assert vals[0] == pytest.approx(-0.5)
        assert vals[1] == pytest.approx(-0.5)
        assert vals[2] == pytest.approx(0.125 - 0.5)
        assert vals[3] == pytest.approx(vals[2])

    def test_value_at_own_point(self, square2, proj_first_of_two, phi_half_square):
        w = ConcentrationWeight((1, 1), pullback(phi_half_square, proj_first_of_two))
        psi_at_m = 0.5  # phi(x1=1)
        assert w(np.array([1.0, 1.0])) == pytest.approx(-psi_at_m)

    def test_projected_minimum_unique(self, square2, proj_first_of_two, phi_half_square):
        # grid search over the image coordinate finds a single minimizing level
        w = ConcentrationWeight((1, 1), pullback(phi_half_square, proj_first_of_two))
        levels = np.linspace(0.05, 1.95, 191)
        vals = w(np.stack([levels, np.full_like(levels, 1.0)], axis=-1))
        mins = np.flatnonzero(vals == vals.min())
        assert len(mins) == 1
        assert levels[mins[0]] == pytest.approx(1.0, abs=0.02)


class TestFactorization:
    def test_zero_at_t_zero(self, interval, proj_id1, phi_half_square):
        pts = sample_interior(interval, 10, seed=3)
        pot0 = SymplecticPotential(interval, proj_id1, phi_half_square)
        res, _ = norm_factorization_check(pot0, (0,), [0.0], pts)
        assert res.tolist() == [0.0]

    def test_interval_t3(self, interval, proj_id1, phi_half_square):
        pot0 = SymplecticPotential(interval, proj_id1, phi_half_square)
        res, _ = norm_factorization_check(pot0, (0,), [3.0], np.array([[0.5]]))
        assert res[0] < 1e-12

    @pytest.mark.parametrize("fixture,rows,m", [
        ("interval", ((1,),), (0,)),
        ("square2", ((1, 0),), (1, 1)),
        ("simplex", ((1, 0),), (0, 1)),
    ])
    def test_random_points_and_times(self, fixture, rows, m, request, phi_half_square):
        from toric_quant import SubtorusProjection

        P = request.getfixturevalue(fixture)
        proj = SubtorusProjection(rows)
        rng = np.random.default_rng(14)
        pts = sample_interior(P, 100, seed=15)
        res, _ = norm_factorization_check(SymplecticPotential(P, proj, phi_half_square), m,
                                          rng.uniform(0.0, 10.0, size=8), pts)
        assert max(res) < 1e-10

    @pytest.mark.parametrize("fixture,rows,m", [
        ("square2", ((1, 0),), (1, 1)),
        ("simplex", ((1, 0),), (0, 1)),
    ])
    def test_bit_equal_to_per_t_loop(self, fixture, rows, m, request, phi_half_square,
                                     monkeypatch):
        from toric_quant import SubtorusProjection, sections

        P = request.getfixturevalue(fixture)
        proj = SubtorusProjection(rows)
        pts = sample_interior(P, 40, seed=6)
        times = (0.0, 2.5, 9.0, 31.0)
        pot0 = SymplecticPotential(P, proj, phi_half_square)
        fm = ConcentrationWeight(m, pot0.perturbation)
        ref_res, ref_scale = [], []
        for t in times:  # the per-t loop: every log-norm and f_m afresh
            lhs = sections.log_norm_matrix(pot0, [m], pts, t)[0]
            rhs = sections.log_norm_matrix(pot0, [m], pts)[0] - t * fm(pts)
            # max |e^lhs - e^rhs| / max(1, max e^lhs), taken from the logs
            gap = np.exp(lhs - max(0.0, lhs.max())) * np.abs(np.expm1(rhs - lhs))
            ref_res.append(float(np.max(gap)))
            # the roundoff scale: the largest exponent on either side, and t f_m
            ref_scale.append(float(np.max(np.abs([lhs, rhs, t * fm(pts)]))))
        calls = {"norm": 0, "fm": 0}
        real_norm, real_fm = sections.log_norm_matrix, ConcentrationWeight.__call__

        def norm(pot, ms, x, t=0.0):
            calls["norm"] += 1
            return real_norm(pot, ms, x, t)

        def weight(self, x):
            calls["fm"] += 1
            return real_fm(self, x)

        monkeypatch.setattr(sections, "log_norm_matrix", norm)
        monkeypatch.setattr(ConcentrationWeight, "__call__", weight)
        res, scale = norm_factorization_check(pot0, m, times, pts)
        assert res.tolist() == ref_res and scale.tolist() == ref_scale
        # |sigma_t| for t = 0 and every t in one stacked call, f_m once
        assert calls == {"norm": 1, "fm": 1}

    def test_g0_evaluated_once_per_ladder(self, square2, proj_first_of_two,
                                           phi_half_square, monkeypatch):
        from toric_quant import potential

        seen = {"g0_value": [], "g0_gradient": []}
        for name in seen:
            monkeypatch.setattr(potential, name, lambda P, x, L=None, real=getattr(potential, name),
                                name=name: seen[name].append(np.shape(x)) or real(P, x, L))
        pot0 = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        pts = sample_interior(square2, 30, seed=2)
        res, _ = norm_factorization_check(pot0, (1, 1), (1.0, 4.0, 16.0, 64.0), pts)
        assert res.shape == (4,)
        assert np.all(res < 1e-10)  # relative to max(1, max |sigma^m_t|)
        # once for |sigma^m_t| at t = 0 and every t
        assert seen == {"g0_value": [(30, 2)], "g0_gradient": [(30, 2)]}


class TestL1AndBasis:
    def test_interval_m0_integral(self, interval):
        assert np.exp(l1_norms(g0_on(interval), (0,), 256, [0.0])).tolist() == \
            [pytest.approx(2.0 / 3.0, abs=1e-6)]

    def test_interval_m1_by_symmetry(self, interval):
        assert np.exp(l1_norms(g0_on(interval), (1,), 256, [0.0])).tolist() == \
            [pytest.approx(2.0 / 3.0, abs=1e-6)]

    def test_l1_norms_equal_one_time_at_a_time(self, simplex, phi_half_square):
        from toric_quant import SubtorusProjection
        from toric_quant.quadrature import segment_fibers

        proj = SubtorusProjection(((1, 0),))
        pot = SymplecticPotential(simplex, proj, phi_half_square)
        rule = segment_fibers(simplex, proj, 32).rule  # a polygon's rule for dx
        times = (0.0, 4.0, 16.0, 64.0)
        # the reference integrates the time-t norm of g_t afresh for every t;
        # l1_norms takes it through e^{-t f_m} |sigma^m_0|, in another order
        ref = [integrate(lambda x, t=t: _norm(pot, (0, 1), x, t), rule) for t in times]
        got = l1_norms(pot, (0, 1), 32, times)
        assert np.allclose(np.exp(got), ref, rtol=1e-12, atol=0)
        assert [l1_norms(pot, (0, 1), 32, [t])[0] for t in times] == got

    def test_l1_norms_blocked_equal_whole_rule(self, square2, phi_half_square, monkeypatch):
        import tracemalloc

        from toric_quant import SubtorusProjection, quadrature
        from toric_quant.quadrature import NODE_BLOCK

        pot = SymplecticPotential(square2, SubtorusProjection(((1, 0),)), phi_half_square)
        rule = make_rule(square2, 512)
        assert rule.size > 4 * NODE_BLOCK
        times = (0.0, 8.0, 32.0)
        ref = [integrate(lambda x, t=t: _norm(pot, (1, 1), x, t), rule) for t in times]
        tracemalloc.start()
        try:
            got = l1_norms(pot, (1, 1), 512, times)
            peak = tracemalloc.get_traced_memory()[1] / (8.0 * rule.size)
        finally:
            tracemalloc.stop()
        assert np.allclose(np.exp(got), ref, rtol=1e-12, atol=0)
        monkeypatch.setattr(quadrature, "NODE_BLOCK", rule.size)
        assert l1_norms(pot, (1, 1), 512, times) == got
        # per-fiber arrays only: the weight sums touch no node (0.035 node
        # vectors measured); node grouping peaked at 3.3 with the rule's own
        # three node vectors, one node vector per time plus block temporaries
        # before the fiber sums, and 13 on the whole rule before the blocks
        assert peak < 0.1

    @pytest.mark.parametrize("fixture,m,box", [("square2", (1, 0), True),
                                               ("simplex", (0, 1), False),
                                               ("simplex3", (0, 1, 0), False)])
    def test_l1_norms_integrate_against_the_weighted_rule(self, fixture, m, box, request,
                                                           phi_half_square, monkeypatch):
        from toric_quant import SubtorusProjection, quadrature

        P = request.getfixturevalue(fixture)
        proj = SubtorusProjection.standard(1, P.dim)
        pot = SymplecticPotential(P, proj, phi_half_square)
        times = (0.0, 8.0)
        # the reference: the plain rule's weights times the node norm, for each t; a
        # polytope that is not a box has its segment rule for dx (y_m = 0 is a vertex
        # image, so the rule for the norm has the same nodes)
        plain = make_rule(P, 40)
        ref = [integrate(lambda x, t=t: _norm(pot, m, x, t), plain) for t in times]
        # the nodes normed through the one scaled log-norm, from the facet values
        # already at hand (a segment rule's, a box's axis nodes); l1_norms adds the peak
        # back once
        seen = []
        real = quadrature._log_norm_ratio
        monkeypatch.setattr(quadrature, "_log_norm_ratio",
                            lambda c, r, s, lm: seen.append(s.size) or real(c, r, s, lm))
        assert np.allclose(np.exp(l1_norms(pot, m, 40, times)), ref, rtol=1e-12, atol=0)
        # a box folds the norm in axis by axis, on its 2 x 40 axis nodes and no tensor
        # node; segment fibers take it once per node, also on a rule of several level
        # blocks (the 3-simplex)
        assert sum(seen) == (P.dim * 40 if box else plain.size)

    def test_basis_size_is_lattice_count(self, square2, simplex):
        # one norm row per lattice point: 9 on [0, 2]^2 and 3 on the simplex
        for P, count in ((square2, 9), (simplex, 3)):
            x = sample_interior(P, 5, seed=1)
            assert norm_matrix(g0_on(P), lattice_points(P), x).shape == (count, 5)

    def test_mass_ratio_stabilizes(self, square2, proj_first_of_two, phi_half_square):
        # ||sigma_t||_1 / ||e^{-t f_m}||_1 approaches a finite constant
        from toric_quant.quadrature import make_rule as mk

        w = ConcentrationWeight((1, 1), pullback(phi_half_square, proj_first_of_two))
        rule = node_rule(mk(square2, 256))
        f = w(rule.points)
        base = closed_form_norm_g0(square2, (1, 1), rule.points)
        fmin = f.min()

        def ratio(t):
            e = np.exp(-t * (f - fmin))
            return float((e * base) @ rule.weights) / float(e @ rule.weights)

        r = [ratio(t) for t in (64, 128, 256, 512)]
        assert abs(r[-1] - r[-2]) < abs(r[1] - r[0])
        assert abs(r[-1] - r[-2]) < 5e-3 * abs(r[-1])


def _dilated_simplex(n, k):
    """The config of k Delta^n under A = [[1, 0, ...]], and its polytope."""
    facets = [{"normal": [int(i == j) for i in range(n)], "offset": 0} for j in range(n)]
    facets.append({"normal": [-1] * n, "offset": k})
    raw = {"polytope": {"dim": n, "facets": facets}, "proj": [[1] + [0] * (n - 1)]}
    return raw, DelzantPolytope(n, tuple((tuple(f["normal"]), f["offset"]) for f in facets))


def _exact_cases():
    """k Delta^n at m = 0, (1, 0, ...), (k // 3, ...) and the default m (None, unless it is
    one of those), with the resolution of each dimension."""
    cases = []
    for n, ks, res in ((2, (2, 16, 64, 256), 128), (3, (6, 8, 16), 32)):
        for k in ks:
            ms = [(0,) * n, (1,) + (0,) * (n - 1), (k // 3,) * n]
            ms = list(dict.fromkeys(ms))
            ms += [None] * (_dilated_simplex(n, k)[1].lattice_center not in ms)
            cases += [(n, k, res, m) for m in ms]
    return cases


# the two cases whose fiber rule, not the fold, misses 1e-10 (ROADMAP item 2: l1_norms never
# refines its fiber nodes; FIBER_NODES = 32 per fiber panel)
_INEXACT = {
    (2, 256, 128, (85, 85)): "256 Delta^2 at (85, 85) reads 9.7e-5 relative (ROADMAP item 2)",
    (3, 16, 32, (1, 0, 0)): "16 Delta^3 at (1, 0, 0) reads 5.1e-10 relative (ROADMAP item 2)",
}


class TestExactL1Norms:
    @pytest.mark.parametrize("n,k,res,m", [
        pytest.param(*case, id=f"{case[1]}D{case[0]}-m{case[3] or 'default'}".replace(" ", ""),
                     marks=[pytest.mark.xfail(strict=True, raises=AssertionError,
                                              reason=_INEXACT[case])] if case in _INEXACT else [])
        for case in _exact_cases()])
    def test_sections_norms_at_t0_is_the_dirichlet_integral(self, n, k, res, m, tmp_path):
        # the t = 0 row of sections-norms against the log-Gamma closed form; the fiber map
        # is y = x_1, so every rule is a segment rule with the norm folded in
        path = tmp_path / "simplex.json"
        path.write_text(json.dumps({**_dilated_simplex(n, k)[0], "resolution": res}))
        report = run(load_config(str(path)), "sections-norms",
                     {"t_list": [0.0, 1.0], "m": None if m is None else list(m)})
        m = report.outputs["m"]
        got = report.outputs["rows"][0]["log_l1_norm"]
        assert abs(math.expm1(got - exact_log_l1(k, m))) <= 1e-10, (k, m)


def _pairing(P, a, b, theta_resolution):
    """The torus average of e^{i <a - b, theta>} times the radial pairing of a and b."""
    G = radial_gram(g0_on(P), [a, b], make_rule(P, 32))
    return torus_average(np.subtract(a, b), theta_resolution) * G[0, 1]


class TestOrthogonality:
    def test_interval_four_point_grid(self, interval):
        assert abs(_pairing(interval, (0,), (1,), 4)) < 1e-12

    def test_square_mixed_difference(self, square2):
        assert abs(_pairing(square2, (0, 0), (1, 2), 8)) < 1e-12

    def test_equal_points_positive(self, square2):
        res = _pairing(square2, (1, 1), (1, 1), 8)
        assert res.imag == 0
        assert res.real > 0

    def test_aliasing_guard(self, square2):
        with pytest.raises(ValueError, match="alias"):
            _pairing(square2, (0, 0), (0, 2), 2)

    def test_all_pairs_square2(self, square2):
        ms = lattice_points(square2)
        G = radial_gram(g0_on(square2), ms, make_rule(square2, 16))
        for a in range(len(ms)):
            for b in range(a + 1, len(ms)):
                assert abs(torus_average(np.subtract(ms[a], ms[b]), 8) * G[a, b]) < 1e-12


# non-box polygon: the Hirzebruch trapezoid x + y <= 4, y <= 2
HIRZEBRUCH = DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((0, -1), 2), ((-1, -1), 4)))
# dilated 3-simplex 6 Delta^3 with C(9, 3) = 84 lattice points
SIMPLEX6 = DelzantPolytope(3, (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                               ((-1, -1, -1), 6)))


def _pairs(ms):
    ia, ib = np.triu_indices(len(ms), 1)
    ms = np.array(ms)
    return ia, ib, ms[ia] - ms[ib]


class TestGram:
    @pytest.mark.parametrize("P", [box_polytope([(0, 2), (0, 2)]),
                                   HIRZEBRUCH, SIMPLEX6],
                             ids=["square2", "hirzebruch", "6simplex3"])
    def test_matches_per_pair_integration(self, P):
        ms, pot = lattice_points(P), g0_on(P)
        rule = node_rule(make_rule(P, 16))
        norms = [_norm(pot, m, rule.points) for m in ms]
        ref = np.empty((len(ms), len(ms)))
        for a in range(len(ms)):
            for b in range(a, len(ms)):
                ref[a, b] = ref[b, a] = integrate(lambda x: norms[a] * norms[b], rule)
        np.testing.assert_allclose(radial_gram(pot, ms, rule), ref, rtol=1e-12, atol=0)

    def test_norm_matrix_rows_equal_pointwise_norm(self, square2, proj_first_of_two,
                                                   phi_half_square):
        pts = sample_interior(square2, 50, seed=4)
        for pot, t in ((g0_on(square2), 0.0),
                       (SymplecticPotential(square2, proj_first_of_two, phi_half_square), 5.0)):
            ms = lattice_points(square2)
            S = norm_matrix(pot, ms, pts, t)
            assert S.shape == (len(ms), len(pts))
            g, grad = pot.value(pts, t), pot.gradient(pts, t)
            for m, row in zip(ms, S):
                assert np.array_equal(row, _norm(pot, m, pts, t))
                # the defining formula, evaluated one section at a time
                direct = np.exp(g - np.einsum("...i,...i->...", pts - np.array(m, float), grad))
                assert np.array_equal(row, direct)
            single = norm_matrix(pot, ms, pts[0], t)
            assert np.array_equal(single, S[:, 0])

    def test_aliased_grid_fails(self, square2):
        ms = lattice_points(square2)
        G = radial_gram(g0_on(square2), ms, make_rule(square2, 16))
        ia, ib, dm = _pairs(ms)
        scale = np.sqrt(np.diagonal(G))

        def worst(torus):  # the largest |T_ab G_ab| / sqrt(G_aa G_bb)
            return np.max(np.abs(torus) * np.abs(G[ia, ib]) / (scale[ia] * scale[ib]))

        assert worst([torus_average(d, 3) for d in dm]) < 1e-12
        # two angles per axis cannot tell a weight difference of 2 from 0: the
        # guard refuses that grid, and its averages (1 for even differences)
        # leave residuals of order one
        with pytest.raises(ValueError, match="alias"):
            torus_average((0, 2), 2)
        angles = np.pi * np.arange(2)
        aliased = np.array([np.prod([np.mean(np.exp(1j * di * angles)) for di in d])
                            for d in dm])
        assert worst(aliased) > 0.1


# simplex2, hirzebruch, 6 Delta^3 and the 3-polytope of the segment-fold test
KERNEL_POLYTOPES = (
    DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), 2))), HIRZEBRUCH, SIMPLEX6,
    DelzantPolytope(3, (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -2, -1), 3))))


@lru_cache(maxsize=None)
def _rule_nodes(i, res):
    return make_rule(KERNEL_POLYTOPES[i], res).points


@st.composite
def kernel_inputs(draw):
    """A polytope, one of its lattice points, a run of rule nodes and a shape."""
    i = draw(st.integers(0, len(KERNEL_POLYTOPES) - 1))
    ms = lattice_points(KERNEL_POLYTOPES[i])
    nodes = _rule_nodes(i, draw(st.sampled_from([8, 13, 32, 64])))
    start = draw(st.integers(0, len(nodes) - 1))
    x = nodes[start:start + draw(st.integers(1, 700))]
    return i, ms[draw(st.integers(0, len(ms) - 1))], x, draw(st.sampled_from([1, 2, 3]))


class TestFacetMajorKernel:
    """closed_form_norm_g0 against the (N, d) kernel it replaced, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(kernel_inputs())
    def test_bit_equal_to_trailing_axis_form(self, case):
        i, m, x, ndim = case
        P = KERNEL_POLYTOPES[i]
        x = np.concatenate([x, _boundary_points(P)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NaN or log-0 warning on the boundary
            if ndim == 1:  # a point (n,) at a time: rule nodes, then boundary points
                x = np.concatenate([x[:3], x[-5:]])
                got = np.array([closed_form_norm_g0(P, m, p) for p in x])
                ref = np.array([trailing_axis_norm_g0(P, m, p) for p in x])
            elif ndim == 2:
                got, ref = closed_form_norm_g0(P, m, x), trailing_axis_norm_g0(P, m, x)
            else:
                # (a, b, n) gives the bits of its flat (N, n) points; the (N, d)
                # form on an (a, b, d) stack takes numpy's stacked matmul, whose
                # rounding differs from the flat product by an ulp at a few nodes
                a = 2 if len(x) % 2 == 0 else 1
                got = closed_form_norm_g0(P, m, x.reshape(a, -1, P.dim))
                assert got.shape == (a, len(x) // a)
                ref = trailing_axis_norm_g0(P, m, x).reshape(got.shape)
        assert got.tobytes() == ref.tobytes()
        # exact zeros where l_j(m) > 0 = l_j(x), finite and positive elsewhere,
        # also where l_j(m) = 0 = l_j(x)
        lm = P.facet_values_array(np.array(m, dtype=float))
        zero = np.any((P.facet_values_array(x) == 0) & (lm > 0), axis=-1)
        got = got.ravel()
        assert np.all(got[zero] == 0.0) and np.all(got[~zero] > 0)
        assert np.all(np.isfinite(got))

    @pytest.mark.parametrize("i", range(len(KERNEL_POLYTOPES)))
    def test_stack_of_lattice_points_equals_rows(self, i):
        P = KERNEL_POLYTOPES[i]
        ms, pts = lattice_points(P), sample_interior(P, 50, seed=5)
        stack = closed_form_norm_g0(P, ms, pts.reshape(5, 10, P.dim))
        assert stack.shape == (len(ms), 5, 10)
        rows = np.array([closed_form_norm_g0(P, m, pts) for m in ms])
        np.testing.assert_allclose(stack.reshape(len(ms), -1), rows, rtol=1e-14, atol=0)

    def test_stack_rejects_a_point_outside(self):
        P = KERNEL_POLYTOPES[0]
        with pytest.raises(ValueError, match="not a point of the polytope"):
            closed_form_norm_g0(P, [(0, 0), (2, 1)], sample_interior(P, 3))


@pytest.mark.parametrize("case", ["integrand", "domain_boundary"])
def test_error_messages_print_plain_floats(case, interval, proj_id1, phi_half_square):
    # each message names a point; it prints as (0.5,), not (np.float64(0.5),)
    from toric_quant.quadrature import segment_fibers

    family = SymplecticPotential(interval, proj_id1, phi_half_square)
    push = segment_fibers(interval, proj_id1, 16)
    error, call = {
        "integrand": (QuadratureError, lambda: push.sums(lambda x: np.full(len(x), np.nan))),
        "domain_boundary": (DomainBoundaryError, lambda: family.value(np.array([[0.0]]))),
    }[case]
    with pytest.raises(error, match=r" at (x = )?\(\d\.\d+(e-\d+)?,\)$") as err:
        call()
    assert "np.float64" not in str(err.value)
