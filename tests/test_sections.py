import warnings

import numpy as np
import pytest

from toric_quant import (
    ConcentrationWeight,
    DelzantPolytope,
    DomainBoundaryError,
    QuadratureError,
    SymplecticPotential,
    closed_form_norm_g0,
    integrate,
    l1_norms,
    lattice_points,
    make_rule,
    norm_factorization_check,
    norm_matrix,
    orthogonality_residual,
    pullback,
    radial_gram,
    relative_orthogonality,
    torus_average,
)

from conftest import g0_on, sample_interior


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
        P = DelzantPolytope.from_box([(0, 2)])
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
    V = np.array([v.as_array() for v in P.vertices])
    return np.concatenate([V, 0.5 * (V[:, None] + V[None, :]).reshape(-1, P.dim)])


class TestClosedFormLogForm:
    POLYTOPES = [
        DelzantPolytope.from_box([(0, 2), (0, 2)]),
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
            for v in P.vertices:
                val = closed_form_norm_g0(P, m, v.as_array())
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
        ref_res, ref_peak = [], []
        for t in times:  # the per-t loop: every norm and f_m afresh
            lhs = _norm(pot0, m, pts, t)
            rhs = np.exp(-t * fm(pts)) * _norm(pot0, m, pts)
            ref_res.append(float(np.max(np.abs(lhs - rhs))))
            ref_peak.append(float(np.max(lhs)))
        calls = {"norm": 0, "fm": 0}
        real_norm, real_fm = sections.norm_matrix, ConcentrationWeight.__call__

        def norm(pot, ms, x, t=0.0):
            calls["norm"] += 1
            return real_norm(pot, ms, x, t)

        def weight(self, x):
            calls["fm"] += 1
            return real_fm(self, x)

        monkeypatch.setattr(sections, "norm_matrix", norm)
        monkeypatch.setattr(ConcentrationWeight, "__call__", weight)
        res, peaks = norm_factorization_check(pot0, m, times, pts)
        assert res.tolist() == ref_res
        assert peaks.tolist() == ref_peak
        # |sigma_0| once, |sigma_t| for every t in one stacked call, f_m once
        assert calls == {"norm": 2, "fm": 1}

    def test_g0_evaluated_twice_per_ladder(self, square2, proj_first_of_two,
                                           phi_half_square, monkeypatch):
        from toric_quant import potential

        seen = {"g0_value": [], "g0_gradient": []}
        for name in seen:
            monkeypatch.setattr(potential, name, lambda P, x, real=getattr(potential, name),
                                name=name: seen[name].append(np.shape(x)) or real(P, x))
        pot0 = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        pts = sample_interior(square2, 30, seed=2)
        res, peaks = norm_factorization_check(pot0, (1, 1), (1.0, 4.0, 16.0, 64.0), pts)
        assert res.shape == peaks.shape == (4,)
        assert np.all(res < 1e-10 * np.maximum(1.0, peaks))
        # once for |sigma^m_0| and once for |sigma^m_t| at every t
        assert seen == {"g0_value": [(30, 2)] * 2, "g0_gradient": [(30, 2)] * 2}


class TestL1AndBasis:
    def test_interval_m0_integral(self, interval):
        assert l1_norms(g0_on(interval), (0,), 256, [0.0]) == \
            [pytest.approx(2.0 / 3.0, abs=1e-6)]

    def test_interval_m1_by_symmetry(self, interval):
        assert l1_norms(g0_on(interval), (1,), 256, [0.0]) == \
            [pytest.approx(2.0 / 3.0, abs=1e-6)]

    def test_l1_norms_equal_one_time_at_a_time(self, simplex, phi_half_square):
        from toric_quant import SubtorusProjection

        pot = SymplecticPotential(simplex, SubtorusProjection(((1, 0),)), phi_half_square)
        rule = make_rule(simplex, 32)
        times = (0.0, 4.0, 16.0, 64.0)
        # the reference integrates the time-t norm of g_t afresh for every t;
        # l1_norms takes it through e^{-t f_m} |sigma^m_0|, in another order
        ref = [integrate(lambda x, t=t: _norm(pot, (0, 1), x, t), rule) for t in times]
        got = l1_norms(pot, (0, 1), 32, times)
        assert np.allclose(got, ref, rtol=1e-12, atol=0)
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
        assert np.allclose(got, ref, rtol=1e-12, atol=0)
        monkeypatch.setattr(quadrature, "NODE_BLOCK", rule.size)
        assert l1_norms(pot, (1, 1), 512, times) == got
        # block temporaries and per-fiber arrays only beyond the rule's own
        # three node vectors (0.3; 1.65 with the norm taken per node); one
        # node vector per time plus block temporaries before the fiber sums,
        # and 13 node vectors on the whole rule before the blocks
        own = (rule.points.nbytes + rule.weights.nbytes) / (8.0 * rule.size)
        assert peak - own < 2.0

    @pytest.mark.parametrize("fixture,m,box", [("square2", (1, 0), True),
                                               ("simplex", (0, 1), False)])
    def test_l1_norms_integrate_against_the_weighted_rule(self, fixture, m, box, request,
                                                           phi_half_square, monkeypatch):
        from toric_quant import SubtorusProjection, quadrature

        P = request.getfixturevalue(fixture)
        pot = SymplecticPotential(P, SubtorusProjection(((1, 0),)), phi_half_square)
        times = (0.0, 8.0)
        # the reference: the plain rule's weights times the node norm, for each t
        plain = make_rule(P, 40)
        ref = [integrate(lambda x, t=t: _norm(pot, m, x, t), plain) for t in times]
        seen = []
        real = quadrature.closed_form_norm_g0
        monkeypatch.setattr(quadrature, "closed_form_norm_g0",
                            lambda P, m, x: seen.append(len(x)) or real(P, m, x))
        assert np.allclose(l1_norms(pot, m, 40, times), ref, rtol=1e-12, atol=0)
        # a box folds the norm in axis by axis; a grid takes it once per node
        assert sum(seen) == (0 if box else plain.size)

    def test_basis_size_is_lattice_count(self, square2, simplex):
        # one norm row per lattice point: 9 on [0, 2]^2 and 3 on the simplex
        for P, count in ((square2, 9), (simplex, 3)):
            x = sample_interior(P, 5, seed=1)
            assert norm_matrix(g0_on(P), lattice_points(P), x).shape == (count, 5)

    def test_mass_ratio_stabilizes(self, square2, proj_first_of_two, phi_half_square):
        # ||sigma_t||_1 / ||e^{-t f_m}||_1 approaches a finite constant
        from toric_quant.quadrature import make_rule as mk
        from toric_quant.sections import closed_form_norm_g0 as cf

        w = ConcentrationWeight((1, 1), pullback(phi_half_square, proj_first_of_two))
        rule = mk(square2, 256)
        f = w(rule.points)
        base = cf(square2, (1, 1), rule.points)
        fmin = f.min()

        def ratio(t):
            e = np.exp(-t * (f - fmin))
            return float((e * base) @ rule.weights) / float(e @ rule.weights)

        r = [ratio(t) for t in (64, 128, 256, 512)]
        assert abs(r[-1] - r[-2]) < abs(r[1] - r[0])
        assert abs(r[-1] - r[-2]) < 5e-3 * abs(r[-1])


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
    @pytest.mark.parametrize("P", [DelzantPolytope.from_box([(0, 2), (0, 2)]),
                                   HIRZEBRUCH, SIMPLEX6],
                             ids=["square2", "hirzebruch", "6simplex3"])
    def test_matches_per_pair_integration(self, P):
        ms, pot = lattice_points(P), g0_on(P)
        rule = make_rule(P, 16)
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

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_non_finite_norm_rejected(self, interval, proj_id1, phi_half_square):
        # |sigma^1_t| peaks like e^{t/2} at x = 1, past the float64 range at t = 2000
        pot = SymplecticPotential(interval, proj_id1, phi_half_square)
        with pytest.raises(QuadratureError, match="non-finite section norm"):
            radial_gram(pot, lattice_points(interval), make_rule(interval, 16), 2000.0)

    def test_non_finite_pairing_rejected(self, interval, proj_id1, phi_half_square):
        # at t = 1000 the norms stay finite (~e^500) but their products overflow
        pot = SymplecticPotential(interval, proj_id1, phi_half_square)
        ms = lattice_points(interval)
        rule = make_rule(interval, 16)
        assert np.all(np.isfinite(norm_matrix(pot, ms, rule.points, 1000.0)))
        with pytest.raises(QuadratureError, match=r"non-finite pairing of \[1\] and \[1\]"):
            radial_gram(pot, ms, rule, 1000.0)

    def test_relative_residual_scale_free(self):
        # pairings on 6 Delta^3 reach ~2e4 and grow with the dilation; the
        # residual is a ratio to sqrt(G_aa G_bb), so rescaling G leaves it alone
        ms = lattice_points(SIMPLEX6)
        G = radial_gram(g0_on(SIMPLEX6), ms, make_rule(SIMPLEX6, 16))
        ia, ib, dm = _pairs(ms)
        torus = np.array([torus_average(d, 7) for d in dm])
        res = relative_orthogonality(G, ia, ib, torus)
        assert np.max(res) < 1e-12
        np.testing.assert_allclose(relative_orthogonality(1e6 * G, ia, ib, torus), res,
                                   rtol=1e-14, atol=0)

    def test_aliased_grid_fails(self, square2):
        ms = lattice_points(square2)
        G = radial_gram(g0_on(square2), ms, make_rule(square2, 16))
        ia, ib, dm = _pairs(ms)
        exact = np.array([torus_average(d, 3) for d in dm])
        assert np.max(relative_orthogonality(G, ia, ib, exact)) < 1e-12
        # two angles per axis cannot tell a weight difference of 2 from 0: the
        # guard refuses that grid, and its averages (1 for even differences)
        # leave residuals of order one
        with pytest.raises(ValueError, match="alias"):
            torus_average((0, 2), 2)
        angles = np.pi * np.arange(2)
        aliased = np.array([np.prod([np.mean(np.exp(1j * di * angles)) for di in d])
                            for d in dm])
        assert np.max(relative_orthogonality(G, ia, ib, aliased)) > 0.1


# 8 Delta^3, with C(11, 3) = 165 lattice points
SIMPLEX8 = DelzantPolytope(3, (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                               ((-1, -1, -1), 8)))


class TestOrthogonalityResidual:
    @pytest.mark.parametrize("P", [HIRZEBRUCH, SIMPLEX6, SIMPLEX8])
    def test_equals_per_pair_torus_averages(self, P):
        # the reference takes every pair's average afresh, on the coarsest
        # grid of at least 4 angles per axis that outresolves its difference
        ms = lattice_points(P)
        G = radial_gram(g0_on(P), ms, make_rule(P, 16))
        ia, ib, dm = _pairs(ms)
        torus = np.array([torus_average(d, max(4, int(np.max(np.abs(d))) + 1)) for d in dm])
        want = float(np.max(relative_orthogonality(G, ia, ib, torus)))
        assert orthogonality_residual(G, ms) == want
        assert want < 1e-12

    def test_one_lattice_point_has_no_pairs(self):
        assert orthogonality_residual(np.ones((1, 1)), [(0, 0)]) == 0.0


class TestTorusAverage:
    @staticmethod
    def _per_component(d, resolution):
        """The torus average as one mean per coordinate, multiplied in order."""
        angles = 2.0 * np.pi * np.arange(resolution) / resolution
        avg = complex(1.0)
        for di in d:
            avg *= np.mean(np.exp(1j * di * angles))
        return avg

    def test_bit_equal_to_per_component_formula(self):
        # every difference m - m' of 8 Delta^3 (coordinates up to 8), on the
        # grid that sections-norms takes for it and on one grid for all
        _, _, dm = _pairs(lattice_points(SIMPLEX8))
        for d in np.unique(dm, axis=0):
            for res in (max(4, int(np.max(np.abs(d))) + 1), 17):
                got, want = torus_average(d, res), self._per_component(d, res)
                assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_aliased_grid_residual_of_order_one(self):
        ms = lattice_points(SIMPLEX8)
        G = radial_gram(g0_on(SIMPLEX8), ms, make_rule(SIMPLEX8, 16))
        ia, ib, dm = _pairs(ms)
        exact = np.array([torus_average(d, 9) for d in dm])
        assert np.max(relative_orthogonality(G, ia, ib, exact)) < 1e-12
        # two angles per axis average every even difference to 1
        aliased = np.array([self._per_component(d, 2) for d in dm])
        assert np.max(relative_orthogonality(G, ia, ib, aliased)) > 0.1


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
@pytest.mark.parametrize("case", ["integrand", "section_norm", "pairing", "domain_boundary"])
def test_error_messages_print_plain_floats(case, interval, proj_id1, phi_half_square):
    # each message names a point; it prints as (0.5,), not (np.float64(0.5),)
    family = SymplecticPotential(interval, proj_id1, phi_half_square)
    ms, rule = [(0,), (1,)], make_rule(interval, 16)
    error, call = {
        "integrand": (QuadratureError, lambda: integrate(lambda x: np.full(len(x), np.nan), rule)),
        "section_norm": (QuadratureError, lambda: radial_gram(family, ms, rule, 2000.0)),
        "pairing": (QuadratureError, lambda: radial_gram(family, ms, rule, 1000.0)),
        "domain_boundary": (DomainBoundaryError, lambda: family.value(np.array([[0.0]]))),
    }[case]
    with pytest.raises(error, match=r" at (x = )?\(\d\.\d+(e-\d+)?,\)$") as err:
        call()
    assert "np.float64" not in str(err.value)
