import warnings

import numpy as np
import pytest

from toric_quant import (
    ConcentrationWeight,
    DelzantPolytope,
    MonomialSection,
    QuadratureError,
    SymplecticPotential,
    closed_form_norm_g0,
    integrate,
    l1_norm,
    l1_norms,
    lattice_points,
    make_rule,
    monomial_basis,
    norm_factorization_check,
    norm_matrix,
    pairwise_orthogonality,
    pointwise_norm,
    radial_gram,
    relative_orthogonality,
    torus_average,
)

from conftest import sample_interior


def _canonical(P):
    return SymplecticPotential.canonical(P)


class TestPointwiseNorm:
    def test_interval_m0_is_sqrt_one_minus_x(self, interval):
        # expanding g0 - x g0' gives log sqrt(1-x)
        sec = MonomialSection((0,), _canonical(interval))
        xs = np.linspace(0.02, 0.98, 25)[:, None]
        assert np.max(np.abs(pointwise_norm(sec, xs) - np.sqrt(1 - xs[:, 0]))) < 1e-12

    def test_interval_m1_mirror(self, interval):
        sec = MonomialSection((1,), _canonical(interval))
        xs = np.linspace(0.02, 0.98, 25)[:, None]
        assert np.max(np.abs(pointwise_norm(sec, xs) - np.sqrt(xs[:, 0]))) < 1e-12

    def test_norm_at_own_lattice_point(self, square2):
        pot = _canonical(square2)
        sec = MonomialSection((1, 1), pot)
        x = np.array([1.0, 1.0])
        assert pointwise_norm(sec, x) == pytest.approx(np.exp(pot.value(x)))

    def test_invalid_lattice_point_rejected(self, interval):
        with pytest.raises(ValueError):
            MonomialSection((2,), _canonical(interval))


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
        pot = _canonical(P)
        pts = sample_interior(P, 40, seed=9)
        for m in lattice_points(P):
            sec = MonomialSection(m, pot)
            a = pointwise_norm(sec, pts)
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
        w = ConcentrationWeight.from_projection(proj_id1, phi_half_square, (0,))
        xs = np.linspace(0.1, 0.9, 9)[:, None]
        assert np.allclose(w(xs), 0.5 * xs[:, 0] ** 2)

    def test_square_slice_profile(self, square2, proj_first_of_two, phi_half_square):
        # f(x) = x1^2/2 - x1: constant in x2, minimum -1/2 on the slice x1 = 1
        w = ConcentrationWeight.from_projection(proj_first_of_two, phi_half_square, (1, 1))
        pts = np.array([[1.0, 0.3], [1.0, 1.9], [0.5, 1.0], [1.5, 0.2]])
        vals = w(pts)
        assert vals[0] == pytest.approx(-0.5)
        assert vals[1] == pytest.approx(-0.5)
        assert vals[2] == pytest.approx(0.125 - 0.5)
        assert vals[3] == pytest.approx(vals[2])

    def test_value_at_own_point(self, square2, proj_first_of_two, phi_half_square):
        w = ConcentrationWeight.from_projection(proj_first_of_two, phi_half_square, (1, 1))
        psi_at_m = 0.5  # phi(x1=1)
        assert w(np.array([1.0, 1.0])) == pytest.approx(-psi_at_m)

    def test_projected_minimum_unique(self, square2, proj_first_of_two, phi_half_square):
        # grid search over the image coordinate finds a single minimizing level
        w = ConcentrationWeight.from_projection(proj_first_of_two, phi_half_square, (1, 1))
        levels = np.linspace(0.05, 1.95, 191)
        vals = w(np.stack([levels, np.full_like(levels, 1.0)], axis=-1))
        mins = np.flatnonzero(vals == vals.min())
        assert len(mins) == 1
        assert levels[mins[0]] == pytest.approx(1.0, abs=0.02)


class TestFactorization:
    def test_zero_at_t_zero(self, interval, proj_id1, phi_half_square):
        pts = sample_interior(interval, 10, seed=3)
        res, _ = norm_factorization_check(interval, proj_id1, phi_half_square,
                                          (0,), [0.0], pts)
        assert res.tolist() == [0.0]

    def test_interval_t3(self, interval, proj_id1, phi_half_square):
        res, _ = norm_factorization_check(interval, proj_id1, phi_half_square,
                                          (0,), [3.0], np.array([[0.5]]))
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
        res, _ = norm_factorization_check(P, proj, phi_half_square, m,
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
        pot0 = SymplecticPotential.perturbed(P, proj, phi_half_square, 0.0)
        fm = ConcentrationWeight.from_projection(proj, phi_half_square, m)
        ref_res, ref_peak = [], []
        for t in times:  # the per-t loop: every norm and f_m afresh
            lhs = pointwise_norm(MonomialSection(m, pot0.at_time(t)), pts)
            rhs = np.exp(-t * fm(pts)) * pointwise_norm(MonomialSection(m, pot0), pts)
            ref_res.append(float(np.max(np.abs(lhs - rhs))))
            ref_peak.append(float(np.max(lhs)))
        calls = {"norm": 0, "fm": 0}
        real_norm, real_fm = sections.pointwise_norm, ConcentrationWeight.__call__

        def norm(section, x):
            calls["norm"] += 1
            return real_norm(section, x)

        def weight(self, x):
            calls["fm"] += 1
            return real_fm(self, x)

        monkeypatch.setattr(sections, "pointwise_norm", norm)
        monkeypatch.setattr(ConcentrationWeight, "__call__", weight)
        res, peaks = norm_factorization_check(P, proj, phi_half_square, m, times, pts)
        assert res.tolist() == ref_res
        assert peaks.tolist() == ref_peak
        # |sigma_0| once, |sigma_t| once per t, f_m once
        assert calls == {"norm": len(times) + 1, "fm": 1}


class TestL1AndBasis:
    def test_interval_m0_integral(self, interval):
        sec = MonomialSection((0,), _canonical(interval))
        rule = make_rule(interval, 256)
        assert l1_norm(sec, rule) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_interval_m1_by_symmetry(self, interval):
        sec = MonomialSection((1,), _canonical(interval))
        rule = make_rule(interval, 256)
        assert l1_norm(sec, rule) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_l1_norms_equal_one_time_at_a_time(self, simplex, phi_half_square):
        from toric_quant import SubtorusProjection

        pot = SymplecticPotential.perturbed(simplex, SubtorusProjection(((1, 0),)),
                                            phi_half_square, 0.0)
        rule = make_rule(simplex, 32)
        times = (0.0, 4.0, 16.0, 64.0)
        # the reference integrates the time-t norm of g_t afresh for every t;
        # l1_norms takes it through e^{-t f_m} |sigma^m_0|, in another order
        ref = [integrate(lambda x, t=t: pointwise_norm(MonomialSection((0, 1), pot.at_time(t)), x),
                         rule) for t in times]
        got = l1_norms(pot, (0, 1), rule, times)
        assert np.allclose(got, ref, rtol=1e-12, atol=0)
        assert [l1_norm(MonomialSection((0, 1), pot.at_time(t)), rule) for t in times] == got

    def test_l1_norms_blocked_equal_whole_rule(self, square2, phi_half_square, monkeypatch):
        import tracemalloc

        from toric_quant import SubtorusProjection, quadrature
        from toric_quant.quadrature import NODE_BLOCK

        pot = SymplecticPotential.perturbed(square2, SubtorusProjection(((1, 0),)),
                                            phi_half_square, 0.0)
        rule = make_rule(square2, 512)
        assert rule.size > 4 * NODE_BLOCK
        times = (0.0, 8.0, 32.0)
        ref = [integrate(lambda x, t=t: pointwise_norm(MonomialSection((1, 1), pot.at_time(t)), x),
                         rule) for t in times]
        tracemalloc.start()
        try:
            got = l1_norms(pot, (1, 1), rule, times)
            peak = tracemalloc.get_traced_memory()[1] / (8.0 * rule.size)
        finally:
            tracemalloc.stop()
        assert np.allclose(got, ref, rtol=1e-12, atol=0)
        monkeypatch.setattr(quadrature, "NODE_BLOCK", rule.size)
        assert l1_norms(pot, (1, 1), rule, times) == got
        # block temporaries and per-fiber arrays only (1.65 node vectors);
        # one node vector per time plus block temporaries before the fiber
        # sums, and 13 node vectors on the whole rule before the blocks
        assert peak < 2.0

    def test_basis_size_is_lattice_count(self, square2, simplex):
        for P in (square2, simplex):
            assert len(monomial_basis(_canonical(P))) == len(lattice_points(P))

    def test_mass_ratio_stabilizes(self, square2, proj_first_of_two, phi_half_square):
        # ||sigma_t||_1 / ||e^{-t f_m}||_1 approaches a finite constant
        from toric_quant.quadrature import make_rule as mk
        from toric_quant.sections import closed_form_norm_g0 as cf

        w = ConcentrationWeight.from_projection(proj_first_of_two, phi_half_square, (1, 1))
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


class TestOrthogonality:
    def test_interval_four_point_grid(self, interval):
        pot = _canonical(interval)
        res = pairwise_orthogonality(MonomialSection((0,), pot),
                                     MonomialSection((1,), pot), 4)
        assert abs(res) < 1e-12

    def test_square_mixed_difference(self, square2):
        pot = _canonical(square2)
        res = pairwise_orthogonality(MonomialSection((0, 0), pot),
                                     MonomialSection((1, 2), pot), 8)
        assert abs(res) < 1e-12

    def test_equal_points_positive(self, square2):
        pot = _canonical(square2)
        sec = MonomialSection((1, 1), pot)
        res = pairwise_orthogonality(sec, sec, 8)
        assert res.imag == 0
        assert res.real > 0

    def test_aliasing_guard(self, square2):
        pot = _canonical(square2)
        with pytest.raises(ValueError, match="alias"):
            pairwise_orthogonality(MonomialSection((0, 0), pot),
                                   MonomialSection((0, 2), pot), 2)

    def test_all_pairs_square2(self, square2):
        pot = _canonical(square2)
        secs = monomial_basis(pot)
        rule = make_rule(square2, 16)
        for i, a in enumerate(secs):
            for b in secs[i + 1:]:
                assert abs(pairwise_orthogonality(a, b, 8, radial_rule=rule)) < 1e-12


# non-box polygon: the Hirzebruch trapezoid x + y <= 4, y <= 2
HIRZEBRUCH = DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((0, -1), 2), ((-1, -1), 4)))
# dilated 3-simplex 6 Delta^3 with C(9, 3) = 84 lattice points
SIMPLEX6 = DelzantPolytope(3, (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                               ((-1, -1, -1), 6)))


def _pairs(basis):
    ia, ib = np.triu_indices(len(basis), 1)
    ms = np.array([b.m for b in basis])
    return ia, ib, ms[ia] - ms[ib]


class TestGram:
    @pytest.mark.parametrize("P", [DelzantPolytope.from_box([(0, 2), (0, 2)]),
                                   HIRZEBRUCH, SIMPLEX6],
                             ids=["square2", "hirzebruch", "6simplex3"])
    def test_matches_per_pair_integration(self, P):
        basis = monomial_basis(_canonical(P))
        rule = make_rule(P, 16)
        norms = [pointwise_norm(b, rule.points) for b in basis]
        ref = np.empty((len(basis), len(basis)))
        for a in range(len(basis)):
            for b in range(a, len(basis)):
                ref[a, b] = ref[b, a] = integrate(lambda x: norms[a] * norms[b], rule)
        np.testing.assert_allclose(radial_gram(basis, rule), ref, rtol=1e-12, atol=0)

    def test_pairwise_orthogonality_is_gram_entry(self, square2):
        basis = monomial_basis(_canonical(square2))
        rule = make_rule(square2, 16)
        G = radial_gram(basis, rule)
        a, b = basis[2], basis[5]
        dm = np.array(a.m) - np.array(b.m)
        # the two-row Gram product may round differently from the full one
        assert pairwise_orthogonality(a, b, 8, radial_rule=rule) == \
            pytest.approx(torus_average(dm, 8) * G[2, 5], rel=1e-12, abs=0)

    def test_norm_matrix_rows_equal_pointwise_norm(self, square2, proj_first_of_two,
                                                   phi_half_square):
        pts = sample_interior(square2, 50, seed=4)
        for pot in (_canonical(square2),
                    SymplecticPotential.perturbed(square2, proj_first_of_two,
                                                  phi_half_square, 5.0)):
            ms = lattice_points(square2)
            S = norm_matrix(pot, ms, pts)
            assert S.shape == (len(ms), len(pts))
            g, grad = pot.value(pts), pot.gradient(pts)
            for m, row in zip(ms, S):
                assert np.array_equal(row, pointwise_norm(MonomialSection(m, pot), pts))
                # the defining formula, evaluated one section at a time
                direct = np.exp(g - np.einsum("...i,...i->...", pts - np.array(m, float), grad))
                assert np.array_equal(row, direct)
            single = norm_matrix(pot, ms, pts[0])
            assert np.array_equal(single, S[:, 0])

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_non_finite_norm_rejected(self, interval, proj_id1, phi_half_square):
        # |sigma^1_t| peaks like e^{t/2} at x = 1, past the float64 range at t = 2000
        pot = SymplecticPotential.perturbed(interval, proj_id1, phi_half_square, 2000.0)
        basis = monomial_basis(pot)
        with pytest.raises(QuadratureError, match="non-finite section norm"):
            radial_gram(basis, make_rule(interval, 16))

    def test_non_finite_pairing_rejected(self, interval, proj_id1, phi_half_square):
        # at t = 1000 the norms stay finite (~e^500) but their products overflow
        pot = SymplecticPotential.perturbed(interval, proj_id1, phi_half_square, 1000.0)
        basis = monomial_basis(pot)
        rule = make_rule(interval, 16)
        assert np.all(np.isfinite(norm_matrix(pot, [b.m for b in basis], rule.points)))
        with pytest.raises(QuadratureError, match="non-finite pairing"):
            radial_gram(basis, rule)

    def test_mixed_potentials_rejected(self, square2, proj_first_of_two, phi_half_square):
        other = SymplecticPotential.perturbed(square2, proj_first_of_two, phi_half_square, 1.0)
        with pytest.raises(ValueError, match="share a potential"):
            radial_gram([MonomialSection((0, 0), _canonical(square2)),
                         MonomialSection((1, 1), other)], make_rule(square2, 16))

    def test_relative_residual_scale_free(self):
        # pairings on 6 Delta^3 reach ~2e4 and grow with the dilation; the
        # residual is a ratio to sqrt(G_aa G_bb), so rescaling G leaves it alone
        basis = monomial_basis(_canonical(SIMPLEX6))
        G = radial_gram(basis, make_rule(SIMPLEX6, 16))
        ia, ib, dm = _pairs(basis)
        torus = np.array([torus_average(d, 7) for d in dm])
        res = relative_orthogonality(G, ia, ib, torus)
        assert np.max(res) < 1e-12
        np.testing.assert_allclose(relative_orthogonality(1e6 * G, ia, ib, torus), res,
                                   rtol=1e-14, atol=0)

    def test_aliased_grid_fails(self, square2):
        basis = monomial_basis(_canonical(square2))
        G = radial_gram(basis, make_rule(square2, 16))
        ia, ib, dm = _pairs(basis)
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
        _, _, dm = _pairs(monomial_basis(_canonical(SIMPLEX8)))
        for d in np.unique(dm, axis=0):
            for res in (max(4, int(np.max(np.abs(d))) + 1), 17):
                got, want = torus_average(d, res), self._per_component(d, res)
                assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_aliased_grid_residual_of_order_one(self):
        basis = monomial_basis(_canonical(SIMPLEX8))
        G = radial_gram(basis, make_rule(SIMPLEX8, 16))
        ia, ib, dm = _pairs(basis)
        exact = np.array([torus_average(d, 9) for d in dm])
        assert np.max(relative_orthogonality(G, ia, ib, exact)) < 1e-12
        # two angles per axis average every even difference to 1
        aliased = np.array([self._per_component(d, 2) for d in dm])
        assert np.max(relative_orthogonality(G, ia, ib, aliased)) > 0.1
