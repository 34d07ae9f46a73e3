import math

import numpy as np
import pytest

from toric_quant import (
    ConcentrationWeight,
    QuadratureError,
    SubtorusProjection,
    box_rule,
    closed_form_norm_g0,
    concentration_experiment,
    delta_pairing,
    face_slice,
    grid_rule,
    integrate,
    integrate_slice,
    make_rule,
    slice_chart,
    slice_rule,
)


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


class TestSliceIntegration:
    def test_segment_constant(self, square2, proj_first_of_two):
        sl = slice_chart(square2, proj_first_of_two, (1,))
        assert integrate_slice(ones, sl, resolution=32) == pytest.approx(2.0, abs=1e-10)

    def test_norm_profile_against_finer_rule(self, square2, proj_first_of_two):
        sl = slice_chart(square2, proj_first_of_two, (1,))
        f = lambda x: closed_form_norm_g0(square2, (1, 1), x)
        coarse = integrate_slice(f, sl, resolution=64)
        fine = integrate_slice(f, sl, resolution=640)
        assert abs(coarse - fine) < 1e-5

    def test_boundary_level_errors(self, square2, proj_first_of_two):
        with pytest.raises(Exception):
            slice_chart(square2, proj_first_of_two, (2,))

    def test_zero_dim_slice_is_point_evaluation(self, interval, proj_id1):
        sl = face_slice(interval, proj_id1, (0,))
        rule = slice_rule(sl, 16)
        assert rule.size == 1
        val = integrate_slice(lambda x: 5.0 * ones(x), sl, rule=rule)
        assert val == pytest.approx(5.0)

    def test_simplex_diagonal_slice_grid(self, simplex):
        proj = SubtorusProjection(((1, 1),))
        sl = slice_chart(simplex, proj, (0.5,))
        # fiber {x + y = 1/2} inside the simplex has length sqrt(2) but chart
        # measure du along the primitive direction (1,-1) gives extent 1/2
        val = integrate_slice(ones, sl, resolution=64)
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
        res = concentration_experiment(square2, proj_first_of_two, phi_half_square,
                                       (1, 1), ones, [8, 16, 32], resolution=64)
        assert res.slice_value == pytest.approx(1.0)
        assert np.allclose(res.ratios, 1.0, atol=1e-12)

    def test_square_symmetric_weights_converged(self, square2, proj_first_of_two,
                                                phi_half_square):
        # mirror symmetry makes R_t = R_inf = 1 identically for u = x2 and x1
        for axis in (0, 1):
            res = concentration_experiment(
                square2, proj_first_of_two, phi_half_square, (1, 1),
                lambda x, a=axis: x[..., a], [8, 16, 32, 64, 128], resolution=256)
            assert res.slice_value == pytest.approx(1.0, abs=1e-12)
            assert max(res.errors) < 1e-12
            # errors at roundoff carry no rate: no exponent is fitted to them
            assert res.decay_exponent is None

    def test_square_asymmetric_weight_laplace_rate(self, square2, proj_first_of_two,
                                                   phi_half_square):
        # u = x1^2 breaks the mirror symmetry: genuine C/t error decay
        res = concentration_experiment(
            square2, proj_first_of_two, phi_half_square, (1, 1),
            lambda x: x[..., 0] ** 2, [16, 32, 64, 128, 256], resolution=256)
        assert res.slice_value == pytest.approx(1.0, abs=1e-10)
        for e0, e1 in zip(res.errors, res.errors[1:]):
            assert 0.3 <= e1 / e0 <= 0.7
        assert -1.1 <= res.decay_exponent <= -0.9

    def test_errors_eventually_monotone(self, square2, proj_first_of_two,
                                        phi_half_square):
        res = concentration_experiment(
            square2, proj_first_of_two, phi_half_square, (1, 1),
            lambda x: np.exp(x[..., 0]), [8, 16, 32, 64, 128], resolution=256)
        assert all(b < a for a, b in zip(res.errors, res.errors[1:]))

    def test_interval_vertex_experiment(self, interval, proj_id1, phi_half_square):
        # m = 0 sits at a vertex: the slice pairing is point evaluation u(0) = 0
        # and the one-sided Laplace mean decays like sqrt(2 / (pi t))
        res = concentration_experiment(interval, proj_id1, phi_half_square, (0,),
                                       lambda x: x[..., 0], [32, 64, 128],
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
        w = ConcentrationWeight.from_projection(proj_first_of_two, phi_half_square,
                                                (1, 1))
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
        res = concentration_experiment(square2, proj_first_of_two, phi_half_square,
                                       (1, 1), lambda x: x[..., 0] ** 2,
                                       [100.0, 10000.0], resolution=64)
        assert all(np.isfinite(res.ratios))

    def test_t_list_must_increase(self, square2, proj_first_of_two, phi_half_square):
        with pytest.raises(ValueError):
            concentration_experiment(square2, proj_first_of_two, phi_half_square,
                                     (1, 1), ones, [8, 8], resolution=64)
