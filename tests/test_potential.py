from pathlib import Path

import numpy as np
import pytest

from toric_quant import (
    DelzantPolytope,
    DomainBoundaryError,
    SubtorusProjection,
    SymplecticPotential,
    g0_gradient,
    g0_hessian,
    g0_value,
    inverse,
    quadratic,
    validate_potential,
)
from toric_quant.cli import load_config, run
from toric_quant.potential import boundary_approach_samples, interior_samples

from conftest import fd_gradient, fd_jacobian, g0_on, sample_interior

REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted((REPO / "configs").glob("*.json")) + sorted(
    (REPO / "bench" / "fixtures").glob("*.json"))

HALF_LOG_HALF = 0.5 * np.log(0.5)  # -0.34657359027997264


class TestCanonicalValues:
    def test_interval_midpoint(self, interval):
        assert g0_value(interval, np.array([0.5])) == pytest.approx(HALF_LOG_HALF, abs=1e-12)

    def test_value_tends_to_zero_at_boundary(self, interval):
        # l log l -> 0: approach x = 0 along a shrinking sequence
        xs = np.array([[1e-3], [1e-6], [1e-9]])
        vals = g0_value(interval, xs)
        assert abs(vals[-1]) < 1e-7
        assert abs(vals[-1]) < abs(vals[0])

    def test_boundary_evaluation_errors(self, interval):
        with pytest.raises(DomainBoundaryError) as err:
            g0_value(interval, np.array([0.0]))
        assert err.value.facet_index == 1

    def test_exterior_names_violated_facet(self, square1):
        with pytest.raises(DomainBoundaryError) as err:
            g0_value(square1, np.array([0.5, 1.5]))
        assert err.value.facet_index == 4  # the facet 1 - x2 >= 0

    @pytest.mark.parametrize("g0", [g0_value, g0_gradient, g0_hessian])
    def test_given_facet_values_are_checked(self, square1, g0):
        # facet values a caller passes in (legendre.inverse's trial values) are checked as
        # evaluated ones are: the first point and facet with l_j <= 0 are named
        x = np.array([[0.5, 0.5], [0.25, 0.75]])
        L = square1.facet_values_array(x)
        L[1, 2] = 0.0
        with pytest.raises(DomainBoundaryError) as err:
            g0(square1, x, L)
        assert (err.value.facet_index, err.value.point, err.value.value) == (3, (0.25, 0.75), 0.0)
        pot = SymplecticPotential(square1, SubtorusProjection(((1, 0),)), quadratic([[1.0]]))
        with pytest.raises(DomainBoundaryError):
            (pot.gradient if g0 is g0_gradient else pot.hessian)(x, 2.0, L=L)

    def test_square_is_sum_of_intervals(self, square1):
        assert g0_value(square1, np.array([0.5, 0.5])) == pytest.approx(
            2 * HALF_LOG_HALF, abs=1e-12)


class TestDerivatives:
    def test_interval_gradient_zero_at_center(self, interval):
        assert g0_gradient(interval, np.array([0.5])) == pytest.approx([0.0], abs=1e-14)

    def test_interval_hessian_values(self, interval):
        assert g0_hessian(interval, np.array([0.5]))[0, 0] == pytest.approx(2.0)
        assert g0_hessian(interval, np.array([0.25]))[0, 0] == pytest.approx(8.0 / 3.0)

    def test_square_hessian_diagonal(self, square1):
        H = g0_hessian(square1, np.array([0.5, 0.5]))
        assert np.allclose(H, np.diag([2.0, 2.0]))

    @pytest.mark.parametrize("fixture", ["interval", "square2", "simplex"])
    def test_gradient_matches_finite_differences(self, fixture, request):
        P = request.getfixturevalue(fixture)
        pts = sample_interior(P, 100, seed=11)
        for x in pts:
            num = fd_gradient(lambda z: g0_value(P, z), x)
            ana = g0_gradient(P, x)
            assert np.linalg.norm(num - ana) <= 1e-6 * max(1.0, np.linalg.norm(ana))

    @pytest.mark.parametrize("fixture", ["interval", "square2", "simplex"])
    def test_hessian_matches_finite_differences(self, fixture, request):
        P = request.getfixturevalue(fixture)
        pts = sample_interior(P, 25, seed=12)
        for x in pts:
            num = fd_jacobian(lambda z: g0_gradient(P, z), x)
            ana = g0_hessian(P, x)
            assert np.max(np.abs(num - ana)) <= 1e-6 * max(1.0, np.max(np.abs(ana)))

    @pytest.mark.parametrize("lead", [(), (12,), (3, 4)])
    @pytest.mark.parametrize("fixture", ["square2", "cube2", "simplex2", "hirzebruch"])
    def test_hessian_is_the_facet_sum(self, fixture, lead):
        # boxes and non-box polygons; one product over every leading axis
        P = load_config(str(REPO / ("configs" if fixture == "square2" else "bench/fixtures")
                            / f"{fixture}.json")).polytope
        x = sample_interior(P, int(np.prod(lead)), seed=13).reshape(lead + (P.dim,))
        H = g0_hessian(P, x)
        assert H.shape == lead + (P.dim, P.dim)
        for idx in np.ndindex(lead):
            ref = 0.5 * sum(np.outer(r, r) / l for r, l in
                            zip(P.normal_matrix, P.facet_values_array(x[idx])))
            np.testing.assert_allclose(H[idx], ref, rtol=1e-14, atol=0)


class TestFamily:
    def test_t_zero_matches_canonical(self, square2, proj_first_of_two, phi_half_square):
        pot = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        pts = sample_interior(square2, 20, seed=4)
        assert np.allclose(pot.value(pts), g0_value(square2, pts))
        assert np.allclose(pot.gradient(pts), g0_gradient(square2, pts))

    def test_t_zero_is_canonical_bit_for_bit(self):
        # the t = 0 member of every shipped config's family is g0, bit for bit
        from toric_quant.cli import load_config

        assert any(path.stem == "square2_skew" for path in SHIPPED_CONFIGS)
        for path in SHIPPED_CONFIGS:
            cfg = load_config(path)
            P = cfg.polytope
            pot = SymplecticPotential(P, cfg.proj, cfg.phi)
            pts = sample_interior(P, 20, seed=4)
            for f, ref in (("value", g0_value), ("gradient", g0_gradient),
                           ("hessian", g0_hessian)):
                assert getattr(pot, f)(pts).tobytes() == ref(P, pts).tobytes(), path.stem

    def test_interval_gradient_shift(self, interval, proj_id1, phi_half_square):
        pot = SymplecticPotential(interval, proj_id1, phi_half_square)
        assert pot.gradient(np.array([0.5]), 1.0) == pytest.approx([0.5])

    def test_kernel_direction_gradient_unchanged(self, square2, proj_first_of_two,
                                                 phi_half_square):
        # d/dx2 of g_t equals d/dx2 of g0 exactly for every t
        pts = sample_interior(square2, 30, seed=5)
        base = g0_gradient(square2, pts)[:, 1]
        pot = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        for t in (1.0, 10.0, 100.0):
            assert np.array_equal(pot.gradient(pts, t)[:, 1], base)

    @pytest.mark.parametrize("t", [0.0, 1.0, 10.0, 100.0])
    def test_convexity_across_times(self, square2, proj_first_of_two,
                                    phi_half_square, t):
        pot = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        pts = sample_interior(square2, 50, seed=6)
        eigs = np.linalg.eigvalsh(pot.hessian(pts, t))
        assert np.all(eigs[..., 0] > 0)

    def test_monotonicity_in_t(self, square2, proj_first_of_two, phi_half_square):
        pot = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        pts = sample_interior(square2, 20, seed=7)
        diff = pot.hessian(pts, 7.0) - pot.hessian(pts)
        assert np.all(np.linalg.eigvalsh(diff) >= -1e-12)

    def test_per_point_times_match_members(self, square2, proj_first_of_two,
                                           phi_half_square):
        pot0 = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        pts = sample_interior(square2, 8, seed=3)
        times = np.array([0.5, 3.0, 40.0])
        for name in ("value", "gradient", "hessian"):
            stack = getattr(pot0, name)(pts, times[:, None])
            for t, row in zip(times, stack):
                assert np.array_equal(row, getattr(pot0, name)(pts, t))

    def test_negative_time_rejected(self, interval):
        # g_t is a potential for t >= 0 only: the Legendre inverse refuses t < 0
        with pytest.raises(ValueError, match="nonnegative"):
            inverse(g0_on(interval), np.array([0.5]), -1.0)

    def test_projection_width_must_match_the_polytope(self, square2, phi_half_square):
        with pytest.raises(ValueError, match="dimension"):
            SymplecticPotential(square2, SubtorusProjection.standard(1, 3), phi_half_square)


class TestValidatePotential:
    def test_interval_product_is_half(self, interval):
        # (1/2)(1/x + 1/(1-x)) * x(1-x) = 1/2 identically
        pot = g0_on(interval)
        pts = interior_samples(interval, 300, seed=0)
        rays = boundary_approach_samples(interval)
        [rep] = validate_potential(pot, pts, rays)
        assert rep.positive_definite
        assert rep.product_min == pytest.approx(0.5, abs=1e-12)
        assert rep.product_max == pytest.approx(0.5, abs=1e-12)

    def test_unit_square_product_is_quarter(self, square1):
        pot = g0_on(square1)
        pts = interior_samples(square1, 300, seed=1)
        rays = boundary_approach_samples(square1)
        [rep] = validate_potential(pot, pts, rays)
        assert rep.product_min == pytest.approx(0.25, abs=1e-12)
        assert rep.product_max == pytest.approx(0.25, abs=1e-12)

    def test_perturbed_interval_product_range(self, interval, proj_id1, phi_half_square):
        # det = 1/(2x(1-x)) + 1, so the product is 1/2 + x(1-x) in (0.5, 0.75]
        pot = SymplecticPotential(interval, proj_id1, phi_half_square)
        pts = interior_samples(interval, 500, seed=2)
        rays = boundary_approach_samples(interval)
        [rep] = validate_potential(pot, pts, rays, [1.0])
        assert rep.positive_definite
        assert 0.5 <= rep.product_min <= rep.product_max <= 0.75 + 1e-12

    def test_product_oracle_pointwise(self, interval):
        pot = g0_on(interval)
        xs = np.linspace(0.05, 0.95, 7)[:, None]
        prods = [(rep.product_min, rep.product_max)
                 for [rep] in (validate_potential(pot, x[None]) for x in xs)]
        expect = 0.5 * (1 / xs[:, 0] + 1 / (1 - xs[:, 0])) * xs[:, 0] * (1 - xs[:, 0])
        assert np.allclose(prods, np.stack([expect, expect], axis=-1), atol=1e-13)

    @pytest.mark.parametrize("t", [0.0, 3.0])
    def test_one_hessian_per_validation(self, square2, proj_first_of_two, phi_half_square,
                                        monkeypatch, t):
        from toric_quant import potential

        pot = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        pts = interior_samples(square2, 30, seed=4)
        rays = boundary_approach_samples(square2)
        seen = []
        real = potential.g0_hessian
        monkeypatch.setattr(potential, "g0_hessian",
                            lambda P, x, L=None: seen.append(len(x)) or real(P, x, L))
        [rep] = validate_potential(pot, pts, rays, [t])
        assert seen == [len(pts) + len(rays)]
        # the reference: every sample's Hessian on its own, through the same 2x2 kernel
        lone = [potential._lowest_eigenvalue_and_det(pot.hessian(x, t)[None, None], 1)
                for x in np.concatenate([pts, rays])]
        mins = np.array([low[0, 0] for low, _ in lone[:len(pts)]])
        prods = np.array([det[0, 0] for _, det in lone]) * np.prod(square2.facet_values_array(
            np.concatenate([pts, rays])), axis=-1)
        assert rep.min_eigenvalue == mins.min()
        assert (rep.product_min, rep.product_max) == (prods.min(), prods.max())

    def test_time_stack_matches_per_time_reports(self, square2, proj_first_of_two,
                                                 phi_half_square):
        pot0 = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        pts = interior_samples(square2, 30, seed=4)
        rays = boundary_approach_samples(square2)
        times = [0.0, 1.0, 10.0, 100.0]
        assert validate_potential(pot0, pts, rays, times) == [
            validate_potential(pot0, pts, rays, [t])[0] for t in times]


# det(Hess g0) * prod_j l_j at t = 0, exactly: on [0,k]^n each axis gives
# 1/2 (1/x + 1/(k - x)) x (k - x) = k/2, so (k/2)^n; on k Delta^n Cauchy-Binet over the
# n-subsets of the facets, with sum_j l_j = k, gives k / 2^n at every interior point
_BOXES = [("configs/interval.json", 0.5), ("configs/square2.json", 1.0),
          ("bench/fixtures/cube2.json", 1.0)]
_SIMPLICES = [("bench/fixtures/simplex2.json", 2 / 4),
              ("bench/fixtures/dilated_simplex6.json", 6 / 8),
              ("bench/fixtures/dilated_simplex7.json", 7 / 8),
              ("bench/fixtures/dilated_simplex8.json", 8 / 8)]
# the relative error of the worse end of the t = 0 range, from cancellation in the determinant
# of near-boundary Hessians: the LDL^T pivot for n = 2, LAPACK's LU for n = 3
_SIMPLEX_ERROR = {"simplex2": "1.2e-10", "dilated_simplex6": "7.5e-9",
                  "dilated_simplex7": "2.0e-8", "dilated_simplex8": "9.9e-9"}


def _t0_product_error(path, exact):
    report = run(load_config(str(REPO / path)), "potential-validate", {"t_list": [1.0]})
    rep = report.outputs["per_t"]["0"]
    return max(abs(rep[end] / exact - 1) for end in ("product_min", "product_max"))


class TestExactBoundaryProduct:
    @pytest.mark.parametrize("path, exact, tol", [(p, e, 1e-14) for p, e in _BOXES]
                             + [(p, e, 2.5e-8) for p, e in _SIMPLICES])
    def test_t0_product_range_is_the_exact_constant(self, path, exact, tol):
        assert _t0_product_error(path, exact) <= tol

    @pytest.mark.parametrize("path, exact", [
        pytest.param(p, e, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            f"{Path(p).stem} reads {_SIMPLEX_ERROR[Path(p).stem]} relative: cancellation in "
            "det(Hess g0) near the boundary; a cancellation-free Cauchy-Binet product mends it")))
        for p, e in _SIMPLICES])
    def test_simplex_product_to_1e_12(self, path, exact):
        assert _t0_product_error(path, exact) <= 1e-12
