import numpy as np
import pytest

from toric_quant import (
    SubtorusProjection,
    SymplecticPotential,
    decay_report,
    grassmann_distance,
    limit_frame,
    polarization_frame,
)
from toric_quant.polarization import (
    degenerate_directions,
    isotropy_defect,
    positivity_matrix,
    subspace_angle,
)

from conftest import central_interior


def _family(P, proj, phi, t=0.0):
    return SymplecticPotential.perturbed(P, proj, phi, t)


def complex_structure(pot, x):
    """J = [[0, -G^{-1}], [G, 0]] at x, with G = Hess g."""
    G = pot.hessian(np.asarray(x, dtype=float))
    n = G.shape[0]
    return np.block([[np.zeros((n, n)), -np.linalg.inv(G)], [G, np.zeros((n, n))]])


def kahler_metric(pot, x):
    """gamma = omega(., J.) = diag(G, G^{-1}) in (dx, dtheta) coordinates."""
    G = pot.hessian(np.asarray(x, dtype=float))
    n = G.shape[0]
    return np.block([[G, np.zeros((n, n))], [np.zeros((n, n)), np.linalg.inv(G)]])


def squares_to_minus_identity(J, tol):
    return bool(np.max(np.abs(J @ J + np.eye(len(J)))) < tol)


class TestComplexStructure:
    def test_interval_center(self, interval):
        pot = SymplecticPotential.canonical(interval)
        J = complex_structure(pot, np.array([0.5]))
        assert np.allclose(J, [[0.0, -0.5], [2.0, 0.0]])
        assert squares_to_minus_identity(J, 1e-12)

    def test_square_of_j_everywhere(self, square2, proj_first_of_two, phi_half_square):
        for t in (0.0, 3.0, 50.0):
            pot = _family(square2, proj_first_of_two, phi_half_square, t)
            for x in central_interior(square2, 10, seed=1):
                assert squares_to_minus_identity(complex_structure(pot, x), 1e-10)

    def test_metric_blocks(self, square1):
        pot = SymplecticPotential.canonical(square1)
        gamma = kahler_metric(pot, np.array([0.5, 0.5]))
        assert np.allclose(gamma, np.diag([2.0, 2.0, 0.5, 0.5]))
        # omega = gamma @ J recovers the standard symplectic block form
        J = complex_structure(pot, np.array([0.5, 0.5]))
        omega = gamma @ J
        n = 2
        block = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
        assert np.allclose(omega, block, atol=1e-12) or np.allclose(omega, -block, atol=1e-12)


class TestFrames:
    def test_interval_frame_row(self, interval, proj_id1):
        pot = SymplecticPotential.canonical(interval)
        fr = polarization_frame(pot, proj_id1, np.array([0.5]))
        assert np.allclose(fr.rows, [[0.5, -1j]])

    def test_frames_lagrangian(self, square2, proj_first_of_two, phi_half_square):
        for t in (0.0, 1.0, 16.0, 256.0):
            pot = _family(square2, proj_first_of_two, phi_half_square, t)
            for x in central_interior(square2, 5, seed=2):
                assert isotropy_defect(polarization_frame(pot, proj_first_of_two, x)) < 1e-12

    def test_limit_frame_interval_is_vertical(self, interval, proj_id1):
        pot = SymplecticPotential.canonical(interval)
        lim = limit_frame(proj_id1, pot, np.array([0.5]))
        assert np.allclose(lim.rows, [[0.0, 1.0]])
        assert isotropy_defect(lim) < 1e-12

    def test_limit_frame_square_rows(self, square2, proj_first_of_two, phi_half_square):
        pot = _family(square2, proj_first_of_two, phi_half_square, 0.0)
        x = np.array([1.0, 1.0])
        lim = limit_frame(proj_first_of_two, pot, x)
        G0inv = np.linalg.inv(pot.hessian(x))
        assert np.allclose(lim.rows[0], [0, 0, 1, 0])
        assert np.allclose(lim.rows[1], [G0inv[1, 0], G0inv[1, 1], 0, -1j])
        assert isotropy_defect(lim) < 1e-12

    def test_positivity_finite_t(self, square2, proj_first_of_two, phi_half_square):
        pot = _family(square2, proj_first_of_two, phi_half_square, 4.0)
        x = np.array([0.7, 1.2])
        fr = polarization_frame(pot, proj_first_of_two, x)
        M = positivity_matrix(fr)
        assert np.allclose(M, M.conj().T)
        assert np.all(np.linalg.eigvalsh(M) > 0)
        # explicitly 2 G^{-1}
        assert np.allclose(M, 2 * np.linalg.inv(pot.hessian(x)))

    def test_limit_degenerate_dimension_is_k(self, square2, proj_first_of_two,
                                             phi_half_square, cube):
        pot = _family(square2, proj_first_of_two, phi_half_square, 0.0)
        lim = limit_frame(proj_first_of_two, pot, np.array([1.0, 1.0]))
        assert degenerate_directions(lim) == 1
        eigs = np.linalg.eigvalsh(positivity_matrix(lim))
        assert np.all(eigs > -1e-12)  # positive semidefinite
        from toric_quant import quadratic

        proj2 = SubtorusProjection(((1, 0, 0), (0, 1, 0)))
        pot3 = _family(cube, proj2, quadratic(np.eye(2)), 0.0)
        lim3 = limit_frame(proj2, pot3, np.array([0.5, 0.5, 0.5]))
        assert degenerate_directions(lim3) == 2

    def test_requires_adapted_coordinates(self, square2, phi_half_square):
        skew = SubtorusProjection(((1, 1),))
        pot = _family(square2, skew, phi_half_square, 0.0)
        with pytest.raises(ValueError, match="adapted"):
            polarization_frame(pot, skew, np.array([1.0, 1.0]))


class TestGrassmann:
    def test_zero_on_self(self, square2, proj_first_of_two, phi_half_square):
        pot = _family(square2, proj_first_of_two, phi_half_square, 2.0)
        fr = polarization_frame(pot, proj_first_of_two, np.array([1.0, 1.0]))
        assert grassmann_distance(fr, fr) < 1e-12

    def test_orthogonal_lines(self):
        assert subspace_angle(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) == pytest.approx(
            np.pi / 2)

    def test_invariant_under_row_mixing(self, square2, proj_first_of_two, phi_half_square):
        from dataclasses import replace

        pot = _family(square2, proj_first_of_two, phi_half_square, 3.0)
        x = np.array([0.9, 1.4])
        fr = polarization_frame(pot, proj_first_of_two, x)
        lim = limit_frame(proj_first_of_two, pot, x)
        d0 = grassmann_distance(fr, lim)
        rng = np.random.default_rng(17)
        for _ in range(5):
            M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert abs(np.linalg.det(M)) > 1e-6
            mixed = replace(fr, rows=M @ fr.rows)
            assert abs(grassmann_distance(mixed, lim) - d0) < 1e-10

    def test_interval_halving_ratio(self, interval, proj_id1, phi_half_square):
        # G_t^{-1}(1/2) = 1/(2+t), so distances behave like 1/t and halve
        pot = _family(interval, proj_id1, phi_half_square, 0.0)
        x = np.array([0.5])
        lim = limit_frame(proj_id1, pot, x)
        dist = {t: grassmann_distance(polarization_frame(pot.at_time(t), proj_id1, x), lim)
                for t in (8, 16, 32, 64)}
        for t in (8, 16, 32):
            assert 0.4 <= dist[2 * t] / dist[t] <= 0.6


class TestDecayReport:
    def test_interval_norm_values(self, interval, proj_id1, phi_half_square):
        pot = _family(interval, proj_id1, phi_half_square, 0.0)
        rep = decay_report(pot, proj_id1, np.array([0.5]), [8.0, 98.0])
        assert rep.top_block_norms[0] == pytest.approx(0.1)
        assert rep.top_block_norms[1] == pytest.approx(0.01)

    @pytest.mark.parametrize("fixture,rows,point", [
        ("interval", ((1,),), (0.5,)),
        ("square2", ((1, 0),), (1.0, 1.0)),
        ("square2", ((1, 0),), (0.6, 1.5)),
    ])
    def test_fitted_slope_band(self, fixture, rows, point, request, phi_half_square):
        P = request.getfixturevalue(fixture)
        proj = SubtorusProjection(rows)
        pot = _family(P, proj, phi_half_square, 0.0)
        rep = decay_report(pot, proj, np.array(point), [8, 16, 32, 64, 128])
        assert -1.1 <= rep.fitted_slope <= -0.9

    def test_subframe_rows_invariant(self, square2, proj_first_of_two, phi_half_square):
        pot = _family(square2, proj_first_of_two, phi_half_square, 0.0)
        rep = decay_report(pot, proj_first_of_two, np.array([0.8, 1.1]),
                           [8, 16, 32, 64, 128])
        assert rep.subframe_invariance < 1e-10

    def test_t_list_must_increase(self, interval, proj_id1, phi_half_square):
        pot = _family(interval, proj_id1, phi_half_square, 0.0)
        with pytest.raises(ValueError):
            decay_report(pot, proj_id1, np.array([0.5]), [8, 8])


class TestBatchedFrames:
    def test_subspace_angle_stack_equals_pairs(self, square2, proj_first_of_two,
                                               phi_half_square):
        pot = _family(square2, proj_first_of_two, phi_half_square, 0.0)
        x = np.array([0.7, 1.2])
        frames = np.stack([polarization_frame(pot.at_time(t), proj_first_of_two, x).rows
                           for t in (0.5, 4.0, 64.0)])
        lim = limit_frame(proj_first_of_two, pot, x).rows
        angles = subspace_angle(frames, lim)
        assert angles.shape == (3,)
        assert isinstance(subspace_angle(frames[0], lim), float)
        assert angles.tolist() == [subspace_angle(f, lim) for f in frames]
        # both branches: the far lines take the cosine, the near frames the sine
        far = subspace_angle(np.array([[[1.0, 0.0]], [[1.0, 1e-9]]]), np.array([[0.0, 1.0]]))
        assert far[0] == pytest.approx(np.pi / 2)
        assert far[1] == pytest.approx(np.pi / 2 - 1e-9, abs=1e-15)
        near = subspace_angle(np.array([[[1.0, 1e-9]]]), np.array([[1.0, 0.0]]))
        assert near[0] == pytest.approx(1e-9, rel=1e-6)

    @pytest.mark.parametrize("case", ["square2", "simplex", "hirzebruch", "cube"])
    def test_decay_report_bit_equal_to_per_t_reference(self, case, request,
                                                       phi_half_square):
        from toric_quant import DelzantPolytope, quadratic

        if case == "cube":
            P, proj, phi = (request.getfixturevalue("cube"),
                            SubtorusProjection(((1, 0, 0), (0, 1, 0))), quadratic(np.eye(2)))
        else:
            P = (DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((0, -1), 2), ((-1, -1), 4)))
                 if case == "hirzebruch" else request.getfixturevalue(case))
            proj, phi = SubtorusProjection(((1, 0),)), phi_half_square
        pot = _family(P, proj, phi, 0.0)
        k, n = proj.k, P.dim
        t_list = [8.0, 13.5, 32.0, 64.0, 200.0]
        for x in central_interior(P, 3, seed=9):
            rep = decay_report(pot, proj, x, t_list)
            lim = limit_frame(proj, pot, x)
            frame0 = polarization_frame(pot.at_time(0.0), proj, x)
            norms, dists, drift, iso = [], [], 0.0, 0.0
            for t in t_list:
                fr = polarization_frame(pot.at_time(t), proj, x)
                norms.append(float(np.max(np.abs(np.real(fr.rows[:k, :n])))))
                dists.append(grassmann_distance(fr, lim))
                drift = max(drift, subspace_angle(fr.rows[k:], frame0.rows[k:]))
                iso = max(iso, isotropy_defect(fr))
            assert rep.top_block_norms == tuple(norms)
            assert rep.distances == tuple(dists)
            assert rep.subframe_invariance == drift
            assert rep.isotropy_defect == iso


class TestOneHessianPerPoint:
    def test_g0_and_psi_hessians_and_h0_inverse_once(self, square2, proj_first_of_two,
                                                     phi_half_square, monkeypatch):
        from dataclasses import replace

        from toric_quant import potential

        calls = {"g0": 0, "psi": 0, "inv_h0": 0}
        real_g0, real_inv = potential.g0_hessian, np.linalg.inv

        def g0_hessian(P, x):
            calls["g0"] += 1
            return real_g0(P, x)

        def psi_hessian(y):
            calls["psi"] += 1
            return phi_half_square.hessian(y)

        def inv(a):
            calls["inv_h0"] += np.ndim(a) == 2  # one (n, n) matrix: Hess g0 at x
            return real_inv(a)

        monkeypatch.setattr(potential, "g0_hessian", g0_hessian)
        monkeypatch.setattr(np.linalg, "inv", inv)
        phi = replace(phi_half_square, hessian=psi_hessian)
        pot = _family(square2, proj_first_of_two, phi, 0.0)
        rep = decay_report(pot, proj_first_of_two, np.array([0.7, 1.2]), [8, 16, 32, 64])
        assert calls == {"g0": 1, "psi": 1, "inv_h0": 1}
        monkeypatch.undo()
        assert np.array_equal(rep.limit.rows,
                              limit_frame(proj_first_of_two, pot, np.array([0.7, 1.2])).rows)

    def test_canonical_family(self, square2, proj_first_of_two):
        # psi = None: G_t = Hess g0 for every t, so the frames do not move
        pot = SymplecticPotential.canonical(square2)
        x = np.array([0.7, 1.2])
        rep = decay_report(pot, proj_first_of_two, x, [8, 16, 32])
        fr = polarization_frame(pot, proj_first_of_two, x)
        lim = limit_frame(proj_first_of_two, pot, x)
        assert rep.distances == (grassmann_distance(fr, lim),) * 3
        assert rep.subframe_invariance == subspace_angle(fr.rows[1:], fr.rows[1:])
