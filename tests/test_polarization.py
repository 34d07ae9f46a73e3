import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_quant import (
    DelzantPolytope,
    SubtorusProjection,
    SymplecticPotential,
    decay_report,
    quadratic,
)
from toric_quant import polarization
from toric_quant.legendre import _solve_spd
from toric_quant.polarization import flow_residual, loglog_slope, subspace_angle

from conftest import (
    box_polytope,
    central_interior,
    degenerate_directions,
    g0_on,
    isotropy_defect,
    kahler_rows,
    limit_rows,
    principal_angle_reference,
)


def complex_structure(pot, x, t=0.0):
    """J = [[0, -G^{-1}], [G, 0]] at x, with G = Hess g_t."""
    G = pot.hessian(np.asarray(x, dtype=float), t)
    n = G.shape[0]
    return np.block([[np.zeros((n, n)), -np.linalg.inv(G)], [G, np.zeros((n, n))]])


def kahler_metric(pot, x):
    """gamma = omega(., J.) = diag(G, G^{-1}) in (dx, dtheta) coordinates."""
    G = pot.hessian(np.asarray(x, dtype=float))
    n = G.shape[0]
    return np.block([[G, np.zeros((n, n))], [np.zeros((n, n)), np.linalg.inv(G)]])


def positivity_form(rows):
    """i Omega(conj(row_a), row_b), written out independently of the library."""
    n = rows.shape[-1] // 2
    a, b = rows[:, :n], rows[:, n:]
    return 1j * (a.conj() @ b.T - b.conj() @ a.T)


def squares_to_minus_identity(J, tol):
    return bool(np.max(np.abs(J @ J + np.eye(len(J)))) < tol)


HIRZEBRUCH = DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((0, -1), 2), ((-1, -1), 4)))
SIMPLEX2 = DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), 2)))


class TestComplexStructure:
    def test_interval_center(self, interval):
        pot = g0_on(interval)
        J = complex_structure(pot, np.array([0.5]))
        assert np.allclose(J, [[0.0, -0.5], [2.0, 0.0]])
        assert squares_to_minus_identity(J, 1e-12)

    def test_square_of_j_everywhere(self, square2, proj_first_of_two, phi_half_square):
        pot = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        for t in (0.0, 3.0, 50.0):
            for x in central_interior(square2, 10, seed=1):
                assert squares_to_minus_identity(complex_structure(pot, x, t), 1e-10)

    def test_metric_blocks(self, square1):
        pot = g0_on(square1)
        gamma = kahler_metric(pot, np.array([0.5, 0.5]))
        assert np.allclose(gamma, np.diag([2.0, 2.0, 0.5, 0.5]))
        # omega = gamma @ J recovers the standard symplectic block form
        J = complex_structure(pot, np.array([0.5, 0.5]))
        omega = gamma @ J
        n = 2
        block = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
        assert np.allclose(omega, block, atol=1e-12) or np.allclose(omega, -block, atol=1e-12)


class TestFrames:
    def test_interval_frame_row(self, interval, proj_id1, phi_half_square):
        # G_t(1/2) = 2 + t: the time-t row (1/(2+t), -i) makes the angle
        # arctan(1/(2+t)) with the limit row (0, 1)
        pot = SymplecticPotential(interval, proj_id1, phi_half_square)
        t_list = [0.5, 4.0, 30.0]
        rep = decay_report(pot, proj_id1, np.array([[0.5]]), t_list)
        assert np.allclose(kahler_rows(pot, [0.5]), [[0.5, -1j]])
        assert rep.top_block_norms[0] == pytest.approx([1 / (2 + t) for t in t_list])
        assert rep.distances[0] == pytest.approx([np.arctan(1 / (2 + t)) for t in t_list])

    def test_frames_lagrangian(self, square2, proj_first_of_two, phi_half_square):
        pot = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        pts = central_interior(square2, 5, seed=2)
        for t in (0.0, 1.0, 16.0, 256.0):
            for x in pts:
                assert isotropy_defect(kahler_rows(pot, x, t)) < 1e-12

    def test_limit_frame_interval_is_vertical(self, interval, proj_id1, phi_half_square):
        pot = SymplecticPotential(interval, proj_id1, phi_half_square)
        lim = decay_report(pot, proj_id1, np.array([[0.5]]), [8, 16]).limit
        assert lim.shape == (1, 1, 2)
        assert np.allclose(lim[0], [[0.0, 1.0]])
        assert isotropy_defect(lim) < 1e-12

    def test_limit_frame_square_rows(self, square2, proj_first_of_two, phi_half_square):
        pot = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        x = np.array([1.0, 1.0])
        lim = decay_report(pot, proj_first_of_two, x[None], [8, 16]).limit[0]
        G0 = pot.hessian(x)
        assert np.allclose(lim[0], [0, 0, 1, 0])
        assert np.allclose(lim[1], [0, 1, -1j * G0[1, 0], -1j * G0[1, 1]])
        assert isotropy_defect(lim) < 1e-12

    def test_positivity_finite_t(self, square2, proj_first_of_two, phi_half_square):
        pot = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        x = np.array([0.7, 1.2])
        rows = kahler_rows(pot, x, 4.0)
        M = positivity_form(rows)
        assert np.allclose(M, M.conj().T)
        # explicitly 2 G^{-1}: positive definite, and the folded form in
        # degenerate_directions has its spectrum
        assert np.allclose(M, 2 * np.linalg.inv(pot.hessian(x, 4.0)))
        eigs = np.linalg.eigvalsh(2 * np.linalg.inv(pot.hessian(x, 4.0)))
        assert np.all(eigs > 0)
        assert degenerate_directions(rows) == 0
        for tol in (0.5 * eigs[0], 0.5 * (eigs[0] + eigs[1]), 2 * eigs[1]):
            assert degenerate_directions(rows, tol=tol) == int(np.sum(eigs < tol))

    def test_limit_degenerate_dimension_is_k(self, square2, proj_first_of_two,
                                             phi_half_square, cube):
        pot = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        lim = decay_report(pot, proj_first_of_two, np.array([[1.0, 1.0]]), [8, 16]).limit
        assert degenerate_directions(lim).tolist() == [1]
        assert degenerate_directions(lim[0]) == 1
        eigs = np.linalg.eigvalsh(positivity_form(lim[0]))
        assert np.all(eigs > -1e-12)  # positive semidefinite

        proj2 = SubtorusProjection(((1, 0, 0), (0, 1, 0)))
        pot3 = SymplecticPotential(cube, proj2, quadratic(np.eye(2)))
        lim3 = decay_report(pot3, proj2, np.array([[0.5, 0.5, 0.5]]), [8, 16]).limit
        assert degenerate_directions(lim3[0]) == 2

    @pytest.mark.parametrize("P,rows", [
        (SIMPLEX2, ((1, 0),)), (HIRZEBRUCH, ((1, 0),)), (SIMPLEX2, ((1, 1),)),
        (box_polytope([(0, 2), (0, 2)]), ((1, 1),)),
    ])
    def test_limit_off_boxes_and_skew(self, P, rows, phi_half_square):
        # Hess g0 is not block-diagonal here, so the kernel rows of the limit
        # must be (B, -i B G0), not (row of G0^{-1}, -i e_r)
        proj = SubtorusProjection(rows)
        pot = SymplecticPotential(P, proj, phi_half_square)
        pts = central_interior(P, 4, seed=5)
        rep = decay_report(pot, proj, pts, [8, 16, 32, 64, 128])
        assert isotropy_defect(rep.limit) < 1e-12
        assert degenerate_directions(rep.limit).tolist() == [1] * len(pts)
        assert rep.subframe_invariance < 1e-12
        assert np.all((-1.1 <= rep.fitted_slopes) & (rep.fitted_slopes <= -0.9))
        for x, lim in zip(pts, rep.limit):
            assert np.array_equal(lim, limit_rows(pot, proj, x))

    def test_old_kernel_rows_are_not_the_limit_off_boxes(self, phi_half_square):
        # the rows (row 2 of G0^{-1}, -i e_2) are isotropic together with
        # (0, e_1) only where Hess g0 is block-diagonal
        x = np.array([0.5, 0.7])
        pot = SymplecticPotential(SIMPLEX2, SubtorusProjection(((1, 0),)), phi_half_square)
        G0inv = np.linalg.inv(pot.hessian(x))
        old = np.array([[0, 0, 1, 0], [G0inv[1, 0], G0inv[1, 1], 0, -1j]])
        assert isotropy_defect(old) > 0.1


class TestGrassmann:
    def test_zero_on_self(self, square2, proj_first_of_two, phi_half_square):
        pot = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        fr = kahler_rows(pot, np.array([1.0, 1.0]), 2.0)
        assert subspace_angle(fr, fr) < 1e-12

    def test_orthogonal_lines(self):
        assert subspace_angle(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) == pytest.approx(
            np.pi / 2)

    def test_invariant_under_row_mixing(self, square2, proj_first_of_two, phi_half_square):
        pot = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        x = np.array([0.9, 1.4])
        fr = kahler_rows(pot, x, 3.0)
        lim = limit_rows(pot, proj_first_of_two, x)
        d0 = subspace_angle(fr, lim)
        rng = np.random.default_rng(17)
        for _ in range(5):
            M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert abs(np.linalg.det(M)) > 1e-6
            assert abs(subspace_angle(M @ fr, lim) - d0) < 1e-10
            assert abs(subspace_angle(fr, M @ lim) - d0) < 1e-10

    def test_interval_halving_ratio(self, interval, proj_id1, phi_half_square):
        # G_t^{-1}(1/2) = 1/(2+t), so distances behave like 1/t and halve
        pot = SymplecticPotential(interval, proj_id1, phi_half_square)
        t_list = [8, 16, 32, 64]
        dist = decay_report(pot, proj_id1, np.array([[0.5]]), t_list).distances[0]
        for a, b in zip(dist, dist[1:]):
            assert 0.4 <= b / a <= 0.6


class TestDecayReport:
    def test_interval_norm_values(self, interval, proj_id1, phi_half_square):
        pot = SymplecticPotential(interval, proj_id1, phi_half_square)
        rep = decay_report(pot, proj_id1, np.array([[0.5]]), [8.0, 98.0])
        assert rep.top_block_norms.shape == (1, 2)
        assert rep.top_block_norms[0, 0] == pytest.approx(0.1)
        assert rep.top_block_norms[0, 1] == pytest.approx(0.01)

    @pytest.mark.parametrize("fixture,rows,point", [
        ("interval", ((1,),), (0.5,)),
        ("square2", ((1, 0),), (1.0, 1.0)),
        ("square2", ((1, 0),), (0.6, 1.5)),
    ])
    def test_fitted_slope_band(self, fixture, rows, point, request, phi_half_square):
        P = request.getfixturevalue(fixture)
        proj = SubtorusProjection(rows)
        pot = SymplecticPotential(P, proj, phi_half_square)
        rep = decay_report(pot, proj, np.array([point]), [8, 16, 32, 64, 128])
        assert rep.fitted_slopes.shape == (1,)
        assert -1.1 <= rep.fitted_slopes[0] <= -0.9

    def test_subframe_rows_invariant(self, square2, proj_first_of_two, phi_half_square):
        pot = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        rep = decay_report(pot, proj_first_of_two, np.array([[0.8, 1.1]]),
                           [8, 16, 32, 64, 128])
        assert rep.subframe_invariance < 1e-10

    def test_subframe_check_fails_when_psi_does_not_factor(self, square2,
                                                          proj_first_of_two):
        # psi built from the full square moves the ker A rows (B, -i B G_t)
        full = SubtorusProjection(((1, 0), (0, 1)))
        pot = SymplecticPotential(square2, full, quadratic(np.eye(2)))
        rep = decay_report(pot, proj_first_of_two, np.array([[0.8, 1.1]]), [8, 16, 32])
        assert rep.subframe_invariance > 0.1

    def test_t_list_must_increase(self, interval, proj_id1, phi_half_square):
        pot = SymplecticPotential(interval, proj_id1, phi_half_square)
        with pytest.raises(ValueError):
            decay_report(pot, proj_id1, np.array([[0.5]]), [8, 8])


class TestClosedFormAngles:
    """subspace_angle for p <= 2 rows (Gram-Schmidt and 2x2 closed forms) against the stacked
    QR and SVD it replaced, ``principal_angle_reference``."""

    @staticmethod
    def _frames(rng, p, m, angles):
        """Rows spanning span{u_i} and span{cos a_i u_i + sin a_i u_(p+i)}, i < p, for random
        orthonormal complex u, each mixed by a random invertible p x p matrix: the largest
        principal angle between them is max a."""
        Z = rng.standard_normal((len(angles), m, m)) + 1j * rng.standard_normal((len(angles), m, m))
        U = np.swapaxes(np.linalg.qr(Z)[0], -1, -2)
        mix = [rng.standard_normal((len(angles), p, p)) + 1j * rng.standard_normal(
            (len(angles), p, p)) + 3 * np.eye(p) for _ in range(2)]
        b = np.cos(angles)[..., None] * U[:, :p] + np.sin(angles)[..., None] * U[:, p:2 * p]
        return mix[0] @ U[:, :p], mix[1] @ b

    @pytest.mark.parametrize("p, m", [(1, 2), (1, 4), (2, 4), (1, 6), (2, 6)])
    def test_agrees_with_qr_and_svd_from_1e_15_to_a_right_angle(self, p, m):
        rng = np.random.default_rng(10 * p + m)
        angles = 10.0 ** rng.uniform(-15, np.log10(np.pi / 2), size=(400, p))
        angles[:40] = 0.0  # identical spans
        angles[40:80, 0] = np.pi / 2 - 10.0 ** rng.uniform(-15, -1, size=40)
        a, b = self._frames(rng, p, m, angles)
        got = subspace_angle(a, b)
        assert np.max(np.abs(got - principal_angle_reference(a, b))) <= 1e-14
        assert np.max(np.abs(got - angles.max(axis=-1))) <= 1e-14
        assert got.tolist() == [subspace_angle(x, y) for x, y in zip(a, b)]

    @pytest.mark.parametrize("p, m", [(1, 2), (1, 4), (2, 4), (2, 6)])
    def test_exactly_orthogonal_and_identical_spans(self, p, m):
        rng = np.random.default_rng(p + m)
        mix = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)) + 3 * np.eye(p)
        e = np.eye(m)
        assert subspace_angle(mix @ e[:p], e[p:2 * p]) == np.pi / 2  # C = 0 exactly
        assert subspace_angle(mix @ e[:p], e[:p]) <= 1e-15
        assert subspace_angle(e[:p], e[:p]) == 0.0

    def test_three_rows_keep_qr_and_svd(self, cube):
        pot = SymplecticPotential(cube, SubtorusProjection(((1, 0, 0),)), quadratic([[1.0]]))
        x = central_interior(cube, 4, seed=3)
        frames = np.stack([kahler_rows(pot, xi, 16.0) for xi in x])
        lim = np.stack([limit_rows(pot, pot.proj, xi) for xi in x])
        assert subspace_angle(frames, lim).tolist() == principal_angle_reference(
            frames, lim).tolist()


class TestBatchedFrames:
    def test_subspace_angle_stack_equals_pairs(self, square2, proj_first_of_two,
                                               phi_half_square):
        pot = SymplecticPotential(square2, proj_first_of_two, phi_half_square)
        x = np.array([0.7, 1.2])
        frames = np.stack([kahler_rows(pot, x, t) for t in (0.5, 4.0, 64.0)])
        lim = limit_rows(pot, proj_first_of_two, x)
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
        if case == "cube":
            P, proj, phi = (request.getfixturevalue("cube"),
                            SubtorusProjection(((1, 0, 0), (0, 1, 0))), quadratic(np.eye(2)))
        else:
            P = HIRZEBRUCH if case == "hirzebruch" else request.getfixturevalue(case)
            proj, phi = SubtorusProjection(((1, 0),)), phi_half_square
        pot = SymplecticPotential(P, proj, phi)
        A = proj.array
        k = proj.k
        t_list = [8.0, 13.5, 32.0, 64.0, 200.0]
        pts = central_interior(P, 3, seed=9)
        rep = decay_report(pot, proj, pts, t_list)
        drift = 0.0
        for i, x in enumerate(pts):
            lim = limit_rows(pot, proj, x)
            B = lim[k:, :P.dim]
            norms, dists = [], []
            for t in t_list:  # one G_t at a time, through the same SPD inverse and slope
                G = pot.hessian(x, t)
                Ginv = _solve_spd(G[None], np.eye(P.dim)[None])[0]
                fr = np.hstack([Ginv, -1j * np.eye(P.dim)])
                norms.append(float(np.max(np.abs(A @ Ginv))))
                dists.append(subspace_angle(fr, lim))
                drift = max(drift, subspace_angle(np.hstack([B, -1j * (B @ G)]), lim[k:]))
            assert rep.top_block_norms[i].tolist() == norms
            assert rep.distances[i].tolist() == dists
            assert rep.fitted_slopes[i] == loglog_slope(t_list, dists)
            assert np.array_equal(rep.limit[i], lim)
        assert rep.subframe_invariance == drift


class TestFlowResidual:
    """Claim 3 from the Lie series e^{itX_psi} w, w = grad g0 + i theta, against the frames."""

    T_LIST = [0.0, 8.0, 13.5, 64.0, 200.0]

    @staticmethod
    def _case(name, request):
        if name == "cube":
            return SymplecticPotential(request.getfixturevalue("cube"),
                                       SubtorusProjection(((1, 0, 0), (0, 1, 0))),
                                       quadratic([[2.0, 0.5], [0.5, 1.0]], [3.0, -1.0]))
        P = HIRZEBRUCH if name == "hirzebruch" else request.getfixturevalue(name)
        proj = SubtorusProjection(((1,),) if P.dim == 1 else ((1, 0),))
        return SymplecticPotential(P, proj, quadratic([[1.0]]))

    @staticmethod
    def _pairing(pot, pts, t_list, sign=1.0):
        """max |frame . d conj(w_t)| per t, one point at a time, with w_t the summed series
        grad g0 + sign t grad psi + i theta: G_t^{-1} (Hess g0 + sign t Hess psi) - I."""
        worst = np.zeros(len(t_list))
        for x in pts:
            H0, Hpsi = pot.hessian(x), pot.perturbation.hessian(x)
            for j, t in enumerate(t_list):
                dw = np.hstack([H0 + sign * t * Hpsi, 1j * np.eye(len(x))])
                worst[j] = max(worst[j], np.max(np.abs(kahler_rows(pot, x, t) @ dw.conj().T)))
        return worst

    @pytest.mark.parametrize("name", ["interval", "square2", "simplex", "hirzebruch", "cube"])
    def test_frames_annihilated_by_the_flowed_coordinates(self, name, request):
        pot = self._case(name, request)
        pts = central_interior(pot.polytope, 6, seed=4)
        got = flow_residual(pot, pts, self.T_LIST)
        assert got.shape == (len(self.T_LIST),) and np.all(got < 1e-13)
        assert got == pytest.approx(self._pairing(pot, pts, self.T_LIST), abs=1e-14)

    def test_flipped_field_flows_to_g_minus_t(self, request, monkeypatch):
        # iota_X omega = -d psi: the series reaches grad g0 - t grad psi, which the
        # frames of g_t do not annihilate
        pot = self._case("square2", request)
        pts = central_interior(pot.polytope, 6, seed=4)
        real = polarization._hamiltonian_jacobian
        monkeypatch.setattr(polarization, "_hamiltonian_jacobian", lambda H: -real(H))
        got = flow_residual(pot, pts, self.T_LIST)
        assert got[0] < 1e-13 and np.all(got[1:] > 0.5)
        assert got == pytest.approx(self._pairing(pot, pts, self.T_LIST, sign=-1.0), rel=1e-12)

    def test_field_moves_theta_alone_and_squares_to_zero(self, request):
        pot = self._case("cube", request)
        Hpsi = pot.perturbation.hessian(central_interior(pot.polytope, 4, seed=1))
        J = polarization._hamiltonian_jacobian(Hpsi)
        assert J.shape == (4, 6, 6) and np.array_equal(J[:, 3:, :3], -Hpsi)
        assert not np.any(J[:, :3]) and not np.any(J[:, :, 3:])
        # X_psi^2 w = 0: the series of differentials ends after its linear term
        assert not np.any(J @ J)

    def test_makes_no_newton_call(self, request, monkeypatch):
        from toric_quant import legendre

        def inverse(*args, **kwargs):
            raise AssertionError("flow_residual called legendre.inverse")
        monkeypatch.setattr(legendre, "inverse", inverse)
        pot = self._case("hirzebruch", request)
        assert np.all(flow_residual(pot, central_interior(pot.polytope, 3), [8.0]) < 1e-13)


class TestOneHessianPerPoint:
    def test_g0_and_psi_hessians_and_h0_inverse_once(self, square2, proj_first_of_two,
                                                     phi_half_square, monkeypatch):
        # the limit rows (B, -i B G0) need no inverse of Hess g0: the only inverse is the
        # one stacked SPD solve of G_t over points and times, and LAPACK's inv is not called
        from dataclasses import replace

        from toric_quant import potential

        calls = {"g0": 0, "psi": 0, "solve": [], "inv": []}
        real_g0, real_solve, real_inv = potential.g0_hessian, polarization._solve_spd, np.linalg.inv

        def g0_hessian(P, x, L=None):
            calls["g0"] += 1
            return real_g0(P, x, L)

        def psi_hessian(y):
            calls["psi"] += 1
            return phi_half_square.hessian(y)

        def solve(H, R):
            calls["solve"].append((np.shape(H), np.shape(R)))
            return real_solve(H, R)

        def inv(a):
            calls["inv"].append(np.shape(a))
            return real_inv(a)

        monkeypatch.setattr(potential, "g0_hessian", g0_hessian)
        monkeypatch.setattr(polarization, "_solve_spd", solve)
        monkeypatch.setattr(np.linalg, "inv", inv)
        phi = replace(phi_half_square, hessian=psi_hessian)
        pot = SymplecticPotential(square2, proj_first_of_two, phi)
        pts = np.array([[0.7, 1.2], [1.3, 0.4], [1.0, 1.0]])
        rep = decay_report(pot, proj_first_of_two, pts, [8, 16, 32, 64])
        assert calls == {"g0": 1, "psi": 1, "solve": [((3, 4, 2, 2), (3, 4, 2, 2))], "inv": []}
        monkeypatch.undo()
        for x, lim in zip(pts, rep.limit):
            assert np.array_equal(lim, limit_rows(pot, proj_first_of_two, x))


# --- the limit on small Delzant polytopes and random projections -------------

DELZANT = (
    box_polytope([(0, 2), (0, 2)]),
    box_polytope([(0, 1), (-1, 2)]),
    box_polytope([(0, 1), (0, 2), (0, 1)]),
    SIMPLEX2,
    DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), 3))),
    DelzantPolytope(3, (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), 2))),
    HIRZEBRUCH,
    DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((0, -1), 2), ((-1, -2), 6))),
)


@st.composite
def surjective_projections(draw, n):
    """The first k rows of a random unimodular matrix: rank k, index 1."""
    U = np.eye(n, dtype=int)
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            U[[i, (i + 1) % n]] = U[[(i + 1) % n, i]]
        else:
            U[i] += draw(st.integers(-2, 2)) * U[j]
    k = draw(st.integers(1, n))
    return SubtorusProjection(tuple(map(tuple, U[:k].tolist())))


@st.composite
def polytope_and_projection(draw):
    P = draw(st.sampled_from(DELZANT))
    return P, draw(surjective_projections(P.dim))


class TestLimitProperty:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(polytope_and_projection(), st.integers(0, 2 ** 16))
    def test_frames_degenerate_to_the_mixed_limit(self, case, seed):
        P, proj = case
        pot = SymplecticPotential(P, proj, quadratic(np.eye(proj.k)))
        pts = central_interior(P, 3, seed=seed)
        t_list = [8, 16, 32, 64, 128]
        rep = decay_report(pot, proj, pts, t_list)
        assert max(isotropy_defect(kahler_rows(pot, x, t)) for x in pts for t in t_list) < 1e-10
        assert isotropy_defect(rep.limit) < 1e-10
        assert degenerate_directions(rep.limit).tolist() == [proj.k] * len(pts)
        assert rep.subframe_invariance < 1e-10
        assert np.all(np.diff(rep.distances, axis=-1) < 0)
