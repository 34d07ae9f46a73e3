import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_quant import (
    DelzantPolytope,
    SubtorusProjection,
    SymplecticPotential,
    decay_report,
    default_convex,
    quadratic,
)
from toric_quant.polarization import (
    degenerate_directions,
    isotropy_defect,
    subspace_angle,
)

from conftest import central_interior, g0_on, kahler_rows, limit_rows


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
        rep = decay_report(pot, proj_first_of_two, pts, [1.0, 16.0, 256.0])
        assert rep.isotropy_defect < 1e-12

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
        (DelzantPolytope.from_box([(0, 2), (0, 2)]), ((1, 1),)),
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
        iso, drift = 0.0, 0.0
        for i, x in enumerate(pts):
            lim = limit_rows(pot, proj, x)
            B = lim[k:, :P.dim]
            norms, dists = [], []
            for t in t_list:
                G = pot.hessian(x, t)
                fr = kahler_rows(pot, x, t)
                norms.append(float(np.max(np.abs(A @ np.linalg.inv(G)))))
                dists.append(subspace_angle(fr, lim))
                drift = max(drift, subspace_angle(np.hstack([B, -1j * (B @ G)]), lim[k:]))
                iso = max(iso, isotropy_defect(fr))
            assert rep.top_block_norms[i].tolist() == norms
            assert rep.distances[i].tolist() == dists
            assert rep.fitted_slopes[i] == np.polyfit(np.log(t_list), np.log(dists), 1)[0]
            assert np.array_equal(rep.limit[i], lim)
        assert rep.subframe_invariance == drift
        assert rep.isotropy_defect == iso


class TestOneHessianPerPoint:
    def test_g0_and_psi_hessians_and_h0_inverse_once(self, square2, proj_first_of_two,
                                                     phi_half_square, monkeypatch):
        # the limit rows (B, -i B G0) need no inverse of Hess g0: the only
        # inverse is the one stack of G_t over points and times
        from dataclasses import replace

        from toric_quant import potential

        calls = {"g0": 0, "psi": 0, "inv": []}
        real_g0, real_inv = potential.g0_hessian, np.linalg.inv

        def g0_hessian(P, x):
            calls["g0"] += 1
            return real_g0(P, x)

        def psi_hessian(y):
            calls["psi"] += 1
            return phi_half_square.hessian(y)

        def inv(a):
            calls["inv"].append(np.shape(a))
            return real_inv(a)

        monkeypatch.setattr(potential, "g0_hessian", g0_hessian)
        monkeypatch.setattr(np.linalg, "inv", inv)
        phi = replace(phi_half_square, hessian=psi_hessian)
        pot = SymplecticPotential(square2, proj_first_of_two, phi)
        pts = np.array([[0.7, 1.2], [1.3, 0.4], [1.0, 1.0]])
        rep = decay_report(pot, proj_first_of_two, pts, [8, 16, 32, 64])
        assert calls == {"g0": 1, "psi": 1, "inv": [(3, 4, 2, 2)]}
        monkeypatch.undo()
        for x, lim in zip(pts, rep.limit):
            assert np.array_equal(lim, limit_rows(pot, proj_first_of_two, x))


# --- the limit on small Delzant polytopes and random projections -------------

DELZANT = (
    DelzantPolytope.from_box([(0, 2), (0, 2)]),
    DelzantPolytope.from_box([(0, 1), (-1, 2)]),
    DelzantPolytope.from_box([(0, 1), (0, 2), (0, 1)]),
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
        pot = SymplecticPotential(P, proj, default_convex(proj.k))
        pts = central_interior(P, 3, seed=seed)
        rep = decay_report(pot, proj, pts, [8, 16, 32, 64, 128])
        assert rep.isotropy_defect < 1e-10
        assert isotropy_defect(rep.limit) < 1e-10
        assert degenerate_directions(rep.limit).tolist() == [proj.k] * len(pts)
        assert rep.subframe_invariance < 1e-10
        assert np.all(np.diff(rep.distances, axis=-1) < 0)
