import pathlib

import numpy as np
import pytest

from toric_quant import (
    DelzantPolytope,
    NewtonConvergenceError,
    SymplecticPotential,
    inverse,
    legendre,
    quadratic,
)
from toric_quant.cli import load_config
from toric_quant.potential import interior_samples

from conftest import (
    fd_gradient,
    fd_jacobian,
    flow_identity_residual,
    g0_on,
    kahler_potential,
    sample_interior,
)

REPO = pathlib.Path(__file__).resolve().parents[1]

HALF_LOG3 = 0.5 * np.log(3.0)  # 0.5493061443340549


def _pot(P, proj=None, phi=None):
    return g0_on(P) if proj is None else SymplecticPotential(P, proj, phi)


class TestForward:
    """The forward map y = grad g(x)."""

    def test_interval_center(self, interval):
        assert _pot(interval).gradient(np.array([0.5])) == pytest.approx([0.0], abs=1e-15)

    def test_interval_three_quarters(self, interval):
        assert _pot(interval).gradient(np.array([0.75])) == pytest.approx([HALF_LOG3])

    def test_square_product_structure(self, square1):
        y = _pot(square1).gradient(np.array([0.5, 0.75]))
        assert y == pytest.approx([0.0, HALF_LOG3])


class TestInverse:
    def test_interval_zero(self, interval):
        assert inverse(_pot(interval), np.array([0.0])) == pytest.approx([0.5])

    def test_interval_against_analytic_inverse(self, interval):
        # grad g0 inverts to x = 1 / (1 + e^{-2y}) on (0, 1)
        pot = _pot(interval)
        for y in np.linspace(-3.0, 3.0, 13):
            x = inverse(pot, np.array([y]))
            assert abs(x[0] - 1.0 / (1.0 + np.exp(-2.0 * y))) < 1e-10

    @pytest.mark.parametrize("t", [0.0, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("fixture,rows", [
        ("interval", ((1,),)),
        ("square2", ((1, 0),)),
        ("simplex", ((1, 0),)),
    ])
    def test_roundtrip(self, fixture, rows, t, request, phi_half_square):
        from toric_quant import SubtorusProjection

        P = request.getfixturevalue(fixture)
        pot = _pot(P, SubtorusProjection(rows), phi_half_square)
        pts = sample_interior(P, 100, seed=21)
        worst = max(
            float(np.linalg.norm(inverse(pot, pot.gradient(x, t), t) - x)) for x in pts)
        assert worst < 1e-8

    def test_nonconvergence_reports_iterate(self, interval, monkeypatch):
        monkeypatch.setattr(legendre, "MAX_ITERATIONS", 1)
        with pytest.raises(NewtonConvergenceError) as err:
            inverse(_pot(interval), np.array([40.0]))
        assert err.value.iterate is not None
        assert err.value.residual > 0

    def test_stops_at_the_rounding_floor_of_grad(self, square2, proj_first_of_two):
        # y_1 = grad_1 g0 + t (x_1 + b) cannot be matched closer than its ulp,
        # 1.5e-8 at t = 128, b = 1e6, which is above TOLERANCE
        pot = _pot(square2, proj_first_of_two, quadratic([[1.0]], [1e6]))
        x = sample_interior(square2, 40, seed=4)
        assert np.max(np.abs(inverse(pot, pot.gradient(x, 128.0), 128.0) - x)) < 1e-8

    def test_coupled_component_stops_at_tolerance(self):
        # hirzebruch: the facet x1 + x2 <= 4 couples the axes, so the rounding
        # of y_1 = 8e10 leaves a few 1e-13 in the residual of y_2, far above
        # the ulp of y_2 ~ 0.4: y_1 is at its floor, y_2 within TOLERANCE
        from toric_quant import SubtorusProjection

        P = _hirzebruch()
        pot = _pot(P, SubtorusProjection(((1, 0),)), quadratic([[1.0]], [1e10]))
        x = sample_interior(P, 100, seed=0)
        assert np.max(np.abs(inverse(pot, pot.gradient(x, 8.0), 8.0) - x)) < 1e-4

    def test_failed_step_reports_its_iteration(self, square2):
        # a NaN step fails every halving in the first iteration
        with pytest.raises(NewtonConvergenceError, match="in 0 iterations") as err:
            inverse(_pot(square2), np.array([[0.0, 0.0], [np.nan, 0.0]]))
        assert err.value.iterations == 0 and err.value.index == 1


class TestKahlerPotential:
    def test_interval_at_zero(self, interval):
        assert kahler_potential(_pot(interval), np.array([0.0])) == pytest.approx(
            0.5 * np.log(2.0), abs=1e-10)

    def test_square_at_zero(self, square1):
        assert kahler_potential(_pot(square1), np.array([0.0, 0.0])) == pytest.approx(
            np.log(2.0), abs=1e-10)

    def test_gradient_recovers_moment_coordinate(self, interval):
        # dh/dy = x(y): the moment coordinate comes back as the y-derivative
        pot = _pot(interval)
        for y in (-1.0, 0.2, 1.5):
            num = fd_gradient(lambda z: kahler_potential(pot, z), np.array([y]))
            x = inverse(pot, np.array([y]))
            assert abs(num[0] - x[0]) < 1e-6

    def test_hessian_is_inverse_metric(self, square2, proj_first_of_two, phi_half_square):
        pot = _pot(square2, proj_first_of_two, phi_half_square)
        x = np.array([0.8, 1.3])
        y = pot.gradient(x, 2.0)
        Hh = fd_jacobian(lambda z: inverse(pot, z, 2.0), y)  # Hess h = Jacobian of x(y)
        G = pot.hessian(x, 2.0)
        assert np.max(np.abs(Hh - np.linalg.inv(G))) < 1e-6
        assert np.all(np.linalg.eigvalsh(0.5 * (Hh + Hh.T)) > 0)


def _per_pair_residual(pot, t, x):
    """The flow residual of the pair (g_0, g_t), written out as the formula."""
    psi = pot.perturbation
    h_t = kahler_potential(pot, pot.gradient(x, t), t)
    h_0 = kahler_potential(pot, pot.gradient(x))
    shift = 0.0 if t == 0.0 else (
        -t * psi.value(x) + t * np.sum(x * psi.gradient(x), axis=-1))
    return np.abs(h_t - (h_0 + shift))


class TestFlowIdentity:
    def test_exactly_zero_at_t_zero(self, interval, proj_id1, phi_half_square):
        pot0 = _pot(interval, proj_id1, phi_half_square)
        assert flow_identity_residual(pot0, [0.0], np.array([0.3])).tolist() == [0.0]

    def test_interval_shift_by_eighth(self, interval, proj_id1, phi_half_square):
        # psi(1/2) = 1/8 and <x, grad psi> = 1/4, so h moves by +1/8
        pot0 = _pot(interval, proj_id1, phi_half_square)
        x = np.array([0.5])
        h0 = kahler_potential(pot0, pot0.gradient(x))
        h1 = kahler_potential(pot0, pot0.gradient(x, 1.0), 1.0)
        assert h1 - h0 == pytest.approx(0.125, abs=1e-10)
        assert flow_identity_residual(pot0, [1.0], x)[0] < 1e-10

    @pytest.mark.parametrize("t", [1.0, 5.0, 10.0])
    def test_square_residuals(self, square2, proj_first_of_two, phi_half_square, t):
        pot0 = _pot(square2, proj_first_of_two, phi_half_square)
        pts = sample_interior(square2, 20, seed=33)
        worst = max(flow_identity_residual(pot0, [t], x)[0] for x in pts)
        assert worst < 1e-8

    @pytest.mark.parametrize("fixture,rows", [
        ("interval", ((1,),)), ("square2", ((1, 0),)), ("simplex", ((1, 0),))])
    def test_bit_equal_to_per_pair_formula(self, fixture, rows, request, phi_half_square):
        from toric_quant import SubtorusProjection

        P = request.getfixturevalue(fixture)
        pot0 = _pot(P, SubtorusProjection(rows), phi_half_square)
        pts = sample_interior(P, 15, seed=8)
        times = (0.0, 1.0, 7.5, 40.0)
        got = flow_identity_residual(pot0, times, pts)
        assert got.shape == (4, 15)
        for t, row in zip(times, got):
            assert np.array_equal(row, _per_pair_residual(pot0, t, pts))
        assert flow_identity_residual(pot0, times, pts[0]).shape == (4,)

    def test_h0_solved_once(self, square2, proj_first_of_two, phi_half_square, monkeypatch):
        calls = []
        real = legendre.inverse
        monkeypatch.setattr(legendre, "inverse", lambda pot, y, t: calls.append(
            (np.shape(t), np.shape(y), np.ravel(t).tolist())) or real(pot, y, t))
        pot0 = _pot(square2, proj_first_of_two, phi_half_square)
        flow_identity_residual(pot0, (2.0, 4.0, 8.0), sample_interior(square2, 5, seed=1))
        # one Newton stack carries t = 0 and every t
        assert calls == [((4, 1), (4, 5, 2), [0.0, 2.0, 4.0, 8.0])]


# non-box polygon: the Hirzebruch trapezoid x + y <= 4, y <= 2
def _hirzebruch():
    from toric_quant import DelzantPolytope

    return DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((0, -1), 2), ((-1, -1), 4)))


def _scalar_newton(pot, y, t):
    """Damped Newton for one point at time t, written out as the reference loop."""
    P = pot.polytope
    x = P.barycenter_array()
    for _ in range(legendre.MAX_ITERATIONS):
        res = pot.gradient(x, t) - y
        if np.linalg.norm(res) <= legendre.TOLERANCE:
            return x
        step = -np.linalg.solve(pot.hessian(x, t), res)
        lcur = P.facet_values_array(x)
        # l_j is affine along the step: go 0.99 of the way to FLOOR * l_j(x)
        s = min([1.0] + [0.99 * (1 - legendre.FLOOR) * l / -d
                         for l, d in zip(lcur, P.normal_matrix @ step) if d < 0])
        while not np.all(P.facet_values_array(x + s * step) > legendre.FLOOR * lcur):
            s *= 0.5
        x = x + s * step
    assert np.linalg.norm(pot.gradient(x, t) - y) <= legendre.TOLERANCE
    return x


class TestBatchedInverse:
    @pytest.mark.parametrize("t", [0.0, 10.0, 100.0])
    @pytest.mark.parametrize("fixture,rows", [
        ("interval", ((1,),)),
        ("square2", ((1, 0),)),
        ("simplex", ((1, 0),)),
        ("hirzebruch", ((1, 0),)),
    ])
    def test_stack_matches_per_point_loop(self, fixture, rows, t, request,
                                          phi_half_square):
        from toric_quant import SubtorusProjection

        P = _hirzebruch() if fixture == "hirzebruch" else request.getfixturevalue(fixture)
        pot = _pot(P, SubtorusProjection(rows), phi_half_square)
        pts = sample_interior(P, 40, seed=5)
        ys = pot.gradient(pts, t)
        xs = inverse(pot, ys, t)
        ref = np.array([_scalar_newton(pot, y, t) for y in ys])
        assert xs.shape == pts.shape
        assert np.max(np.abs(xs - ref)) <= 1e-12
        assert np.max(np.abs(xs - pts)) < 1e-8

    @pytest.mark.parametrize("config", ["configs/interval.json", "configs/square2.json",
                                        "bench/fixtures/simplex2.json",
                                        "bench/fixtures/hirzebruch.json",
                                        "bench/fixtures/cube2.json"])
    def test_roundtrip_stack_within_ten_iterations(self, config, monkeypatch):
        # the legendre-roundtrip stack of each full-suite fixture: a first trial
        # at s = 1 halved to 0.4 needed 17 iterations on interval, 18 on simplex2
        cfg = load_config(str(REPO / config))
        pot = SymplecticPotential(cfg.polytope, cfg.proj, cfg.phi)
        pts = interior_samples(cfg.polytope, 100, seed=0)
        t = np.reshape([0.0, 8.0, 16.0, 32.0, 64.0, 128.0], (-1, 1))
        monkeypatch.setattr(legendre, "MAX_ITERATIONS", 10)
        xs = inverse(pot, pot.gradient(pts, t), t)
        assert np.max(np.linalg.norm(xs - pts, axis=-1)) <= 1e-12

    def test_output_shapes(self, square2):
        pot = _pot(square2)
        ys = pot.gradient(sample_interior(square2, 6, seed=2))
        assert inverse(pot, ys[0]).shape == (2,)
        assert inverse(pot, ys).shape == (6, 2)
        stacked = inverse(pot, ys.reshape(2, 3, 2))
        assert stacked.shape == (2, 3, 2)
        assert np.array_equal(stacked.reshape(6, 2), inverse(pot, ys))
        assert inverse(pot, ys[:0]).shape == (0, 2)
        with pytest.raises(ValueError):
            inverse(pot, np.zeros(3))

    def test_one_failing_point_is_named(self, interval, monkeypatch):
        # grad g0 on (0, 1) stays below 0.5 log(1/eps) ~ 18.4 in float64, so
        # y = 40 cannot be reached while its neighbours converge
        monkeypatch.setattr(legendre, "MAX_ITERATIONS", 50)
        pot = _pot(interval)
        ys = np.array([[0.0], [0.5], [40.0], [-0.3]])
        with pytest.raises(NewtonConvergenceError, match="at point 2") as err:
            inverse(pot, ys)
        assert err.value.index == 2
        assert err.value.residual > 1.0
        with pytest.raises(NewtonConvergenceError) as alone:
            inverse(pot, ys[2])
        assert np.array_equal(err.value.iterate, alone.value.iterate)
        assert err.value.residual == alone.value.residual

    def test_failing_point_in_time_stack_is_named(self, interval, proj_id1,
                                                  phi_half_square, monkeypatch):
        # grad g_1 = grad g0 + x stays below 19.4 on (0, 1): y = 40 at t = 1
        # fails while the other rows converge
        monkeypatch.setattr(legendre, "MAX_ITERATIONS", 50)
        pot0 = _pot(interval, proj_id1, phi_half_square)
        ys = np.array([[[0.0], [0.5]], [[40.0], [-0.3]]])
        with pytest.raises(NewtonConvergenceError, match="at point 2") as err:
            inverse(pot0, ys, [[0.0], [1.0]])
        with pytest.raises(NewtonConvergenceError) as alone:
            inverse(pot0, ys[1, 0], 1.0)
        assert np.array_equal(err.value.iterate, alone.value.iterate)
        assert err.value.residual == alone.value.residual

    @pytest.mark.parametrize("fixture,rows", [
        ("interval", ((1,),)),
        ("square2", ((1, 0),)),
        ("simplex", ((1, 0),)),
        ("hirzebruch", ((1, 0),)),
    ])
    def test_time_stack_matches_per_time_inverse(self, fixture, rows, request,
                                                 phi_half_square):
        from toric_quant import SubtorusProjection

        P = _hirzebruch() if fixture == "hirzebruch" else request.getfixturevalue(fixture)
        pot0 = _pot(P, SubtorusProjection(rows), phi_half_square)
        times = (0.0, 1.0, 10.0, 100.0)
        ys = np.stack([pot0.gradient(sample_interior(P, 30, seed=6), t) for t in times])
        xs = inverse(pot0, ys, np.reshape(times, (-1, 1)))
        assert xs.shape == ys.shape
        for t, y, x in zip(times, ys, xs):
            assert np.array_equal(x, inverse(pot0, y, t))

    @staticmethod
    def _counted(monkeypatch):
        """Count the rows of every pot.gradient and pot.hessian call, one list each."""
        calls = {"gradient": [], "hessian": []}
        for name, rows in calls.items():
            real = getattr(SymplecticPotential, name)
            monkeypatch.setattr(SymplecticPotential, name, lambda self, x, t=0.0, real=real,
                                rows=rows, **kw: rows.append(len(x)) or real(self, x, t, **kw))
        return calls

    @staticmethod
    def _mixed_stack(P, pot):
        # the barycenter, points near it and points near the boundary, on a time ladder:
        # the rows converge in different rounds
        bary = P.barycenter_array()
        pts = np.concatenate([bary[None], bary + 1e-6 * (sample_interior(P, 3, seed=1) - bary),
                              sample_interior(P, 8, seed=11),
                              bary + (1 - 1e-3) * (P.vertex_array[:4] - bary)])
        t = np.reshape([0.0, 1.0, 10.0, 100.0], (-1, 1))
        return pot.gradient(pts, t), t

    @pytest.mark.parametrize("config", [
        "configs/interval.json", "configs/square2.json", "bench/fixtures/simplex2.json",
        "bench/fixtures/cube2.json", "bench/fixtures/hirzebruch.json"])
    def test_mixed_stack_is_bit_equal_to_each_row_alone(self, config, monkeypatch):
        cfg = load_config(str(REPO / config))
        pot = SymplecticPotential(cfg.polytope, cfg.proj, cfg.phi)
        ys, t = self._mixed_stack(cfg.polytope, pot)
        xs = inverse(pot, ys, t)
        calls, rounds = self._counted(monkeypatch), set()
        for i, j in np.ndindex(ys.shape[:-1]):
            before = len(calls["hessian"])
            assert np.array_equal(xs[i, j], inverse(pot, ys[i, j], t[i, 0]))
            rounds.add(len(calls["hessian"]) - before)
        assert len(rounds) > 2  # the rows left the stack in different rounds

    @pytest.mark.parametrize("config", ["configs/interval.json", "bench/fixtures/simplex2.json"])
    def test_one_gradient_and_one_hessian_per_round(self, config, monkeypatch):
        # the bench reads Newton rounds off the potential.gradient and potential.hessian spans
        cfg = load_config(str(REPO / config))
        pot = SymplecticPotential(cfg.polytope, cfg.proj, cfg.phi)
        ys, t = self._mixed_stack(cfg.polytope, pot)
        calls = self._counted(monkeypatch)
        inverse(pot, ys, t)
        steps = []
        for i, j in np.ndindex(ys.shape[:-1]):
            before = len(calls["hessian"])
            inverse(pot, ys[i, j], t[i, 0])
            steps.append(len(calls["hessian"]) - before)
        grad, hess = calls["gradient"][:max(steps) + 1], calls["hessian"][:max(steps)]
        # each round evaluates every row still iterating, in one call of each
        assert hess == [sum(s > k for s in steps) for k in range(max(steps))]
        assert grad == [ys[..., 0].size] + hess

    @pytest.mark.parametrize("config", ["configs/interval.json", "bench/fixtures/simplex2.json",
                                        "bench/fixtures/cube2.json"])
    def test_one_facet_evaluation_per_round(self, config, monkeypatch):
        # the start's facet values, then each round's at its first trials, which the next
        # round's gradient, Hessian and step rule read; no trial here is halved (the
        # sixty-trials test counts the halvings)
        cfg = load_config(str(REPO / config))
        pot = SymplecticPotential(cfg.polytope, cfg.proj, cfg.phi)
        ys, t = self._mixed_stack(cfg.polytope, pot)
        events = []
        real_l, real_h = DelzantPolytope.facet_values_array, SymplecticPotential.hessian
        monkeypatch.setattr(DelzantPolytope, "facet_values_array",
                            lambda self, x: events.append(("L", len(x))) or real_l(self, x))
        monkeypatch.setattr(SymplecticPotential, "hessian", lambda self, x, t=0.0, **kw: (
            events.append(("H", len(x))) or real_h(self, x, t, **kw)))
        inverse(pot, ys, t)
        rounds = [rows for kind, rows in events if kind == "H"]
        assert len(rounds) > 5
        assert events == [("L", ys[..., 0].size)] + [
            e for r in rounds for e in (("H", r), ("L", r))]

    def test_a_rejected_step_gets_sixty_trials(self, square2, monkeypatch):
        # a NaN step fails every trial: the start's facet values serve grad g0, Hess g0 and
        # the step rule, then come 60 trial points, and the row fails in round 0
        pot = _pot(square2)
        checked = []
        real = DelzantPolytope.facet_values_array
        monkeypatch.setattr(DelzantPolytope, "facet_values_array",
                            lambda self, x: checked.append(len(x)) or real(self, x))
        with pytest.raises(NewtonConvergenceError) as err:
            inverse(pot, np.array([[0.1, 0.2], [np.nan, 0.0]]))
        assert err.value.index == 1 and err.value.iterations == 0
        assert checked == [2, 2] + [1] * 59

    def test_times_need_one_row_each(self, square2, proj_first_of_two, phi_half_square):
        pot0 = _pot(square2, proj_first_of_two, phi_half_square)
        ys = pot0.gradient(sample_interior(square2, 6, seed=2))
        assert inverse(pot0, ys.reshape(2, 3, 2), [[0.0], [1.0]]).shape == (2, 3, 2)
        for y, t in ((ys, [[0.0], [1.0]]), (ys[0], [[0.0], [1.0]]),
                     (ys[:2, None], [[0.0], [-1.0]])):
            with pytest.raises(ValueError):
                inverse(pot0, y, t)

    def test_non_finite_point_does_not_pass_as_converged(self, square2):
        pot = _pot(square2)
        ys = np.array([[0.0, 0.0], [np.nan, 0.0], [0.1, -0.2]])
        with pytest.raises(NewtonConvergenceError) as err:
            inverse(pot, ys)
        assert err.value.index == 1


class TestClosedFormSolve:
    """``legendre._solve_spd``: LDL^T written out row by row for n <= 2, LAPACK for n = 3."""

    @staticmethod
    def _spd_stack(n, count, max_log_cond, seed):
        # R diag(s, s / cond) R^T with a random rotation R, scale s and cond up to 10^max
        rng = np.random.default_rng(seed)
        s = 10.0 ** rng.uniform(-6, 6, count)
        if n == 1:
            return s.reshape(count, 1, 1), rng.standard_normal((count, 1))
        a = rng.uniform(0, np.pi, count)
        R = np.stack([np.stack([np.cos(a), -np.sin(a)], -1), np.stack([np.sin(a), np.cos(a)], -1)],
                     -2)
        lam = np.stack([s, s / 10.0 ** rng.uniform(0, max_log_cond, count)], -1)
        H = (R * lam[:, None, :]) @ np.swapaxes(R, -1, -2)
        H = 0.5 * (H + np.swapaxes(H, -1, -2))  # exactly symmetric
        return H, rng.standard_normal((count, 2)) * 10.0 ** rng.uniform(-3, 3, (count, 1))

    @pytest.mark.parametrize("n", [1, 2])
    def test_backward_stable_on_stiff_stacks(self, n):
        # per row |H x - r| <= 8 eps (|H| |x| + |r|), the residual taken in extended
        # precision so that only the solve's rounding shows
        H, r = self._spd_stack(n, 2000, 12, seed=n)
        x = legendre._solve_spd(H, r)
        Hl, xl, rl = (a.astype(np.longdouble) for a in (H, x, r))
        resid = np.abs(np.einsum("nij,nj->ni", Hl, xl) - rl)
        bound = 8 * np.finfo(float).eps * (np.einsum("nij,nj->ni", np.abs(Hl), np.abs(xl))
                                           + np.abs(rl))
        assert np.all(resid <= bound)

    @pytest.mark.parametrize("n", [1, 2])
    def test_agrees_with_lapack_when_well_conditioned(self, n):
        H, r = self._spd_stack(n, 2000, 3, seed=10 + n)
        x, ref = legendre._solve_spd(H, r), np.linalg.solve(H, r[..., None])[..., 0]
        assert np.all(np.linalg.norm(x - ref, axis=-1) <= 1e-12 * np.linalg.norm(ref, axis=-1))

    def test_each_row_alone_and_lapack_at_three(self):
        H, r = self._spd_stack(2, 50, 12, seed=5)
        x = legendre._solve_spd(H, r)
        assert all(np.array_equal(x[i], legendre._solve_spd(H[i:i + 1], r[i:i + 1])[0])
                   for i in range(len(H)))
        H3 = np.eye(3) + 0.1 * np.ones((3, 3))
        r3 = np.arange(6.0).reshape(2, 3)
        H3 = np.broadcast_to(H3, (2, 3, 3))
        assert np.array_equal(legendre._solve_spd(H3, r3),
                              np.linalg.solve(H3, r3[..., None])[..., 0])


class TestBatchedPotentials:
    def test_kahler_potential_stack(self, square2, proj_first_of_two, phi_half_square):
        pot = _pot(square2, proj_first_of_two, phi_half_square)
        ys = pot.gradient(sample_interior(square2, 12, seed=4), 3.0)
        h = kahler_potential(pot, ys, 3.0)
        assert h.shape == (12,)
        assert isinstance(kahler_potential(pot, ys[0], 3.0), float)
        assert np.allclose(h, [kahler_potential(pot, y, 3.0) for y in ys], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t", [0.0, 3.0, [[0.0], [1.0], [40.0]]])
    def test_kahler_potential_is_conjugate_of_g_t(self, simplex, phi_half_square, t):
        from toric_quant import SubtorusProjection

        pot = _pot(simplex, SubtorusProjection(((1, 0),)), phi_half_square)
        x = sample_interior(simplex, 10, seed=9)
        y = pot.gradient(x, t)
        h = kahler_potential(pot, y, t)
        want = -pot.value(x, t) + np.sum(x * y, axis=-1)
        assert h.shape == want.shape == np.broadcast_shapes(np.shape(t), (10,))
        assert np.allclose(h, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("t", [1.0, 10.0, 100.0])
    def test_flow_residual_stack_equals_points(self, square2, proj_first_of_two,
                                               phi_half_square, t):
        pot0 = _pot(square2, proj_first_of_two, phi_half_square)
        pts = sample_interior(square2, 20, seed=33)
        batched = flow_identity_residual(pot0, [t], pts)[0]
        assert batched.shape == (20,)
        each = [flow_identity_residual(pot0, [t], x)[0] for x in pts]
        assert all(np.ndim(r) == 0 for r in each)
        assert np.allclose(batched, each, rtol=0, atol=1e-12)
        assert np.max(batched) < 1e-8
