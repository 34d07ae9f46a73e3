import numpy as np
import pytest

from toric_quant import (
    NewtonConvergenceError,
    SymplecticPotential,
    flow_identity_residual,
    inverse,
    kahler_potential,
    legendre,
)

from conftest import fd_gradient, fd_jacobian, g0_on, sample_interior

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
        s = 1.0
        while not np.all(P.facet_values_array(x + s * step) > 0.4 * lcur):
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
