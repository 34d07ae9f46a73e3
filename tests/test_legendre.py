import numpy as np
import pytest

from toric_quant import (
    LegendrePair,
    NewtonConvergenceError,
    SymplecticPotential,
    flow_identity_residual,
    forward,
    inverse,
    kahler_potential,
)

from conftest import fd_gradient, fd_jacobian, sample_interior

HALF_LOG3 = 0.5 * np.log(3.0)  # 0.5493061443340549


def _pair(P, proj=None, phi=None, t=0.0, **kw):
    if proj is None:
        pot = SymplecticPotential.canonical(P)
    else:
        pot = SymplecticPotential.perturbed(P, proj, phi, t)
    return LegendrePair(pot, **kw)


class TestForward:
    def test_interval_center(self, interval):
        assert forward(_pair(interval), np.array([0.5])) == pytest.approx([0.0], abs=1e-15)

    def test_interval_three_quarters(self, interval):
        assert forward(_pair(interval), np.array([0.75])) == pytest.approx([HALF_LOG3])

    def test_square_product_structure(self, square1):
        y = forward(_pair(square1), np.array([0.5, 0.75]))
        assert y == pytest.approx([0.0, HALF_LOG3])


class TestInverse:
    def test_interval_zero(self, interval):
        assert inverse(_pair(interval), np.array([0.0])) == pytest.approx([0.5])

    def test_interval_against_analytic_inverse(self, interval):
        # grad g0 inverts to x = 1 / (1 + e^{-2y}) on (0, 1)
        pair = _pair(interval)
        for y in np.linspace(-3.0, 3.0, 13):
            x = inverse(pair, np.array([y]))
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
        pair = _pair(P, SubtorusProjection(rows), phi_half_square, t)
        pts = sample_interior(P, 100, seed=21)
        worst = max(
            float(np.linalg.norm(inverse(pair, forward(pair, x)) - x)) for x in pts)
        assert worst < 1e-8

    def test_nonconvergence_reports_iterate(self, interval):
        pair = _pair(interval, **{"max_iterations": 1})
        with pytest.raises(NewtonConvergenceError) as err:
            inverse(pair, np.array([40.0]))
        assert err.value.iterate is not None
        assert err.value.residual > 0


class TestKahlerPotential:
    def test_interval_at_zero(self, interval):
        assert kahler_potential(_pair(interval), np.array([0.0])) == pytest.approx(
            0.5 * np.log(2.0), abs=1e-10)

    def test_square_at_zero(self, square1):
        assert kahler_potential(_pair(square1), np.array([0.0, 0.0])) == pytest.approx(
            np.log(2.0), abs=1e-10)

    def test_gradient_recovers_moment_coordinate(self, interval):
        # dh/dy = x(y): the moment coordinate comes back as the y-derivative
        pair = _pair(interval)
        for y in (-1.0, 0.2, 1.5):
            num = fd_gradient(lambda z: kahler_potential(pair, z), np.array([y]))
            x = inverse(pair, np.array([y]))
            assert abs(num[0] - x[0]) < 1e-6

    def test_hessian_is_inverse_metric(self, square2, proj_first_of_two, phi_half_square):
        pair = _pair(square2, proj_first_of_two, phi_half_square, 2.0)
        x = np.array([0.8, 1.3])
        y = forward(pair, x)
        Hh = fd_jacobian(lambda z: inverse(pair, z), y)  # Hess h = Jacobian of x(y)
        G = pair.potential.hessian(x)
        assert np.max(np.abs(Hh - np.linalg.inv(G))) < 1e-6
        assert np.all(np.linalg.eigvalsh(0.5 * (Hh + Hh.T)) > 0)


def _per_pair_residual(pair0, pair_t, x):
    """The flow residual of one pair, written out as the per-pair formula."""
    t, psi = pair_t.potential.time, pair_t.potential.perturbation
    h_t = kahler_potential(pair_t, forward(pair_t, x))
    h_0 = kahler_potential(pair0, forward(pair0, x))
    shift = 0.0 if psi is None or t == 0.0 else (
        -t * psi.value(x) + t * np.sum(x * psi.gradient(x), axis=-1))
    return np.abs(h_t - (h_0 + shift))


class TestFlowIdentity:
    def test_exactly_zero_at_t_zero(self, interval, proj_id1, phi_half_square):
        pair0 = _pair(interval, proj_id1, phi_half_square, 0.0)
        assert flow_identity_residual(pair0, [0.0], np.array([0.3])).tolist() == [0.0]

    def test_interval_shift_by_eighth(self, interval, proj_id1, phi_half_square):
        # psi(1/2) = 1/8 and <x, grad psi> = 1/4, so h moves by +1/8
        pair0 = _pair(interval, proj_id1, phi_half_square, 0.0)
        pair1 = _pair(interval, proj_id1, phi_half_square, 1.0)
        x = np.array([0.5])
        h0 = kahler_potential(pair0, forward(pair0, x))
        h1 = kahler_potential(pair1, forward(pair1, x))
        assert h1 - h0 == pytest.approx(0.125, abs=1e-10)
        assert flow_identity_residual(pair0, [1.0], x)[0] < 1e-10

    @pytest.mark.parametrize("t", [1.0, 5.0, 10.0])
    def test_square_residuals(self, square2, proj_first_of_two, phi_half_square, t):
        pair0 = _pair(square2, proj_first_of_two, phi_half_square, 0.0)
        pts = sample_interior(square2, 20, seed=33)
        worst = max(flow_identity_residual(pair0, [t], x)[0] for x in pts)
        assert worst < 1e-8

    def test_requires_base_pair_at_time_zero(self, interval, proj_id1, phi_half_square):
        pair1 = _pair(interval, proj_id1, phi_half_square, 1.0)
        with pytest.raises(ValueError):
            flow_identity_residual(pair1, [1.0], np.array([0.5]))

    @pytest.mark.parametrize("fixture,rows", [
        ("interval", ((1,),)), ("square2", ((1, 0),)), ("simplex", ((1, 0),)), (None, None)])
    def test_bit_equal_to_per_pair_formula(self, fixture, rows, request, phi_half_square):
        from toric_quant import SubtorusProjection

        if fixture is None:  # the canonical family: psi = None
            P = request.getfixturevalue("square2")
            pair0 = _pair(P)
        else:
            P = request.getfixturevalue(fixture)
            pair0 = _pair(P, SubtorusProjection(rows), phi_half_square, 0.0)
        pts = sample_interior(P, 15, seed=8)
        times = (0.0, 1.0, 7.5, 40.0)
        got = flow_identity_residual(pair0, times, pts)
        assert got.shape == (4, 15)
        for t, row in zip(times, got):
            pair_t = LegendrePair(pair0.potential.at_time(t))
            assert np.array_equal(row, _per_pair_residual(pair0, pair_t, pts))
        assert flow_identity_residual(pair0, times, pts[0]).shape == (4,)

    def test_h0_solved_once(self, square2, proj_first_of_two, phi_half_square, monkeypatch):
        from toric_quant import legendre

        calls = []
        real = legendre.inverse
        monkeypatch.setattr(legendre, "inverse", lambda pair, y: calls.append(
            pair.potential.time) or real(pair, y))
        pair0 = _pair(square2, proj_first_of_two, phi_half_square, 0.0)
        flow_identity_residual(pair0, (2.0, 4.0, 8.0), sample_interior(square2, 5, seed=1))
        assert calls == [0.0, 2.0, 4.0, 8.0]


# non-box polygon: the Hirzebruch trapezoid x + y <= 4, y <= 2
def _hirzebruch():
    from toric_quant import DelzantPolytope

    return DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((0, -1), 2), ((-1, -1), 4)))


def _scalar_newton(pair, y):
    """Damped Newton for one point, written out as the reference loop."""
    pot, P = pair.potential, pair.potential.polytope
    x = P.barycenter_array()
    for _ in range(pair.max_iterations):
        res = pot.gradient(x) - y
        if np.linalg.norm(res) <= pair.tolerance:
            return x
        step = -np.linalg.solve(pot.hessian(x), res)
        lcur = P.facet_values_array(x)
        s = 1.0
        while not np.all(P.facet_values_array(x + s * step) > 0.4 * lcur):
            s *= 0.5
        x = x + s * step
    assert np.linalg.norm(pot.gradient(x) - y) <= pair.tolerance
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
        pair = _pair(P, SubtorusProjection(rows), phi_half_square, t)
        pts = sample_interior(P, 40, seed=5)
        ys = forward(pair, pts)
        xs = inverse(pair, ys)
        ref = np.array([_scalar_newton(pair, y) for y in ys])
        assert xs.shape == pts.shape
        assert np.max(np.abs(xs - ref)) <= 1e-12
        assert np.max(np.abs(xs - pts)) < 1e-8

    def test_output_shapes(self, square2):
        pair = _pair(square2)
        ys = forward(pair, sample_interior(square2, 6, seed=2))
        assert inverse(pair, ys[0]).shape == (2,)
        assert inverse(pair, ys).shape == (6, 2)
        stacked = inverse(pair, ys.reshape(2, 3, 2))
        assert stacked.shape == (2, 3, 2)
        assert np.array_equal(stacked.reshape(6, 2), inverse(pair, ys))
        assert inverse(pair, ys[:0]).shape == (0, 2)
        with pytest.raises(ValueError):
            inverse(pair, np.zeros(3))

    def test_one_failing_point_is_named(self, interval):
        # grad g0 on (0, 1) stays below 0.5 log(1/eps) ~ 18.4 in float64, so
        # y = 40 cannot be reached while its neighbours converge
        pair = _pair(interval, max_iterations=50)
        ys = np.array([[0.0], [0.5], [40.0], [-0.3]])
        with pytest.raises(NewtonConvergenceError, match="at point 2") as err:
            inverse(pair, ys)
        assert err.value.index == 2
        assert err.value.residual > 1.0
        with pytest.raises(NewtonConvergenceError) as alone:
            inverse(pair, ys[2])
        assert np.array_equal(err.value.iterate, alone.value.iterate)
        assert err.value.residual == alone.value.residual

    def test_non_finite_point_does_not_pass_as_converged(self, square2):
        pair = _pair(square2)
        ys = np.array([[0.0, 0.0], [np.nan, 0.0], [0.1, -0.2]])
        with pytest.raises(NewtonConvergenceError) as err:
            inverse(pair, ys)
        assert err.value.index == 1


class TestBatchedPotentials:
    def test_kahler_potential_stack(self, square2, proj_first_of_two, phi_half_square):
        pair = _pair(square2, proj_first_of_two, phi_half_square, 3.0)
        ys = forward(pair, sample_interior(square2, 12, seed=4))
        h = kahler_potential(pair, ys)
        assert h.shape == (12,)
        assert isinstance(kahler_potential(pair, ys[0]), float)
        assert np.allclose(h, [kahler_potential(pair, y) for y in ys], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t", [1.0, 10.0, 100.0])
    def test_flow_residual_stack_equals_points(self, square2, proj_first_of_two,
                                               phi_half_square, t):
        pair0 = _pair(square2, proj_first_of_two, phi_half_square, 0.0)
        pts = sample_interior(square2, 20, seed=33)
        batched = flow_identity_residual(pair0, [t], pts)[0]
        assert batched.shape == (20,)
        each = [flow_identity_residual(pair0, [t], x)[0] for x in pts]
        assert all(np.ndim(r) == 0 for r in each)
        assert np.allclose(batched, each, rtol=0, atol=1e-12)
        assert np.max(batched) < 1e-8
