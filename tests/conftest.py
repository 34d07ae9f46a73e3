import numpy as np
import pytest

from toric_quant import DelzantPolytope, SubtorusProjection, SymplecticPotential, quadratic


@pytest.fixture
def interval():
    return DelzantPolytope.from_box([(0, 1)])


@pytest.fixture
def interval_sym():
    return DelzantPolytope.from_box([(-1, 1)])


@pytest.fixture
def square1():
    return DelzantPolytope.from_box([(0, 1), (0, 1)])


@pytest.fixture
def square2():
    return DelzantPolytope.from_box([(0, 2), (0, 2)])


@pytest.fixture
def simplex():
    # x >= 0, y >= 0, 1 - x - y >= 0
    return DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)))


@pytest.fixture
def triangle_nonsmooth():
    # x >= 0, y >= 0, 2 - x - 2y >= 0: vertex (0,1) has determinant -2
    return DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)))


@pytest.fixture
def cube():
    return DelzantPolytope.from_box([(0, 1), (0, 1), (0, 1)])


@pytest.fixture
def proj_first_of_two():
    return SubtorusProjection(((1, 0),))


@pytest.fixture
def proj_id1():
    return SubtorusProjection(((1,),))


@pytest.fixture
def phi_half_square():
    return quadratic([[1.0]])


def g0_on(P):
    """g0 on P: the t = 0 member of the family with A = standard(1, n), phi = y^2 / 2."""
    return SymplecticPotential(P, SubtorusProjection.standard(1, P.dim), quadratic([[1.0]]))


def sample_interior(P, count, seed=0):
    """Deterministic strictly interior points (Dirichlet vertex mixtures)."""
    rng = np.random.default_rng(seed)
    V = np.array([v.as_array() for v in P.vertices])
    pts = rng.dirichlet(np.ones(len(V)), size=count) @ V
    assert np.all(P.facet_values_array(pts) > 0)
    return pts


def central_interior(P, count, seed=0, shrink=0.5):
    """Interior points pulled halfway toward the barycenter."""
    bary = P.barycenter_array()
    return bary + shrink * (sample_interior(P, count, seed) - bary)


def kahler_rows(pot, x, t=0.0):
    """Reference frame (G_t^{-1}, -i I) of the Kahler polarization of g_t at one point."""
    Ginv = np.linalg.inv(pot.hessian(np.asarray(x, dtype=float), t))
    return np.hstack([Ginv, -1j * np.eye(len(Ginv))])


def limit_rows(pot, proj, x):
    """Reference rows (0, A) and (B, -i B G0) of the mixed limit at one point,
    with B = integer_kernel_basis(A) and G0 = Hess g0."""
    from toric_quant._intlin import integer_kernel_basis

    A, n = proj.array, proj.n
    B = np.array(integer_kernel_basis(proj.matrix), dtype=float).reshape(-1, n)
    G0 = pot.hessian(np.asarray(x, dtype=float))
    return np.vstack([np.hstack([np.zeros_like(A), A]), np.hstack([B, -1j * (B @ G0)])])


def fd_gradient(f, x, h=1e-5):
    """Central finite-difference gradient, the derivative oracle."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_jacobian(f, x, h=1e-5):
    """Central finite-difference Jacobian of a vector map."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h))
    return np.stack(cols, axis=-1)
