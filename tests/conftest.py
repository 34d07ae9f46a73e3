import numpy as np
import pytest

from toric_quant import (
    DelzantPolytope,
    SubtorusProjection,
    SymplecticPotential,
    closed_form_log_norm_g0,
    log_norm_matrix,
    quadratic,
)
from toric_quant.quadrature import NodeFibers, QuadratureRule, TensorRule, _outer


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
def simplex3():
    # x, y, z >= 0, 1 - x - y - z >= 0: its rules are midpoint grids
    return DelzantPolytope(3, (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), 1)))


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


def isotropy_defect(rows) -> float:
    """max |Omega(row_a, row_b)| over pairs of rows and any leading axes;
    zero for Lagrangian frames."""
    n = rows.shape[-1] // 2
    a, b = rows[..., :n], rows[..., n:]
    M = a @ np.swapaxes(b, -1, -2) - b @ np.swapaxes(a, -1, -2)
    return float(np.max(np.abs(M)))


def degenerate_directions(rows, tol: float = 1e-10):
    """Complex dimension of the kernel of the positivity form on the span.

    The form is the Hermitian matrix i Omega(conj(row_a), row_b): positive
    definite for Kahler frames (2 G^{-1} on the rows (G^{-1}, -i I)), and
    positive semidefinite with a k-dimensional kernel for the limit.  A
    stack of frames gives one count per frame.
    """
    n = rows.shape[-1] // 2
    a, b = rows[..., :n], rows[..., n:]
    M = 1j * (a.conj() @ np.swapaxes(b, -1, -2) - b.conj() @ np.swapaxes(a, -1, -2))
    counts = np.sum(np.abs(np.linalg.eigvalsh(M)) < tol, axis=-1)
    return int(counts) if counts.ndim == 0 else counts


def tensor_product(axes):
    """The nodes of per-axis (nodes, weights) in meshgrid "ij" order, and their weights.

    Each coordinate is broadcast into the (N, dim) array and the weights
    are the running outer product (w_1 w_2) w_3 ..., so no full-size
    meshgrid copies are made.
    """
    dim = len(axes)
    points = np.empty(tuple(len(nodes) for nodes, _ in axes) + (dim,))
    for i, (nodes, _) in enumerate(axes):
        points[..., i] = nodes.reshape((-1,) + (1,) * (dim - 1 - i))
    return points.reshape(-1, dim), _outer([w for _, w in axes])


def node_rule(rule):
    """A rule as its nodes and weights: a tensor rule's product (``tensor_product``) as the
    segment form with one node per segment, s = 0 and step = 0, which keep the points' bits;
    a segment rule as it is."""
    if not isinstance(rule, TensorRule):
        return rule
    points, weights = tensor_product(rule.axes)
    return QuadratureRule(points, weights, np.zeros((len(weights), 1)), np.zeros(points.shape[1]))


def integrate(f, rule) -> float:
    """Weighted sum of f over the rule points (one fiber); rejects non-finite values."""
    return float(NodeFibers(node_rule(rule), np.zeros(1, dtype=int)).sums(f)[1, 0])


def radial_gram(pot, ms, rule):
    """Gram matrix G = S diag(w) S^T of the radial pairings on a rule, S = norm_matrix."""
    rule = node_rule(rule)
    S = norm_matrix(pot, ms, rule.points)
    return (S * rule.weights) @ S.T


def torus_average(dm, theta_resolution):
    """Mean of e^{i <dm, theta>} over the theta_resolution-th roots of unity on each axis.

    Zero for dm != 0 once the grid outresolves every coordinate of dm; a
    coarser grid aliases and is refused.
    """
    if theta_resolution <= max(map(abs, dm), default=0):
        raise ValueError(f"theta resolution {theta_resolution} aliases {tuple(dm)}")
    angles = 2.0 * np.pi * np.arange(theta_resolution) / theta_resolution
    return complex(np.prod([np.mean(np.exp(1j * d * angles)) for d in dm]))


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


def norm_matrix(pot, ms, x, t=0.0):
    """The norms |sigma^m_t|(x) themselves, one row per lattice point: exp of the library's logs."""
    return np.exp(log_norm_matrix(pot, ms, x, t))


def closed_form_norm_g0(P, m, x):
    """|sigma^m_0|(x) in closed form, 0 on the facets with l_j(m) > 0: exp of the library's logs."""
    return np.exp(closed_form_log_norm_g0(P, m, x))


def logs_close(a, b, rtol):
    """np.allclose(e^a, e^b, rtol, atol=0) from the logs a and b, where e^a may leave float64."""
    return bool(np.all(np.abs(np.expm1(np.subtract(a, b))) <= rtol))


def trailing_axis_norm_g0(P, m, x):
    """|sigma^m_0| at x (..., n) through the (N, d) form of the log-norm kernel.

    The oracle for the facet-major ``sections._log_norm_g0``: facet values
    L (..., d), one log per facet with l_j(m) > 0 in an (..., k) @ (k,)
    product, and the sum of l_j(m) - l_j reduced over the trailing facet axis.
    """
    L = np.clip(P.facet_values_array(x), 0.0, None)
    lm = P.facet_values_array(np.array(m, dtype=float))
    on = lm > 0
    with np.errstate(divide="ignore"):
        logs = np.log(L[..., on]) @ lm[on]
    return np.exp(0.5 * (logs + np.sum(lm - L, axis=-1)))
