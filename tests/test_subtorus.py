import numpy as np
import pytest

from toric_quant import (
    ConvexFunction,
    NotConvexError,
    ProjectionError,
    SubtorusProjection,
    pullback,
    quadratic,
)
from toric_quant._intlin import integer_kernel_basis, rational_solve


class TestProjection:
    def test_rank_deficient_rejected(self):
        with pytest.raises(ProjectionError, match="rank"):
            SubtorusProjection(((1, 1), (2, 2)))

    def test_k_bounds(self):
        with pytest.raises(ProjectionError):
            SubtorusProjection(((1, 0), (0, 1), (1, 1)))

    def test_apply_exact(self):
        proj = SubtorusProjection(((1, 2),))
        assert tuple(proj.apply((3, 4))) == (11,)


def _eye(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class TestAdaptedBasis:
    """The lattice data adapted to A that frames and face charts use: the rows
    of A and the Z-basis B = integer_kernel_basis(A) of ker A.  No unimodular
    change of coordinates is built; the constructor checks that the image
    lattice has index 1, which is when one exists."""

    def test_standard_projection_gives_identity(self):
        for k, n in ((1, 1), (1, 2), (2, 3), (1, 3)):
            A = SubtorusProjection.standard(k, n).matrix
            B = integer_kernel_basis(A)  # the trailing unit vectors, in sorted order
            assert A + tuple(sorted(B, reverse=True)) == _eye(n)

    def test_swap(self):
        A = SubtorusProjection(((0, 1),)).matrix
        assert A + integer_kernel_basis(A) == ((0, 1), (1, 0))

    def test_diagonal_case_by_hand(self):
        # ker (1 1) is spanned by (1, -1)
        assert integer_kernel_basis(SubtorusProjection(((1, 1),)).matrix) == ((1, -1),)

    def test_nonprimitive_image_rejected(self):
        for rows in (((2,),), ((2, 4),), ((1, 0), (0, 2)), ((1, 1), (1, -1))):
            with pytest.raises(ProjectionError, match="index 2 > 1"):
                SubtorusProjection(rows)
        for rows in (((3, 2),), ((2, 3, 5),), ((1, 1), (1, 2)), ((-1,),)):
            assert SubtorusProjection(rows).matrix == rows

    @pytest.mark.parametrize("rows", [
        ((1, 0),), ((0, 1),), ((1, 1),), ((1, 2),), ((3, 2),),
        ((1, 0, 0), (0, 1, 0)), ((1, 1, 0), (0, 1, 1)), ((1, 2, 3),),
    ])
    def test_projection_composed_with_inverse_is_standard(self, rows):
        # M = [A; B] is invertible over Q (B completes the rows of A), and
        # A M^-1 = [I_k | 0]: in the coordinates M x the projection reads off
        # the first k entries
        proj = SubtorusProjection(rows)
        M = proj.matrix + integer_kernel_basis(proj.matrix)
        cols = [rational_solve(M, e) for e in _eye(proj.n)]  # raises if M is singular
        assert tuple(tuple(sum(a * c for a, c in zip(row, col)) for col in cols)
                     for row in proj.matrix) == _eye(proj.n)[:proj.k]

    @pytest.mark.parametrize("rows", [((1, 1),), ((1, 2, 3),), ((1, 0, 0), (0, 1, 1))])
    def test_kernel_basis_annihilated(self, rows):
        proj = SubtorusProjection(rows)
        B = integer_kernel_basis(proj.matrix)
        assert len(B) == proj.n - proj.k
        for v in B:
            assert tuple(proj.apply(v)) == tuple(0 for _ in range(proj.k))


class TestPullback:
    def test_chain_rule_by_hand(self, phi_half_square, proj_first_of_two):
        psi = pullback(phi_half_square, proj_first_of_two)
        x = np.array([2.0, 5.0])
        assert psi.value(x) == pytest.approx(2.0)
        assert psi.gradient(x) == pytest.approx([2.0, 0.0])
        assert np.allclose(psi.hessian(x), [[1.0, 0.0], [0.0, 0.0]])

    def test_kernel_direction_flat(self, phi_half_square, proj_first_of_two):
        psi = pullback(phi_half_square, proj_first_of_two)
        x = np.array([0.0, 7.0])
        assert psi.value(x) == 0.0
        assert psi.gradient(x) == pytest.approx([0.0, 0.0])

    def test_identity_projection(self):
        phi = quadratic(np.eye(2))
        psi = pullback(phi, SubtorusProjection(((1, 0), (0, 1))))
        x = np.array([1.0, 1.0])
        assert psi.value(x) == pytest.approx(1.0)
        assert psi.gradient(x) == pytest.approx([1.0, 1.0])
        assert np.allclose(psi.hessian(x), np.eye(2))

    def test_pullback_psd_where_phi_pd(self, phi_half_square):
        proj = SubtorusProjection(((1, 1),))
        psi = pullback(phi_half_square, proj)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, size=(50, 2))
        H = psi.hessian(pts)
        eigs = np.linalg.eigvalsh(H)
        assert np.all(eigs >= -1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pullback(quadratic(np.eye(2)), SubtorusProjection(((1, 0),)))

    def test_batched_evaluation(self, phi_half_square, proj_first_of_two):
        psi = pullback(phi_half_square, proj_first_of_two)
        pts = np.array([[2.0, 5.0], [0.0, 7.0]])
        assert psi.value(pts) == pytest.approx([2.0, 0.0])
        assert psi.gradient(pts).shape == (2, 2)
        assert psi.hessian(pts).shape == (2, 2, 2)

    @pytest.mark.parametrize("lead", [(), (12,), (3, 4)])
    @pytest.mark.parametrize("rows", [((1, 1),), ((1, 0, 0), (0, 1, 0))])
    def test_hessian_is_a_transpose_h_a_per_point(self, rows, lead):
        # rows on square2 and cube2; phi's Hessian Q + diag(e^y) varies with the point
        proj = SubtorusProjection(rows)
        A = proj.array
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])[:proj.k, :proj.k]

        def hessian(y):
            return Q + np.exp(y)[..., None] * np.eye(proj.k)

        phi = ConvexFunction(proj.k, None, None, hessian)
        x = np.random.default_rng(4).uniform(0, 2, size=lead + (proj.n,))
        H = pullback(phi, proj).hessian(x)
        assert H.shape == lead + (proj.n, proj.n)
        for idx in np.ndindex(lead):
            h = hessian(A @ x[idx])
            ref = sum(h[a, b] * np.outer(A[a], A[b]) for a in range(proj.k) for b in range(proj.k))
            np.testing.assert_allclose(H[idx], ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("lead", [(), (12,), (3, 4)])
    @pytest.mark.parametrize("rows", [((1, 1),), ((1, 1, 0), (0, 1, 1))])
    def test_hessian_is_the_chain_rule_product(self, rows, lead):
        # the skew A of square2_skew and a skew k = 2 projection of a 3-box: the one
        # product with A (x) A against A^T Hess phi(A x) A, point by point
        proj = SubtorusProjection(rows)
        A = proj.array
        q = quadratic(np.array([[2.0, 0.5], [0.5, 1.0]])[:proj.k, :proj.k])
        phi = ConvexFunction(proj.k, None, None,
                             lambda y: q.hessian(y) + np.exp(y)[..., None] * np.eye(proj.k))
        x = np.random.default_rng(8).uniform(0, 2, size=lead + (proj.n,))
        H = pullback(phi, proj).hessian(x)
        assert H.shape == lead + (proj.n, proj.n)
        for idx in np.ndindex(lead):
            ref = A.T @ phi.hessian(A @ x[idx]) @ A
            np.testing.assert_allclose(H[idx], ref, rtol=1e-14, atol=0)


class TestConvexity:
    @pytest.mark.parametrize("Q", [[[-1.0]], [[0.0]], [[1e-11]], [[1.0, 2.0], [2.0, 1.0]],
                                   [[1.0, 1.0], [1.0, 1.0 + 1e-11]]],
                             ids=["negative", "zero", "tiny", "indefinite", "near_singular"])
    def test_one_eigenvalue_test_decides_convexity(self, Q):
        # whether or not Q has a Cholesky factor, its smallest eigenvalue decides
        with pytest.raises(NotConvexError, match="eigenvalue") as err:
            quadratic(Q)
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("Q,b", [([[1.0, 2.0], [0.0, 1.0]], None), ([[1.0]], [1.0, 2.0]),
                                     ([[1e-11]], [float("inf")])])
    def test_malformed_data_is_no_convexity_verdict(self, Q, b):
        # shape, symmetry and b are checked first: they stay bad_phi in the CLI
        with pytest.raises(ValueError) as err:
            quadratic(Q, b)
        assert not isinstance(err.value, NotConvexError)

    def test_spd_enforced_by_factory(self):
        with pytest.raises(ValueError):
            quadratic([[0.0]])
        with pytest.raises(ValueError):
            quadratic([[1.0, 2.0], [2.0, 1.0]])  # indefinite
