import itertools
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toric_quant._intlin import (
    _hermite,
    integer_det,
    integer_kernel_basis,
    is_primitive,
    rational_rank,
    rational_solve,
)


def test_primitive():
    assert is_primitive((2, 3))
    assert not is_primitive((2, 4))
    assert is_primitive((0, 1))


class TestDeterminant:
    def test_small_cases(self):
        assert integer_det(((1, 0), (0, 1))) == 1
        assert integer_det(((1, 0), (-1, -2))) == -2
        assert integer_det(()) == 1

    def test_against_numpy(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 4):
            for _ in range(25):
                M = rng.integers(-5, 6, size=(n, n))
                assert integer_det(M.tolist()) == round(float(np.linalg.det(M)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_permutation_sign(self, n):
        # every column swap of the Hermite loop flips det V
        for perm in itertools.permutations(range(n)):
            M = np.eye(n, dtype=int)[list(perm)]
            assert integer_det(M.tolist()) == round(float(np.linalg.det(M)))


class TestRationalSolve:
    def test_exact_solution(self):
        x = rational_solve(((2, 1), (1, 3)), (1, 0))
        assert x == (Fraction(3, 5), Fraction(-1, 5))

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            rational_solve(((1, 1), (2, 2)), (1, 1))

    def test_rank(self):
        assert rational_rank(((1, 1), (2, 2))) == 1
        assert rational_rank(((1, 0), (0, 1))) == 2
        assert rational_rank(()) == 0


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, True])
@pytest.mark.parametrize("call", [
    lambda A: integer_det(A), lambda A: rational_rank(A),
    lambda A: rational_solve(A, (1, 1)), lambda A: integer_kernel_basis(A)])
def test_inexact_entries_raise(bad, call):
    # int() would read 1/2 and 0.5 as 0 and True as 1, another matrix
    with pytest.raises(ValueError, match="is not an integer"):
        call([[bad, 1], [0, 1]])


class TestKernel:
    @pytest.mark.parametrize("A,n", [
        ([[1, 0]], 2), ([[1, 1]], 2), ([[2, 3]], 2), ([[1, 2, 3]], 3),
        ([[1, 0, 0], [0, 1, 0]], 3), ([[1, 1, 1], [0, 2, 1]], 3),
        ([], 2),
    ])
    def test_annihilates_and_saturates(self, A, n):
        B = integer_kernel_basis(A, ncols=n)
        assert len(B) == n - (rational_rank(A) if A else 0)
        for v in B:
            assert all(sum(a * c for a, c in zip(row, v)) == 0 for row in A)
        # saturation: gcd of the maximal minors of the basis matrix is 1,
        # so the rows span ker over Z, not a finite-index sublattice
        if B:
            m = len(B)
            g = 0
            for cols in itertools.combinations(range(n), m):
                sub = [[B[i][c] for c in cols] for i in range(m)]
                g = gcd(g, abs(integer_det(sub)))
            assert g == 1

    def test_random_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k, n = rng.integers(1, 3), rng.integers(2, 5)
            if k >= n:
                continue
            A = rng.integers(-4, 5, size=(k, n))
            if rational_rank(A.tolist()) < k:
                continue
            B = integer_kernel_basis(A.tolist(), ncols=n)
            assert len(B) == n - k
            assert np.all(A @ np.array(B).T == 0)


def _matmul(A, B):
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*B)) for row in A)


class TestHermiteAndInverse:
    @pytest.mark.parametrize("A", [
        [[1, 0]], [[0, 1]], [[1, 1]], [[3, 2]], [[2, 3, 5]],
        [[1, 0, 0], [0, 1, 1]], [[1, 2], [0, 1]],
    ])
    def test_column_echelon_postconditions(self, A):
        H, V, rank, _ = _hermite(A, len(A[0]))
        k, n = len(A), len(A[0])
        assert rank == k
        assert abs(integer_det(V)) == 1
        assert _matmul(A, V) == tuple(tuple(r) for r in H)
        for i in range(k):
            assert all(H[i][j] == 0 for j in range(i + 1, n))
            assert H[i][i] > 0


# --- properties of the one Hermite loop on random matrices ---

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def int_matrices(draw, square=False):
    """k x n integer matrices, n <= 5; about half have a last row that is an
    integer combination of the others, so they are rank-deficient."""
    n = draw(st.integers(1, 5))
    k = n if square else draw(st.integers(1, n))
    entry = st.integers(-4, 4)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        c = draw(st.lists(st.integers(-2, 2), min_size=k - 1, max_size=k - 1))
        rows[-1] = [sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(n)]
    return rows


def _rank(A):
    # an independent reference: small integer entries are exact in floats
    return int(np.linalg.matrix_rank(np.array(A, dtype=float)))


def _mul(A, x):
    return tuple(sum(a * v for a, v in zip(row, x)) for row in A)


class TestMergedPaths:
    @PROPERTY
    @given(int_matrices())
    def test_kernel_is_saturated_and_of_full_size(self, A):
        n = len(A[0])
        B = integer_kernel_basis(A, ncols=n)
        assert len(B) == n - _rank(A) and rational_rank(A) == _rank(A)
        assert all(v == 0 for b in B for v in _mul(A, b))
        if B:
            g = 0
            for cols in itertools.combinations(range(n), len(B)):
                g = gcd(g, integer_det([[b[c] for c in cols] for b in B]))
            assert abs(g) == 1

    @PROPERTY
    @given(int_matrices())
    def test_hermite_form(self, A):
        k, n = len(A), len(A[0])
        H, V, rank, _ = _hermite(A, n)
        assert rank == _rank(A)
        assert _matmul(A, V) == tuple(map(tuple, H))
        assert abs(integer_det(V)) == 1
        assert all(H[i][c] == 0 for i in range(k) for c in range(rank, n))
        if rank == k:  # each row's pivot sits on the diagonal, positive
            for i in range(k):
                assert H[i][i] > 0 and all(H[i][j] == 0 for j in range(i + 1, n))

    @PROPERTY
    @given(int_matrices(square=True), st.lists(st.fractions(max_denominator=7), min_size=5,
                                               max_size=5))
    def test_rational_solve_is_exact(self, A, b):
        b = b[:len(A)]
        if _rank(A) < len(A):
            with pytest.raises(ValueError):
                rational_solve(A, b)
        else:
            assert _mul(A, rational_solve(A, b)) == tuple(b)

    @PROPERTY
    @given(int_matrices(square=True))
    def test_determinant_matches_numpy(self, A):
        # about half are singular (det 0); the rest check the sign of det V
        assert integer_det(A) == round(float(np.linalg.det(np.array(A, dtype=float))))

    @PROPERTY
    @given(int_matrices(), st.lists(st.fractions(max_denominator=7), min_size=5,
                                    max_size=5))
    def test_wide_rational_solve_is_exact(self, A, b):
        # full row rank with more unknowns than equations: the leading k x k
        # block may be singular, as in [[0, 1]]
        assume(len(A) < len(A[0]) and _rank(A) == len(A))
        b = tuple(b[:len(A)])
        x = rational_solve(A, b)
        assert len(x) == len(A[0]) and all(isinstance(v, Fraction) for v in x)
        assert _mul(A, x) == b
