"""Exact integer and rational linear algebra for the combinatorial layer.

One factorization, the column Hermite reduction A V = H over Z (V unimodular,
H lower triangular), gives the rank (the pivot count), det A (det V times the
pivots), solves (forward substitution in H) and ker A (the trailing columns of
V).  Entries are read with exact_int; floating point enters only in the analytic modules.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, prod


def exact_int(v) -> int:
    """v as an int; ValueError where int() would truncate, parse text or read a bool."""
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or isinstance(v, (bool, str, bytes)) or i != v:
        raise ValueError(f"{v!r} is not an integer")
    return i


def is_primitive(vec) -> bool:
    return gcd(*map(exact_int, vec)) == 1


def integer_det(rows) -> int:
    """Determinant of a square integer matrix: det V times the Hermite pivots."""
    n = len(rows)
    H, _, rank, sign = _hermite(rows, n)
    return sign * prod(H[i][i] for i in range(n)) if rank == n else 0


def rational_solve(A, b):
    """An exact rational x with A x = b for an integer A of full row rank, else ValueError.

    With A V = H = [L | 0], L z = b by forward substitution and x = V z (unique for square A).
    """
    k, n = len(A), len(A[0]) if A else 0
    H, V, rank, _ = _hermite(A, n)
    if rank < k:
        raise ValueError("rank-deficient system")
    z = []
    for r in range(k):
        z.append((Fraction(b[r]) - sum(H[r][j] * z[j] for j in range(r))) / H[r][r])
    return tuple(sum((V[i][j] * z[j] for j in range(k)), Fraction(0)) for i in range(n))


def rational_rank(A) -> int:
    return _hermite(A, len(A[0]) if A else 0)[2]


def _hermite(A, n):
    """Column Hermite reduction over Z of the k x n integer matrix A.

    Returns (H, V, rank, det V) with A V = H and V unimodular: each row of H with a
    live column gets its pivot, positive, in the next pivot column, and every
    entry right of a pivot is zero; a row with no live column right of the
    pivots so far is skipped, so rank-deficient A is accepted.  The columns
    of V from rank on span {v : A v = 0} over Z (Cohen 1993, 2.4).
    """
    H = [list(map(exact_int, row)) for row in A]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rank, det = 0, 1
    for r in range(len(H)):
        while True:
            live = [c for c in range(rank, n) if H[r][c] != 0]
            if not live:
                break
            if len(live) == 1:
                c = live[0]
                sign = 1 if H[r][c] > 0 else -1
                for row in H + V:
                    row[rank], row[c] = row[c], row[rank]
                    row[rank] *= sign
                det *= sign if c == rank else -sign
                rank += 1
                break
            live.sort(key=lambda c: abs(H[r][c]))
            s = live[0]
            for c in live[1:]:
                q = H[r][c] // H[r][s]
                if q:  # column c -= q column s
                    for row in H + V:
                        row[c] -= q * row[s]
    return H, V, rank, det


def integer_kernel_basis(A, ncols=None):
    """Z-basis of {v in Z^n : A v = 0}, returned as rows.

    The trailing columns of V in the column Hermite reduction A V = H, each
    with its first nonzero entry positive, sorted.  Works for any integer A,
    in particular rank-deficient or empty A (kernel = Z^n).
    """
    if ncols is None:
        if len(A) == 0:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(A[0])
    _, V, rank, _ = _hermite(A, ncols)
    cols = [[V[i][c] for i in range(ncols)] for c in range(rank, ncols)]  # none is zero
    return tuple(sorted(tuple(v) if next(e for e in v if e) > 0 else tuple(-e for e in v)
                        for v in cols))
