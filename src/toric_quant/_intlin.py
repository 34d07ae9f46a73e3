"""Exact integer and rational linear algebra for the combinatorial layer.

Everything here works on plain ints and fractions.Fraction so that lattice
counts, vertex coordinates and chart bases come out exact.  Floating point
enters only in the analytic modules.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


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
    return gcd(*map(int, vec)) == 1


def integer_det(rows) -> int:
    """Determinant of a square integer matrix via fraction-free Bareiss."""
    m = [[int(v) for v in r] for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def _rref(rows, width):
    """Reduced row echelon form over Q, with pivots sought in the first width columns.

    Returns (reduced rows as lists of Fraction, pivot column of each leading
    row); rows past the pivots are zero in those first width columns.
    """
    M = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        if r == len(M):
            break
        p = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        piv = M[r][c]
        M[r] = [v / piv for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [vi - f * vr for vi, vr in zip(M[i], M[r])]
        pivots.append(c)
    return M, pivots


def rational_solve(A, b):
    """Solve the square system A x = b exactly.  Raises on singular A."""
    n = len(A)
    M, pivots = _rref([list(A[i][:n]) + [b[i]] for i in range(n)], n)
    if len(pivots) < n:
        raise ValueError("singular system")
    return tuple(row[n] for row in M)


def rational_rank(A) -> int:
    return len(_rref(A, len(A[0]) if A else 0)[1])


def _normalize_row(row):
    lead = next((v for v in row if v != 0), 1)
    if lead < 0:
        row = [-v for v in row]
    return row


def _hermite(A, n):
    """Column Hermite reduction over Z of the k x n integer matrix A.

    Returns (H, V, rank) with A V = H and V unimodular: each row of H with a
    live column gets its pivot, positive, in the next pivot column, and every
    entry right of a pivot is zero; a row with no live column right of the
    pivots so far is skipped, so rank-deficient A is accepted.  The columns
    of V from rank on span {v : A v = 0} over Z (Cohen 1993, 2.4).
    """
    H = [list(map(int, row)) for row in A]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rank = 0

    def col_sub(dst, src, q):
        for M in (H, V):
            for row in M:
                row[dst] -= q * row[src]

    for r in range(len(H)):
        while True:
            live = [c for c in range(rank, n) if H[r][c] != 0]
            if not live:
                break
            if len(live) == 1:
                c = live[0]
                sign = 1 if H[r][c] > 0 else -1
                for M in (H, V):
                    for row in M:
                        row[rank], row[c] = row[c], row[rank]
                        row[rank] *= sign
                rank += 1
                break
            live.sort(key=lambda c: abs(H[r][c]))
            s = live[0]
            for c in live[1:]:
                q = H[r][c] // H[r][s]
                if q:
                    col_sub(c, s, q)
    return H, V, rank


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
    _, V, rank = _hermite(A, ncols)
    basis = [_normalize_row([V[i][c] for i in range(ncols)]) for c in range(rank, ncols)]
    basis.sort()
    return tuple(tuple(v) for v in basis)
