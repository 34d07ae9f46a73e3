"""Subtorus projections and convex perturbations.

The projection is an integer k x n matrix acting on moment coordinates,
y = A x, of rank k and lattice-surjective (A Z^n = Z^k).  ``pullback`` turns
a strictly convex function of y into the convex perturbation psi(x) =
phi(A x) used by the potential family.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Callable

import numpy as np

from ._intlin import _hermite, exact_int


class ProjectionError(ValueError):
    """Rank-deficient projection or image lattice of index > 1."""


class NotConvexError(ValueError):
    """A quadratic phi whose Q has an eigenvalue <= 1e-10: not strictly convex."""


@dataclass(frozen=True)
class SubtorusProjection:
    matrix: tuple  # k x n integer rows

    def __post_init__(self):
        try:  # exactly: int() would truncate 1.5 to another projection
            rows = tuple(tuple(map(exact_int, r)) for r in self.matrix)
        except (TypeError, ValueError) as exc:
            raise ProjectionError(f"projection entries must be integers: {exc}") from None
        if not rows or not rows[0]:
            raise ProjectionError("projection matrix must be nonempty")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ProjectionError("ragged projection matrix")
        k = len(rows)
        if not 1 <= k <= n:
            raise ProjectionError(f"need 1 <= k <= n, got k={k}, n={n}")
        object.__setattr__(self, "matrix", rows)
        # the column Hermite form [L | 0] of a rank-k A has index |A Z^n : Z^k| = det L
        H, _, rank, _ = self._hermite_form
        if rank < k:
            raise ProjectionError(f"projection matrix has rank < {k}")
        index = prod(H[i][i] for i in range(k))
        if index != 1:
            raise ProjectionError(
                f"image lattice has index {index} > 1; projection is not lattice-surjective")

    @classmethod
    def standard(cls, k: int, n: int) -> "SubtorusProjection":
        """Projection onto the first k of n coordinates."""
        return cls(tuple(tuple(1 if j == i else 0 for j in range(n))
                         for i in range(k)))

    @property
    def k(self) -> int:
        return len(self.matrix)

    @property
    def n(self) -> int:
        return len(self.matrix[0])

    @cached_property
    def array(self):
        return np.array(self.matrix, dtype=float)

    @cached_property
    def _hermite_form(self):
        return _hermite(self.matrix, self.n)

    @cached_property
    def frame(self):
        """The unimodular U with A U = [I_k | 0], as floats: x = U w with w = (y, z), dx = dw.

        A V = [L | 0] with L unit lower triangular (A Z^n = Z^k), so U = V diag(L^-1, I).
        """
        H, V, _, _ = self._hermite_form
        U, L = np.array(V, dtype=float), np.array(H, dtype=float)[:, :self.k]
        U[:, :self.k] = U[:, :self.k] @ np.rint(np.linalg.inv(L))  # L^-1 is an integer matrix
        return U

    def apply(self, x):
        """The image A x of points x (..., n) as floats (..., k)."""
        return np.asarray(x, dtype=float) @ self.array.T


@dataclass(frozen=True)
class ConvexFunction:
    """Evaluator triple (value, gradient, hessian) on R^dim.

    Callables must broadcast over leading axes: value maps (..., dim) to
    (...,), gradient to (..., dim), hessian to (..., dim, dim).
    """

    dim: int
    value: Callable
    gradient: Callable
    hessian: Callable


def quadratic(Q, b=None) -> ConvexFunction:
    """phi(y) = 1/2 y^T Q y + b^T y with symmetric Q whose eigenvalues all exceed 1e-10."""
    Q = np.array(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be square")
    if not np.all(np.isfinite(Q)):
        raise ValueError("Q must be finite")
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ValueError("Q must be symmetric")
    dim = Q.shape[0]
    b = np.zeros(dim) if b is None else np.array(b, dtype=float)
    if b.shape != (dim,):
        raise ValueError("b has wrong shape")
    if not np.all(np.isfinite(b)):
        raise ValueError("b must be finite")
    low = float(np.linalg.eigvalsh(Q)[0])
    if low <= 1e-10:
        raise NotConvexError(f"phi is not strictly convex: its Hessian has eigenvalue {low:.3g}")

    def value(y):
        y = np.asarray(y, dtype=float)
        # np.dot and the product first: a 3-operand einsum (k = 2) or @ (k = 1) is 1.4-4x slower
        return 0.5 * np.einsum("...i,...i", np.dot(y, Q), y) + np.dot(y, b)

    def gradient(y):
        y = np.asarray(y, dtype=float)
        return y @ Q + b

    def hessian(y):  # Q in every row: filled, 2-3 us faster than a broadcast's copy
        out = np.empty(np.shape(y)[:-1] + Q.shape)
        out[...] = Q
        return out

    return ConvexFunction(dim=dim, value=value, gradient=gradient, hessian=hessian)


def pullback(phi: ConvexFunction, proj: SubtorusProjection) -> ConvexFunction:
    """psi = phi o proj with chain-rule gradient A^T grad and Hessian A^T H A, the latter one
    product of the flattened H with the flattened A (x) A, (k^2, n^2), over every leading axis."""
    if phi.dim != proj.k:
        raise ValueError(f"convex function dim {phi.dim} != projection rank {proj.k}")
    A = proj.array
    n, AA = proj.n, (A[:, None, :, None] * A[None, :, None, :]).reshape(proj.k ** 2, -1)

    def value(x):
        return phi.value(np.asarray(x, dtype=float) @ A.T)

    def gradient(x):
        return phi.gradient(np.asarray(x, dtype=float) @ A.T) @ A

    def hessian(x):
        H = phi.hessian(np.asarray(x, dtype=float) @ A.T)
        return (H.reshape(H.shape[:-2] + (-1,)) @ AA).reshape(H.shape[:-2] + (n, n))

    return ConvexFunction(dim=n, value=value, gradient=gradient, hessian=hessian)

