"""Independent reference values for the benchmark's correctness oracle.

Nothing here calls toric_quant.  Lattice counts and volumes come from closed
forms or exact rational arithmetic on the raw facet data, and the
concentration ratios R_t and R_inf come from scipy's adaptive quadrature
(on non-box inputs, around fiber integrals done by a tanh-sinh rule).
The concentration weight uses the closed form

    f_m(x) - min f_m = 1/2 (Ax - Am)^T Q (Ax - Am)

of f_m(x) = <x - m, grad psi(x)> - psi(x) for psi(x) = 1/2 (Ax)^T Q (Ax) + b.Ax,
and the t = 0 section norm is prod_j l_j(x)^(l_j(m)/2) e^((l_j(m) - l_j(x))/2).
"""
from __future__ import annotations

import math
import warnings
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import numpy as np
from scipy import integrate

_QUAD = dict(epsabs=0.0, epsrel=1e-11, limit=400)
_OUTER_EPSREL = 1e-9

# tanh-sinh nodes on [0, 1] for the fiber integrals of the planar reference:
# the t = 0 norm has square-root factors at the fiber ends, which the
# double-exponential rule integrates to ~1e-14 with these 225 nodes
_TS_TAU = np.arange(-112, 113) / 32.0
_TS_ARG = 0.5 * math.pi * np.sinh(_TS_TAU)
_TS_LO = 1.0 / (1.0 + np.exp(-2.0 * _TS_ARG))  # node; 1 - node is _TS_LO[::-1]
_TS_W = (0.25 * math.pi / 32.0) * np.cosh(_TS_TAU) / np.cosh(_TS_ARG) ** 2


class Geometry:
    """Facet data, projection and quadratic phi read from a raw config dict."""

    def __init__(self, raw: dict):
        poly = raw["polytope"]
        self.dim = int(poly["dim"])
        self.normals = [tuple(int(v) for v in f["normal"]) for f in poly["facets"]]
        self.offsets = [int(f["offset"]) for f in poly["facets"]]
        self.R = np.array(self.normals, dtype=float)
        self.lam = np.array(self.offsets, dtype=float)
        proj = raw.get("proj") or [[int(i == j) for j in range(self.dim)]
                                   for i in range(self.dim)]
        self.A = np.array(proj, dtype=float)
        self.Q = np.array(raw["phi"]["Q"], dtype=float) if "phi" in raw \
            else np.eye(len(proj))
        self.vertices = self._vertices()

    def _vertices(self):
        verts = set()
        for sub in combinations(range(len(self.normals)), self.dim):
            M = [[Fraction(c) for c in self.normals[j]] for j in sub]
            rhs = [Fraction(-self.offsets[j]) for j in sub]
            x = _solve(M, rhs)
            if x is not None and all(
                    sum(a * b for a, b in zip(r, x)) + lam >= 0
                    for r, lam in zip(self.normals, self.offsets)):
                verts.add(x)
        return sorted(verts)

    def box_bounds(self):
        """Per-axis (lo, hi) when every normal is a signed unit vector, else None."""
        lo, hi = [None] * self.dim, [None] * self.dim
        for r, lam in zip(self.normals, self.offsets):
            nz = [(i, v) for i, v in enumerate(r) if v]
            if len(nz) != 1 or abs(nz[0][1]) != 1:
                return None
            i, s = nz[0]
            if s > 0:
                lo[i] = -lam
            else:
                hi[i] = lam
        if None in lo or None in hi:
            return None
        return list(zip(lo, hi))

    def lattice_points(self):
        """P ∩ Z^n by an integer scan of the bounding box, sorted."""
        lo = [int(np.ceil(min(v[i] for v in self.vertices))) for i in range(self.dim)]
        hi = [int(np.floor(max(v[i] for v in self.vertices))) for i in range(self.dim)]
        grid = np.stack(np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(lo, hi)],
                                    indexing="ij"), axis=-1).reshape(-1, self.dim)
        R = np.array(self.normals, dtype=np.int64)
        inside = np.all(grid @ R.T + np.array(self.offsets, dtype=np.int64) >= 0, axis=1)
        return [tuple(int(c) for c in p) for p in grid[inside]]

    def lattice_count(self) -> int:
        """Closed-form |P ∩ Z^n| for boxes and dilated standard simplices.

        Other polygons are counted row by row: for each integer x1 the
        integer x2 in the (exact rational) vertical fiber.
        """
        box = self.box_bounds()
        if box is not None:
            return int(np.prod([hi - lo + 1 for lo, hi in box]))
        k = self._dilated_simplex()
        if k is not None:
            return comb(k + self.dim, self.dim)
        if self.dim != 2:
            raise ValueError("no lattice-count formula for this polytope")
        x1s = [v[0] for v in self.vertices]
        total = 0
        for x1 in range(int(np.ceil(min(x1s))), int(np.floor(max(x1s))) + 1):
            lo, hi = self._fiber_limits(Fraction(x1))
            total += max(0, int(np.floor(hi)) - int(np.ceil(lo)) + 1)
        return total

    def volume(self) -> Fraction:
        """Exact Euclidean volume (box, dilated simplex, or polygon by shoelace)."""
        box = self.box_bounds()
        if box is not None:
            return Fraction(int(np.prod([hi - lo for lo, hi in box])))
        k = self._dilated_simplex()
        if k is not None:
            return Fraction(k ** self.dim, factorial(self.dim))
        if self.dim != 2:
            raise ValueError("no volume formula for this polytope")
        c = np.mean(np.array(self.vertices, dtype=float), axis=0)
        ring = sorted(self.vertices,
                      key=lambda v: np.arctan2(float(v[1]) - c[1], float(v[0]) - c[0]))
        area = sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(ring, ring[1:] + ring[:1]))
        return abs(Fraction(area)) / 2

    def _dilated_simplex(self):
        n = self.dim
        units = {tuple(int(i == j) for j in range(n)) for i in range(n)}
        if len(self.normals) != n + 1:
            return None
        rest = [(r, lam) for r, lam in zip(self.normals, self.offsets) if r not in units]
        if len(rest) != 1 or rest[0][0] != (-1,) * n:
            return None
        if any(lam != 0 for r, lam in zip(self.normals, self.offsets) if r in units):
            return None
        return rest[0][1]

    def _fiber_limits(self, x1):
        """[lo, hi] of x2 over the vertical line at x1 (2-d polytopes)."""
        lo, hi = -np.inf, np.inf
        for (r1, r2), lam in zip(self.normals, self.offsets):
            if r2 > 0:
                lo = max(lo, (-lam - r1 * x1) / r2)
            elif r2 < 0:
                hi = min(hi, (lam + r1 * x1) / -r2)
        return lo, hi


def _solve(M, rhs):
    n = len(M)
    aug = [row[:] + [b] for row, b in zip(M, rhs)]
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return tuple(row[n] for row in aug)


def eval_poly(poly, x):
    """u(x) for a polynomial given as {exponent tuple: coefficient}."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for alpha, c in poly.items():
        out = out + c * np.prod(x ** np.array(alpha, dtype=float), axis=-1)
    return out


def concentration_reference(geo: Geometry, m, poly, t_list):
    """Reference (R_t for each t, R_inf) for the weight polynomial ``poly``."""
    with warnings.catch_warnings():
        # QUADPACK flags roundoff once it is below the tolerance asked for
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return _reference(geo, m, poly, t_list)


def _reference(geo, m, poly, t_list):
    if geo.box_bounds() is not None and _is_standard(geo) \
            and np.allclose(geo.Q, np.diag(np.diag(geo.Q))):
        return _box_reference(geo, m, poly, t_list)
    if geo.dim == 2 and len(geo.A) == 1:
        return _planar_reference(geo, m, poly, t_list)
    raise ValueError("no reference integrator for this configuration")


def _is_standard(geo):
    k = len(geo.A)
    return np.array_equal(geo.A, np.eye(geo.dim)[:k])


def _box_reference(geo, m, poly, t_list):
    """Box, coordinate projection, diagonal Q: every integral factorizes."""
    box = geo.box_bounds()
    k = len(geo.A)
    m = [float(v) for v in m]

    def axis_integral(i, power, t):
        lo, hi = box[i]
        a, b = m[i] - lo, hi - m[i]
        q = geo.Q[i, i] if i < k else 0.0

        def f(x):
            return (x - lo) ** (a / 2) * (hi - x) ** (b / 2) \
                * np.exp(-0.5 * t * q * (x - m[i]) ** 2) * x ** power

        pts = [m[i]] if lo < m[i] < hi and q > 0 else None
        return integrate.quad(f, lo, hi, points=pts, **_QUAD)[0]

    def ratio(t):
        num = 0.0
        for alpha, c in poly.items():
            num += c * np.prod([axis_integral(i, alpha[i], t) / axis_integral(i, 0, t)
                                for i in range(geo.dim)])
        return num

    rts = [ratio(t) for t in t_list]
    rinf = 0.0
    for alpha, c in poly.items():
        term = np.prod([m[i] ** alpha[i] for i in range(k)])
        for i in range(k, geo.dim):
            term *= axis_integral(i, alpha[i], 0.0) / axis_integral(i, 0, 0.0)
        rinf += c * term
    return rts, float(rinf)


def _planar_reference(geo, m, poly, t_list):
    """2-d polytope, rank-1 projection: integrate over fibers, then the image.

    With y = Ax and s along ker A, R_t = int w_t(y) G_u(y) dy / int w_t(y) G_1(y) dy
    where G_u(y) is the fiber integral of the t = 0 norm times u; R_inf is
    G_u(Am) / G_1(Am).  The change of variables has a constant Jacobian,
    which cancels in every ratio.
    """
    a = geo.A[0]
    d = np.array([-a[1], a[0]])
    base = a / float(a @ a)
    mm = np.asarray(m, dtype=float)
    ym = float(a @ mm)
    lm = geo.R @ mm + geo.lam
    facets = [(float(r @ base), float(r @ d), float(lam), float(e))
              for r, lam, e in zip(geo.R, geo.lam, lm)]
    terms = [(c, alpha) for alpha, c in poly.items()]

    def fiber(y):
        lo, hi = -math.inf, math.inf
        for rb, rd, lam, _ in facets:
            val = rb * y + lam
            if rd > 0:
                lo = max(lo, -val / rd)
            elif rd < 0:
                hi = min(hi, val / -rd)
        return lo, hi

    def pushforward(y):
        lo, hi = fiber(y)
        if hi <= lo:
            return np.zeros(2)
        s = lo + (hi - lo) * _TS_LO
        norm, expo = np.ones_like(s), np.zeros_like(s)
        for rb, rd, lam, e in facets:
            L = np.maximum(rb * y + rd * s + lam, 0.0)
            norm *= L ** (e / 2)
            expo += e - L
        norm *= np.exp(0.5 * expo) * (hi - lo) * _TS_W
        x1 = base[0] * y + d[0] * s
        x2 = base[1] * y + d[1] * s
        u = sum(c * x1 ** p1 * x2 ** p2 for c, (p1, p2) in terms)
        return np.array([norm.sum(), (norm * u).sum()])

    ys = [float(a @ np.array(v, dtype=float)) for v in geo.vertices]
    ylo, yhi = min(ys), max(ys)
    q = float(geo.Q[0, 0])
    t_arr = np.asarray(t_list, dtype=float)

    def outer(y):
        w = np.exp(-0.5 * t_arr * q * (y - ym) ** 2)
        return np.outer(w, pushforward(y)).ravel()

    pts = [ym] if ylo < ym < yhi else None
    vals = integrate.quad_vec(outer, ylo, yhi, epsabs=0.0, epsrel=_OUTER_EPSREL,
                              points=pts, limit=2000)[0].reshape(-1, 2)
    rts = [float(gu / g1) for g1, gu in vals]
    g1, gu = pushforward(ym)
    rinf = float(gu / g1) if g1 > 0 else float(eval_poly(poly, mm))
    return rts, rinf
