"""Rules for the section norms on the fibers of y = A x, the concentration runs and L1 norms.

Every fold of the norm takes one scale, |sigma^m_0| / |sigma^m_0|(m) <= 1, from one kernel for
facet values affine along rows of nodes (``_log_norm_ratio``; a box axis is one row, a segment
rule one row per segment): R_t and R_infinity are ratios, and the L1 norms are logs that add the
peak back.  Every run takes its fibers from ``_fibers``, which R_t and the L1 norms share in
``shared_fibers``.  A box under an A whose rows pick coordinate axes gets a tensor Gauss-Legendre
rule kept as its per-axis factors, with the norm folded into each axis's weights (``TensorRule``),
and its fibers are contractions of those factors (``AxisFibers``: a ``Polynomial`` weight is
evaluated on no node).  Every other input takes ``segment_fibers``: in a lattice frame x = U w
with A U = [I | 0], P is cut into panels at the vertices of its slices, depth by depth, with
cosine-mapped Gauss nodes on each panel and on each leaf segment (``NodeFibers``).  Every weight
e^{-t f_m} depends on y alone, so the concentration runs and the L1 norms pay per node once and per
fiber for each t.  R_infinity, the t = infinity limit of R_t, is the slice pairing: box fibers read
it off their fiber-axis moments (``slice_pairing``), any other input off the same segment rule at
the one level y_m (``_fiber_mean``).
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from math import prod

import numpy as np

from ._intlin import exact_int
from .polarization import loglog_slope
from .polytope import NODE_BLOCK, DelzantPolytope
from .sections import ConcentrationWeight, _facet_values_at, _log_norm_g0
from .potential import SymplecticPotential
from .subtorus import SubtorusProjection

# nodes per Gauss axis: the O(n^2) Newton solve takes 0.1-0.25 s at this cap
MAX_GAUSS_NODES = 4096
# nodes per segment rule: its points and weights take 0.27 GB at this cap in n = 3
MAX_RULE_NODES = 1 << 23


class QuadratureError(RuntimeError):
    pass


class GridOverflowError(QuadratureError):
    """A Gauss axis passes MAX_GAUSS_NODES, or a segment rule MAX_RULE_NODES."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """The nodes and weights of ``segment_fibers``, kept as segments: node j of segment p is
    at base[p] + s[p, j] step.  ``points`` builds them all on first read, ``nodes(idx)`` the
    nodes idx alone."""

    base: np.ndarray  # (segments, dim)
    weights: np.ndarray  # (N,)
    s: np.ndarray  # (segments, nodes per segment)
    step: np.ndarray  # (dim,)
    kind = "segment"

    @property
    def size(self) -> int:
        return len(self.weights)

    def total_weight(self) -> float:
        return float(self.weights.sum())

    def nodes(self, idx) -> np.ndarray:
        p, j = np.divmod(idx, self.s.shape[1])
        return self.base[p] + self.s[p, j, None] * self.step

    @cached_property
    def points(self) -> np.ndarray:
        out = np.empty(self.s.shape + self.step.shape)
        for i, d in enumerate(self.step):  # a broadcast over the coordinate axis takes 8x as long
            np.add(self.base[:, i, None], self.s * d, out=out[..., i])
        return out.reshape(-1, len(self.step))


@dataclass(frozen=True)
class Polynomial:
    """A weight u(x) = sum_beta C[beta] (x - c)^beta: ``expand(c)`` gives the dense tensor C
    (an axis per coordinate), and calls evaluate u on point arrays (..., n)."""

    expand: object
    evaluate: object

    def __call__(self, x):  # constants stay scalars; a constant expression is broadcast once
        with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
            v = self.evaluate(x := np.asarray(x, dtype=float))
        return v if np.ndim(v) else np.full(x.shape[:-1], v)


@dataclass(frozen=True, eq=False)
class TensorRule:
    """A tensor Gauss rule kept as its factors, one (nodes, weights) pair per axis, which
    ``AxisFibers`` contracts: no node of the product is built."""

    resolution: int
    axes: tuple  # ((nodes, weights), ...), one pair per axis
    center: tuple = None  # where AxisFibers expands a weight: m, or the middle of the box
    kind = "gauss"

    @property
    def size(self) -> int:
        return prod(len(w) for _, w in self.axes)

    def total_weight(self) -> float:
        return float(prod(w.sum() for _, w in self.axes))


@lru_cache(maxsize=32)
def _gauss_legendre(resolution: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per resolution."""
    if resolution > MAX_GAUSS_NODES:
        raise GridOverflowError(
            f"Gauss rule at resolution {resolution}: more than {MAX_GAUSS_NODES} nodes per axis")
    nodes, weights = _legendre_newton(resolution)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _legendre_newton(n: int):
    """The roots of P_n and their Gauss weights, in O(n^2) time and O(n) memory.

    Newton on the three-term recurrence, over all nonnegative roots at once
    from Tricomi's guesses, which are then mirrored.  The weight
    2 / ((1 - x^2) P_n'(x)^2) is taken at the last evaluated iterate and
    moved to the root by its first-order term.
    """
    # Tricomi: (1 - (n-1)/(8n^3)) cos(pi (4k-1)/(4n+2)), k <= n/2, as a sine: 0 exact for odd n
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.sin(np.pi * np.arange(n - 1, -1, -2) / (2 * n + 1))
    for _ in range(10):  # at most 4 steps for every n up to MAX_GAUSS_NODES
        p, q = x, np.ones_like(x)  # P_j(x), P_{j-1}(x)
        for j in range(1, n):
            p, q = ((2 * j + 1) * x * p - j * q) / (j + 1), p
        s = (1.0 - x) * (1.0 + x)
        dp = n * (q - x * p) / s
        x = x - (dx := p / dp)
        if np.abs(dx).max() <= 1e-15:
            break
    w = 2.0 / (s * dp ** 2) * (1.0 + 2.0 * (x + dx) * dx / s)  # s, dp were taken at x + dx
    return np.concatenate((-x[:n // 2], x[::-1])), np.concatenate((w[:n // 2], w[::-1]))


def _gauss_axis(lo: float, hi: float, resolution: int):
    nodes, weights = _gauss_legendre(resolution)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def _tensor_axes(bounds, resolution):
    return tuple(_gauss_axis(float(lo), float(hi), resolution) for lo, hi in bounds)


# rows folded at once (8,192 segment nodes): 64 take 1.3-1.4 times as long, 512 0.93-0.94 times
LEVEL_BLOCK = 256


def _log_norm_ratio(c, r, s, lm):
    """log |sigma^m_0| / |sigma^m_0|(m) <= 0, (rows, q), where l_j = c_j + r_j s along each row:
    c (d, rows), r (d,), s (rows, q) ascending, lm = l_j(m) (d,); each facet's term peaks at l_j(m).
    sum_j (l_j(m) - l_j) is affine in s, a facet with r_j = 0 takes one log per row, any other with
    l_j(m) > 0 one per node, LEVEL_BLOCK rows at a time.  fl(c + r s) is monotone in s, so the check
    l_j >= -1e-12 reads each row's ends."""
    ends = c[..., None] + r[:, None, None] * s[:, ::max(s.shape[1] - 1, 1)]
    if (ends < -1e-12).any():
        raise ValueError("point outside the polytope")
    clip, on = (ends < 0).any(), lm > 0  # an l_j in (-1e-12, 0) reads 0
    flat, moving = on & (r == 0), np.flatnonzero(on & (r != 0))
    with np.errstate(divide="ignore"):  # l_j = 0 reads log 0 = -inf: a weight 0
        row = np.add.reduce(lm[:, None] - c, axis=0) + lm[flat] @ np.log(np.maximum(c[flat], 0.0))
        out = np.multiply(s, -0.5 * r.sum())
        out += 0.5 * (row - lm[on] @ np.log(lm[on]))[:, None]
        for b in range(0, len(s), LEVEL_BLOCK):
            L, blk = np.empty_like(s[b:b + LEVEL_BLOCK]), slice(b, b + LEVEL_BLOCK)
            for j in moving:
                np.add(np.multiply(r[j], s[blk], out=L), c[j, blk, None], out=L)
                np.log(np.maximum(L, 0.0, out=L) if clip else L, out=L)
                out[blk] += np.multiply(L, 0.5 * lm[j], out=L)
    return out


def _axis_norms(P: DelzantPolytope, m, axes):
    """A box's axes (nodes, weights) with |sigma^m_0| / |sigma^m_0|(m) folded in: its facets on
    axis i give a factor of x_i alone, one row of ``_log_norm_ratio`` and one exp per node."""
    R, lam, lm = P.normal_matrix, P.offset_vector, _facet_values_at(P, m)
    return tuple((s, w * np.exp(_log_norm_ratio(lam[on, None], R[on, i], s[None], lm[on])[0]))
                 for i, ((s, w), on) in enumerate(zip(axes, R.T != 0)))


def box_rule(P: DelzantPolytope, resolution: int, m=None) -> TensorRule:
    """Tensor Gauss-Legendre rule, exact for polynomial degree < 2*resolution; given m, the rule
    for |sigma^m_0| / |sigma^m_0|(m) dx, with the norm folded in axis by axis (``_axis_norms``)."""
    if resolution < 8:
        raise QuadratureError("resolution must be at least 8")
    axes = _tensor_axes(P.box_bounds, resolution)
    axes = axes if m is None else _axis_norms(P, m, axes)
    return TensorRule(resolution, axes, [s.mean() for s, _ in axes] if m is None else m)


def make_rule(domain: DelzantPolytope, resolution: int, m=None):
    """Tensor Gauss for boxes, else the segment rule under y = x_1 (``segment_fibers``); given
    m, the rule for |sigma^m_0| / |sigma^m_0|(m) dx, both folded by ``_log_norm_ratio``."""
    if domain.is_box:
        return box_rule(domain, resolution, m)
    return segment_fibers(domain, SubtorusProjection.standard(1, domain.dim), resolution, m).rule


class Pushforward:
    """The measure of a rule pushed forward to the image of y = A x, fiber by fiber.

    ``sums(h)`` gives the fiber sums of the weights and of w * h, shape (1 + rows,
    fibers), h = None for the weight sums alone: ``NodeFibers`` takes h mapping at most
    NODE_BLOCK nodes (B, n) to (B,) or (rows, B) values, ``AxisFibers`` a ``Polynomial``.
    ``at_fibers(g)`` gives a fiber-constant g at each fiber's first node (``_nodes``).
    """

    def at_fibers(self, g) -> np.ndarray:
        out = np.empty(self.fiber_count)
        for s in range(0, len(out), NODE_BLOCK):
            x = self._nodes(s, min(s + NODE_BLOCK, len(out)))
            out[s:s + NODE_BLOCK] = _finite(np.asarray(g(x), dtype=float), x)
        return out

    def masses(self, h, f, times):
        """sum_r e^{-t (f_r - min f)} F_r, shape (len(times), 1 + rows), and min f.

        F are the fiber sums of the weights and of the node-wise h (sums) and
        f_r is the fiber-constant f at fiber r: h is summed once, and each t
        costs one exp per fiber."""
        F, fr = self.sums(h), self.at_fibers(f)
        fmin = fr.min()
        fr -= fmin
        out, w = np.empty((len(times), len(F))), np.empty_like(fr)
        with np.errstate(over="ignore"):  # a t f_r past float64 weighs e^-inf = 0
            for i, t in enumerate(times):
                np.exp(np.multiply(fr, -t, out=w), out=w)
                out[i] = [w @ row for row in F]
        return out, float(fmin)


@dataclass(frozen=True)
class NodeFibers(Pushforward):
    """The nodes of a rule grouped into fibers, runs of consecutive nodes
    (``segment_fibers``; k = n gives singleton fibers)."""

    rule: QuadratureRule
    starts: np.ndarray  # (fibers,): the index of each fiber's first node

    def sums(self, h) -> np.ndarray:
        rule, starts = self.rule, self.starts
        for s in range(0, rule.size, NODE_BLOCK):
            w = rule.weights[s:s + NODE_BLOCK]  # the nodes only for an h
            vals = np.empty((0, len(w))) if h is None else _finite(
                np.atleast_2d(np.asarray(h(x := rule.points[s:s + NODE_BLOCK]), dtype=float)), x)
            if s == 0:
                out = np.zeros((1 + len(vals), len(starts)))
            # the fiber holding node s, then every fiber that starts in the block
            f0 = np.searchsorted(starts, s, side="right") - 1
            f1 = np.searchsorted(starts, s + len(w))
            cuts = np.maximum(starts[f0:f1] - s, 0)
            out[0, f0:f1] += np.add.reduceat(w, cuts)
            out[1:, f0:f1] += np.add.reduceat(vals * w, cuts, axis=1)
        return out

    @property
    def fiber_count(self) -> int:
        return len(self.starts)

    def _nodes(self, r0, r1):
        return self.rule.nodes(self.starts[r0:r1])


class AxisFibers(Pushforward):
    """The fibers of a tensor rule under an A (proj) whose rows pick the image axes.

    Every fiber is the product grid Z of the other axes, and the fibers
    are the image grid in "ij" order.  With (s_i, w_i) the norm-folded axis
    rules, w_y the image-axis weights at y and u = sum_beta C_beta (x - c)^beta
    about the rule's center c (m, where R_t concentrates), F_u(y) = w_y sum_beta
    C_beta (y - c)^beta_image prod_{i in Z} w_i . (s_i - c_i)^beta_i: a moment per
    fiber axis and exponent, a matrix product per image axis, and no node
    array.  F_1 is the beta = 0 case of the same contraction.  ``moments`` is
    the fiber step alone: its entries at image exponent 0 are the slice sums
    behind R_infinity (``slice_pairing``).
    """

    def __init__(self, rule: TensorRule, proj: SubtorusProjection):
        axes, image = rule.axes, tuple(int(np.flatnonzero(r)[0]) for r in proj.array)
        self.rule, self.image = rule, image
        self.fiber = tuple(i for i in range(len(axes)) if i not in image)
        self.wy, self._kept = _outer([axes[i][1] for i in image]), None
        self.fiber_count = len(self.wy)

    def _nodes(self, r0, r1):
        """The first nodes of the fibers r0:r1: an (r1 - r0, n) view of contiguous columns."""
        axes, idx = self.rule.axes, np.arange(r0, r1)
        x = np.empty((len(axes), r1 - r0))
        for i in reversed(self.image):  # the image grid in "ij" order
            idx, j = np.divmod(idx, len(axes[i][0]))
            x[i] = axes[i][0][j]
        for i in self.fiber:
            x[i] = axes[i][0][0]
        return x.T

    def moments(self, u) -> list:
        """The fiber step of ``sums``, kept for the last u: the coefficients of 1 and of u (None:
        1 alone), every fiber exponent contracted, one array over the image exponents each."""
        if self._kept is not None and self._kept[0] is u:
            return self._kept[1]
        axes, c, out = self.rule.axes, self.rule.center, []
        with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
            for C in [np.ones([1] * len(axes))] + ([u.expand(c)] if u else []):
                C = C.transpose(self.image + self.fiber)
                for i in reversed(self.fiber):  # a moment per exponent of the last axis
                    s, w = axes[i]
                    C = C @ (w * np.vander(s - c[i], C.shape[-1], increasing=True).T).sum(1)
                out.append(C)
        self._kept = u, out
        return out

    def sums(self, u) -> np.ndarray:
        axes, c, out = self.rule.axes, self.rule.center, []
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            for C in self.moments(u):
                for i, q in zip(self.image, C.shape):  # axis i's grid replaces its exponents
                    C = (np.vander(axes[i][0] - c[i], q, increasing=True) @ C.reshape(q, -1)).T
                out.append(C.reshape(-1) * self.wy)
        out = np.array(out)
        if not np.isfinite(out).all():  # name the first node of the first non-finite fiber
            r = int(np.argmin(np.all(np.isfinite(out), axis=0)))
            _finite(out[:, r], self._nodes(r, r + 1))
        return out


def _outer(ws):
    """The flat outer product (w_1 w_2) w_3 ... of the vectors ws in "ij" order
    (a single 1 for none)."""
    return reduce(lambda out, w: np.multiply.outer(out, w).reshape(-1), ws, np.ones(1))


def _finite(vals, x):
    """vals, after checking that every value at the nodes x is finite."""
    bad = ~np.isfinite(vals)
    if np.any(bad):
        where = x[np.argmax(bad.reshape(-1, len(x)).any(axis=0))]
        raise QuadratureError(f"non-finite integrand value at {tuple(where.tolist())}")
    return vals


# nodes per segment fiber: R_t and R_inf move by < 1e-14 from 32 to 128 on the shipped polygons
FIBER_NODES = 32
# nodes per fiber panel past which R_infinity and the fibers of R_t are not refined
MAX_SLICE_NODES = 1024


@lru_cache(maxsize=32)
def _cosine_rule(n: int):
    """n Gauss-Legendre nodes on [0, 1] under s = sin^2(theta / 2), 0 < theta < pi, with their
    weights: the map makes the half-integer powers of s and 1 - s at the ends analytic."""
    xi, w = _gauss_legendre(n)
    half = 0.25 * np.pi * (xi + 1.0)
    return np.sin(half) ** 2, 0.5 * np.pi * np.sin(half) * np.cos(half) * w


@lru_cache(maxsize=32)
def _slice_solves(P: DelzantPolytope, proj: SubtorusProjection):
    """R U, the facet normals in the frame x = U w, and per depth i < n - 1 the (n - i)-subsets J
    of the facets with B_J = (R U)_{J, i:} invertible, with the integer adj B_J and det B_J."""
    RU, solves = P.normal_matrix @ proj.frame, []
    for i in range(P.dim - 1):
        J = np.array(list(combinations(range(len(RU)), P.dim - i)))
        det = np.rint(np.linalg.det(B := RU[J][:, :, i:]))
        ok = det != 0
        solves.append((J[ok], np.rint(np.linalg.inv(B[ok]) * det[ok, None, None]), det[ok]))
    return RU, solves


def _slice_cuts(RU, solve, i, c, tol):
    """The w_i of each prefix's slice vertices, sorted, (subsets, prefixes) with NaN last.

    A subset's point w_{i:} = -adj B_J c_J / det B_J: exact on integer facet values c.  At
    the last depth the slice is the segment [max lower end, min upper end]."""
    if i == RU.shape[1] - 1:
        r = RU[:, i]
        lo, hi = (-c[r > 0] / r[r > 0, None]).max(0), (-c[r < 0] / r[r < 0, None]).min(0)
        return np.where(hi - lo >= -tol, np.array([lo, hi]), np.nan)
    (J, adj, det), = solve
    w = -np.einsum("sab,sbn->san", adj, c[J]) / det[:, None, None]
    inside = (c + np.einsum("da,san->sdn", RU[:, i:], w) >= -tol).all(axis=1)
    return np.sort(np.where(inside, w[:, 0], np.nan), axis=0)


def _panel_nodes(lo, hi, rule, split):
    """A cosine rule on each panel [lo, hi] (P, nodes): a panel with split strictly inside
    takes len(rule) // 2 nodes below it and the rest above."""
    (s, w), width = rule, hi - lo
    S, W = lo[:, None] + np.multiply.outer(width, s), np.multiply.outer(width, w)
    cut = (lo < split) & (split < hi) if split is not None else np.zeros(len(lo), dtype=bool)
    if cut.any():
        a, mid = len(s) // 2, np.full(np.count_nonzero(cut), split)
        for part, l, h in ((slice(None, a), lo[cut], mid), (slice(a, None), mid, hi[cut])):
            S[cut, part], W[cut, part] = _panel_nodes(l, h, _cosine_rule(len(s[part])), None)
    return S, W


def segment_fibers(P: DelzantPolytope, proj: SubtorusProjection, resolution: int | None,
                   m=None, nodes: int | None = None) -> NodeFibers:
    """The fibers of y = A x under dx, or under |sigma^m_0| / |sigma^m_0|(m) dx given m, as
    runs of segments; resolution None gives the one fiber through m alone (R_infinity).

    In the frame x = U w of ``SubtorusProjection.frame`` (w = (y, z), dx = dw) the rule
    recurses over w_0 .. w_{n-1}, cutting each slice of P into panels at the w_i of its
    vertices (``_slice_cuts``).  Image depths (i < k) put resolution cosine-mapped levels on
    each panel, cut at (y_m)_i, or take y_m itself; fiber depths put nodes (FIBER_NODES) on
    each.  A depth where every slice is a point (a face of P) is that point with weight 1.
    Facet values are carried down as c; on a leaf segment l_j = c_j + (R U)_{j, n-1} s,
    from which ``_log_norm_ratio`` folds the norm in, one row per segment.  A fiber is a run
    of segments with one image prefix.
    """
    n, k, U = P.dim, proj.k, proj.frame
    RU, solves = _slice_solves(P, proj)
    # slices narrower than this are points: a cosine node on a narrower panel can round
    # onto its end, where interior-only evaluators refuse it
    tol = 1e-9 * (1.0 + np.abs(P.offset_vector).max())
    ym, at_m = None if m is None else proj.apply(np.asarray(m, dtype=float)), resolution is None
    if not at_m and resolution < 8:
        raise QuadratureError("resolution must be at least 8")
    rules = (None if at_m else _cosine_rule(resolution), _cosine_rule(nodes or FIBER_NODES))
    per = [1 if at_m and i < k else len(rules[i >= k][0]) for i in range(n)]
    X, c, wt, img = np.zeros((1, n)), P.offset_vector[:, None], np.ones(1), np.zeros(1, int)
    for i in range(n):
        cand = None if at_m and i < k else _slice_cuts(RU, solves[i:i + 1], i, c, tol)
        if cand is None:  # the level y_m itself
            owner, S, W = np.arange(len(wt)), np.full((len(wt), 1), ym[i]), wt[:, None]
        elif not np.any(cand[1:] - cand[:-1] > tol):  # every slice is a point, of weight 1
            owner = np.flatnonzero(np.isfinite(cand[0]))
            S, W = cand[0, owner, None], wt[owner, None]
        else:
            lo, hi = cand[:-1].T.reshape(-1), cand[1:].T.reshape(-1)
            keep = np.flatnonzero(hi - lo > tol)
            owner, lo, hi = keep // (len(cand) - 1), lo[keep], hi[keep]
            if len(owner) * prod(per[i:]) > MAX_RULE_NODES:  # before any node array
                raise GridOverflowError(
                    f"fiber rule at resolution {resolution}: more than {MAX_RULE_NODES} nodes")
            S, W = _panel_nodes(lo, hi, rules[i >= k], None if ym is None or i >= k else ym[i])
            W *= wt[owner, None]
        if i < n - 1:
            s, c = S.reshape(-1), np.repeat(c[:, owner], S.shape[1], axis=1)
            X = np.repeat(X[owner], S.shape[1], axis=0) + np.multiply.outer(s, U[:, i])
            c, wt = c + np.multiply.outer(RU[:, i], s), W.reshape(-1)
            img = np.arange(len(wt)) if i < k else np.repeat(img[owner], S.shape[1])
    if m is not None:
        lw = _log_norm_ratio(c[:, owner], RU[:, -1], S, _facet_values_at(P, m))
        W *= np.exp(lw, out=lw)
    # each node its own fiber when k = n, else the segments of each image prefix
    img = img[owner]
    starts = np.arange(S.size) if k == n else S.shape[1] * np.flatnonzero(
        np.r_[True, img[1:] != img[:-1]])
    return NodeFibers(QuadratureRule(X[owner], W.reshape(-1), S, U[:, -1]), starts)


# the fibers that ``_fibers`` built inside ``shared_fibers`` and no second read has taken yet
_SHARED = ContextVar("_SHARED")


@contextmanager
def shared_fibers():
    """Within the block, the first ``_fibers`` read of each (P, A, resolution, m) keeps its fibers
    for the second (R_t after the L1 norms), which takes them out: the memo then holds none."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _fibers(P: DelzantPolytope, proj: SubtorusProjection, resolution: int, m) -> Pushforward:
    """The fibers of y = A x under |sigma^m_0| / |sigma^m_0|(m) dx: the contracted box rule
    when every row of A picks a coordinate axis of a box, else ``segment_fibers``."""
    shared, key = _SHARED.get({}), (P, proj, resolution, tuple(m))  # outside: a throwaway
    push = shared.pop(key, None)
    if push is None:
        push = shared[key] = (AxisFibers(box_rule(P, resolution, m), proj)
                              if P.is_box and np.all(np.count_nonzero(proj.array, axis=1) == 1)
                              else segment_fibers(P, proj, resolution, m))
    return push


def slice_pairing(push: AxisFibers, P: DelzantPolytope, proj: SubtorusProjection, m, u,
                  resolution: int) -> float:
    """R_infinity, the mean of u against |sigma^m_0| on the box fiber through m: push, the box
    fibers of R_t, read it off the fiber-axis moments that R_t contracted, at image exponent 0
    (a resolution-node rule's when theirs has fewer nodes).  The rule's center is m, so every
    term with an image exponent vanishes at y_m = A m, and the image weights are constant on
    the slice and cancel.  Segment fibers take ``_fiber_mean``; both end in ``_pairing``."""
    if push.rule.resolution < resolution:
        push = AxisFibers(box_rule(P, resolution, m), proj)
    den, num = (M.flat[0] for M in push.moments(u))
    return _pairing(den, num, m)


def _fiber_mean(P: DelzantPolytope, proj: SubtorusProjection, m, u):
    """R_infinity on the segment fiber through m, and the nodes per fiber panel that resolve
    it: FIBER_NODES, doubled until the means on nodes and 2 nodes agree to ``roundoff_floor``
    (the finer one is returned; a wide fiber's peak needs more) or reach MAX_SLICE_NODES."""
    def mean(nodes):
        return _pairing(*segment_fibers(P, proj, None, m, nodes).sums(u)[:, 0], m)
    nodes, rinf = FIBER_NODES, mean(FIBER_NODES)
    while nodes < MAX_SLICE_NODES:
        finer = mean(2 * nodes)
        if abs(finer - rinf) <= roundoff_floor(finer):
            return finer, nodes
        nodes, rinf = 2 * nodes, finer
    return rinf, nodes


def _pairing(den, num, m) -> float:
    with np.errstate(all="ignore"):  # reported just below
        rinf = num / den
    if not (den > 0 and np.isfinite(rinf)):
        raise QuadratureError(f"non-finite or vanishing slice pairing at m = {m}")
    return float(rinf)


# errors at or below this, relative to max(1, |R_infinity|), are quadrature
# roundoff: they carry no decay rate
ROUNDOFF_FLOOR = 1e-13


def roundoff_floor(slice_value: float) -> float:
    """The error floor of a concentration fit whose limit is slice_value."""
    return ROUNDOFF_FLOOR * max(1.0, abs(slice_value))


@dataclass(frozen=True)
class ConcentrationResult:
    t_values: tuple
    ratios: tuple  # R_t = weighted pairing at each t
    slice_value: float  # R_infinity from the slice pairing
    errors: tuple  # |R_t - R_infinity|
    # least-squares slope of log error vs log t over the errors above
    # roundoff_floor(slice_value); None when fewer than two errors clear it
    decay_exponent: float | None


def _ratios(push: Pushforward, u, fm, t_list) -> list:
    """R_t for each t from the fiber sums of w and of w * u."""
    ratios = []
    for t, (den, num) in zip(t_list, push.masses(u, fm, t_list)[0]):
        if not den > 0:  # the folded weights keep every mass finite
            raise QuadratureError(f"degenerate concentration mass at t={t}")
        ratios.append(float(num) / float(den))
    return ratios


def concentration_experiment(pot: SymplecticPotential, m, u, t_list,
                             resolution: int = 256) -> ConcentrationResult:
    """R_t = int e^{-t f_m} |sigma^m_0| u dx / int e^{-t f_m} |sigma^m_0| dx.

    pot is the potential family; f_m comes from its psi; u is a ``Polynomial``;
    m is a lattice point (a coordinate that is not an integer raises ValueError).
    Uses the factorization of the time-t norm through the t=0 norm; the rule integrates
    against |sigma^m_0| / |sigma^m_0|(m) dx (the scale cancels in R_t) and f_m depends on
    y = A x alone, so both integrals are sums over fibers r of e^{-t f_m(y_r)} times the
    fiber sums of the weights and of u.  The minimum of f_m is subtracted before
    exponentiating so the weights stay finite for large t.  The errors compare against
    R_infinity (``slice_pairing``); when the segment fiber through m needs more than
    FIBER_NODES per panel (``_fiber_mean``), R_t is taken again with as many.
    """
    if not isinstance(u, Polynomial):
        raise TypeError("u must be a Polynomial that expands about a point (cli.parse_weight)")
    t_list = [float(t) for t in t_list]
    if any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise ValueError("t_list must be strictly increasing")
    P, proj = pot.polytope, pot.proj
    m = tuple(map(exact_int, m))
    fm = ConcentrationWeight(m, pot.perturbation)
    u = Polynomial(lru_cache(maxsize=1)(u.expand), u.evaluate)  # one expansion: R_t and R_inf
    # the norm is in the weights: the fiber sums are of w and of w * u
    push = _fibers(P, proj, resolution, m)
    ratios = _ratios(push, u, fm, t_list)
    if isinstance(push, AxisFibers):
        rinf = slice_pairing(push, P, proj, m, u, max(resolution, 64))
    else:
        # segment fibers hold every node of the rule: they go before the slice rules are built
        push = None
        rinf, nodes = _fiber_mean(P, proj, m, u)
        if nodes > FIBER_NODES:  # a wide fiber: R_t again, with as many nodes per fiber panel
            ratios = _ratios(segment_fibers(P, proj, resolution, m, nodes), u, fm, t_list)
    errors = [abs(r - rinf) for r in ratios]
    floor = roundoff_floor(rinf)
    above = [(t, e) for t, e in zip(t_list, errors) if e > floor]
    slope = None
    if len(above) >= 2:
        slope = float(loglog_slope([t for t, _ in above], [e for _, e in above]))
    return ConcentrationResult(t_values=tuple(t_list), ratios=tuple(ratios),
                               slice_value=rinf, errors=tuple(errors),
                               decay_exponent=slope)


def l1_norms(pot: SymplecticPotential, m, resolution: int, times) -> list:
    """log ||sigma^m_t||_1, the log of the L1 norm over P of sigma^m under g_t, for each t.

    Through the factorization |sigma^m_t| = e^{-t f_m} |sigma^m_0|: the rule at resolution
    (``_fibers``) integrates against |sigma^m_0| / |sigma^m_0|(m) dx, its weights are summed
    over each fiber once, and each t costs one exponential per fiber.  The log of a mass takes
    log |sigma^m_0|(m) - t min f_m back; a vanishing mass has no log: QuadratureError.
    """
    push = _fibers(pot.polytope, pot.proj, resolution, m)
    masses, fmin = push.masses(None, ConcentrationWeight(m, pot.perturbation), times)
    lm, norms = _facet_values_at(pot.polytope, m), []
    peak = _log_norm_g0(lm[:, None], lm)[0]  # log |sigma^m_0|(m), which the folds divide out
    for t, (mass,) in zip(map(float, times), masses):
        if not mass > 0:
            raise QuadratureError(f"vanishing fiber mass of sigma^{tuple(m)} at t={t:g}")
        norms.append(float(np.log(mass) + peak - t * fmin))
    return norms
