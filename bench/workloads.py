"""Fixtures and seeded op lists for the three benchmark workloads.

Every workload is a closed loop with one client: one process, one thread,
and the next op starts only after the previous one has returned.  An op is
one ``cli.run(cfg, command, opts)`` followed by ``cli.emit``.

The multiset of (fixture, command, resolution) in a pass is fixed per
workload, so the amount of work, the op-latency percentiles and the
accuracy maximum compare like with like across seeds.  The seed draws the
t ladders above their fixed first rung t = 8, the lattice point m of every
``sections-norms`` op, and the op order.  ``concentrate`` ops take their
(m, u) from a fixed panel per fixture and ``full-suite`` ops use u = x1^2:
errors against the reference are largest at the smallest t, so fixing m,
u and the first rung keeps ``conc_err_max`` a property of the program
rather than of the draw.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
FIXTURE_DIR = os.path.join(BENCH_DIR, "fixtures")

# name -> config path; interval and square2 are the repository's own configs
FIXTURES = {
    "interval": os.path.join(ROOT, "configs", "interval.json"),
    "square2": os.path.join(ROOT, "configs", "square2.json"),
    "simplex2": os.path.join(FIXTURE_DIR, "simplex2.json"),
    "hirzebruch": os.path.join(FIXTURE_DIR, "hirzebruch.json"),
    "cube2": os.path.join(FIXTURE_DIR, "cube2.json"),
    "square2_skew": os.path.join(FIXTURE_DIR, "square2_skew.json"),
    "dilated_simplex6": os.path.join(FIXTURE_DIR, "dilated_simplex6.json"),
    "dilated_simplex7": os.path.join(FIXTURE_DIR, "dilated_simplex7.json"),
    "dilated_simplex8": os.path.join(FIXTURE_DIR, "dilated_simplex8.json"),
}

T0 = 8.0  # first rung of every seeded t ladder
LADDER = 5  # rungs per ladder, as in the fixture configs
_EXP_LIMIT = 650.0  # below log(float64 max) = 709.8, with room for |sigma^m_0|


@dataclass(frozen=True)
class Op:
    fixture: str
    command: str
    resolution: int | None  # None keeps the config's resolution
    opts: dict = field(default_factory=dict)
    weight: dict | None = None  # concentrate weight u as {exponents: coeff}

    @property
    def label(self) -> str:
        res = "" if self.resolution is None else f"@{self.resolution}"
        return f"{self.command} {self.fixture}{res}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple  # (fixture, command, resolution, panel entry or None)
    pass_s: float  # nominal pass time; fixes the pass count from --seconds
    # predicted to cover over half of a traced pass: (spans counted whole,
    # layers counted by self time)
    dominant: tuple

    @property
    def fixtures(self):
        return sorted({f for f, *_ in self.ops})


def render_weight(poly: dict) -> str:
    """The CLI weight grammar for a polynomial {exponent tuple: coefficient}."""
    terms = []
    for alpha, c in poly.items():
        factors = [repr(float(c))] + [f"x{i + 1}^{a}" for i, a in enumerate(alpha) if a]
        terms.append("*".join(factors))
    return "+".join(terms)


# concentrate panels: (m or None for the CLI's default, weight polynomial)
_PANELS = {
    "cube2": (
        (None, {(2, 0, 0): 1.0, (0, 1, 1): 0.5}),
        ((1, 0, 2), {(0, 2, 0): 1.0, (1, 0, 1): 0.5}),
    ),
    "square2": (
        (None, {(2, 0): 1.0, (1, 1): 0.5}),
        ((0, 1), {(0, 2): 1.0, (1, 0): 1.0}),
    ),
    "simplex2": (
        (None, {(2, 0): 1.0, (1, 1): 0.5}),
        ((1, 0), {(0, 2): 1.0, (1, 0): 1.0}),
    ),
    "hirzebruch": (
        (None, {(2, 0): 1.0, (1, 1): 0.5}),
        ((2, 1), {(0, 2): 1.0, (1, 0): 1.0}),
    ),
    "square2_skew": (
        (None, {(2, 0): 1.0, (1, 1): 0.5}),
        ((2, 1), {(0, 2): 1.0, (1, 0): 1.0}),
    ),
}


def _conc(fixture, res):
    return tuple((fixture, "concentrate", res, i) for i in range(len(_PANELS[fixture])))


WORKLOADS = {
    "suite-small": Workload(
        name="suite-small",
        why="full-suite on five small fixtures: per-point Python loops (Newton in "
            "legendre.inverse, flow-check, decay_report) dominate; quadrature is minor",
        ops=tuple((f, "full-suite", None, None)
                  for f in ("interval", "square2", "simplex2", "hirzebruch", "cube2")
                  for _ in range(2)),
        pass_s=5.3,
        dominant=((), ("legendre", "potential", "polarization")),
    ),
    "conc-box-hires": Workload(
        name="conc-box-hires",
        why="concentrate and sections-norms on boxes at high resolution: bulk "
            "evaluation on 1e5-1e6 tensor Gauss nodes dominates; Legendre sees few points",
        ops=_conc("cube2", 96) + (("cube2", "sections-norms", 96, None),)
        + _conc("square2", 1024) + (("square2", "sections-norms", 1024, None),),
        pass_s=5.6,
        dominant=(("polytope.facet_values_array",), ("quadrature", "sections")),
    ),
    "nonbox-dense": Workload(
        name="nonbox-dense",
        why="sections-norms, weights and lattice on dilated 3-simplices (k=6..8) plus "
            "concentrate on non-box and skew inputs: O(N^2) pairings and midpoint grids dominate",
        ops=tuple((f"dilated_simplex{k}", cmd, None, None)
                  for k in (6, 7, 8) for cmd in ("sections-norms", "weights", "lattice"))
        + _conc("simplex2", 1024) + _conc("hirzebruch", 512) + _conc("square2_skew", 512),
        pass_s=8.5,
        dominant=(("sections.pairwise_orthogonality",), ("polytope", "quadrature")),
    ),
}


def t_ladder(rng) -> tuple:
    """t_0 = 8, then roughly doubling rungs with a seeded factor in [0.8, 1.25]."""
    ts = [T0 * 2.0 ** j * float(rng.uniform(0.8, 1.25)) for j in range(1, LADDER)]
    return (T0,) + tuple(round(t, 6) for t in ts)


def finite_norm_points(raw: dict, points) -> list:
    """Lattice points m whose time-t section norms stay inside float64.

    |sigma^m_t| peaks near e^(t (Am)^T Q (Am) / 2); ``sections-norms`` raises
    a QuadratureError (non-finite integrand) once that exceeds the float64
    range, e.g. at m = (8, 0, 0) on 8D3 for t >= 23.  That is a defect of
    the program, recorded in CHANGES.md; like the other inputs that crash
    today, it stays out of the timed ops.
    """
    A = np.array(raw["proj"], dtype=float)
    Q = np.array(raw["phi"]["Q"], dtype=float)
    t_max = T0 * 2.0 ** (LADDER - 1) * 1.25
    return [m for m in points
            if t_max * 0.5 * (A @ m) @ Q @ (A @ m) < _EXP_LIMIT]


def build_ops(workload: Workload, seed: int, candidates: dict) -> list:
    """The seeded op list of one pass.

    ``candidates`` maps fixture name to the lattice points that
    ``sections-norms`` ops draw their m from.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for fixture, command, res, panel in workload.ops:
        opts, weight = {}, None
        if command in ("full-suite", "concentrate", "sections-norms"):
            opts["t_list"] = t_ladder(rng)
        if command == "concentrate":
            m, weight = _PANELS[fixture][panel]
            if m is not None:
                opts["m"] = m
        elif command == "full-suite":
            # u = x1^2: with the default u = x1, R_t == R_inf by symmetry on
            # boxes, and the CLI emits a NaN slope (a defect in CHANGES.md)
            dim = len(candidates[fixture][0])
            weight = {(2,) + (0,) * (dim - 1): 1.0}
        elif command == "sections-norms":
            pts = candidates[fixture]
            opts["m"] = tuple(pts[int(rng.integers(len(pts)))])
        if weight is not None:
            opts["u"] = render_weight(weight)
        ops.append(Op(fixture, command, res, opts, weight))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# a run starts no pass it expects to end after OVERRUN * --seconds, so a
# much slower host or commit cannot stretch the run without limit
OVERRUN = 1.15


def pass_count(workload: Workload, seconds: float) -> int:
    """Passes per run: a fixed function of --seconds, at least three.

    Percentiles pooled over passes then rest on the same sample count on
    every run and every commit (unless the OVERRUN cap cuts a run short).
    """
    return max(3, int(round(seconds / workload.pass_s)))
