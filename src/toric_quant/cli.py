"""Configuration loading, experiment orchestration, and result emission.

Command grammar:

    toric-quant <command> <config.json> [--t list] [--m ints] [--u expr]
                [--resolution N] [--points N] [--out path]
                [--format json|csv|svg]

with commands validate, lattice, weights, potential-validate,
legendre-roundtrip, flow-check, polarization-limit, sections-norms,
concentrate, full-suite.  Reports are deterministic for a fixed config and
resolution: JSON is emitted with sorted keys and wall-clock timings are kept
out of the serialized payload.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import legendre, polarization, potential, quadrature, sections
from .polytope import (
    DelzantPolytope,
    PolytopeError,
    is_delzant,
    lattice_points,
    weight_multiplicities,
)
from .subtorus import (
    ConvexFunction,
    ProjectionError,
    SubtorusProjection,
    default_convex,
    quadratic,
    strict_convexity_check,
)

_SEED = 0
_COMMANDS = (
    "validate", "lattice", "weights", "potential-validate",
    "legendre-roundtrip", "flow-check", "polarization-limit",
    "sections-norms", "concentrate", "full-suite",
)


class ConfigError(ValueError):
    def __init__(self, code: str, message: str, details=None):
        self.code = code
        self.details = details or {}
        super().__init__(message)


@dataclass(frozen=True)
class ExperimentConfig:
    polytope: DelzantPolytope
    proj: SubtorusProjection
    phi: ConvexFunction
    t_list: tuple
    resolution: int
    digest: str
    raw: dict = field(repr=False)


@dataclass
class RunReport:
    command: str
    digest: str
    outputs: dict
    tolerances: dict
    flags: dict
    timings: dict

    @property
    def passed(self) -> bool:
        return all(self.flags.values())


def _to_native(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_to_native).encode()


def _image_box(P: DelzantPolytope, proj: SubtorusProjection):
    imgs = np.array([proj.apply(v.as_array()) for v in P.vertices])
    return imgs.min(axis=0), imgs.max(axis=0)


def load_config(path: str) -> ExperimentConfig:
    """Parse and fully validate an experiment configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("io_error", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("parse_error", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "polytope" not in raw:
        raise ConfigError("parse_error", "config must be an object with a 'polytope' entry")

    pdata = raw["polytope"]
    try:
        facets = tuple((tuple(f["normal"]), f["offset"]) for f in pdata["facets"])
        P = DelzantPolytope(dim=int(pdata["dim"]), facets=facets)
        P.vertices  # forces boundedness/interior validation
    except (KeyError, TypeError) as exc:
        raise ConfigError("parse_error", f"malformed polytope entry: {exc}") from exc
    except PolytopeError as exc:
        raise ConfigError("bad_polytope", str(exc)) from exc

    cert = is_delzant(P)
    if not cert:
        raise ConfigError(
            "not_delzant", f"polytope is not Delzant: {cert.reason}",
            details={"vertex": [str(c) for c in cert.vertex],
                     "determinant": cert.determinant})

    try:
        proj = SubtorusProjection(tuple(tuple(r) for r in raw.get(
            "proj", SubtorusProjection.standard(P.dim, P.dim).matrix)))
    except ProjectionError as exc:
        raise ConfigError("bad_projection", str(exc)) from exc
    if proj.n != P.dim:
        raise ConfigError("dimension_mismatch",
                          f"projection width {proj.n} != polytope dimension {P.dim}")

    phidata = raw.get("phi")
    if phidata is None:
        phi = default_convex(proj.k)
    else:
        if phidata.get("type") != "quadratic":
            raise ConfigError("bad_phi", "only the quadratic convex family is configurable")
        try:
            phi = quadratic(phidata["Q"], phidata.get("b"))
        except (KeyError, ValueError) as exc:
            raise ConfigError("bad_phi", f"invalid quadratic data: {exc}") from exc
    if phi.dim != proj.k:
        raise ConfigError("dimension_mismatch",
                          f"phi dimension {phi.dim} != projection rank {proj.k}")
    lo, hi = _image_box(P, proj)
    conv = strict_convexity_check(phi, lo, hi, samples=17)
    if not conv:
        raise ConfigError("not_convex",
                          f"phi is not strictly convex near {conv.witness}")

    t_list = tuple(float(t) for t in raw.get("t_list", (8, 16, 32, 64, 128)))
    if any(t < 0 for t in t_list) or any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise ConfigError("bad_t_list", "t_list must be nonnegative and increasing")
    resolution = int(raw.get("resolution", 64))
    if resolution < 8:
        raise ConfigError("bad_resolution", "resolution must be at least 8")

    digest = hashlib.sha256(_canonical_json(raw)).hexdigest()
    return ExperimentConfig(polytope=P, proj=proj, phi=phi, t_list=t_list,
                            resolution=resolution, digest=digest, raw=raw)


# --- weight expression grammar: coordinates x1..xn, constants, + - * ^ ( ) ---

def parse_weight(expr: str, n: int):
    """Compile a weight expression to a callable on point arrays (N, n)."""
    tokens = _tokenize(expr)
    tree, rest = _parse_sum(tokens, n)
    if rest:
        raise ConfigError("bad_weight", f"trailing tokens in weight expression: {rest}")
    return lambda x: tree(np.asarray(x, dtype=float)) * np.ones(np.asarray(x).shape[:-1])


def _tokenize(expr: str):
    out, i = [], 0
    while i < len(expr):
        c = expr[i]
        if c.isspace():
            i += 1
        elif c in "+-*^()":
            out.append(c)
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            while j < len(expr) and (expr[j].isdigit() or expr[j] == "."):
                j += 1
            out.append(expr[i:j])
            i = j
        elif c == "x":
            j = i + 1
            while j < len(expr) and expr[j].isdigit():
                j += 1
            if j == i + 1:
                raise ConfigError("bad_weight", f"bare 'x' at position {i}")
            out.append(expr[i:j])
            i = j
        else:
            raise ConfigError("bad_weight", f"unexpected character {c!r} in weight expression")
    return out


def _parse_sum(tokens, n):
    left, tokens = _parse_product(tokens, n)
    while tokens and tokens[0] in "+-":
        op, tokens = tokens[0], tokens[1:]
        right, tokens = _parse_product(tokens, n)
        left = (lambda a, b: (lambda x: a(x) + b(x)))(left, right) if op == "+" \
            else (lambda a, b: (lambda x: a(x) - b(x)))(left, right)
    return left, tokens


def _parse_product(tokens, n):
    left, tokens = _parse_power(tokens, n)
    while tokens and tokens[0] == "*":
        right, tokens = _parse_power(tokens[1:], n)
        left = (lambda a, b: (lambda x: a(x) * b(x)))(left, right)
    return left, tokens


def _parse_power(tokens, n):
    base, tokens = _parse_atom(tokens, n)
    if tokens and tokens[0] == "^":
        if len(tokens) < 2 or not tokens[1].isdigit():
            raise ConfigError("bad_weight", "exponent must be a nonnegative integer")
        p = int(tokens[1])
        return (lambda a: (lambda x: a(x) ** p))(base), tokens[2:]
    return base, tokens


def _parse_atom(tokens, n):
    if not tokens:
        raise ConfigError("bad_weight", "unexpected end of weight expression")
    tok = tokens[0]
    if tok == "(":
        inner, rest = _parse_sum(tokens[1:], n)
        if not rest or rest[0] != ")":
            raise ConfigError("bad_weight", "unbalanced parentheses")
        return inner, rest[1:]
    if tok == "-":
        inner, rest = _parse_atom(tokens[1:], n)
        return (lambda a: (lambda x: -a(x)))(inner), rest
    if tok.startswith("x"):
        i = int(tok[1:]) - 1
        if not 0 <= i < n:
            raise ConfigError("bad_weight", f"coordinate {tok} out of range for dim {n}")
        return (lambda i: (lambda x: x[..., i]))(i), tokens[1:]
    try:
        c = float(tok)
    except ValueError:
        raise ConfigError("bad_weight", f"bad token {tok!r}") from None
    return (lambda c: (lambda x: np.full(x.shape[:-1], c)))(c), tokens[1:]


# --- command implementations -------------------------------------------------

def _default_m(cfg: ExperimentConfig):
    pts = lattice_points(cfg.polytope)
    bary = cfg.polytope.barycenter_array()
    dists = [float(np.linalg.norm(np.array(m, dtype=float) - bary)) for m in pts]
    best = min(range(len(pts)), key=lambda i: (dists[i], pts[i]))
    return pts[best]


def _cmd_validate(cfg, opts):
    cert = is_delzant(cfg.polytope)
    out = {"delzant": bool(cert)}
    if not cert:
        out["certificate"] = {"vertex": [str(c) for c in cert.vertex],
                              "determinant": cert.determinant,
                              "reason": cert.reason}
    return out, {}, {"delzant": bool(cert)}


def _cmd_lattice(cfg, opts):
    pts = lattice_points(cfg.polytope)
    return {"count": len(pts), "points": [list(m) for m in pts]}, {}, {}


def _cmd_weights(cfg, opts):
    mult = weight_multiplicities(cfg.polytope, cfg.proj)
    total = sum(mult.values())
    count = len(lattice_points(cfg.polytope))
    out = {"multiplicities": {",".join(map(str, k)): v for k, v in mult.items()},
           "total": total, "lattice_count": count}
    return out, {}, {"weights_sum_to_count": total == count}


def _cmd_potential_validate(cfg, opts):
    P = cfg.polytope
    pts = potential.interior_samples(P, 200, seed=_SEED)
    rays = potential.boundary_approach_samples(P)
    per_t = {}
    ok_pd, ok_range = True, True
    for t in (0.0,) + tuple(cfg.t_list):
        if t == 0.0:
            pot = potential.SymplecticPotential.canonical(P)
        else:
            pot = potential.SymplecticPotential.perturbed(P, cfg.proj, cfg.phi, t)
        rep = potential.validate_potential(pot, pts, rays)
        per_t[f"{t:g}"] = {"product_min": rep.product_min,
                           "product_max": rep.product_max,
                           "min_hessian_eigenvalue": rep.min_eigenvalue,
                           "positive_definite": rep.positive_definite}
        ok_pd &= rep.positive_definite
        ok_range &= rep.product_min > 0 and np.isfinite(rep.product_max)
    out = {"per_t": per_t, "interior_samples": len(pts), "boundary_samples": len(rays)}
    return out, {}, {"hessian_positive_definite": ok_pd,
                     "beta_product_positive_bounded": ok_range}


def _cmd_legendre_roundtrip(cfg, opts):
    P = cfg.polytope
    rng = np.random.default_rng(_SEED)
    V = np.array([v.as_array() for v in P.vertices])
    pts = rng.dirichlet(np.ones(len(V)), size=100) @ V
    worst = 0.0
    per_t = {}
    for t in (0.0,) + tuple(cfg.t_list):
        pot = (potential.SymplecticPotential.canonical(P) if t == 0.0 else
               potential.SymplecticPotential.perturbed(P, cfg.proj, cfg.phi, t))
        pair = legendre.LegendrePair(pot)
        err = max(float(np.linalg.norm(
            legendre.inverse(pair, legendre.forward(pair, x)) - x)) for x in pts)
        per_t[f"{t:g}"] = err
        worst = max(worst, err)
    tol = 1e-8
    return ({"max_roundtrip_error": worst, "per_t": per_t},
            {"roundtrip": tol}, {"roundtrip_within_tolerance": worst < tol})


def _cmd_flow_check(cfg, opts):
    P = cfg.polytope
    rng = np.random.default_rng(_SEED)
    V = np.array([v.as_array() for v in P.vertices])
    pts = rng.dirichlet(np.ones(len(V)), size=20) @ V
    pot0 = potential.SymplecticPotential.perturbed(P, cfg.proj, cfg.phi, 0.0)
    pair0 = legendre.LegendrePair(pot0)
    t_list = opts.get("t_list") or cfg.t_list
    per_t = {}
    worst = 0.0
    for t in t_list:
        pair_t = legendre.LegendrePair(pot0.at_time(t))
        res = max(legendre.flow_identity_residual(pair0, pair_t, x) for x in pts)
        per_t[f"{t:g}"] = res
        worst = max(worst, res)
    tol = 1e-8
    return ({"max_residual": worst, "per_t": per_t},
            {"flow_identity": tol}, {"flow_identity_within_tolerance": worst < tol})


def _cmd_polarization_limit(cfg, opts):
    P = cfg.polytope
    npoints = int(opts.get("points") or 10)
    rng = np.random.default_rng(_SEED)
    V = np.array([v.as_array() for v in P.vertices])
    bary = P.barycenter_array()
    # halfway-to-center mixtures: keeps the slope fit in its asymptotic window
    pts = bary + 0.5 * (rng.dirichlet(np.ones(len(V)), size=npoints) @ V - bary)
    t_list = opts.get("t_list") or cfg.t_list
    pot = potential.SymplecticPotential.perturbed(P, cfg.proj, cfg.phi, 0.0)
    slopes, iso, sub, kdims = [], 0.0, 0.0, set()
    per_t_norm = np.zeros(len(t_list))
    per_t_dist = np.zeros(len(t_list))
    for x in pts:
        rep = polarization.decay_report(pot, cfg.proj, x, t_list)
        slopes.append(rep.fitted_slope)
        sub = max(sub, rep.subframe_invariance)
        per_t_norm = np.maximum(per_t_norm, rep.top_block_norms)
        per_t_dist = np.maximum(per_t_dist, rep.distances)
        for t in t_list:
            fr = polarization.polarization_frame(pot.at_time(t), cfg.proj, x)
            iso = max(iso, polarization.isotropy_defect(fr))
        lim = polarization.limit_frame(cfg.proj, pot, x)
        iso = max(iso, polarization.isotropy_defect(lim))
        kdims.add(polarization.degenerate_directions(lim))
    out = {
        "t": [float(t) for t in t_list],
        "max_top_block_norm": per_t_norm.tolist(),
        "max_grassmann_distance": per_t_dist.tolist(),
        "fitted_slopes": slopes,
        "max_isotropy_defect": iso,
        "max_subframe_drift": sub,
        "limit_degenerate_dimensions": sorted(kdims),
    }
    flags = {
        "slopes_near_minus_one": all(-1.1 <= s <= -0.9 for s in slopes),
        "frames_isotropic": iso < 1e-10,
        "subframe_invariant": sub < 1e-10,
        "limit_kernel_dimension_is_k": kdims == {cfg.proj.k},
    }
    tols = {"slope_band": [-1.1, -0.9], "isotropy": 1e-10, "subframe": 1e-10}
    return out, tols, flags


def _cmd_sections_norms(cfg, opts):
    P = cfg.polytope
    m = opts.get("m") or _default_m(cfg)
    t_list = opts.get("t_list") or cfg.t_list
    rng = np.random.default_rng(_SEED)
    V = np.array([v.as_array() for v in P.vertices])
    pts = rng.dirichlet(np.ones(len(V)), size=100) @ V
    rule = quadrature.make_rule(P, cfg.resolution)
    per_t = []
    worst = 0.0
    family = potential.SymplecticPotential.perturbed(P, cfg.proj, cfg.phi, 0.0)
    for t, l1 in zip(t_list, sections.l1_norms(family, m, rule, t_list)):
        sec = sections.MonomialSection(m, family.at_time(t))
        res = sections.norm_factorization_check(P, cfg.proj, cfg.phi, m, t, pts)
        # section norms scale like e^{-t min f_m}; report the residual
        # relative to that scale so the identity check is t-uniform
        scale = max(1.0, float(np.max(sections.pointwise_norm(sec, pts))))
        per_t.append({"t": float(t), "l1_norm": l1,
                      "factorization_residual": res / scale})
        worst = max(worst, res / scale)
    pot0 = potential.SymplecticPotential.canonical(P)
    basis = sections.monomial_basis(pot0)
    ms = np.array([b.m for b in basis])
    agree = max(
        float(np.max(np.abs(row - sections.closed_form_norm_g0(P, b.m, pts))))
        for b, row in zip(basis, sections.norm_matrix(pot0, ms, pts)))
    # every pair a < b on one Gram matrix; each pair's residual is taken on
    # its Cauchy-Schwarz scale, so it does not grow with the pairings
    gram = sections.radial_gram(basis, quadrature.make_rule(P, 16))
    ia, ib = np.triu_indices(len(basis), 1)
    diffs, inverse = np.unique(ms[ia] - ms[ib], axis=0, return_inverse=True)
    torus = np.array([sections.torus_average(dm, max(4, int(np.max(np.abs(dm))) + 1))
                      for dm in diffs])
    orth = float(np.max(sections.relative_orthogonality(
        gram, ia, ib, torus[inverse.ravel()]), initial=0.0))
    out = {"m": list(m), "rows": per_t, "max_factorization_residual": worst,
           "closed_form_agreement": agree, "orthogonality_residual": orth}
    tols = {"factorization": 1e-10, "closed_form": 1e-10, "orthogonality": 1e-12}
    flags = {"factorization_within_tolerance": worst < 1e-10,
             "closed_form_agrees": agree < 1e-10,
             "weights_orthogonal": orth < 1e-12}
    return out, tols, flags


def _cmd_concentrate(cfg, opts):
    P = cfg.polytope
    m = opts.get("m") or _default_m(cfg)
    expr = opts.get("u") or "x1"
    u = parse_weight(expr, P.dim)
    t_list = opts.get("t_list") or cfg.t_list
    result = quadrature.concentration_experiment(
        P, cfg.proj, cfg.phi, m, u, t_list, resolution=cfg.resolution)
    floor = 1e-5
    err0, err1 = result.errors[0], result.errors[-1]
    converged = err1 < floor or err1 <= 0.75 * err0
    out = {
        "m": list(m), "u": expr,
        "t": [float(t) for t in result.t_values],
        "ratios": list(result.ratios),
        "slice_value": result.slice_value,
        "errors": list(result.errors),
        "decay_exponent": result.decay_exponent,
    }
    if result.decay_exponent is None:
        out["decay_exponent_reason"] = (
            f"fewer than two errors above the {quadrature.ROUNDOFF_FLOOR:g} roundoff floor")
    return out, {"convergence_floor": floor}, {"errors_decay_or_converged": bool(converged)}


_DISPATCH = {
    "validate": _cmd_validate,
    "lattice": _cmd_lattice,
    "weights": _cmd_weights,
    "potential-validate": _cmd_potential_validate,
    "legendre-roundtrip": _cmd_legendre_roundtrip,
    "flow-check": _cmd_flow_check,
    "polarization-limit": _cmd_polarization_limit,
    "sections-norms": _cmd_sections_norms,
    "concentrate": _cmd_concentrate,
}


def run(cfg: ExperimentConfig, command: str, options: dict | None = None) -> RunReport:
    """Execute one command (or the whole suite) against a validated config."""
    options = options or {}
    if command == "full-suite":
        outputs, tolerances, flags, timings = {}, {}, {}, {}
        for sub in _DISPATCH:
            t0 = time.perf_counter()
            out, tol, fl = _DISPATCH[sub](cfg, options)
            timings[sub] = time.perf_counter() - t0
            outputs[sub] = out
            tolerances.update({f"{sub}.{k}": v for k, v in tol.items()})
            flags.update({f"{sub}.{k}": v for k, v in fl.items()})
        return RunReport("full-suite", cfg.digest, outputs, tolerances, flags, timings)
    if command not in _DISPATCH:
        raise ConfigError("bad_command", f"unknown command {command!r}")
    t0 = time.perf_counter()
    out, tol, fl = _DISPATCH[command](cfg, options)
    dt = time.perf_counter() - t0
    return RunReport(command, cfg.digest, out, tol, fl, {command: dt})


def emit(report: RunReport, fmt: str = "json") -> bytes:
    """Serialize a report; timings are excluded so output is byte-stable."""
    if fmt == "json":
        payload = {"command": report.command, "digest": report.digest,
                   "outputs": report.outputs, "tolerances": report.tolerances,
                   "flags": report.flags, "passed": report.passed}
        return _canonical_json(payload) + b"\n"
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "svg":
        return _emit_svg(report)
    raise ConfigError("bad_format", f"unknown format {fmt!r}")


def _emit_csv(report: RunReport) -> bytes:
    out = report.outputs
    lines = []
    if report.command == "concentrate":
        lines.append("t,ratio,error")
        for t, r, e in zip(out["t"], out["ratios"], out["errors"]):
            lines.append(f"{t!r},{r!r},{e!r}")
    elif report.command == "polarization-limit":
        lines.append("t,top_block_norm,grassmann_distance,fitted_slope")
        slope = max(out["fitted_slopes"])
        for t, nrm, d in zip(out["t"], out["max_top_block_norm"],
                             out["max_grassmann_distance"]):
            lines.append(f"{t!r},{nrm!r},{d!r},{slope!r}")
    elif report.command == "sections-norms":
        lines.append("t,l1_norm,factorization_residual")
        for row in out["rows"]:
            lines.append(f"{row['t']!r},{row['l1_norm']!r},{row['factorization_residual']!r}")
    elif report.command == "lattice":
        lines.append("point")
        for m in out["points"]:
            lines.append(" ".join(map(str, m)))
    elif report.command == "weights":
        lines.append("weight,count")
        for k, v in out["multiplicities"].items():
            lines.append(f"{k.replace(',', ' ')},{v}")
    else:
        raise ConfigError("bad_format", f"no CSV form for command {report.command!r}")
    return ("\n".join(lines) + "\n").encode()


def _svg_series(report: RunReport):
    out = report.outputs
    if report.command == "concentrate":
        return out["t"], out["errors"], "|R_t - R_inf|"
    if report.command == "polarization-limit":
        return out["t"], out["max_grassmann_distance"], "grassmann distance"
    raise ConfigError("bad_format", f"no plot for command {report.command!r}")


def _emit_svg(report: RunReport) -> bytes:
    ts, ys, label = _svg_series(report)
    pairs = [(t, y) for t, y in zip(ts, ys) if t > 0 and y > 0]
    if not pairs:
        raise ConfigError("nothing_to_plot", "nothing to plot")
    W, H, pad = 640, 420, 60
    lx = [np.log10(t) for t, _ in pairs]
    ly = [np.log10(y) for _, y in pairs]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0

    def sx(v):
        return pad + (v - x0) / xr * (W - 2 * pad)

    def sy(v):
        return H - pad - (v - y0) / yr * (H - 2 * pad)

    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
    marks = "".join(
        f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3" fill="#1f4e79"/>'
        for a, b in zip(lx, ly))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">'
        f'<rect width="{W}" height="{H}" fill="white"/>'
        f'<line x1="{pad}" y1="{H - pad}" x2="{W - pad}" y2="{H - pad}" stroke="black"/>'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H - pad}" stroke="black"/>'
        f'<polyline points="{pts}" fill="none" stroke="#1f4e79" stroke-width="1.5"/>'
        f"{marks}"
        f'<text x="{W / 2:.0f}" y="{H - pad / 3:.0f}" text-anchor="middle" '
        f'font-size="13">log10 t</text>'
        f'<text x="{pad / 3:.0f}" y="{H / 2:.0f}" font-size="13" '
        f'transform="rotate(-90 {pad / 3:.0f} {H / 2:.0f})" '
        f'text-anchor="middle">log10 {label}</text>'
        f'<text x="{W / 2:.0f}" y="{pad / 2:.0f}" text-anchor="middle" '
        f'font-size="14">{report.command} ({report.digest[:12]})</text>'
        f"</svg>"
    )
    return svg.encode()


def _parse_int_list(text: str):
    return tuple(int(v) for v in text.replace(";", ",").split(",") if v != "")


def _parse_float_list(text: str):
    return tuple(float(v) for v in text.replace(";", ",").split(",") if v != "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="toric-quant",
        description="Desk-scale toric quantization experiments")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("config", help="path to a JSON experiment config")
    parser.add_argument("--t", dest="t_list", default=None,
                        help="comma-separated list of times")
    parser.add_argument("--m", dest="m", default=None,
                        help="comma-separated lattice point")
    parser.add_argument("--u", dest="u", default=None,
                        help="weight expression over x1..xn (+, -, *, ^)")
    parser.add_argument("--resolution", type=int, default=None)
    parser.add_argument("--points", type=int, default=None,
                        help="sample points for polarization-limit")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", dest="fmt", default="json",
                        choices=("json", "csv", "svg"))
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.resolution is not None:
            if args.resolution < 8:
                raise ConfigError("bad_resolution", "resolution must be at least 8")
            cfg = ExperimentConfig(cfg.polytope, cfg.proj, cfg.phi, cfg.t_list,
                                   args.resolution, cfg.digest, cfg.raw)
        opts = {}
        if args.t_list:
            opts["t_list"] = _parse_float_list(args.t_list)
        if args.m:
            opts["m"] = _parse_int_list(args.m)
        if args.u:
            opts["u"] = args.u
        if args.points:
            opts["points"] = args.points
        report = run(cfg, args.command, opts)
        blob = emit(report, args.fmt)
    except ConfigError as exc:
        err = {"error": {"code": exc.code, "message": str(exc), **(
            {"details": exc.details} if exc.details else {})}}
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return 2
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
