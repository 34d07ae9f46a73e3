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
import ast
import hashlib
import json
import operator
import re
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import legendre, polarization, potential, quadrature, sections
from .polytope import (
    DelzantPolytope,
    GridRangeError,
    PolytopeError,
    _grid_scan,
    _vertex_bounds,
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


def _check_t_list(t_list) -> tuple:
    """The times of a config or of the t_list option, as floats."""
    try:
        ts = tuple(float(t) for t in t_list)
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad_t_list", f"t_list must be a list of numbers: {exc}") from exc
    if (not ts or not all(np.isfinite(ts)) or any(t < 0 for t in ts)
            or any(b <= a for a, b in zip(ts, ts[1:]))):
        raise ConfigError("bad_t_list",
                          "t_list must be finite, nonnegative and strictly increasing")
    return ts


def _check_resolution(resolution) -> int:
    """The resolution of a config or of the resolution option."""
    if type(resolution) is not int or resolution < 8:
        raise ConfigError("bad_resolution",
                          f"resolution must be an integer of at least 8 (got {resolution!r})")
    return resolution


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
    try:  # the exact scans run in int64: scan the corners of the vertex box once
        _grid_scan(zip(*_vertex_bounds(P.vertices, P.dim)), [r for r, _ in P.facets],
                   [lam for _, lam in P.facets])
    except OverflowError as exc:
        raise ConfigError("bad_polytope", f"facet values leave int64: {exc}") from exc

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
    # phi is quadratic: one eigenvalue test of its constant Hessian
    low = float(np.linalg.eigvalsh(phi.hessian(np.zeros(phi.dim)))[0])
    if low <= 1e-10:
        raise ConfigError("not_convex",
                          f"phi is not strictly convex: its Hessian has eigenvalue {low:.3g}")

    t_list = _check_t_list(raw.get("t_list", (8, 16, 32, 64, 128)))
    resolution = _check_resolution(raw.get("resolution", 64))

    digest = hashlib.sha256(_canonical_json(raw)).hexdigest()
    return ExperimentConfig(polytope=P, proj=proj, phi=phi, t_list=t_list,
                            resolution=resolution, digest=digest, raw=raw)


# --- weight expression grammar: coordinates x1..xn, constants, + - * ^ ( ) ---

def parse_weight(expr: str, n: int):
    """Compile a weight expression to a callable on point arrays (N, n).

    The grammar is Python's with ^ for the power: + - * bind as usual, a
    unary minus binds looser than ^ (-x1^2 is -(x1^2)), and an exponent is
    a nonnegative integer literal.
    """
    if "**" in expr:
        raise ConfigError("bad_weight", "use ^ for powers in weight expressions")
    try:
        tree = ast.parse(" ".join(expr.replace("^", "**").split()), mode="eval").body
    except (SyntaxError, ValueError) as exc:  # older Pythons: ValueError on a null byte
        reason = getattr(exc, "msg", exc)
        raise ConfigError("bad_weight", f"cannot parse weight expression: {reason}") from None
    f = _compile_weight(tree, n)
    return lambda x: f(np.asarray(x, dtype=float)) * np.ones(np.asarray(x).shape[:-1])


_WEIGHT_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


def _compile_weight(node, n):
    if isinstance(node, ast.BinOp) and type(node.op) in _WEIGHT_OPS:
        op = _WEIGHT_OPS[type(node.op)]
        a, b = _compile_weight(node.left, n), _compile_weight(node.right, n)
        return lambda x: op(a(x), b(x))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        p = node.right
        if not (isinstance(p, ast.Constant) and type(p.value) is int):
            raise ConfigError("bad_weight", "exponent must be a nonnegative integer")
        a = _compile_weight(node.left, n)
        return lambda x: a(x) ** p.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        a = _compile_weight(node.operand, n)
        return lambda x: -a(x)
    if isinstance(node, ast.Name):
        i = int(node.id[1:]) - 1 if re.fullmatch(r"x\d+", node.id) else -1
        if not 0 <= i < n:
            raise ConfigError("bad_weight", f"unknown coordinate {node.id} for dim {n}")
        return lambda x: x[..., i]
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        c = float(node.value)
        return lambda x: np.full(x.shape[:-1], c)
    raise ConfigError("bad_weight", f"unsupported weight term {ast.unparse(node)!r}")


# --- command implementations -------------------------------------------------

def _default_m(cfg: ExperimentConfig):
    pts = lattice_points(cfg.polytope)
    bary = cfg.polytope.barycenter_array()
    dists = [float(np.linalg.norm(np.array(m, dtype=float) - bary)) for m in pts]
    best = min(range(len(pts)), key=lambda i: (dists[i], pts[i]))
    return pts[best]


def _cmd_validate(cfg, opts):
    # load_config has already rejected every non-Delzant polytope (not_delzant)
    delzant = bool(is_delzant(cfg.polytope))
    return {"delzant": delzant}, {}, {"delzant": delzant}


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
    times = sorted({0.0, *opts["t_list"]})
    reps = potential.validate_potential(
        potential.SymplecticPotential(P, cfg.proj, cfg.phi), pts, rays, times)
    per_t = {f"{t:g}": {"product_min": rep.product_min,
                        "product_max": rep.product_max,
                        "min_hessian_eigenvalue": rep.min_eigenvalue,
                        "positive_definite": rep.positive_definite}
             for t, rep in zip(times, reps)}
    out = {"per_t": per_t, "interior_samples": len(pts), "boundary_samples": len(rays)}
    return out, {}, {"hessian_positive_definite": all(r.positive_definite for r in reps),
                     "beta_product_positive_bounded": all(
                         r.product_min > 0 and np.isfinite(r.product_max) for r in reps)}


def _cmd_legendre_roundtrip(cfg, opts):
    P = cfg.polytope
    pts = potential.interior_samples(P, 100, seed=_SEED)
    pot = potential.SymplecticPotential(P, cfg.proj, cfg.phi)
    times = sorted({0.0, *opts["t_list"]})
    # y_t = grad g0 + t grad psi from one gradient of each; one Newton stack
    t = np.reshape(times, (-1, 1))
    errs = np.max(np.linalg.norm(
        legendre.inverse(pot, pot.gradient(pts, t), t) - pts, axis=-1), axis=-1)
    worst = float(np.max(errs))
    tol = 1e-8
    per_t = {f"{t:g}": err for t, err in zip(times, errs.tolist())}
    return ({"max_roundtrip_error": worst, "per_t": per_t},
            {"roundtrip": tol}, {"roundtrip_within_tolerance": worst < tol})


def _cmd_flow_check(cfg, opts):
    P = cfg.polytope
    pts = potential.interior_samples(P, 20, seed=_SEED)
    pot = potential.SymplecticPotential(P, cfg.proj, cfg.phi)
    res = legendre.flow_identity_residual(pot, opts["t_list"], pts)
    per_t = {f"{t:g}": float(np.max(r)) for t, r in zip(opts["t_list"], res)}
    worst = float(np.max(res))
    tol = 1e-8
    return ({"max_residual": worst, "per_t": per_t},
            {"flow_identity": tol}, {"flow_identity_within_tolerance": worst < tol})


def _cmd_polarization_limit(cfg, opts):
    P = cfg.polytope
    npoints = int(opts.get("points") or 10)
    bary = P.barycenter_array()
    # halfway-to-center mixtures: keeps the slope fit in its asymptotic window
    pts = bary + 0.5 * (potential.interior_samples(P, npoints, seed=_SEED) - bary)
    t_list = opts["t_list"]
    pot = potential.SymplecticPotential(P, cfg.proj, cfg.phi)
    rep = polarization.decay_report(pot, cfg.proj, pts, t_list)
    slopes = rep.fitted_slopes.tolist()
    iso = max(rep.isotropy_defect, polarization.isotropy_defect(rep.limit))
    kdims = set(polarization.degenerate_directions(rep.limit).tolist())
    out = {
        "t": [float(t) for t in t_list],
        "max_top_block_norm": rep.top_block_norms.max(axis=0).tolist(),
        "max_grassmann_distance": rep.distances.max(axis=0).tolist(),
        "fitted_slopes": slopes,
        "max_isotropy_defect": iso,
        "max_subframe_drift": rep.subframe_invariance,
        "limit_degenerate_dimensions": sorted(kdims),
    }
    flags = {
        "slopes_near_minus_one": all(-1.1 <= s <= -0.9 for s in slopes),
        "frames_isotropic": iso < 1e-10,
        "subframe_invariant": rep.subframe_invariance < 1e-10,
        "limit_kernel_dimension_is_k": kdims == {cfg.proj.k},
    }
    tols = {"slope_band": [-1.1, -0.9], "isotropy": 1e-10, "subframe": 1e-10}
    return out, tols, flags


def _cmd_sections_norms(cfg, opts):
    P = cfg.polytope
    m = opts.get("m") or _default_m(cfg)
    t_list = opts["t_list"]
    pts = potential.interior_samples(P, 100, seed=_SEED)
    family = potential.SymplecticPotential(P, cfg.proj, cfg.phi)
    l1s = sections.l1_norms(family, m, cfg.resolution, t_list)
    # section norms scale like e^{-t min f_m}; report the residual relative
    # to that scale so the identity check is t-uniform
    res, peaks = sections.norm_factorization_check(family, m, t_list, pts)
    rel = [float(r) / max(1.0, float(p)) for r, p in zip(res, peaks)]
    per_t = [{"t": float(t), "l1_norm": l1, "factorization_residual": r}
             for t, l1, r in zip(t_list, l1s, rel)]
    worst = max(rel)
    ms = lattice_points(P)
    # each row's difference relative to its largest norm, like the
    # factorization residual: the norms grow with the polytope
    agree = max(
        float(np.max(np.abs(row - sections.closed_form_norm_g0(P, mi, pts))))
        / max(1.0, float(np.max(row)))
        for mi, row in zip(ms, sections.norm_matrix(family, ms, pts)))
    # every pair a < b on one Gram matrix; each pair's residual is taken on
    # its Cauchy-Schwarz scale, so it does not grow with the pairings
    gram = sections.radial_gram(family, ms, quadrature.make_rule(P, 16))
    orth = sections.orthogonality_residual(gram, ms)
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
    result = quadrature.concentration_experiment(
        potential.SymplecticPotential(P, cfg.proj, cfg.phi), m, u, opts["t_list"],
        resolution=cfg.resolution)
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
            f"fewer than two errors above the "
            f"{quadrature.roundoff_floor(result.slice_value):g} roundoff floor")
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


# commands that fit a slope in log t (full-suite runs both)
_SLOPE_COMMANDS = ("concentrate", "polarization-limit", "full-suite")


def _check_options(cfg: ExperimentConfig, command: str, options: dict) -> dict:
    """Reject options that the command cannot run on, with a ConfigError.

    Returns the options with t_list set: the option as a tuple of floats,
    or the config's times.
    """
    P = cfg.polytope
    options = dict(options)
    t_list = options["t_list"] = (cfg.t_list if options.get("t_list") is None
                                  else _check_t_list(options["t_list"]))
    if command in _SLOPE_COMMANDS and (len(t_list) < 2 or min(t_list) <= 0):
        raise ConfigError("bad_slope_t_list",
                          f"{command} fits a slope in log t: it needs at least two "
                          f"times, all > 0 (got {list(t_list)})")
    if options.get("m") is not None:
        m = tuple(options["m"])
        if len(m) != P.dim or not all(isinstance(v, (int, np.integer)) for v in m):
            raise ConfigError("bad_m", f"m must be {P.dim} integers (got {list(m)})")
        if not P.contains(m):
            raise ConfigError("m_outside_polytope", f"m = {list(m)} is not a point of P")
    if options.get("points") is not None and int(options["points"]) < 1:
        raise ConfigError("bad_points", "points must be at least 1")
    return options


def run(cfg: ExperimentConfig, command: str, options: dict | None = None) -> RunReport:
    """Execute one command (or the whole suite) against a validated config."""
    if command != "full-suite" and command not in _DISPATCH:
        raise ConfigError("bad_command", f"unknown command {command!r}")
    options = _check_options(cfg, command, options or {})
    outputs, tolerances, flags, timings = {}, {}, {}, {}
    for sub in _DISPATCH if command == "full-suite" else (command,):
        t0 = time.perf_counter()
        try:
            out, tol, fl = _DISPATCH[sub](cfg, options)
        except quadrature.GridOverflowError as exc:
            # the midpoint grid scales coordinates by its resolution, and
            # the scan's int64 guard refuses it
            raise ConfigError("bad_resolution", str(exc)) from exc
        except GridRangeError as exc:  # the lattice scan of P is too large
            raise ConfigError("bad_polytope", f"lattice scan: {exc}") from exc
        except quadrature.QuadratureError as exc:  # a norm or pairing leaves float64
            raise ConfigError("out_of_range", str(exc)) from exc
        timings[sub] = time.perf_counter() - t0
        if command != "full-suite":
            return RunReport(command, cfg.digest, out, tol, fl, timings)
        outputs[sub] = out
        tolerances.update({f"{sub}.{k}": v for k, v in tol.items()})
        flags.update({f"{sub}.{k}": v for k, v in fl.items()})
    return RunReport("full-suite", cfg.digest, outputs, tolerances, flags, timings)


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


def _table(report: RunReport):
    """The header and rows of a report's table form (CSV, and the SVG series)."""
    out = report.outputs
    if report.command == "concentrate":
        return ("t", "ratio", "error"), zip(out["t"], out["ratios"], out["errors"])
    if report.command == "polarization-limit":
        slope = max(out["fitted_slopes"])
        return (("t", "top_block_norm", "grassmann_distance", "fitted_slope"),
                [(t, nrm, d, slope) for t, nrm, d in zip(
                    out["t"], out["max_top_block_norm"], out["max_grassmann_distance"])])
    if report.command == "sections-norms":
        return (("t", "l1_norm", "factorization_residual"),
                [(r["t"], r["l1_norm"], r["factorization_residual"]) for r in out["rows"]])
    if report.command == "lattice":
        return ("point",), [(" ".join(map(str, m)),) for m in out["points"]]
    if report.command == "weights":
        return (("weight", "count"),
                [(k.replace(",", " "), v) for k, v in out["multiplicities"].items()])
    raise ConfigError("bad_format", f"no CSV form for command {report.command!r}")


def _emit_csv(report: RunReport) -> bytes:
    header, rows = _table(report)
    lines = [",".join(header)] + [
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


# the axis label of the plotted series: column 2 of the table against t
_SVG_LABEL = {"concentrate": "|R_t - R_inf|", "polarization-limit": "grassmann distance"}


def _emit_svg(report: RunReport) -> bytes:
    if report.command not in _SVG_LABEL:
        raise ConfigError("bad_format", f"no plot for command {report.command!r}")
    label = _SVG_LABEL[report.command]
    rows = list(_table(report)[1])
    if not rows:
        raise ConfigError("nothing_to_plot", "nothing to plot")
    pairs = [(row[0], row[2]) for row in rows if row[0] > 0 and row[2] > 0]
    W, H, pad = 640, 420, 60
    lx = [np.log10(t) for t, _ in pairs]
    ly = [np.log10(y) for _, y in pairs]
    x0, x1 = min(lx, default=0.0), max(lx, default=0.0)
    y0, y1 = min(ly, default=0.0), max(ly, default=0.0)
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
    if not pairs:  # every value is zero: no point has a logarithm
        marks = (f'<text x="{W / 2:.0f}" y="{H / 2:.0f}" text-anchor="middle" '
                 f'font-size="13">every {label} is 0</text>')
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


def _parse_list(text: str, kind, code: str):
    try:
        return tuple(kind(v) for v in text.replace(";", ",").split(",") if v != "")
    except ValueError as exc:
        raise ConfigError(code, f"cannot parse {text!r}: {exc}") from exc


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
            cfg = replace(cfg, resolution=_check_resolution(args.resolution))
        opts = {}
        if args.t_list is not None:
            opts["t_list"] = _parse_list(args.t_list, float, "bad_t_list")
        if args.m is not None:
            opts["m"] = _parse_list(args.m, int, "bad_m")
        if args.u:
            opts["u"] = args.u
        if args.points is not None:
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
