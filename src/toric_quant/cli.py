"""Configuration loading, experiment orchestration, and result emission.

Command grammar:

    toric-quant <command> <config.json> [--t list] [--m ints] [--u expr]
                [--resolution N] [--points N] [--out path]
                [--format json|csv]

with commands validate, lattice, weights, potential-validate,
legendre-roundtrip, flow-check, polarization-limit, sections-norms,
concentrate, full-suite.  Reports are deterministic for a fixed config and
resolution: JSON is emitted with sorted keys, and a number with no JSON form
(inf or nan) exits 2 with out_of_range instead of printing Infinity or NaN.
"""
from __future__ import annotations

import argparse
import ast
import gc
import hashlib
import json
import operator
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from math import prod

import numpy as np

from . import legendre, polarization, potential, quadrature, sections
from .polytope import (
    DelzantPolytope,
    GridRangeError,
    PolytopeError,
    is_delzant,
    lattice_points,
    weight_multiplicities,
)
from .subtorus import (
    ConvexFunction,
    NotConvexError,
    ProjectionError,
    SubtorusProjection,
    quadratic,
)

_SEED = 0


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


class _RunInputs:
    """What the commands of one run share, each made on first use: the potential family,
    and the weights of the interior samples, whose smaller draws are its first rows."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg, self._weights = cfg, None

    @cached_property
    def family(self) -> potential.SymplecticPotential:
        return potential.SymplecticPotential(self.cfg.polytope, self.cfg.proj, self.cfg.phi)

    def samples(self, count: int) -> np.ndarray:
        """interior_samples(P, count, seed=_SEED), its weights the first rows of one draw."""
        if self._weights is None or len(self._weights) < count:
            self._weights = potential.mixture_weights(self.cfg.polytope, count, _SEED)
        return potential.interior_samples(self.cfg.polytope, count, weights=self._weights)


@dataclass
class RunReport:
    command: str
    digest: str
    outputs: dict
    tolerances: dict
    flags: dict

    @property
    def passed(self) -> bool:
        return all(self.flags.values())


def _to_native(obj):
    if isinstance(obj, (np.bool_, np.number, np.ndarray)):  # as Python scalars and lists
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _canonical_json(obj) -> bytes:
    # the cyclic collector would walk every row list that _to_native makes, none in a cycle
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                          default=_to_native).encode()
    except ValueError as exc:  # inf or nan: JSON has no token for them
        raise ConfigError("out_of_range", f"non-finite value has no JSON form: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def _check_t_list(t_list) -> tuple:
    """The times of a config or of the t_list option, as floats, each with its own per_t key."""
    try:
        ts = tuple(float(t) for t in t_list)
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad_t_list", f"t_list must be a list of numbers: {exc}") from exc
    if (not ts or not all(np.isfinite(ts)) or any(t < 0 for t in ts)
            or any(b <= a for a, b in zip(ts, ts[1:]))):
        raise ConfigError("bad_t_list",
                          "t_list must be finite, nonnegative and strictly increasing")
    for a, b in zip(ts, ts[1:]):  # the per_t keys: equal ones are neighbours in sorted order
        if f"{a:g}" == f"{b:g}":
            raise ConfigError("bad_t_list", f"times {a!r} and {b!r} share the report key {a:g}")
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
        P = DelzantPolytope(dim=pdata["dim"], facets=facets)
        P.vertices  # forces boundedness, interior and int64 range validation
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
        proj = SubtorusProjection(raw.get("proj", SubtorusProjection.standard(P.dim, P.dim).matrix))
    except ProjectionError as exc:
        raise ConfigError("bad_projection", str(exc)) from exc
    if proj.n != P.dim:
        raise ConfigError("dimension_mismatch",
                          f"projection width {proj.n} != polytope dimension {P.dim}")

    spec = raw.get("phi")
    if spec is not None and (not isinstance(spec, dict) or spec.get("type") != "quadratic"):
        raise ConfigError("bad_phi", "only the quadratic convex family is configurable")
    try:
        phi = quadratic(np.eye(proj.k)) if spec is None else quadratic(spec["Q"], spec.get("b"))
    except NotConvexError as exc:
        raise ConfigError("not_convex", str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("bad_phi", f"invalid quadratic data: {exc}") from exc
    if phi.dim != proj.k:
        raise ConfigError("dimension_mismatch",
                          f"phi dimension {phi.dim} != projection rank {proj.k}")

    t_list = _check_t_list(raw.get("t_list", (8, 16, 32, 64, 128)))
    resolution = _check_resolution(raw.get("resolution", 64))

    digest = hashlib.sha256(_canonical_json(raw)).hexdigest()
    return ExperimentConfig(polytope=P, proj=proj, phi=phi, t_list=t_list,
                            resolution=resolution, digest=digest, raw=raw)


# --- weight expression grammar: coordinates x1..xn, constants, + - * ^ ( ) ---

def parse_weight(expr: str, n: int) -> quadrature.Polynomial:
    """Compile a weight expression to a ``Polynomial`` on point arrays (N, n).

    The grammar is Python's with ^ for the power: + - * bind as usual, a
    unary minus binds looser than ^ (-x1^2 is -(x1^2)), and an exponent is a
    nonnegative integer literal.  One walk builds the evaluator and the
    expansion about any point; its multiply-adds may not exceed _EXPANSION_WORK.
    """
    if not isinstance(expr, str):
        raise ConfigError("bad_weight", f"a weight is an expression string (got {expr!r})")
    if "**" in expr:
        raise ConfigError("bad_weight", "use ^ for powers in weight expressions")
    try:
        tree = ast.parse(" ".join(expr.replace("^", "**").split()), mode="eval").body
    except (SyntaxError, ValueError) as exc:  # older Pythons: ValueError on a null byte
        reason = getattr(exc, "msg", exc)
        raise ConfigError("bad_weight", f"cannot parse weight expression: {reason}") from None
    f, expand, _ = _compile_weight(tree, n, work := [_EXPANSION_WORK])
    if work[0] < 0:
        raise ConfigError("bad_weight", f"weight expands past {_EXPANSION_WORK} multiply-adds")
    return quadrature.Polynomial(expand, f)


_WEIGHT_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}

# the multiply-adds (sizes a and b multiply in a b) an expansion may take, and so the
# largest coefficient tensor: (x1+x2+x3)^40 takes 5,379,200
_EXPANSION_WORK = 8_000_000


def _combine(op, a, b):
    """a op b for polynomials as dense coefficient tensors (b an int for a power)."""
    if op is operator.pow:  # b products, or one power of a constant
        return a ** b if a.size == 1 else reduce(
            lambda acc, _: _combine(operator.mul, acc, a), range(b), np.ones((1,) * a.ndim))
    if op is not operator.mul:  # both padded with zeros to the larger shape
        out = np.zeros((2,) + tuple(map(max, a.shape, b.shape)))
        out[(0,) + tuple(map(slice, a.shape))], out[(1,) + tuple(map(slice, b.shape))] = a, b
        return op(out[0], out[1])
    if min(a.size, b.size) == 1:
        return a * b
    a, b = sorted((a, b), key=np.count_nonzero)
    out = np.zeros(np.add(a.shape, b.shape) - 1)
    for idx in zip(*np.nonzero(a)):  # one slice per nonzero of the sparser factor
        out[tuple(slice(i, i + k) for i, k in zip(idx, b.shape))] += a[idx] * b
    return out


def _compile_weight(node, n, work):
    """(evaluator, expander, shape) of a weight AST node: expander(c) gives the
    coefficient tensor of that shape in x - c; its multiply-adds are taken from work[0]."""
    if isinstance(node, ast.BinOp) and type(node.op) in _WEIGHT_OPS:
        op, mul = _WEIGHT_OPS[type(node.op)], isinstance(node.op, ast.Mult)
        (a, ea, sa), (b, eb, sb) = (_compile_weight(v, n, work) for v in (node.left, node.right))
        work[0] -= prod(sa) * prod(sb) if mul else 0
        return ((lambda x: op(a(x), b(x))), (lambda c: _combine(op, ea(c), eb(c))),
                tuple(map(lambda i, j: i + j - 1 if mul else max(i, j), sa, sb)))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        if not (isinstance(node.right, ast.Constant) and type(node.right.value) is int):
            raise ConfigError("bad_weight", "exponent must be a nonnegative integer")
        p, (a, ea, sa) = node.right.value, _compile_weight(node.left, n, work)
        for k in range(p * (prod(sa) > 1)):  # k factors times one more, until the work runs out
            work[0] -= prod(sa) * prod(k * (s - 1) + 1 for s in sa)
            if work[0] < 0:
                break
        return ((lambda x: a(x) ** p), (lambda c: _combine(operator.pow, ea(c), p)),
                tuple(p * (s - 1) + 1 for s in sa))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        a, ea, sa = _compile_weight(node.operand, n, work)
        return (lambda x: -a(x)), (lambda c: -ea(c)), sa
    if isinstance(node, ast.Name):
        i = int(node.id[1:]) - 1 if re.fullmatch(r"x\d+", node.id) else -1
        if not 0 <= i < n:
            raise ConfigError("bad_weight", f"unknown coordinate {node.id} for dim {n}")
        shape = tuple(2 if j == i else 1 for j in range(n))  # x_i = c_i + (x_i - c_i)
        return (lambda x: x[..., i]), (lambda c: np.array([c[i], 1.0]).reshape(shape)), shape
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        c = np.float64(node.value)
        return (lambda x: c), (lambda _: np.full((1,) * n, c)), (1,) * n
    raise ConfigError("bad_weight", f"unsupported weight term {ast.unparse(node)!r}")


# --- command implementations -------------------------------------------------

def _cmd_validate(cfg, opts, shared):
    # load_config has already rejected every non-Delzant polytope (not_delzant)
    return {"delzant": True}, {}, {}


def _cmd_lattice(cfg, opts, shared):
    pts = lattice_points(cfg.polytope)
    return {"count": len(pts), "points": pts}, {}, {}


def _cmd_weights(cfg, opts, shared):
    mult = weight_multiplicities(cfg.polytope, cfg.proj)
    total = sum(mult.values())  # every lattice point has one image
    out = {"multiplicities": {",".join(map(str, k)): v for k, v in mult.items()},
           "total": total, "lattice_count": total}
    return out, {}, {}


def _cmd_potential_validate(cfg, opts, shared):
    pts = shared.samples(200)
    rays = potential.boundary_approach_samples(cfg.polytope)
    times = sorted({0.0, *opts["t_list"]})
    reps = potential.validate_potential(shared.family, pts, rays, times)
    per_t = {f"{t:g}": {"product_min": rep.product_min,
                        "product_max": rep.product_max,
                        "min_hessian_eigenvalue": rep.min_eigenvalue,
                        "positive_definite": rep.positive_definite}
             for t, rep in zip(times, reps)}
    out = {"per_t": per_t, "interior_samples": len(pts), "boundary_samples": len(rays)}
    return out, {}, {"hessian_positive_definite": all(r.positive_definite for r in reps),
                     "beta_product_positive_bounded": all(
                         r.product_min > 0 and np.isfinite(r.product_max) for r in reps)}


def _cmd_legendre_roundtrip(cfg, opts, shared):
    pts, pot = shared.samples(100), shared.family
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


def _cmd_flow_check(cfg, opts, shared):
    # the time-t frames against the coordinates of the imaginary-time flow: no Newton solve
    res = polarization.flow_residual(shared.family, shared.samples(20), opts["t_list"]).tolist()
    per_t = {f"{t:g}": r for t, r in zip(opts["t_list"], res)}
    worst = max(res)
    tol = 1e-8
    return ({"max_residual": worst, "per_t": per_t, "residual_scale": "1: G_t^{-1} D_t - I"},
            {"flow_identity": tol}, {"flow_identity_within_tolerance": worst < tol})


def _cmd_polarization_limit(cfg, opts, shared):
    bary = cfg.polytope.barycenter_array()
    # halfway-to-center mixtures: keeps the slope fit in its asymptotic window
    pts = bary + 0.5 * (shared.samples(opts.get("points") or 10) - bary)
    t_list = opts["t_list"]
    rep = polarization.decay_report(shared.family, cfg.proj, pts, t_list)
    slopes = rep.fitted_slopes.tolist()
    out = {
        "t": [float(t) for t in t_list],
        "max_top_block_norm": rep.top_block_norms.max(axis=0).tolist(),
        "max_grassmann_distance": rep.distances.max(axis=0).tolist(),
        "fitted_slopes": slopes,
        "max_subframe_drift": rep.subframe_invariance,
    }
    tols = {"slope_band": [-1.1, -0.9], "subframe": 1e-10}  # each flag reads its threshold here
    lo, hi = tols["slope_band"]
    return out, tols, {"slopes_near_minus_one": all(lo <= s <= hi for s in slopes),
                       "subframe_invariant": rep.subframe_invariance < tols["subframe"]}


def _cmd_sections_norms(cfg, opts, shared):
    P = cfg.polytope
    m = opts.get("m") or P.lattice_center
    t_list = opts["t_list"]
    pts, family = shared.samples(100), shared.family
    logs = quadrature.l1_norms(family, m, cfg.resolution, t_list)
    # both checks are relative to max(1, the largest norm), read from logs
    res, scale = sections.norm_factorization_check(family, m, t_list, pts)
    per_t = [{"t": float(t), "log_l1_norm": l1, "factorization_residual": r}
             for t, l1, r in zip(t_list, logs, res.tolist())]
    worst = float(res.max())
    # both sides are affine in m, so P's vertices (lattice points) suffice; m adds its own row
    ms = np.vstack([P.vertex_array, m])
    agree = float(np.max(sections.peak_relative_gap(
        sections.log_norm_matrix(family, ms, pts), sections.closed_form_log_norm_g0(P, ms, pts))))
    out = {"m": list(m), "rows": per_t, "max_factorization_residual": worst,
           "closed_form_agreement": agree}
    # the residual's float64 floor: 4 ulps of the largest exponent on either side
    roundoff = 4 * np.finfo(float).eps * float(np.max(scale))
    tols = {"factorization": 1e-10, "factorization_roundoff": roundoff,
            "factorization_decided_by": "roundoff" if roundoff > 1e-10 else "factorization",
            "closed_form": 1e-10}
    return out, tols, {"factorization_within_tolerance": worst < 1e-10 + roundoff,
                       "closed_form_agrees": agree < tols["closed_form"]}


def _cmd_concentrate(cfg, opts, shared):
    P = cfg.polytope
    m = opts.get("m") or P.lattice_center
    expr = "x1" if opts.get("u") is None else opts["u"]  # an empty weight is bad_weight
    u = parse_weight(expr, P.dim)
    result = quadrature.concentration_experiment(shared.family, m, u, opts["t_list"],
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
_COMMANDS = (*_DISPATCH, "full-suite")


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
    if (m := options.get("m")) is not None:
        if not np.iterable(m) or len(m := list(m)) != P.dim or not all(  # a bool is no integer
                isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in m):
            raise ConfigError("bad_m", f"m must be {P.dim} integers (got {m!r})")
        if not P.contains(m):
            raise ConfigError("m_outside_polytope", f"m = {m} is not a point of P")
    points = options.get("points")
    if points is not None and (type(points) is not int or points < 1):
        raise ConfigError("bad_points", f"points must be an integer of at least 1 (got {points!r})")
    return options


def run(cfg: ExperimentConfig, command: str, options: dict | None = None) -> RunReport:
    """Execute one command (or the whole suite) against a validated config.

    The commands of one run share its potential family, its interior samples and, in
    full-suite, the fibers of each (resolution, m) (``quadrature.shared_fibers``); nothing
    of them outlives the run."""
    if command != "full-suite" and command not in _DISPATCH:
        raise ConfigError("bad_command", f"unknown command {command!r}")
    options = _check_options(cfg, command, options or {})
    suite = command == "full-suite"
    shared, outputs, tolerances, flags = _RunInputs(cfg), {}, {}, {}
    # a command alone keeps no fiber rule: concentrate frees its own before R_inf's
    with quadrature.shared_fibers() if suite else nullcontext():
        for sub in _DISPATCH if suite else (command,):
            try:
                out, tol, fl = _DISPATCH[sub](cfg, options, shared)
            except quadrature.GridOverflowError as exc:  # a Gauss axis or a segment rule
                raise ConfigError("bad_resolution", str(exc)) from exc
            except GridRangeError as exc:  # the lattice scan of P is too large
                raise ConfigError("bad_polytope", f"lattice scan: {exc}") from exc
            except quadrature.QuadratureError as exc:  # a value leaves float64, or a mass vanishes
                raise ConfigError("out_of_range", str(exc)) from exc
            except legendre.NewtonConvergenceError as exc:  # y's rounding: a residual above tol
                raise ConfigError("out_of_range", f"Legendre inverse: {exc}") from exc
            if not suite:
                return RunReport(command, cfg.digest, out, tol, fl)
            outputs[sub] = out
            tolerances.update({f"{sub}.{k}": v for k, v in tol.items()})
            flags.update({f"{sub}.{k}": v for k, v in fl.items()})
    return RunReport("full-suite", cfg.digest, outputs, tolerances, flags)


def emit(report: RunReport, fmt: str = "json") -> bytes:
    """Serialize a report: the same report gives the same bytes."""
    if fmt == "json":
        payload = {"command": report.command, "digest": report.digest,
                   "outputs": report.outputs, "tolerances": report.tolerances,
                   "flags": report.flags, "passed": report.passed}
        return _canonical_json(payload) + b"\n"
    if fmt == "csv":
        return _emit_csv(report)
    raise ConfigError("bad_format", f"unknown format {fmt!r}")


def _table(report: RunReport):
    """The header and rows of a report's CSV form."""
    out = report.outputs
    if report.command == "concentrate":
        return ("t", "ratio", "error"), zip(out["t"], out["ratios"], out["errors"])
    if report.command == "polarization-limit":
        slope = max(out["fitted_slopes"])
        return (("t", "top_block_norm", "grassmann_distance", "fitted_slope"),
                [(t, nrm, d, slope) for t, nrm, d in zip(
                    out["t"], out["max_top_block_norm"], out["max_grassmann_distance"])])
    if report.command == "sections-norms":
        return (("t", "log_l1_norm", "factorization_residual"),
                [(r["t"], r["log_l1_norm"], r["factorization_residual"]) for r in out["rows"]])
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
    parser.add_argument("--format", dest="fmt", default="json", choices=("json", "csv"))
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.resolution is not None:
            cfg = replace(cfg, resolution=_check_resolution(args.resolution))
        opts = {"t_list": args.t_list, "m": args.m, "u": args.u, "points": args.points}
        for key, kind, code in (("t_list", float, "bad_t_list"), ("m", int, "bad_m")):
            if opts[key] is not None:  # run reads None as not given
                opts[key] = _parse_list(opts[key], kind, code)
        report = run(cfg, args.command, opts)
        blob = emit(report, args.fmt)
        if args.out:
            try:
                with open(args.out, "wb") as fh:
                    fh.write(blob)
            except OSError as exc:  # a missing directory, a directory, no permission
                raise ConfigError("io_error", f"cannot write report: {exc}") from exc
    except ConfigError as exc:
        err = {"error": {"code": exc.code, "message": str(exc), **(
            {"details": exc.details} if exc.details else {})}}
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return 2
    if not args.out:
        sys.stdout.buffer.write(blob)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
