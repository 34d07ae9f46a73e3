"""Correctness checks for every op, against the independent references.

An op fails when it raises, when its emitted bytes are not strict JSON
(``NaN`` and ``Infinity`` are rejected), when a repeat of the op emits
different bytes, or when a checked output lands outside its tolerance:

* lattice counts: C(k+3, 3) for kΔ³, prod(b_i + 1) for boxes, a row count
  for the other polygons;
* weight multiplicities: they sum to that count;
* quadrature rules: total weight against the exact rational volume, to
  1e-12 relative for tensor Gauss rules and to 2 vol(bbox) / res for
  midpoint grids (each axis-parallel row of cells of a convex body has at
  most two cells that straddle the boundary);
* Legendre round trip: below the CLI's own 1e-8;
* concentration ratios R_t and R_inf: against ``reference``, to
  max|u| * 1e-6 on boxes (tensor Gauss rules converge like res^-3 against
  the square-root endpoint factors of |sigma^m_0|) and max|u| * 2n / res on
  midpoint grids.
"""
from __future__ import annotations

import json

import numpy as np

import reference

ROUNDTRIP_TOL = 1e-8  # the CLI's legendre-roundtrip tolerance
GAUSS_RATIO_TOL = 1e-6


class OracleError(ValueError):
    pass


def _reject_constant(token):
    raise OracleError(f"non-finite JSON token {token}")


def parse_strict(blob: bytes) -> dict:
    try:
        return json.loads(blob, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OracleError(f"invalid JSON: {exc}") from exc


class Oracle:
    """Checks op outputs; keeps every concentration error it measured."""

    def __init__(self, raw_configs: dict, make_rule):
        self.geo = {name: reference.Geometry(raw) for name, raw in raw_configs.items()}
        self._make_rule = make_rule  # toric_quant.quadrature.make_rule, under test
        self._rules = {}
        self._refs = {}
        self.conc_errors = []

    def lattice(self, fixture):
        return self.geo[fixture].lattice_points()

    def check(self, op, cfg, blob) -> list:
        """Causes of failure for one op's emitted bytes (empty when it passes)."""
        try:
            out = parse_strict(blob)["outputs"]
        except OracleError as exc:
            return [str(exc)]
        causes = []
        geo, res = self.geo[op.fixture], cfg.resolution
        suite = op.command == "full-suite"
        parts = out if suite else {op.command: out}
        if "lattice" in parts:
            causes += self._lattice(geo, parts["lattice"])
        if "weights" in parts:
            causes += self._weights(geo, parts["weights"])
        if "legendre-roundtrip" in parts:
            err = parts["legendre-roundtrip"]["max_roundtrip_error"]
            if not err < ROUNDTRIP_TOL:
                causes.append(f"legendre round trip {err:.3e} >= {ROUNDTRIP_TOL:g}")
        if "sections-norms" in parts or "concentrate" in parts:
            causes += self._rule(op.fixture, cfg.polytope, res)
        if "concentrate" in parts:
            causes += self._concentrate(op.fixture, geo, res, parts["concentrate"], op.weight)
        return causes

    def _lattice(self, geo, out):
        want = geo.lattice_count()
        pts = np.array(out["points"], dtype=np.int64).reshape(-1, geo.dim)
        causes = []
        if out["count"] != want or len(pts) != want:
            causes.append(f"lattice count {out['count']} != {want}")
        elif len({tuple(p) for p in pts}) != want or np.any(
                pts @ np.array(geo.normals).T + np.array(geo.offsets) < 0):
            causes.append("lattice points repeated or outside P")
        return causes

    def _weights(self, geo, out):
        want = geo.lattice_count()
        if out["total"] != want or out["lattice_count"] != want:
            return [f"weights total {out['total']} != lattice count {want}"]
        return []

    def _rule(self, fixture, P, res):
        key = (fixture, res)
        if key not in self._rules:
            geo = self.geo[fixture]
            rule = self._make_rule(P, res)
            vol = float(geo.volume())
            if rule.kind == "gauss":
                tol = 1e-12 * vol
            else:
                bbox = np.prod([float(max(v[i] for v in geo.vertices) - min(v[i] for v in geo.vertices))
                                for i in range(geo.dim)])
                tol = 2.0 * bbox / res
            err = abs(rule.total_weight() - vol)
            self._rules[key] = [] if err <= tol else [
                f"{rule.kind} rule weight off the volume by {err:.3e} > {tol:.3e}"]
        return self._rules[key]

    def _concentrate(self, fixture, geo, res, out, weight):
        m, ts = tuple(out["m"]), tuple(out["t"])
        key = (fixture, m, tuple(sorted(weight.items())), ts)
        if key not in self._refs:
            self._refs[key] = reference.concentration_reference(geo, m, weight, ts)
        rts, rinf = self._refs[key]
        hi = [float(max(v[i] for v in geo.vertices)) for i in range(geo.dim)]
        scale = max(1.0, abs(float(reference.eval_poly(weight, np.array(hi)))))
        box = geo.box_bounds() is not None
        tol = scale * (GAUSS_RATIO_TOL if box else 2.0 * geo.dim / res)
        errs = [abs(a - b) for a, b in zip(out["ratios"], rts)] + [abs(out["slice_value"] - rinf)]
        self.conc_errors += errs
        worst = max(errs)
        if not worst <= tol:
            return [f"concentration ratio off the reference by {worst:.3e} > {tol:.3e}"]
        return []
