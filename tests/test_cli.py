import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_quant.cli import (
    _COMMANDS,
    ConfigError,
    RunReport,
    emit,
    load_config,
    main,
    parse_weight,
    run,
)
from toric_quant import potential, quadrature
from toric_quant.polytope import GridRangeError, lattice_points

INTERVAL_CFG = {
    "polytope": {"dim": 1, "facets": [{"normal": [1], "offset": 0},
                                      {"normal": [-1], "offset": 1}]},
    "proj": [[1]],
    "phi": {"type": "quadratic", "Q": [[1.0]]},
    "t_list": [8, 16, 32, 64, 128],
    "resolution": 64,
}

SQUARE2_CFG = {
    "polytope": {"dim": 2, "facets": [
        {"normal": [1, 0], "offset": 0}, {"normal": [-1, 0], "offset": 2},
        {"normal": [0, 1], "offset": 0}, {"normal": [0, -1], "offset": 2}]},
    "proj": [[1, 0]],
    "phi": {"type": "quadratic", "Q": [[1.0]]},
    "t_list": [8, 16, 32, 64, 128],
    "resolution": 64,
}


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestLoadConfig:
    def test_interval_fixture(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, INTERVAL_CFG))
        assert cfg.polytope.dim == 1
        assert cfg.polytope.num_facets == 2
        assert cfg.proj.k == 1

    def test_rank_deficient_projection(self, tmp_path):
        data = dict(SQUARE2_CFG, proj=[[1, 1], [2, 2]])
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, data))
        assert err.value.code == "bad_projection"

    def test_projection_of_index_two_exits_two(self, tmp_path, capsys):
        # A Z^2 = 2Z: no Z-basis of the target lattice comes from A
        path = write_cfg(tmp_path, dict(SQUARE2_CFG, proj=[[2, 0]]))
        assert main(["polarization-limit", path]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "bad_projection" and "index 2 > 1" in err["message"]

    def test_non_delzant_certificate(self, tmp_path):
        data = {
            "polytope": {"dim": 2, "facets": [
                {"normal": [1, 0], "offset": 0}, {"normal": [0, 1], "offset": 0},
                {"normal": [-1, -2], "offset": 2}]},
        }
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, data))
        assert err.value.code == "not_delzant"
        assert abs(err.value.details["determinant"]) == 2

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.code == "parse_error"

    def test_resolution_floor(self, tmp_path):
        data = dict(INTERVAL_CFG, resolution=2)
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, data))
        assert err.value.code == "bad_resolution"

    @pytest.mark.parametrize("resolution", ["abc", None, 64.5, True, "64"])
    def test_resolution_not_an_integer(self, tmp_path, capsys, resolution):
        path = write_cfg(tmp_path, dict(INTERVAL_CFG, resolution=resolution))
        assert main(["lattice", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "bad_resolution"

    @pytest.mark.parametrize("offset", [2 ** 63 - 1, 2 ** 62, 2 ** 64])
    def test_facet_values_past_int64(self, tmp_path, capsys, offset):
        # [0, 2] with the redundant facet x + offset >= 0: its value at x = 2
        # does not fit the int64 lattice scan
        facets = INTERVAL_CFG["polytope"]["facets"][:1] + [
            {"normal": [-1], "offset": 2}, {"normal": [1], "offset": offset}]
        path = write_cfg(tmp_path, dict(INTERVAL_CFG, polytope={"dim": 1, "facets": facets}))
        assert main(["lattice", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "bad_polytope"

    def test_facet_values_inside_int64(self, tmp_path, capsys):
        facets = INTERVAL_CFG["polytope"]["facets"][:1] + [
            {"normal": [-1], "offset": 2}, {"normal": [1], "offset": 2 ** 61}]
        path = write_cfg(tmp_path, dict(INTERVAL_CFG, polytope={"dim": 1, "facets": facets}))
        assert main(["lattice", path]) == 0
        assert json.loads(capsys.readouterr().out)["outputs"]["count"] == 3

    def test_phi_dimension_mismatch(self, tmp_path):
        data = dict(SQUARE2_CFG, phi={"type": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]]})
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, data))
        assert err.value.code == "dimension_mismatch"

    @pytest.mark.parametrize("phi,rows", [
        ({"Q": [[1e-11]]}, [[1, 0]]),
        ({"Q": [[1.0, 1.0], [1.0, 1.0 + 1e-11]]}, [[1, 0], [0, 1]]),
    ], ids=["1x1", "2x2"])
    def test_not_convex_phi_exits_two(self, tmp_path, capsys, phi, rows):
        # Q has a Cholesky factor, but its smallest eigenvalue (1e-11, about
        # 5e-12) is no strict convexity
        data = dict(SQUARE2_CFG, proj=rows, phi=dict(phi, type="quadratic"))
        assert main(["validate", write_cfg(tmp_path, data)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "not_convex"
        assert "np." not in err["message"] and "eigenvalue" in err["message"]

    @pytest.mark.parametrize("Q,rows", [
        ([[-1.0]], [[1, 0]]),
        ([[0.0]], [[1, 0]]),
        ([[1.0, 2.0], [2.0, 1.0]], [[1, 0], [0, 1]]),
    ], ids=["negative", "zero", "indefinite"])
    def test_q_without_cholesky_factor_is_not_convex(self, tmp_path, capsys, Q, rows):
        # one code for one test, the smallest eigenvalue of Q: these Q used to
        # fail a Cholesky test first and exit with bad_phi
        data = dict(SQUARE2_CFG, proj=rows, phi={"type": "quadratic", "Q": Q})
        assert main(["validate", write_cfg(tmp_path, data)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "not_convex" and "eigenvalue" in err["message"]

    @pytest.mark.parametrize("patch,code", [
        ({"polytope": {"dim": 2.5}}, "bad_polytope"),
        ({"facet": {"normal": [1.9, 0]}}, "bad_polytope"),
        ({"facet": {"offset": 0.5}}, "bad_polytope"),
        ({"facet": {"normal": ["a", 0]}}, "bad_polytope"),
        ({"proj": [[1.5, 0]]}, "bad_projection"),
        ({"proj": "ab"}, "bad_projection"),
        ({"proj": 5}, "bad_projection"),
        ({"phi": [1]}, "bad_phi"),
        ({"phi": {"type": "quadratic", "Q": [["1e400"]]}}, "bad_phi"),
        ({"phi": {"type": "quadratic", "Q": [[1.0]], "b": ["1e400"]}}, "bad_phi"),
        ({"phi": {"type": "quadratic", "Q": [[1.0]], "b": [None]}}, "bad_phi"),
    ], ids=["dim", "normal", "offset", "normal_text", "proj", "proj_text", "proj_scalar",
            "phi_list", "Q_inf", "b_inf", "b_null"])
    def test_inexact_numbers_exit_two(self, tmp_path, capsys, patch, code):
        # int() would truncate these to another polytope or projection, or
        # fail with a traceback; 1e400 is read as an infinite float
        data = json.loads(json.dumps(SQUARE2_CFG))
        data["polytope"].update(patch.get("polytope", {}))
        data["polytope"]["facets"][0].update(patch.get("facet", {}))
        data.update({k: v for k, v in patch.items() if k not in ("polytope", "facet")})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data).replace('"1e400"', "1e400"))
        assert main(["legendre-roundtrip", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == code

    def test_integral_floats_load(self, tmp_path):
        data = json.loads(json.dumps(SQUARE2_CFG))
        data["polytope"]["dim"] = 2.0
        data["polytope"]["facets"][0] = {"normal": [1.0, 0.0], "offset": 0.0}
        cfg = load_config(write_cfg(tmp_path, dict(data, proj=[[1.0, 0.0]])))
        assert cfg.polytope == load_config(write_cfg(tmp_path, SQUARE2_CFG, "b.json")).polytope
        assert cfg.proj.matrix == ((1, 0),) and type(cfg.polytope.dim) is int

    def test_small_but_positive_phi_loads(self, tmp_path):
        data = dict(SQUARE2_CFG, phi={"type": "quadratic", "Q": [[1e-9]]})
        assert load_config(write_cfg(tmp_path, data)).phi.dim == 1

    def test_digest_stable(self, tmp_path):
        a = load_config(write_cfg(tmp_path, INTERVAL_CFG, "a.json"))
        b = load_config(write_cfg(tmp_path, INTERVAL_CFG, "b.json"))
        assert a.digest == b.digest


def _simplex_cfg(side, resolution=8, dim=2):
    facets = [{"normal": [int(i == j) for j in range(dim)], "offset": 0} for i in range(dim)]
    facets.append({"normal": [-1] * dim, "offset": side})
    return {"polytope": {"dim": dim, "facets": facets},
            "proj": [[1] + [0] * (dim - 1)], "resolution": resolution}


class TestGridResolution:
    # segment rules scale nothing by the resolution: the 3-simplices that once took a
    # midpoint grid past int64 exit as their planar twins do
    def test_huge_simplex3_exits_two(self, tmp_path, capsys):
        # |sigma^0_0| scaled by its peak at the vertex m = 0 underflows on every node
        path = write_cfg(tmp_path, _simplex_cfg(2 ** 57, dim=3))
        assert main(["concentrate", path, "--m", "0,0,0"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "out_of_range" and "degenerate concentration mass" in err["message"]

    def test_resolution_option_checked(self, tmp_path, capsys):
        path = write_cfg(tmp_path, _simplex_cfg(2 ** 50, dim=3))
        assert main(["concentrate", path, "--m", "0,0,0", "--resolution", "1024"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "out_of_range" and "degenerate concentration mass" in err["message"]

    def test_library_replace_checked(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, _simplex_cfg(2 ** 50, dim=3)))
        with pytest.raises(ConfigError, match="degenerate concentration mass") as err:
            run(dataclasses.replace(cfg, resolution=1024), "concentrate", {"m": (0, 0, 0)})
        assert err.value.code == "out_of_range"

    def test_planar_norm_past_float64_exits_two(self, tmp_path, capsys):
        # the segment fibers scale nothing by the resolution; |sigma^m_0| at the far
        # facet of x + y <= 2^57 leaves float64, and scaled by its peak at the vertex
        # m = 0, where no level lies, it underflows on every node
        path = write_cfg(tmp_path, _simplex_cfg(2 ** 57))
        assert main(["concentrate", path, "--m", "0,0"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "out_of_range" and "degenerate concentration mass" in err["message"]

    def test_vanishing_l1_mass_exits_two(self, tmp_path, capsys):
        # the same norm scaled by its peak underflows to a fiber mass of 0: the L1 norm is
        # refused rather than printed as 0.0
        path = write_cfg(tmp_path, _simplex_cfg(2 ** 57))
        assert main(["sections-norms", path, "--m", "0,0"]) == 2
        cap = capsys.readouterr()
        assert cap.out == "" and json.loads(cap.err)["error"]["code"] == "out_of_range"
        cfg = load_config(path)
        pot = potential.SymplecticPotential(cfg.polytope, cfg.proj, cfg.phi)
        with pytest.raises(quadrature.QuadratureError, match="vanishing fiber mass"):
            quadrature.l1_norms(pot, (0, 0), cfg.resolution, (0.0, 8.0))

    def test_planar_resolution_past_the_node_cap_exits_two(self, tmp_path, capsys):
        # a polygon's chambers take Gauss axes, under the box cap of nodes per axis
        path = write_cfg(tmp_path, _simplex_cfg(2))
        res = str(quadrature.MAX_GAUSS_NODES + 1)
        assert main(["concentrate", path, "--m", "0,0", "--resolution", res]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "bad_resolution" and "nodes per axis" in err["message"]

    @pytest.mark.parametrize("command", ["lattice", "weights", "sections-norms"])
    def test_lattice_scan_past_the_limit_exits_two(self, tmp_path, capsys, command):
        # the bounding box of x + y <= 2^57 has about 2^114 grid points
        path = write_cfg(tmp_path, _simplex_cfg(2 ** 57))
        assert main([command, path]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "bad_polytope" and "2^32 scan limit" in err["message"]

    def test_segment_rule_past_the_node_cap_exits_two(self, tmp_path, capsys):
        # 2 Delta^3 with k = n = 3 at resolution 4096: 4096 levels per image depth, 2^36
        # nodes, refused before any node array is built (one at the cap takes 67 MB)
        data = {"polytope": {"dim": 3, "facets": [
            {"normal": [1, 0, 0], "offset": 0}, {"normal": [0, 1, 0], "offset": 0},
            {"normal": [0, 0, 1], "offset": 0}, {"normal": [-1, -1, -1], "offset": 2}]},
            "proj": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "phi": {"type": "quadratic", "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}
        path = write_cfg(tmp_path, data)
        argv = ["concentrate", path, "--m", "0,0,0", "--resolution", "4096"]
        main(argv)  # the Gauss-Legendre cache
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "bad_resolution" and "resolution 4096:" in err["message"]
        assert str(quadrature.MAX_RULE_NODES) in err["message"] and peak < 4e6

    @pytest.mark.parametrize("res", [str(quadrature.MAX_GAUSS_NODES + 1), "1000000"])
    def test_gauss_rule_past_the_node_cap_exits_two(self, monkeypatch, capsys, res):
        # the solve takes O(n^2) time: hours at 10^6 nodes, not 0.1-0.25 s as at the cap
        def refuse(n):
            raise AssertionError(f"Gauss nodes for n = {n} solved past the cap")

        monkeypatch.setattr(quadrature, "_legendre_newton", refuse)
        assert main(["concentrate", str(REPO / "configs" / "interval.json"),
                     "--resolution", res]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "bad_resolution" and "nodes per axis" in err["message"]


class TestWeightGrammar:
    def test_coordinates_and_powers(self):
        u = parse_weight("x1^2 + 2*x2", 2)
        pts = np.array([[1.0, 3.0], [2.0, 0.5]])
        assert np.allclose(u(pts), [7.0, 5.0])

    def test_parentheses_and_minus(self):
        u = parse_weight("(x1 - 1)^2 * 3", 1)
        assert np.allclose(u(np.array([[2.0], [0.0]])), [3.0, 3.0])

    def test_constant(self):
        u = parse_weight("2.5", 3)
        assert np.allclose(u(np.zeros((4, 3))), 2.5)

    def test_out_of_range_coordinate(self):
        with pytest.raises(ConfigError):
            parse_weight("x3", 2)

    def test_bad_token(self):
        with pytest.raises(ConfigError):
            parse_weight("x1 + sin", 2)

    BAD = ["x1/2", "x1**2", "x1 ** 2", "sin(x1)", "x1.real", "True", "x1 and x2",
           "x1 < x2", "x1^0.5", "x1^-1", "x1^x2", "x1^True", "+x1", "1j", "'x1'",
           "x0", "x3", "y1", "x1 +", "2x1", "(x1", "x1^^2", "", "x1; x2", "x1\0"]

    @pytest.mark.parametrize("expr", BAD)
    def test_rejected_expressions(self, expr):
        with pytest.raises(ConfigError) as err:
            parse_weight(expr, 2)
        assert err.value.code == "bad_weight"

    @pytest.mark.parametrize("expr", BAD)
    def test_main_rejects_with_exit_two(self, tmp_path, capsys, expr):
        path = write_cfg(tmp_path, SQUARE2_CFG)
        assert main(["concentrate", path, f"--u={expr}"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "bad_weight"

    def test_unary_minus_binds_looser_than_power(self):
        x = np.array([[2.0, 3.0]])
        assert parse_weight("-x1^2", 2)(x)[0] == -4.0
        assert parse_weight("(-x1)^2", 2)(x)[0] == 4.0
        assert parse_weight("2 - -x2^3 * x1", 2)(x)[0] == 2.0 + 27.0 * 2.0
        assert parse_weight(" x1 ^ 2\n+ x2 ", 2)(x)[0] == 7.0

    def test_same_operations_in_the_same_order(self):
        # the bytes of a report depend on the order of the float operations
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 2, size=(50, 3))
        x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
        got = parse_weight("1.0*x1^2+0.5*x2^1*x3^1 - 0.1*x1*x2 - 3", 3)(x)
        ref = 1.0 * x1 ** 2 + 0.5 * x2 ** 1 * x3 ** 1 - 0.1 * x1 * x2 - 3.0
        assert got.tobytes() == ref.tobytes()


    PANEL = ["1", "2.5", "-x1^2", "2*x1-x2^3", "1.0*x1^2+0.5*x2^1*x3^1", "(1 - 2)^3 * x3",
             "x1 - x1 + 0", "3 - -x2^3 * x1 * 2", "(x1 + 1)^5 - 0.1*x1*x2 - 3", "2^3"]

    @staticmethod
    def _full_array_compile(expr, n):
        """The compile before constants stayed scalars: every constant an
        np.full array per call, and the result times an np.ones array."""
        import ast

        ops = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply}

        def comp(node):
            if isinstance(node, ast.BinOp) and type(node.op) in ops:
                a, b, op = comp(node.left), comp(node.right), ops[type(node.op)]
                return lambda x: op(a(x), b(x))
            if isinstance(node, ast.BinOp):
                a, p = comp(node.left), node.right.value
                return lambda x: a(x) ** p
            if isinstance(node, ast.UnaryOp):
                a = comp(node.operand)
                return lambda x: -a(x)
            if isinstance(node, ast.Name):
                return lambda x, i=int(node.id[1:]) - 1: x[..., i]
            return lambda x, c=float(node.value): np.full(x.shape[:-1], c)
        f = comp(ast.parse(expr.replace("^", "**"), mode="eval").body)
        return lambda x: f(x) * np.ones(x.shape[:-1])

    @pytest.mark.parametrize("expr", PANEL)
    def test_constants_stay_scalar_bitwise(self, expr):
        rng = np.random.default_rng(7)
        for shape in ((1000, 3), (4, 5, 3), (1, 3)):
            x = rng.uniform(-2, 2, size=shape)
            got = parse_weight(expr, 3)(x)
            ref = self._full_array_compile(expr, 3)(x)
            assert got.shape == x.shape[:-1] and got.dtype == np.float64
            assert got.tobytes() == ref.tobytes()


def _expansion_check(u, x, c):
    """sum_beta C_beta (x - c)^beta against the evaluator, within 1e-12 sum |C_beta (x - c)^beta|."""
    C = u.expand(np.asarray(c, dtype=float))
    monomials = np.array([C[beta] * np.prod((x - c) ** np.array(beta), axis=-1)
                          for beta in zip(*np.nonzero(C))] or [np.zeros(len(x))])
    assert np.all(np.abs(monomials.sum(0) - u(x)) <= 1e-12 * np.abs(monomials).sum(0))


@st.composite
def _weight_expression(draw, depth=3):
    """A grammar expression in x1..x3: + - *, ^ with exponents 0-3, unary
    minus and parentheses, at most depth operators deep."""
    kind = draw(st.sampled_from(("leaf", "binary", "power", "minus") if depth else ("leaf",)))
    if kind == "leaf":
        return draw(st.sampled_from(("x1", "x2", "x3", "1", "2.5", "0.5", "3")))
    a = draw(_weight_expression(depth - 1))
    wrap = f"({a})" if draw(st.booleans()) or kind == "power" else a
    if kind == "power":
        return f"{wrap}^{draw(st.integers(0, 3))}"
    if kind == "minus":
        return f"-{wrap}"
    b = draw(_weight_expression(depth - 1))
    return f"{wrap} {draw(st.sampled_from('+-*'))} ({b})"


class TestWeightExpansion:
    """parse_weight's expansion about a point c, built in the same walk as its evaluator."""

    CENTERS = ((0.0, 0.0, 0.0), (1.0, -0.5, 2.0))

    def test_panel_expansion_equals_the_tree(self):
        x = np.random.default_rng(5).uniform(-2, 2, size=(200, 3))
        for expr in TestWeightGrammar.PANEL:
            for c in self.CENTERS:
                _expansion_check(parse_weight(expr, 3), x, c)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_weight_expression(), st.sampled_from(CENTERS))
    def test_drawn_expansion_equals_the_tree(self, expr, c):
        x = np.random.default_rng(11).uniform(-2, 2, size=(50, 3))
        _expansion_check(parse_weight(expr, 3), x, c)

    def test_dense_coefficients_about_the_point(self):
        u = parse_weight("2*x1 - x2^3 + 0.5 + x1*2", 2)
        C = u.expand(np.zeros(2))
        assert C.shape == (2, 4) and np.count_nonzero(C) == 3
        assert (C[1, 0], C[0, 3], C[0, 0]) == (4.0, -1.0, 0.5)
        # about x1 = 1 the centred power has one term: no cancellation to round off
        C = parse_weight("(x1 - 1)^16", 2).expand(np.array([1.0, 3.0]))
        assert C.shape == (17, 1) and C[16, 0] == 1.0 and np.count_nonzero(C) == 1

    def test_degree_forty_trinomial_is_accepted(self):
        u = parse_weight("(x1+x2+x3)^40", 3)
        assert u.expand(np.zeros(3)).shape == (41, 41, 41)
        x = np.random.default_rng(2).uniform(0, 1, size=(20, 3))
        for c in self.CENTERS:
            _expansion_check(u, x, c)

    def test_expansion_past_the_bound_exits_two(self, capsys):
        t0 = time.perf_counter()
        assert main(["concentrate", str(REPO / "bench" / "fixtures" / "cube2.json"),
                     "--u=(x1+x2+x3)^200"]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "bad_weight" and "multiply-adds" in err["message"]


class TestRun:
    def test_lattice_count(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SQUARE2_CFG))
        rep = run(cfg, "lattice")
        assert rep.outputs["count"] == 9

    def test_weights_output(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SQUARE2_CFG))
        rep = run(cfg, "weights")
        assert rep.outputs["multiplicities"] == {"0": 3, "1": 3, "2": 3}
        assert rep.passed

    def test_concentrate_options(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SQUARE2_CFG))
        rep = run(cfg, "concentrate", {"m": (1, 1), "u": "x2", "t_list": (8.0, 16.0)})
        assert rep.outputs["slice_value"] == pytest.approx(1.0, abs=1e-10)
        assert rep.passed

    def test_full_suite_interval_passes(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, INTERVAL_CFG))
        rep = run(cfg, "full-suite")
        assert rep.passed, rep.flags

    def test_unknown_command(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, INTERVAL_CFG))
        with pytest.raises(ConfigError):
            run(cfg, "frobnicate")

    @pytest.mark.parametrize("command", ["concentrate", "full-suite"])
    def test_weight_that_is_not_a_string_is_bad_weight(self, tmp_path, command):
        cfg = load_config(write_cfg(tmp_path, SQUARE2_CFG))
        with pytest.raises(ConfigError) as err:
            run(cfg, command, {"u": 5})
        assert err.value.code == "bad_weight" and "5" in str(err.value)


class TestEmit:
    def test_json_deterministic(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, INTERVAL_CFG))
        blobs = {emit(run(cfg, "full-suite"), "json") for _ in range(2)}
        assert len(blobs) == 1

    def test_timings_not_serialized(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, INTERVAL_CFG))
        payload = json.loads(emit(run(cfg, "lattice"), "json"))
        assert "timings" not in payload

    @pytest.mark.parametrize("enabled", [True, False])
    def test_encode_pauses_the_collector_and_restores_it(self, tmp_path, monkeypatch, enabled):
        import gc

        from toric_quant import cli

        report = run(load_config(write_cfg(tmp_path, SQUARE2_CFG)), "lattice")
        payload = {"command": report.command, "digest": report.digest,
                   "outputs": report.outputs, "tolerances": report.tolerances,
                   "flags": report.flags, "passed": report.passed}
        plain = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False,
                           default=lambda o: o.tolist()).encode() + b"\n"
        during = []
        real = cli._to_native
        monkeypatch.setattr(cli, "_to_native", lambda o: during.append(gc.isenabled()) or real(o))
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert emit(report) == plain
            assert gc.isenabled() is enabled and during == [False]
            report.outputs["inf"] = float("inf")  # an out_of_range refusal restores it too
            with pytest.raises(ConfigError) as err:
                emit(report)
            assert err.value.code == "out_of_range" and gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_csv_concentrate(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SQUARE2_CFG))
        rep = run(cfg, "concentrate", {"m": (1, 1), "u": "x1^2", "t_list": (8.0, 16.0)})
        text = emit(rep, "csv").decode()
        assert text.splitlines()[0] == "t,ratio,error"
        assert len(text.splitlines()) == 3

    @pytest.mark.parametrize("command, header, first", [
        ("lattice", "point", "0 0"),
        ("weights", "weight,count", "0,3"),
    ])
    def test_csv_lattice_and_weights(self, tmp_path, capsys, command, header, first):
        assert main([command, write_cfg(tmp_path, SQUARE2_CFG), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [header, first]

    def test_csv_polarization_limit(self, tmp_path, capsys):
        # one row per t: the column maxima of the JSON report and the largest slope
        path = write_cfg(tmp_path, SQUARE2_CFG)
        assert main(["polarization-limit", path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert main(["polarization-limit", path]) == 0
        out = json.loads(capsys.readouterr().out)["outputs"]
        assert lines[0] == "t,top_block_norm,grassmann_distance,fitted_slope"
        assert lines[1] == ",".join(map(repr, (8.0, out["max_top_block_norm"][0],
                                               out["max_grassmann_distance"][0],
                                               max(out["fitted_slopes"]))))
        assert len(lines) == 1 + len(out["t"])

    def test_svg_is_not_a_format(self, tmp_path, capsys):
        # the SVG plot was retired: emit and the command line refuse the format
        cfg = load_config(write_cfg(tmp_path, SQUARE2_CFG))
        with pytest.raises(ConfigError) as err:
            emit(run(cfg, "concentrate", {"m": (1, 1), "u": "x1^2"}), "svg")
        assert err.value.code == "bad_format"
        with pytest.raises(SystemExit) as exit_:
            main(["concentrate", write_cfg(tmp_path, SQUARE2_CFG), "--format", "svg"])
        assert exit_.value.code == 2 and "invalid choice: 'svg'" in capsys.readouterr().err


class TestMain:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        path = write_cfg(tmp_path, INTERVAL_CFG)
        assert main(["lattice", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outputs"]["count"] == 2

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        data = {"polytope": {"dim": 2, "facets": [
            {"normal": [1, 0], "offset": 0}, {"normal": [0, 1], "offset": 0},
            {"normal": [-1, -2], "offset": 2}]}}
        path = write_cfg(tmp_path, data)
        assert main(["validate", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "not_delzant"

    @pytest.mark.parametrize("command, argv, options", [
        ("polarization-limit", ["--points", "3", "--t", "4,8"], {"points": 3, "t_list": (4, 8)}),
        ("concentrate", ["--m", "1,1", "--u", "x2^2"], {"m": (1, 1), "u": "x2^2"}),
        ("concentrate", [], {})])
    def test_options_reach_the_run(self, tmp_path, capsys, command, argv, options):
        path = write_cfg(tmp_path, SQUARE2_CFG)
        main([command, path, *argv])
        assert capsys.readouterr().out.encode() == emit(run(load_config(path), command, options))

    def test_out_file_written(self, tmp_path):
        path = write_cfg(tmp_path, INTERVAL_CFG)
        out = tmp_path / "report.json"
        assert main(["validate", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["outputs"]["delzant"] is True

    @pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing-dir", "dir"])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, target):
        # a write that fails is io_error, as for an unreadable config: exit 1 means a flag failed
        path = write_cfg(tmp_path, INTERVAL_CFG)
        assert main(["lattice", path, "--out", str(tmp_path / target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"]["code"] == "io_error"
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", ["concentrate", "full-suite"])
    def test_empty_weight_is_rejected(self, tmp_path, capsys, command):
        # only an absent weight means x1
        path = write_cfg(tmp_path, SQUARE2_CFG)
        assert main([command, path, "--u", ""]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"]["code"] == "bad_weight"
        with pytest.raises(ConfigError) as exc:
            run(load_config(path), command, {"u": ""})
        assert exc.value.code == "bad_weight"

    def test_absent_weight_is_x1(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SQUARE2_CFG))
        for opts in ({}, {"u": None}):
            assert run(cfg, "concentrate", opts).outputs["u"] == "x1"


# the square [0, 2]^2 under the apex (1, 1, 1): four side facets meet at the apex
PYRAMID_CFG = {"polytope": {"dim": 3, "facets": [
    {"normal": [0, 0, 1], "offset": 0},
    {"normal": [1, 0, -1], "offset": 0}, {"normal": [-1, 0, -1], "offset": 2},
    {"normal": [0, 1, -1], "offset": 0}, {"normal": [0, -1, -1], "offset": 2}]}}


class TestRefusals:
    """Each refusal through main: exit 2, no report, and one JSON error line on stderr."""

    @staticmethod
    def _refused(capsys, argv, code):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        err = json.loads(err)["error"]
        assert err["code"] == code
        return err

    def test_non_simple_vertex_is_not_delzant(self, tmp_path, capsys):
        err = self._refused(capsys, ["validate", write_cfg(tmp_path, PYRAMID_CFG)], "not_delzant")
        assert err["message"] == "polytope is not Delzant: vertex (1, 1, 1) lies on 4 facets"
        assert err["details"] == {"vertex": ["1", "1", "1"], "determinant": None}

    def test_determinant_reason_prints_fractions(self, tmp_path, capsys):
        # x, y >= 0 and x + 2y <= 2: the vertex (2, 0) has determinant -2 (its twin (0, 1) is fine)
        data = {"polytope": {"dim": 2, "facets": [
            {"normal": [1, 0], "offset": 0}, {"normal": [0, 1], "offset": 0},
            {"normal": [-1, -2], "offset": 2}]}}
        err = self._refused(capsys, ["validate", write_cfg(tmp_path, data)], "not_delzant")
        assert "Fraction" not in err["message"]
        assert err["message"].endswith(f"at ({', '.join(err['details']['vertex'])}) have "
                                       f"determinant {err['details']['determinant']}")

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        self._refused(capsys, ["validate", str(tmp_path / "missing.json")], "io_error")

    @pytest.mark.parametrize("data", [[1, 2], {"polytope": {"dim": 2}}], ids=["list", "no_facets"])
    def test_malformed_config_is_parse_error(self, tmp_path, capsys, data):
        self._refused(capsys, ["validate", write_cfg(tmp_path, data)], "parse_error")

    def test_projection_wider_than_the_polytope(self, tmp_path, capsys):
        data = dict(SQUARE2_CFG, proj=[[1, 0, 0]])
        err = self._refused(capsys, ["validate", write_cfg(tmp_path, data)], "dimension_mismatch")
        assert err["message"] == "projection width 3 != polytope dimension 2"

    def test_normals_that_do_not_span_are_unbounded(self, tmp_path, capsys):
        data = {"polytope": {"dim": 2, "facets": [
            {"normal": [1, 0], "offset": 0}, {"normal": [-1, 0], "offset": 2},
            {"normal": [1, 0], "offset": 1}]}}
        err = self._refused(capsys, ["validate", write_cfg(tmp_path, data)], "bad_polytope")
        assert "normals do not span" in err["message"]

    def test_validate_has_no_csv_form(self, tmp_path, capsys):
        argv = ["validate", write_cfg(tmp_path, SQUARE2_CFG), "--format", "csv"]
        err = self._refused(capsys, argv, "bad_format")
        assert err["message"] == "no CSV form for command 'validate'"


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


SIMPLEX8_CFG = {
    "polytope": {"dim": 3, "facets": [
        {"normal": [1, 0, 0], "offset": 0}, {"normal": [0, 1, 0], "offset": 0},
        {"normal": [0, 0, 1], "offset": 0}, {"normal": [-1, -1, -1], "offset": 8}]},
    "proj": [[1, 0, 0]],
    "phi": {"type": "quadratic", "Q": [[1.0]]},
    "resolution": 32,
}


class TestStrictReports:
    def test_concentrate_without_decay_emits_null(self, tmp_path, capsys):
        # u = x1 on the square is symmetric about the slice x1 = 1: R_t equals
        # R_inf up to roundoff and no decay rate can be fitted
        path = write_cfg(tmp_path, SQUARE2_CFG)
        ts = "8,16.191636,26.043599,76.970188,135.441233"
        assert main(["concentrate", path, "--t", ts]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["outputs"]
        assert max(out["errors"]) <= 1e-13
        assert out["decay_exponent"] is None
        assert "roundoff floor" in out["decay_exponent_reason"]

    def test_concentrate_with_decay_keeps_exponent(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SQUARE2_CFG)
        assert main(["concentrate", path, "--m", "1,1", "--u", "x1^2"]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["outputs"]
        assert -1.1 <= out["decay_exponent"] <= -0.9
        assert "decay_exponent_reason" not in out

    def test_sections_norms_dilated_simplex_passes(self, tmp_path, capsys):
        # 165 lattice points, whose norms reach ~1e3 on the closed-form check
        path = write_cfg(tmp_path, SIMPLEX8_CFG)
        assert main(["sections-norms", path, "--t", "8,16"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert payload["passed"] is True

    def test_sections_norms_closed_form_is_relative(self, tmp_path, capsys):
        # on 12 Delta^3 the norms reach ~1e6: an absolute 1e-10 comparison
        # failed on roundoff (2.8e-9) while the relative error is ~1e-14
        data = dict(SIMPLEX8_CFG, resolution=16)
        data["polytope"] = {"dim": 3, "facets": SIMPLEX8_CFG["polytope"]["facets"][:3]
                            + [{"normal": [-1, -1, -1], "offset": 12}]}
        path = write_cfg(tmp_path, data)
        assert main(["sections-norms", path, "--m", "1,1,1", "--t", "8,16"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert payload["flags"]["closed_form_agrees"] is True
        assert payload["outputs"]["closed_form_agreement"] < 1e-12

    def test_roundoff_floor_scales_with_the_limit(self, tmp_path):
        # R_t = R_inf = 10^4 by symmetry: errors of 1.8e-12 are roundoff of
        # a ratio of size 10^4 and must not yield a slope
        cfg = load_config(write_cfg(tmp_path, SQUARE2_CFG))
        out = run(cfg, "concentrate", {"m": (1, 1), "u": "10000*x1"}).outputs
        assert out["slice_value"] == pytest.approx(1e4)
        assert max(out["errors"]) > 1e-13
        assert out["decay_exponent"] is None
        assert "1e-09 roundoff floor" in out["decay_exponent_reason"]


class TestOptionChecks:
    @pytest.mark.parametrize("command,opts,code", [
        ("concentrate", {"t_list": (16.0, 8.0)}, "bad_t_list"),
        ("polarization-limit", {"t_list": (16.0, 8.0)}, "bad_t_list"),
        ("sections-norms", {"t_list": (8.0, 8.0)}, "bad_t_list"),
        ("flow-check", {"t_list": (-1.0, 8.0)}, "bad_t_list"),
        ("flow-check", {"t_list": (8.0, float("nan"))}, "bad_t_list"),
        ("flow-check", {"t_list": ()}, "bad_t_list"),
        ("polarization-limit", {"t_list": (0.0, 8.0)}, "bad_slope_t_list"),
        ("concentrate", {"u": "x1^2", "t_list": (0.0, 8.0, 16.0)}, "bad_slope_t_list"),
        ("polarization-limit", {"t_list": (8.0,)}, "bad_slope_t_list"),
        ("full-suite", {"t_list": (8.0,)}, "bad_slope_t_list"),
        ("concentrate", {"m": (5, 5)}, "m_outside_polytope"),
        ("sections-norms", {"m": (-1, 0)}, "m_outside_polytope"),
        ("concentrate", {"m": (1, 1, 1)}, "bad_m"),
        ("concentrate", {"m": (1,)}, "bad_m"),
        ("polarization-limit", {"points": 0}, "bad_points"),
        # library callers: no int() truncation or traceback on a value of another type
        ("concentrate", {"m": (True, 1)}, "bad_m"),
        ("concentrate", {"m": (1.0, 1)}, "bad_m"),
        ("concentrate", {"m": 5}, "bad_m"),
        ("polarization-limit", {"points": "abc"}, "bad_points"),
        ("polarization-limit", {"points": [2]}, "bad_points"),
        ("polarization-limit", {"points": 2.5}, "bad_points"),
        ("polarization-limit", {"points": True}, "bad_points"),
    ])
    def test_bad_options_raise_config_error(self, tmp_path, command, opts, code):
        cfg = load_config(write_cfg(tmp_path, SQUARE2_CFG))
        with pytest.raises(ConfigError) as err:
            run(cfg, command, opts)
        assert err.value.code == code

    def test_single_time_is_fine_without_a_slope(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SQUARE2_CFG))
        assert run(cfg, "flow-check", {"t_list": (8,)}).outputs["per_t"].keys() == {"8"}

    @pytest.mark.parametrize("command", ["legendre-roundtrip", "potential-validate"])
    @pytest.mark.parametrize("times,keys", [
        ("8", {"0", "8"}), ("0,8", {"0", "8"}), ("4,16", {"0", "4", "16"})])
    def test_t_option_honoured_with_zero_once(self, tmp_path, capsys, command, times, keys):
        path = write_cfg(tmp_path, INTERVAL_CFG)
        assert main([command, path, "--t", times]) == 0
        assert json.loads(capsys.readouterr().out)["outputs"]["per_t"].keys() == keys

    def test_config_times_follow_the_slope_rule(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, dict(SQUARE2_CFG, t_list=[0, 8])))
        assert run(cfg, "flow-check").passed
        for command in ("concentrate", "polarization-limit", "full-suite"):
            with pytest.raises(ConfigError) as err:
                run(cfg, command)
            assert err.value.code == "bad_slope_t_list"

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_times_sharing_a_report_key_exit_two(self, capsys, command):
        # per_t is keyed by f"{t:g}": 8 and 8.0000001 would keep one row for two times
        path = str(REPO / "configs" / "square2.json")
        assert main([command, path, "--t", "8,8.0000001,16"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "bad_t_list" and "8.0000001" in err["message"]

    def test_config_times_sharing_a_report_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, dict(SQUARE2_CFG, t_list=[8, 16, 16.000001])))
        assert err.value.code == "bad_t_list"

    def test_times_differing_in_the_sixth_digit_keep_their_rows(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SQUARE2_CFG))
        per_t = run(cfg, "flow-check", {"t_list": (8, 8.00001, 16)}).outputs["per_t"]
        assert per_t.keys() == {"8", "8.00001", "16"}

    def test_non_finite_config_times_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, dict(SQUARE2_CFG, t_list=[8, float("inf")])))
        assert err.value.code == "bad_t_list"

    @pytest.mark.parametrize("argv,code", [
        (["concentrate", "--t", "16,8"], "bad_t_list"),
        (["polarization-limit", "--t", "8"], "bad_slope_t_list"),
        (["concentrate", "--t", "abc"], "bad_t_list"),
        (["concentrate", "--m", "5,5"], "m_outside_polytope"),
        (["concentrate", "--m", "1.5,1"], "bad_m"),
        (["concentrate", "--m", "1"], "bad_m"),
    ])
    def test_main_exits_two(self, tmp_path, capsys, argv, code):
        path = write_cfg(tmp_path, SQUARE2_CFG)
        assert main([argv[0], path] + argv[1:]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == code


REPO = pathlib.Path(__file__).resolve().parent.parent
SMOKE_CONFIGS = sorted((REPO / "configs").glob("*.json")) + sorted(
    (REPO / "bench" / "fixtures").glob("*.json"))


class TestSmokeMatrix:
    """Every command on every shipped config exits 0 with strict JSON."""

    @pytest.mark.parametrize("command", _COMMANDS)
    @pytest.mark.parametrize("config", SMOKE_CONFIGS, ids=lambda p: p.stem)
    def test_command_passes_with_strict_json(self, tmp_path, config, command):
        out = tmp_path / "report.json"
        assert main([command, str(config), "--out", str(out)]) == 0
        payload = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert payload["command"] == command and payload["passed"] is True


class TestClosedFormCheck:
    """sections-norms checks the closed form at the vertices of P and at m in one stacked call:
    both sides are affine in m, so they agree on P once they agree at its vertices."""

    @pytest.mark.parametrize("config", SMOKE_CONFIGS, ids=lambda p: p.stem)
    def test_agrees_with_per_point_loop(self, config):
        from toric_quant import cli, potential

        from conftest import norm_matrix, trailing_axis_norm_g0

        cfg = load_config(str(config))
        P = cfg.polytope
        report = run(cfg, "sections-norms")
        # the reference: one (N, d) closed form per vertex and at m, row by row
        pts = potential.interior_samples(P, 100, seed=cli._SEED)
        ms = [tuple(int(c) for c in v.point) for v in P.vertices] + [tuple(report.outputs["m"])]
        rows = norm_matrix(potential.SymplecticPotential(P, cfg.proj, cfg.phi), ms, pts)
        ref = max(float(np.max(np.abs(row - trailing_axis_norm_g0(P, m, pts))))
                  / max(1.0, float(np.max(row))) for m, row in zip(ms, rows))
        assert report.flags["closed_form_agrees"]
        assert abs(report.outputs["closed_form_agreement"] - ref) <= 1e-15

    @pytest.mark.parametrize("m", [0, 341, None])
    @pytest.mark.parametrize("kind", ["box", "simplex"])
    def test_large_polygon_is_bounded(self, tmp_path, capsys, kind, m):
        # a row per lattice point of [0, 1024]^2 took 12.9 s and 5.1 GB; at (341, 341) the
        # factorization residual is float64 roundoff of exponents near 7e6, within 4 eps of
        # them; without --m the default m took 3.7 s and 261 MB on [0, 1024]^2
        path = write_cfg(tmp_path, _dilated_cfg(kind, 1024))
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            code = main(["sections-norms", path] + ([] if m is None else ["--m", f"{m},{m}"]))
            elapsed, peak = time.perf_counter() - t0, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert code == 0 and payload["flags"] == {
            "closed_form_agrees": True, "factorization_within_tolerance": True}
        nearest = 512 if kind == "box" else 341  # the barycenter (512, 512) or (341 1/3, ...)
        assert payload["outputs"]["m"] == [nearest if m is None else m] * 2
        assert peak < 200e6 and (m is not None or elapsed < 1.0)

    @pytest.mark.parametrize("kind", ["box", "simplex"])
    def test_factorization_flag_past_roundoff(self, tmp_path, capsys, kind):
        # exponents near 1e6 at t = 128 round above 1e-10: 4 eps of their size decides
        path = write_cfg(tmp_path, _dilated_cfg(kind, 256))
        assert main(["sections-norms", path, "--m", "85,85"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        tols, worst = payload["tolerances"], payload["outputs"]["max_factorization_residual"]
        assert tols["factorization"] == 1e-10 and tols["factorization_decided_by"] == "roundoff"
        assert tols["factorization_roundoff"] > 1e-10
        assert worst < tols["factorization"] + tols["factorization_roundoff"]


def _cli(argv):
    """The command line in a fresh interpreter: its exit code, stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "toric_quant.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300, check=False)


class TestOutOfRange:
    """Valid inputs whose norms leave float64 exit 2 with out_of_range, not a traceback."""

    @pytest.mark.parametrize("case", ["concentrate_huge_simplex"])
    def test_exits_two_with_strict_json(self, tmp_path, case):
        # |sigma^0_0| at the vertex m = 0 of x + y <= 2^50 overflows on the rule, and
        # scaled by its peak it underflows on every node: the mass vanishes
        argv = ["concentrate", write_cfg(tmp_path, _simplex_cfg(2 ** 50)), "--m", "0,0"]
        proc = _cli(argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        err = json.loads(proc.stderr, parse_constant=_reject_constant)["error"]
        assert err["code"] == "out_of_range" and "degenerate" in err["message"]


    @pytest.mark.parametrize("config", ["configs/square2.json",  # box: the contraction
                                        "bench/fixtures/simplex2.json"])  # segments: node values
    def test_overflowing_weight_prints_one_json_object(self, capsys, config):
        # x1^2000 leaves float64 past x1 = 1.42; numpy must not warn on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["concentrate", str(REPO / config), "--u=x1^2000"]) == 2
        err = json.loads(capsys.readouterr().err, parse_constant=_reject_constant)["error"]
        assert err["code"] == "out_of_range" and "non-finite" in err["message"]

    @pytest.mark.parametrize("res", ["32", "96"])
    def test_weight_expanding_out_of_float64_exits_two(self, capsys, res):
        # (x1 + 1e200)^2 expands about m to a constant term of 1e400: box fibers
        # (R_t, and R_inf at 64 or at res nodes) report it, and no NaN reaches JSON
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["concentrate", str(REPO / "configs" / "square2.json"),
                         "--u=(x1+1e200)^2", "--resolution", res]) == 2
        err = json.loads(capsys.readouterr().err, parse_constant=_reject_constant)["error"]
        assert err["code"] == "out_of_range" and "non-finite" in err["message"]

    def test_infinite_report_value_exits_two(self, capsys):
        # det(Hess g_t) * prod l_j at t = 1e308 is inf: JSON has no token for it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["potential-validate", str(REPO / "configs" / "square2.json"),
                         "--t", "1e308"]) == 2
        cap = capsys.readouterr()
        err = json.loads(cap.err, parse_constant=_reject_constant)["error"]
        assert err["code"] == "out_of_range" and cap.out == ""

    def test_underflowed_frame_distance_exits_two(self, capsys):
        # at t = 1e300 some frames meet the limit in float64: a distance of 0 has no log,
        # so the slope is NaN; no numpy warning reaches stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["polarization-limit", str(REPO / "configs" / "square2.json"),
                         "--t", "1e300,1e308"]) == 2
        cap = capsys.readouterr()
        err = json.loads(cap.err, parse_constant=_reject_constant)["error"]
        assert err["code"] == "out_of_range" and cap.out == ""

    def test_distances_down_to_1e_150_keep_their_slope(self, capsys):
        # the closed-form sine resolves the interval's 1/t distance far below roundoff
        assert main(["polarization-limit", str(REPO / "configs" / "interval.json"),
                     "--t", "1,1e150"]) == 0
        out = json.loads(capsys.readouterr().out)["outputs"]
        assert out["max_grassmann_distance"][1] == pytest.approx(1e-150, rel=1e-12)
        assert all(-1.0 < s < -0.99 for s in out["fitted_slopes"])

    @pytest.mark.parametrize("argv", [["sections-norms", "--t", "1e20"],
                                      ["full-suite", "--t", "1,1e20"]])
    @pytest.mark.parametrize("config", ["configs/square2.json", "bench/fixtures/hirzebruch.json"])
    def test_huge_t_norm_gap_prints_one_json_line(self, capsys, argv, config):
        # at t = 1e20 the factorization gap leaves float64: no numpy warning on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([argv[0], str(REPO / config), *argv[1:]]) == 2
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err.count("\n") == 1
        err = json.loads(cap.err, parse_constant=_reject_constant)["error"]
        assert err["code"] == "out_of_range" and "non-finite" in err["message"]

    @pytest.mark.parametrize("command", ["legendre-roundtrip", "sections-norms", "full-suite"])
    @pytest.mark.parametrize("config", SMOKE_CONFIGS, ids=lambda p: p.stem)
    def test_t_past_float64_prints_one_json_line(self, capsys, command, config):
        # t psi leaves float64 in the family, Newton's residual and the section norms: the one
        # out_of_range line and no numpy warning on stderr, or a report where Newton converges
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, str(config), "--t", "1e300,1e308"])
        cap = capsys.readouterr()
        if command == "legendre-roundtrip" and config.stem in ("interval", "cube2", "simplex2"):
            assert code == 0 and cap.err == ""
            return
        assert code == 2 and cap.out == "" and cap.err.count("\n") == 1
        assert json.loads(cap.err, parse_constant=_reject_constant)["error"]["code"] == \
            "out_of_range"

    @pytest.mark.parametrize("command, code", [("potential-validate", 2),
                                               ("polarization-limit", 2),
                                               ("flow-check", 0), ("concentrate", 1)])
    def test_other_commands_at_t_past_float64(self, capsys, command, code):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(REPO / "configs" / "square2.json"),
                         "--t", "1e300,1e308"]) == code
        assert capsys.readouterr().err.count("\n") == (code == 2)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_emit_refuses_non_finite(self, value):
        rep = RunReport("validate", "d" * 64, {"x": [1.0, value]}, {}, {})
        with pytest.raises(ConfigError, match="non-finite") as err:
            emit(rep, "json")
        assert err.value.code == "out_of_range"


def _dilated_cfg(kind, k):
    """[0, k]^2 ("box") or k Delta^2 ("simplex") under A = [[1, 0]], Q = 1, at resolution 128."""
    far = ([{"normal": [-1, 0], "offset": k}, {"normal": [0, -1], "offset": k}] if kind == "box"
           else [{"normal": [-1, -1], "offset": k}])
    return {"polytope": {"dim": 2, "facets": [{"normal": [1, 0], "offset": 0},
                                              {"normal": [0, 1], "offset": 0}] + far},
            "proj": [[1, 0]], "phi": {"type": "quadratic", "Q": [[1.0]]}, "resolution": 128}


class TestDefaultM:
    """Without --m: the lattice point nearest the barycenter, exactly, the smallest on a tie."""

    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json"))
                             + sorted((REPO / "bench" / "fixtures").glob("*.json")),
                             ids=lambda p: p.stem)
    def test_nearest_lattice_point(self, path):
        cfg = load_config(str(path))
        b = cfg.polytope.barycenter
        pts = map(tuple, lattice_points(cfg.polytope).tolist())
        assert cfg.polytope.lattice_center == min(pts, key=lambda m: (
            sum((Fraction(c) - v) ** 2 for c, v in zip(m, b)), m))

    @pytest.mark.parametrize("bounds,m", [([(0, 3)], (1,)), ([(0, 3), (0, 1)], (1, 0)),
                                          ([(-3, 0), (-1, 2)], (-2, 0))])
    def test_exact_tie_takes_the_smaller_point(self, tmp_path, bounds, m):
        # the barycenter is a cell center: 2 or 4 points tie, and the first of them in
        # sorted order, not the first lattice point, is taken
        facets = [{"normal": [int(j == i) for j in range(len(bounds))], "offset": -lo}
                  for i, (lo, _) in enumerate(bounds)]
        facets += [{"normal": [-int(j == i) for j in range(len(bounds))], "offset": hi}
                   for i, (_, hi) in enumerate(bounds)]
        data = {"polytope": {"dim": len(bounds), "facets": facets}}
        assert load_config(write_cfg(tmp_path, data)).polytope.lattice_center == m

    def test_int64_squares_are_refused(self, tmp_path):
        # [0, 2^40] with its two ends as its lattice: (2^39)^2 leaves int64 (its real scan
        # is refused before any axis is built)
        data = {"polytope": {"dim": 1, "facets": [{"normal": [1], "offset": 0},
                                                  {"normal": [-1], "offset": 2 ** 40}]}}
        cfg = load_config(write_cfg(tmp_path, data))
        cfg.polytope.__dict__["lattice_array"] = np.array([[0], [2 ** 40]])
        with pytest.raises(GridRangeError, match="leave int64"):
            cfg.polytope.lattice_center


class TestLargeLattice:
    """lattice and weights read the cached int64 lattice of [0, 1024]^2 and 1024 Delta^2."""

    @pytest.mark.parametrize("command", ["weights", "lattice"])
    @pytest.mark.parametrize("kind", ["box", "simplex"])
    def test_run_is_bounded(self, tmp_path, kind, command):
        # a tuple per lattice point, and for weights an exact image of each, took 3.3 s and
        # 261 MB RSS (weights) and 1.5 s (lattice) on [0, 1024]^2
        cfg = load_config(write_cfg(tmp_path, _dilated_cfg(kind, 1024)))
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            out = run(cfg, command).outputs
            elapsed, peak = time.perf_counter() - t0, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = 1025 ** 2 if kind == "box" else 1025 * 1026 // 2
        if command == "weights":  # A = [[1, 0]]: a column of the box, a row of the simplex
            assert list(out["multiplicities"].items()) == [
                (str(i), 1025 if kind == "box" else 1025 - i) for i in range(1025)]
            assert out["total"] == out["lattice_count"] == count
        else:
            assert out["count"] == len(out["points"]) == count
        assert elapsed < 1.0 and peak < 200e6


class TestLogNorms:
    """sections-norms keeps every norm as a log: L1 norms past float64 report, both checks hold."""

    @staticmethod
    def _report(capsys, argv):
        assert main(["sections-norms", *argv]) == 0
        cap = capsys.readouterr()
        payload = json.loads(cap.out, parse_constant=_reject_constant)
        assert cap.err == "" and payload["flags"] == {
            "closed_form_agrees": True, "factorization_within_tolerance": True}
        return payload["outputs"]

    def test_sections_norms_8_simplex_reports_finite_logs(self):
        # the L1 norm of sigma^(8, 0, 0) at t = 32 is past float64, its log is not
        proc = _cli(["sections-norms", str(REPO / "bench" / "fixtures" / "dilated_simplex8.json"),
                     "--m", "8,0,0", "--t", "8,32"])
        assert proc.returncode == 0 and proc.stderr == ""
        payload = json.loads(proc.stdout, parse_constant=_reject_constant)
        logs = [row["log_l1_norm"] for row in payload["outputs"]["rows"]]
        assert payload["passed"] is True and all(np.isfinite(logs))
        assert logs[-1] > np.log(np.finfo(float).max)

    @pytest.mark.parametrize("fixture,m", [("hirzebruch", "4,0"), ("square2_skew", "2,2"),
                                           ("dilated_simplex8", "8,0,0")])
    def test_fixtures_past_float64(self, capsys, fixture, m):
        out = self._report(capsys, [str(REPO / "bench" / "fixtures" / f"{fixture}.json"), "--m", m])
        assert max(row["log_l1_norm"] for row in out["rows"]) > np.log(np.finfo(float).max)

    @pytest.mark.parametrize("third", [False, True], ids=["m0", "m_k3"])
    @pytest.mark.parametrize("k", [16, 64, 256])
    @pytest.mark.parametrize("kind", ["box", "simplex"])
    def test_dilated_polygons(self, tmp_path, capsys, kind, k, third):
        # m = (k // 3, k // 3) and [0, 256]^2 at m = 0 once exited 2 on an L1 norm past float64
        m = k // 3 if third else 0
        out = self._report(capsys, [write_cfg(tmp_path, _dilated_cfg(kind, k)), "--m", f"{m},{m}"])
        assert out["m"] == [m, m] and len(out["rows"]) == 5

    # the L1 norms as the linear form printed them, at t = 8, 16, 32, 64, 128
    LINEAR = {"configs/square2.json": [70.56099948581686, 2837.2967433969743, 6085983.71913513,
                                       38556299332760.945, 2.1614331571493722e+27],
              "bench/fixtures/dilated_simplex6.json": [
                  1290.8250440163595, 51118.882189476215, 108724964.28915632,
                  689424285647648.6, 3.813813723415038e+28]}

    @pytest.mark.parametrize("config", sorted(LINEAR))
    def test_logs_keep_the_linear_norms(self, capsys, config):
        logs = [row["log_l1_norm"] for row in self._report(capsys, [str(REPO / config)])["rows"]]
        np.testing.assert_allclose(np.exp(logs), self.LINEAR[config], rtol=1e-13, atol=0)

    def test_csv_column_is_the_log(self, capsys):
        assert main(["sections-norms", str(REPO / "configs" / "square2.json"),
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,log_l1_norm,factorization_residual"
        assert float(lines[1].split(",")[1]) == pytest.approx(np.log(70.56099948581686), rel=1e-13)


class TestLargeLinearTerm:
    """A valid phi with a large b: Newton stops at the rounding floor of grad g_t."""

    @pytest.mark.parametrize("b", [1e6, 1e10])
    @pytest.mark.parametrize("config", ["configs/square2.json", "bench/fixtures/hirzebruch.json",
                                        "bench/fixtures/square2_skew.json"])
    def test_newton_commands_report(self, tmp_path, capsys, config, b):
        # at t = 128, y_1 reaches 1.3e8 (b = 1e6), whose ulp 1.5e-8 is above
        # Newton's 1e-12 tolerance: the iteration used to end in a traceback
        data = json.loads((REPO / config).read_text())
        path = write_cfg(tmp_path, dict(data, phi={"type": "quadratic", "Q": [[1.0]], "b": [b]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in ("legendre-roundtrip", "flow-check"):
                assert main([command, path]) in (0, 1)
                cap = capsys.readouterr()
                payload = json.loads(cap.out, parse_constant=_reject_constant)
                assert payload["command"] == command and cap.err == ""
            # the L1 norms are logs and report; the exponents of |sigma^m_t| (near 1e8 at
            # b = 1e6) round above 1e-10, within 4 eps of their size
            assert main(["sections-norms", path]) == 0
        cap = capsys.readouterr()
        payload = json.loads(cap.out, parse_constant=_reject_constant)
        assert cap.err == "" and payload["flags"] == {
            "closed_form_agrees": True, "factorization_within_tolerance": True}
        tols = payload["tolerances"]
        assert tols["factorization_decided_by"] == "roundoff"
        assert 1e-10 < payload["outputs"]["max_factorization_residual"] \
            < tols["factorization"] + tols["factorization_roundoff"]

    @pytest.mark.parametrize("command,b", [("legendre-roundtrip", 1e11),
                                           ("legendre-roundtrip", 1e12)])
    def test_newton_past_the_rounding_floor_exits_two(self, tmp_path, capsys, command, b):
        # x1 + x2 <= 4 couples the axes: rounding y_1 leaves a y_2 residual above 1e-12
        data = json.loads((REPO / "bench" / "fixtures" / "hirzebruch.json").read_text())
        path = write_cfg(tmp_path, dict(data, phi={"type": "quadratic", "Q": [[1.0]], "b": [b]}))
        assert main([command, path]) == 2
        cap = capsys.readouterr()
        err = json.loads(cap.err)["error"]
        assert cap.out == "" and err["code"] == "out_of_range"
        assert "Newton did not reach tolerance" in err["message"]

    def test_flow_check_reports_past_the_rounding_floor(self, tmp_path, capsys):
        # b = 1e12 stops Newton on hirzebruch (above); b does not enter Hess g_t, so
        # the flow check, which solves nothing, reports with its flag true
        data = json.loads((REPO / "bench" / "fixtures" / "hirzebruch.json").read_text())
        path = write_cfg(tmp_path, dict(data, phi={"type": "quadratic", "Q": [[1.0]], "b": [1e12]}))
        assert main(["flow-check", path]) == 0
        cap = capsys.readouterr()
        payload = json.loads(cap.out, parse_constant=_reject_constant)
        assert cap.err == "" and payload["outputs"]["max_residual"] < 1e-14

    # exit codes pinned per (fixture, b): legendre-roundtrip, then flow-check (which
    # reads no Newton solve, so b cannot move it)
    CODES = {
        "configs/square2.json": {0: (0, 0), 1e6: (0, 0), 1e8: (1, 0), 1e10: (1, 0),
                                 1e11: (1, 0), 1e12: (1, 0)},
        "bench/fixtures/hirzebruch.json": {0: (0, 0), 1e6: (0, 0), 1e8: (1, 0), 1e10: (1, 0),
                                           1e11: (2, 0), 1e12: (2, 0)},
        "bench/fixtures/square2_skew.json": {0: (0, 0), 1e6: (1, 0), 1e8: (1, 0), 1e10: (1, 0),
                                             1e11: (1, 0), 1e12: (1, 0)},
        "bench/fixtures/simplex2.json": {0: (0, 0), 1e6: (0, 0), 1e8: (1, 0), 1e10: (1, 0),
                                         1e11: (1, 0), 1e12: (1, 0)},
    }

    @pytest.mark.parametrize("command", ["legendre-roundtrip", "flow-check"])
    @pytest.mark.parametrize("b", [0, 1e6, 1e8, 1e10, 1e11, 1e12])
    @pytest.mark.parametrize("config", sorted(CODES))
    def test_exit_codes_pinned(self, tmp_path, capsys, config, b, command):
        # the Newton damping decides where the rounding floor is reached, and so
        # whether a large-b run reports (0 or 1) or stops with a code (2)
        data = json.loads((REPO / config).read_text())
        path = write_cfg(tmp_path, dict(data, phi={"type": "quadratic", "Q": [[1.0]], "b": [b]}))
        expected = self.CODES[config][b][command == "flow-check"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, path]) == expected
        cap = capsys.readouterr()
        if expected == 2:
            assert cap.out == "" and json.loads(cap.err)["error"]["code"] == "out_of_range"
        else:
            assert cap.err == "" and json.loads(cap.out)["command"] == command

    @pytest.mark.parametrize("b", [1e6, 1e10])
    def test_widened_factorization_tolerance_still_fails_a_wrong_weight(self, tmp_path, b,
                                                                        monkeypatch):
        from toric_quant import sections

        # f_m without its -psi term, where 4 eps S is widest
        data = json.loads((REPO / "configs" / "square2.json").read_text())
        cfg = load_config(write_cfg(tmp_path, dict(data, phi={"type": "quadratic",
                                                               "Q": [[1.0]], "b": [b]})))
        assert run(cfg, "sections-norms").flags["factorization_within_tolerance"]
        real = sections.ConcentrationWeight.__call__
        monkeypatch.setattr(sections.ConcentrationWeight, "__call__",
                            lambda w, x: real(w, x) + w.psi.value(x))
        assert not run(cfg, "sections-norms").flags["factorization_within_tolerance"]

    def test_moderate_b_keeps_the_roundtrip_flag(self, tmp_path, capsys):
        data = json.loads((REPO / "configs" / "square2.json").read_text())
        path = write_cfg(tmp_path, dict(data, phi={"type": "quadratic", "Q": [[1.0]], "b": [1e6]}))
        assert main(["legendre-roundtrip", path]) == 0
        assert json.loads(capsys.readouterr().out)["outputs"]["max_roundtrip_error"] < 1e-8


class TestTimeFamilyOnce:
    """Each command pays the t-independent part of its time family once."""

    TIMES = (8.0, 16.0, 32.0, 64.0)

    def _counted(self, monkeypatch, module, name, record):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: record(*a) or real(*a))

    def test_flow_check_makes_no_newton_call(self, tmp_path, monkeypatch):
        from toric_quant import legendre

        calls = []
        self._counted(monkeypatch, legendre, "inverse",
                      lambda pot, y, t: calls.append(np.ravel(t).tolist()))
        assert run(load_config(write_cfg(tmp_path, SQUARE2_CFG)), "flow-check",
                   {"t_list": self.TIMES}).passed
        # the frames and the flowed coordinates come from Hessians alone
        assert calls == []

    def test_flow_check_runs_with_newton_raising(self, tmp_path, monkeypatch):
        from toric_quant import legendre

        def inverse(pot, y, t=0.0):
            raise AssertionError("flow-check called legendre.inverse")
        monkeypatch.setattr(legendre, "inverse", inverse)
        for cfg in (SQUARE2_CFG, INTERVAL_CFG):
            assert run(load_config(write_cfg(tmp_path, cfg)), "flow-check").passed

    def test_full_suite_one_newton_stack(self, tmp_path, monkeypatch):
        from toric_quant import legendre

        calls = []
        self._counted(monkeypatch, legendre, "inverse",
                      lambda pot, y, t: calls.append((np.shape(y), np.ravel(t).tolist())))
        run(load_config(write_cfg(tmp_path, SQUARE2_CFG)), "full-suite", {"t_list": self.TIMES})
        # legendre-roundtrip's stack, and no other
        assert calls == [((5, 100, 2), [0.0, *self.TIMES])]

    @pytest.mark.parametrize("name", ["square2", "simplex2", "dilated_simplex6"])
    def test_full_suite_scans_the_lattice_once(self, name, monkeypatch):
        from toric_quant import polytope

        path = next(p for p in (REPO / "configs" / f"{name}.json",
                                REPO / "bench" / "fixtures" / f"{name}.json") if p.exists())
        cfg = load_config(str(path))
        scans = []
        self._counted(monkeypatch, polytope, "_grid_scan", lambda *a: scans.append(1))
        # lattice, weights and the default m of sections-norms and of concentrate
        run(cfg, "full-suite")
        run(cfg, "full-suite")
        assert scans == [1]

    def test_legendre_roundtrip_one_newton_stack(self, tmp_path, monkeypatch):
        from toric_quant import legendre

        calls = []
        self._counted(monkeypatch, legendre, "inverse",
                      lambda pot, y, t: calls.append((np.shape(y), np.ravel(t).tolist())))
        run(load_config(write_cfg(tmp_path, SQUARE2_CFG)), "legendre-roundtrip",
            {"t_list": self.TIMES})
        assert calls == [((5, 100, 2), [0.0, *self.TIMES])]

    @pytest.mark.parametrize("command", ["flow-check", "sections-norms", "legendre-roundtrip",
                                         "full-suite"])
    def test_one_pullback_per_command(self, command, tmp_path, monkeypatch):
        from toric_quant import potential

        # the one family pulls psi back once for every time
        pulls = []
        self._counted(monkeypatch, potential, "pullback",
                      lambda phi, proj: pulls.append(proj.matrix))
        run(load_config(write_cfg(tmp_path, SQUARE2_CFG)), command, {"t_list": self.TIMES})
        assert pulls == [((1, 0),)]

    def test_polarization_limit_hessians_once_per_point(self, tmp_path, monkeypatch):
        from toric_quant import polarization, potential

        # one decay report for the stack of points: one Hessian of g0 and of psi at each
        # point, and one stacked SPD inverse of G_t (no LAPACK inv)
        calls = {"g0": [], "psi": [], "solve": [], "inv": []}
        cfg = load_config(write_cfg(tmp_path, SQUARE2_CFG))
        phi_hessian = cfg.phi.hessian
        cfg = dataclasses.replace(cfg, phi=dataclasses.replace(
            cfg.phi, hessian=lambda y: calls["psi"].append(np.shape(y)) or phi_hessian(y)))
        self._counted(monkeypatch, potential, "g0_hessian",
                      lambda P, x, L=None: calls["g0"].append(np.shape(x)))
        self._counted(monkeypatch, polarization, "_solve_spd",
                      lambda H, R: calls["solve"].append(np.shape(H)))
        self._counted(monkeypatch, np.linalg, "inv", lambda a: calls["inv"].append(np.shape(a)))
        run(cfg, "polarization-limit", {"t_list": self.TIMES, "points": 3})
        assert calls == {"g0": [(3, 2)], "psi": [(3, 1)], "solve": [(3, 4, 2, 2)], "inv": []}

    def test_sections_norms_sigma0_and_fm_once(self, tmp_path, monkeypatch):
        from toric_quant import sections

        norms, weights = [], []
        # the one-row calls are sigma^m's: the closed-form check takes all 9
        # lattice points of the square at once
        self._counted(monkeypatch, sections, "log_norm_matrix",
                      lambda pot, ms, x, t=0.0: len(ms) == 1 and norms.append(
                          np.ravel(t).tolist()))
        self._counted(monkeypatch, sections.ConcentrationWeight, "__call__",
                      lambda w, x: weights.append(len(x)))
        run(load_config(write_cfg(tmp_path, SQUARE2_CFG)), "sections-norms",
            {"t_list": self.TIMES, "m": (1, 1)})
        # sigma^m_t for t = 0 and the whole ladder in one call
        assert norms == [[0.0, *self.TIMES]]
        # f_m once on the 100 sample points; the L1 norms take it per fiber
        assert weights.count(100) == 1

    def test_potential_validate_one_hessian_stack(self, tmp_path, monkeypatch):
        from toric_quant import potential

        # one Hessian of g0 on the 200 + 28 samples, and one call that
        # carries t = 0 and the whole ladder
        seen, g0 = [], []
        self._counted(monkeypatch, potential.SymplecticPotential, "hessian",
                      lambda pot, x, t: seen.append(np.ravel(t).tolist()))
        self._counted(monkeypatch, potential, "g0_hessian",
                      lambda P, x, L=None: g0.append(np.shape(x)))
        run(load_config(write_cfg(tmp_path, SQUARE2_CFG)), "potential-validate",
            {"t_list": self.TIMES})
        assert seen == [[0.0, *self.TIMES]]
        assert g0 == [(228, 2)]


class TestRunSharing:
    """The commands of one run share its potential family, its interior samples and, in
    full-suite, the fibers of each (resolution, m); nothing shared outlives the run."""

    @staticmethod
    def _assert_parts_equal_each_command_alone(cfg, options):
        suite = run(cfg, "full-suite", options)
        for command in _COMMANDS[:-1]:
            own = run(cfg, command, options)
            part = RunReport(command, cfg.digest, suite.outputs[command], {
                k.split(".", 1)[1]: v for k, v in suite.tolerances.items()
                if k.startswith(command + ".")}, {
                k.split(".", 1)[1]: v for k, v in suite.flags.items()
                if k.startswith(command + ".")})
            assert emit(part) == emit(own), command

    @pytest.mark.parametrize("options", [{"u": "x1^2"}, {"points": 1}, {"points": 300}],
                             ids=["u", "points1", "points300"])
    @pytest.mark.parametrize("config", SMOKE_CONFIGS, ids=lambda p: p.stem)
    def test_full_suite_parts_equal_each_command_alone(self, config, options):
        # --points 300 draws past the 200 rows of potential-validate, and the later commands
        # read the first rows of that draw
        self._assert_parts_equal_each_command_alone(load_config(str(config)), options)

    def test_each_count_is_drawn_as_a_draw_of_that_many(self, tmp_path):
        # on [0,3] x [0,5] x [0,7] the first row of the 200-row draw rounds apart from a draw
        # of one row (numpy takes a vector-matrix product for one row): polarization-limit
        # --points 1 must not read it off the larger draw
        from toric_quant import cli

        box = {"dim": 3, "facets": [{"normal": n, "offset": b} for n, b in [
            ([1, 0, 0], 0), ([-1, 0, 0], 3), ([0, 1, 0], 0), ([0, -1, 0], 5),
            ([0, 0, 1], 0), ([0, 0, -1], 7)]]}
        cfg = load_config(write_cfg(tmp_path, {"polytope": box, "proj": [[1, 0, 0]],
                                               "resolution": 16}))
        shared = cli._RunInputs(cfg)
        for count in (200, 1, 100, 300, 20, 1):
            assert np.array_equal(shared.samples(count),
                                  potential.interior_samples(cfg.polytope, count, seed=0)), count
        self._assert_parts_equal_each_command_alone(cfg, {"points": 1})

    @pytest.mark.parametrize("config", SMOKE_CONFIGS, ids=lambda p: p.stem)
    def test_full_suite_builds_each_fiber_rule_once_per_run(self, config, monkeypatch):
        # R_t's rule per (resolution, m) serves sections-norms and concentrate; a box
        # fiber's R_inf rule at another resolution is a key of its own
        cfg = load_config(str(config))
        builds = []
        real_segment, real_box = quadrature.segment_fibers, quadrature.box_rule
        monkeypatch.setattr(quadrature, "segment_fibers", lambda P, proj, res, m, *nodes: (
            builds.append((res, tuple(m), *nodes)) or real_segment(P, proj, res, m, *nodes)))
        monkeypatch.setattr(quadrature, "box_rule", lambda P, res, m: (
            builds.append((res, tuple(m))) or real_box(P, res, m)))
        rules = []
        for _ in range(2):  # a second run builds them again
            builds.clear()
            run(cfg, "full-suite")
            rules.append([b for b in builds if b[0] is not None])  # None: the fiber through m
            assert (cfg.resolution, cfg.polytope.lattice_center) in rules[-1]
            assert len(rules[-1]) == len(set(rules[-1]))
        assert rules[0] == rules[1]

    @pytest.mark.parametrize("config", SMOKE_CONFIGS, ids=lambda p: p.stem)
    def test_the_second_read_takes_the_fibers_out(self, config, monkeypatch):
        # concentrate drops its segment rule before it builds R_inf's: the memo must not
        # hold it past sections-norms' and concentrate's reads
        real, held = quadrature._fibers, []
        monkeypatch.setattr(quadrature, "_fibers", lambda *a: (
            real(*a), held.append(len(quadrature._SHARED.get())))[0])
        run(load_config(str(config)), "full-suite")
        assert held == [1, 0]

    def test_single_commands_share_no_fibers(self, monkeypatch):
        cfg = load_config(str(REPO / "configs" / "square2.json"))
        builds = []
        real = quadrature.box_rule
        monkeypatch.setattr(quadrature, "box_rule",
                            lambda P, *a: builds.append(a[0]) or real(P, *a))
        real_fibers, memos = quadrature._fibers, []
        monkeypatch.setattr(quadrature, "_fibers", lambda *a: memos.append(
            quadrature._SHARED.get(None)) or real_fibers(*a))
        run(cfg, "sections-norms")
        run(cfg, "concentrate")
        assert builds == [cfg.resolution, cfg.resolution]
        assert memos == [None, None]  # no memo to keep concentrate's rule alive

    @pytest.mark.parametrize("config", SMOKE_CONFIGS, ids=lambda p: p.stem)
    def test_smaller_draws_are_the_first_rows(self, config):
        P = load_config(str(config)).polytope
        full = potential.interior_samples(P, 200, seed=0)
        for k in (10, 20, 100):
            assert np.array_equal(potential.interior_samples(P, k, seed=0), full[:k])
        weights = potential.mixture_weights(P, 300, seed=0)
        for k in (1, 10, 20, 100, 200):
            assert np.array_equal(potential.mixture_weights(P, k, seed=0), weights[:k])

    @pytest.mark.parametrize("command, options, draws", [
        ("full-suite", {}, [200]), ("full-suite", {"points": 300}, [200, 300]),
        ("polarization-limit", {}, [10]), ("lattice", {}, []), ("weights", {}, [])])
    def test_samples_are_drawn_once_and_only_when_read(self, command, options, draws,
                                                       monkeypatch):
        cfg = load_config(str(REPO / "configs" / "interval.json"))
        seen = []
        real = potential.mixture_weights
        monkeypatch.setattr(potential, "mixture_weights",
                            lambda P, count, seed=0: seen.append(count) or real(P, count, seed))
        run(cfg, command, options)
        assert seen == draws

