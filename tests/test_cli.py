import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

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
        # Q passes the Cholesky test of quadratic, but its smallest eigenvalue
        # (1e-11, about 5e-12) is no strict convexity
        data = dict(SQUARE2_CFG, proj=rows, phi=dict(phi, type="quadratic"))
        assert main(["validate", write_cfg(tmp_path, data)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "not_convex"
        assert "np." not in err["message"] and "eigenvalue" in err["message"]

    def test_small_but_positive_phi_loads(self, tmp_path):
        data = dict(SQUARE2_CFG, phi={"type": "quadratic", "Q": [[1e-9]]})
        assert load_config(write_cfg(tmp_path, data)).phi.dim == 1

    def test_digest_stable(self, tmp_path):
        a = load_config(write_cfg(tmp_path, INTERVAL_CFG, "a.json"))
        b = load_config(write_cfg(tmp_path, INTERVAL_CFG, "b.json"))
        assert a.digest == b.digest


def _simplex_cfg(side, resolution=8):
    return {"polytope": {"dim": 2, "facets": [
        {"normal": [1, 0], "offset": 0}, {"normal": [0, 1], "offset": 0},
        {"normal": [-1, -1], "offset": side}]}, "proj": [[1, 0]], "resolution": resolution}


class TestGridResolution:
    def test_midpoint_grid_past_int64_exits_two(self, tmp_path, capsys):
        # the facet values fit int64 at load, the grid scaled by
        # 2 x resolution does not
        path = write_cfg(tmp_path, _simplex_cfg(2 ** 57))
        assert main(["concentrate", path, "--m", "0,0"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "bad_resolution" and "resolution 8:" in err["message"]

    def test_resolution_option_checked(self, tmp_path, capsys):
        path = write_cfg(tmp_path, _simplex_cfg(2 ** 50))
        assert main(["concentrate", path, "--m", "0,0", "--resolution", "1024"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "bad_resolution" and "resolution 1024:" in err["message"]

    def test_library_replace_checked(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, _simplex_cfg(2 ** 50)))
        with pytest.raises(ConfigError, match="resolution 1024:") as err:
            run(dataclasses.replace(cfg, resolution=1024), "concentrate", {"m": (0, 0)})
        assert err.value.code == "bad_resolution"

    @pytest.mark.parametrize("command", ["lattice", "weights", "sections-norms"])
    def test_lattice_scan_past_the_limit_exits_two(self, tmp_path, capsys, command):
        # the bounding box of x + y <= 2^57 has about 2^114 grid points
        path = write_cfg(tmp_path, _simplex_cfg(2 ** 57))
        assert main([command, path]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "bad_polytope" and "2^32 scan limit" in err["message"]

    def test_midpoint_grid_past_the_scan_limit_keeps_bad_resolution(self, tmp_path, capsys):
        # 2 Delta^3 at resolution 2048: 2^33 midpoint cells
        data = {"polytope": {"dim": 3, "facets": [
            {"normal": [1, 0, 0], "offset": 0}, {"normal": [0, 1, 0], "offset": 0},
            {"normal": [0, 0, 1], "offset": 0}, {"normal": [-1, -1, -1], "offset": 2}]},
            "proj": [[1, 0, 0]]}
        path = write_cfg(tmp_path, data)
        assert main(["concentrate", path, "--m", "0,0,0", "--resolution", "2048"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "bad_resolution" and "2^32 scan limit" in err["message"]


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

    @pytest.mark.parametrize("expr", [e for e in BAD if e])
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


class TestEmit:
    def test_json_deterministic(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, INTERVAL_CFG))
        blobs = {emit(run(cfg, "full-suite"), "json") for _ in range(2)}
        assert len(blobs) == 1

    def test_timings_not_serialized(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, INTERVAL_CFG))
        payload = json.loads(emit(run(cfg, "lattice"), "json"))
        assert "timings" not in payload

    def test_csv_concentrate(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SQUARE2_CFG))
        rep = run(cfg, "concentrate", {"m": (1, 1), "u": "x1^2", "t_list": (8.0, 16.0)})
        text = emit(rep, "csv").decode()
        assert text.splitlines()[0] == "t,ratio,error"
        assert len(text.splitlines()) == 3

    def test_svg_decay_plot(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SQUARE2_CFG))
        rep = run(cfg, "concentrate", {"m": (1, 1), "u": "x1^2"})
        blob = emit(rep, "svg")
        assert blob.startswith(b"<svg") and b"polyline" in blob

    def test_svg_empty_series_errors(self):
        rep = RunReport("concentrate", "d" * 64,
                        {"t": [], "errors": [], "ratios": [], "slice_value": 0.0,
                         "decay_exponent": 0.0, "m": [0], "u": "x1"},
                        {}, {}, {})
        with pytest.raises(ConfigError, match="nothing to plot"):
            emit(rep, "svg")

    def test_svg_all_zero_errors_get_a_note(self, capsys):
        # u = 1: the fiber sums of w and of w * u are the same numbers, so
        # R_t = R_inf = 1 in floating point and every error is exactly 0; no
        # point has a logarithm, and the plot keeps its axes and title
        path = str(pathlib.Path(__file__).parents[1] / "configs" / "square2.json")
        assert main(["concentrate", path, "--u", "1", "--format", "svg"]) == 0
        svg = capsys.readouterr().out
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "every |R_t - R_inf| is 0" in svg and "<circle" not in svg
        assert "log10 t" in svg and "<text x=\"320\" y=\"30\"" in svg

    def test_svg_unsupported_command(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, INTERVAL_CFG))
        with pytest.raises(ConfigError, match="no plot"):
            emit(run(cfg, "lattice"), "svg")


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

    def test_out_file_written(self, tmp_path):
        path = write_cfg(tmp_path, INTERVAL_CFG)
        out = tmp_path / "report.json"
        assert main(["validate", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["flags"]["delzant"] is True


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
        # 165 lattice points: radial pairings reach ~1e3, so an absolute
        # orthogonality residual would fail on roundoff alone
        path = write_cfg(tmp_path, SIMPLEX8_CFG)
        assert main(["sections-norms", path, "--t", "8,16"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert payload["flags"]["weights_orthogonal"] is True
        assert payload["outputs"]["orthogonality_residual"] < 1e-12

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


class TestOutOfRange:
    """Valid inputs whose norms leave float64 exit 2 with out_of_range, not a traceback."""

    @pytest.mark.parametrize("case", ["sections_norms_8_simplex", "concentrate_huge_simplex"])
    def test_exits_two_with_strict_json(self, tmp_path, case):
        if case == "sections_norms_8_simplex":
            # the L1 norm of sigma^(8, 0, 0) at t = 32 overflows
            argv = ["sections-norms", str(REPO / "bench" / "fixtures" / "dilated_simplex8.json"),
                    "--m", "8,0,0", "--t", "8,32"]
        else:
            # |sigma^0_0| at the vertex m = 0 of x + y <= 2^50 overflows on the rule
            argv = ["concentrate", write_cfg(tmp_path, _simplex_cfg(2 ** 50)), "--m", "0,0"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "toric_quant.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300, check=False)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        err = json.loads(proc.stderr, parse_constant=_reject_constant)["error"]
        assert err["code"] == "out_of_range" and "non-finite" in err["message"]


class TestTimeFamilyOnce:
    """Each command pays the t-independent part of its time family once."""

    TIMES = (8.0, 16.0, 32.0, 64.0)

    def _counted(self, monkeypatch, module, name, record):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: record(*a) or real(*a))

    def test_flow_check_solves_h0_once(self, tmp_path, monkeypatch):
        from toric_quant import legendre

        calls = []
        self._counted(monkeypatch, legendre, "inverse",
                      lambda pot, y, t: calls.append(np.ravel(t).tolist()))
        run(load_config(write_cfg(tmp_path, SQUARE2_CFG)), "flow-check",
            {"t_list": self.TIMES})
        # one Newton stack carries h_0 and the whole ladder
        assert calls == [[0.0, *self.TIMES]]

    def test_legendre_roundtrip_one_newton_stack(self, tmp_path, monkeypatch):
        from toric_quant import legendre

        calls = []
        self._counted(monkeypatch, legendre, "inverse",
                      lambda pot, y, t: calls.append((np.shape(y), np.ravel(t).tolist())))
        run(load_config(write_cfg(tmp_path, SQUARE2_CFG)), "legendre-roundtrip",
            {"t_list": self.TIMES})
        assert calls == [((5, 100, 2), [0.0, *self.TIMES])]

    @pytest.mark.parametrize("command", ["flow-check", "sections-norms", "legendre-roundtrip"])
    def test_one_pullback_per_command(self, command, tmp_path, monkeypatch):
        from toric_quant import potential

        # the one family pulls psi back once for every time
        pulls = []
        self._counted(monkeypatch, potential, "pullback",
                      lambda phi, proj: pulls.append(proj.matrix))
        run(load_config(write_cfg(tmp_path, SQUARE2_CFG)), command, {"t_list": self.TIMES})
        assert pulls == [((1, 0),)]

    def test_polarization_limit_hessians_once_per_point(self, tmp_path, monkeypatch):
        from toric_quant import potential

        # one decay report for the stack of points: one Hessian of g0 and of
        # psi at each point, and one inverse of the stack of G_t
        calls = {"g0": [], "psi": [], "inv": []}
        cfg = load_config(write_cfg(tmp_path, SQUARE2_CFG))
        phi_hessian = cfg.phi.hessian
        cfg = dataclasses.replace(cfg, phi=dataclasses.replace(
            cfg.phi, hessian=lambda y: calls["psi"].append(np.shape(y)) or phi_hessian(y)))
        self._counted(monkeypatch, potential, "g0_hessian",
                      lambda P, x: calls["g0"].append(np.shape(x)))
        self._counted(monkeypatch, np.linalg, "inv", lambda a: calls["inv"].append(np.shape(a)))
        run(cfg, "polarization-limit", {"t_list": self.TIMES, "points": 3})
        assert calls == {"g0": [(3, 2)], "psi": [(3, 1)], "inv": [(3, 4, 2, 2)]}

    def test_sections_norms_sigma0_and_fm_once(self, tmp_path, monkeypatch):
        from toric_quant import sections

        norms, weights = [], []
        # the one-row calls are sigma^m's: the closed-form check and the
        # Gram matrix take all 9 lattice points of the square at once
        self._counted(monkeypatch, sections, "norm_matrix",
                      lambda pot, ms, x, t=0.0: len(ms) == 1 and norms.append(
                          np.ravel(t).tolist()))
        self._counted(monkeypatch, sections.ConcentrationWeight, "__call__",
                      lambda w, x: weights.append(len(x)))
        run(load_config(write_cfg(tmp_path, SQUARE2_CFG)), "sections-norms",
            {"t_list": self.TIMES, "m": (1, 1)})
        # sigma^m_0, then sigma^m_t for the whole ladder in one call
        assert norms == [[0.0], list(self.TIMES)]
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
                      lambda P, x: g0.append(np.shape(x)))
        run(load_config(write_cfg(tmp_path, SQUARE2_CFG)), "potential-validate",
            {"t_list": self.TIMES})
        assert seen == [[0.0, *self.TIMES]]
        assert g0 == [(228, 2)]
