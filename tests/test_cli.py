import json

import numpy as np
import pytest

from toric_quant.cli import (
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

    def test_phi_dimension_mismatch(self, tmp_path):
        data = dict(SQUARE2_CFG, phi={"type": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]]})
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, data))
        assert err.value.code == "dimension_mismatch"

    def test_digest_stable(self, tmp_path):
        a = load_config(write_cfg(tmp_path, INTERVAL_CFG, "a.json"))
        b = load_config(write_cfg(tmp_path, INTERVAL_CFG, "b.json"))
        assert a.digest == b.digest


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
