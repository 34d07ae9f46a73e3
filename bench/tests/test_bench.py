"""Tests of the benchmark itself: tracer hygiene, host factor, metric names, smoke runs."""
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostprobe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import FIXTURES, WORKLOADS  # noqa: E402


def _bound_objects():
    """Every module/class attribute the tracer may replace, by identity."""
    import importlib

    owners = [importlib.import_module(f"toric_quant.{m}") for m in spans.MODULES]
    owners.append(importlib.import_module("toric_quant"))
    owners += [getattr(importlib.import_module(f"toric_quant.{m}"), c)
               for m, c, _, _ in spans._METHODS]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_restores_originals_and_keeps_bytes():
    from toric_quant import cli

    before = _bound_objects()
    cfg = cli.load_config(FIXTURES["interval"])
    plain = cli.emit(cli.run(cfg, "concentrate"))
    tracer = spans.Tracer()
    with tracer:
        assert cli.lattice_points is not before[(id(cli), "lattice_points")]
        traced = cli.emit(cli.run(cli.load_config(FIXTURES["interval"]), "concentrate"))
    assert traced == plain
    after = _bound_objects()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {tracer.names[i] for i in tracer.name}
    assert {"cli.run", "cli.load_config", "polytope.vertices", "intlin.integer_det",
            "quadrature.concentration_experiment", "subtorus.psi.value"} <= names


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("b.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("a.outer", lambda: inner() + inner())
    outer()
    a = tracer.arrays()
    assert list(a["parent"]) == [-1, 0, 0]
    assert a["self"][0] == pytest.approx(a["dur"][0] - a["dur"][1] - a["dur"][2])
    view = spans.SpanView(tracer, a, [-1])
    assert view.covered(("b.inner",), ("a",)) == pytest.approx(a["dur"][0])


def test_host_factor_is_trimmed_mean_over_reference():
    probe = hostprobe.Probe()
    # one sample an interrupt landed in: it falls in the trimmed tenth
    probe.samples = [hostprobe.REFERENCE_S] * 8 + [2 * hostprobe.REFERENCE_S, 1.0]
    assert probe.factor() == pytest.approx(10 / 9)
    probe()
    assert len(probe.samples) == 10 + hostprobe.SAMPLES_PER_CALL


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# one cheap slice of every workload, run end to end through the oracle
_SMOKE = {
    "suite-small": lambda op: op.fixture == "interval",
    "conc-box-hires": lambda op: op.command == "concentrate" and op.fixture == "cube2",
    "nonbox-dense": lambda op: op.fixture in ("dilated_simplex6", "square2_skew")
    and op.command != "sections-norms",
}


@pytest.mark.parametrize("name", sorted(_SMOKE))
def test_smoke_run_passes_oracle(name):
    result, info = run.benchmark(WORKLOADS[name], seed=3, seconds=0, trace=False,
                                 select=_SMOKE[name])
    assert result["correct"], info["failed_ops"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] is not None and v["value"] > 0 for v in result["metrics"].values())
    assert info["src_lines"] > 0 and all(len(d.split()[-1]) == 64 for d in info["emit_sha256"])
    assert all(result["metrics"][k]["value"] * info["host_factor"] == pytest.approx(v)
               for k, v in info["raw_seconds"].items())


def test_traced_smoke_run_prints_per_layer_metrics():
    result, info = run.benchmark(WORKLOADS["suite-small"], seed=3, seconds=0, trace=True,
                                 select=_SMOKE["suite-small"])
    assert result["correct"], info["failed_ops"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["legendre.inverse.points"]["value"] > 0
    assert info["dominant_confirmed"]
