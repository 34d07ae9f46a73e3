"""Benchmark of toric_quant through its public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's op list from the seed (see ``workloads.py``), runs it
for a number of passes fixed by --seconds, checks every output against the
independent oracle, and prints, as the last line of stdout, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the run alternates
plain and traced passes and reports the per-layer metrics measured by
wrapping each toric_quant module from outside (``spans.py``).  The op
timings of an untraced run are divided by its host-speed factor
(``hostprobe.py``); the measured seconds stay in the info record.  Failed ops,
the environment and the emitted-bytes digests are printed on the lines
before the result and written under ``bench/out/``.
"""
from __future__ import annotations

import os

# one BLAS thread: the numpy build here allows 64 and the benchmark measures
# the library's own serial code, not OpenBLAS thread start-up
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from hostprobe import Probe  # noqa: E402
from workloads import (BENCH_DIR, FIXTURES, OVERRUN, ROOT, WORKLOADS,  # noqa: E402
                       build_ops, finite_norm_points, pass_count)

SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 9
SETUP_ROUNDS = 3  # traced set-up rounds

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "frac", "conc_err_max": "1",
}

PER_LAYER = {
    "cli.load_config_s": "s", "polytope.vertices_s": "s",
    "subtorus.strict_convexity_check_s": "s",
    "cli.self_s": "s", "cli.emit_s": "s",
    "polytope.self_s": "s",
    "polytope.lattice_points.calls": "count", "polytope.lattice_points.us_per_point": "us",
    "polytope.face_slice.calls": "count", "polytope.face_slice_s": "s",
    "polytope.facet_values.points": "count", "polytope.facet_values.ns_per_point": "ns",
    "intlin.calls": "count", "intlin.self_s": "s",
    "subtorus.self_s": "s",
    "potential.calls": "count", "potential.points_per_call": "points/call",
    "potential.ns_per_point": "ns", "potential.self_s": "s",
    "legendre.inverse.points": "count", "legendre.inverse.us_per_point": "us",
    "legendre.newton_iters_per_point": "iters/point", "legendre.trials_per_step": "trials/step",
    "legendre.self_s": "s",
    "polarization.decay_report.calls": "count", "polarization.us_per_point_t": "us",
    "polarization.self_s": "s",
    "sections.pointwise_norm.points": "count", "sections.ns_per_point": "ns",
    "sections.l1_norm_s": "s", "sections.pairwise_orthogonality.calls": "count",
    "sections.orthogonality_s": "s", "sections.self_s": "s",
    "quadrature.rule_nodes": "count", "quadrature.make_rule_s": "s",
    "quadrature.concentration.ns_per_node_t": "ns", "quadrature.delta_pairing_s": "s",
    "quadrature.self_s": "s", "quadrature.grid_keep_ratio": "ratio",
    "quadrature.integrate.calls": "count",
    "trace.overhead_frac": "frac",
}

_POTENTIAL = ("potential.value", "potential.gradient", "potential.hessian")


def _ratio(a, b):
    return a / b if b else 0.0


def setup_metrics(view) -> dict:
    return {
        "cli.load_config_s": view.incl("cli.load_config"),
        "polytope.vertices_s": view.incl("polytope.vertices") + view.incl("polytope.is_delzant"),
        "subtorus.strict_convexity_check_s": view.incl("subtorus.strict_convexity_check"),
    }


def pass_metrics(v) -> dict:
    """Per-layer metrics of one traced pass (see BENCHMARK.json for units)."""
    pot_calls = sum(v.calls(n) for n in _POTENTIAL)
    pot_points = sum(v.count(n) for n in _POTENTIAL)
    inv = v.calls("legendre.inverse")
    steps = v.child_calls("legendre.inverse", "potential.hessian")
    kept, grid_total = v.grid_nodes()
    intlin = [n for n in v.tracer.names if n.startswith("intlin.")]
    return {
        "cli.self_s": float(v.a["self"][v._sel("cli.run")].sum()),
        "cli.emit_s": v.incl("cli.emit"),
        "polytope.self_s": v.layer_self("polytope"),
        "polytope.lattice_points.calls": v.calls("polytope.lattice_points"),
        "polytope.lattice_points.us_per_point":
            1e6 * _ratio(v.incl("polytope.lattice_points"), v.count("polytope.lattice_points")),
        "polytope.face_slice.calls": v.calls("polytope.face_slice"),
        "polytope.face_slice_s": v.incl("polytope.face_slice"),
        "polytope.facet_values.points": v.count("polytope.facet_values_array"),
        "polytope.facet_values.ns_per_point":
            1e9 * _ratio(v.incl("polytope.facet_values_array"),
                         v.count("polytope.facet_values_array")),
        "intlin.calls": sum(v.calls(n) for n in intlin),
        "intlin.self_s": v.layer_self("intlin"),
        "subtorus.self_s": v.layer_self("subtorus"),
        "potential.calls": pot_calls,
        "potential.points_per_call": _ratio(pot_points, pot_calls),
        "potential.ns_per_point": 1e9 * _ratio(sum(v.incl(n) for n in _POTENTIAL), pot_points),
        "potential.self_s": v.layer_self("potential"),
        "legendre.inverse.points": inv,
        "legendre.inverse.us_per_point": 1e6 * _ratio(v.incl("legendre.inverse"), inv),
        "legendre.newton_iters_per_point":
            _ratio(v.child_calls("legendre.inverse", "potential.gradient"), inv),
        "legendre.trials_per_step":
            _ratio(v.child_calls("legendre.inverse", "polytope.facet_values_array"), steps),
        "legendre.self_s": v.layer_self("legendre"),
        "polarization.decay_report.calls": v.calls("polarization.decay_report"),
        "polarization.us_per_point_t":
            1e6 * _ratio(v.incl("polarization.decay_report"), v.count("polarization.decay_report")),
        "polarization.self_s": v.layer_self("polarization"),
        "sections.pointwise_norm.points": v.count("sections.pointwise_norm"),
        "sections.ns_per_point":
            1e9 * _ratio(v.incl("sections.pointwise_norm"), v.count("sections.pointwise_norm")),
        "sections.l1_norm_s": v.incl("sections.l1_norm"),
        "sections.pairwise_orthogonality.calls": v.calls("sections.pairwise_orthogonality"),
        "sections.orthogonality_s": v.incl("sections.pairwise_orthogonality"),
        "sections.self_s": v.layer_self("sections"),
        "quadrature.rule_nodes": sum(v.count(n) for n in (
            "quadrature.box_rule", "quadrature.grid_rule", "quadrature.slice_rule")),
        "quadrature.make_rule_s": v.incl("quadrature.make_rule"),
        "quadrature.concentration.ns_per_node_t":
            1e9 * _ratio(v.incl("quadrature.concentration_experiment"), v.concentration_node_t()),
        "quadrature.delta_pairing_s": v.incl("quadrature.delta_pairing"),
        "quadrature.self_s": v.layer_self("quadrature"),
        "quadrature.grid_keep_ratio": _ratio(kept, grid_total),
        "quadrature.integrate.calls": v.calls("quadrature.integrate"),
    }


def environment(seed) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            lines += sum(1 for _ in fh)
    return {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "openblas": openblas, "src_lines": lines}


def probe_setup(paths) -> list:
    """Cold-start set-up times from fresh interpreter processes."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), SRC, *paths],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs passes over one op list and keeps what the oracle needs."""

    def __init__(self, cli, ops, cfgs, tracer=None, host=None):
        self.cli, self.ops, self.cfgs, self.tracer, self.host = cli, ops, cfgs, tracer, host
        self.walls = {False: [], True: []}
        self.latencies = []
        self.digests = []  # per pass, per op: sha256 hex or None
        self.errors = {}  # (pass, op) -> exception text
        self.first = None  # emitted bytes of the first pass

    def run_pass(self, traced=False):
        p = len(self.digests)
        digests, blobs = [], []
        t_pass = time.perf_counter()
        for i, (op, cfg) in enumerate(zip(self.ops, self.cfgs)):
            if traced:
                self.tracer.current_op = p * len(self.ops) + i
            elif self.host is not None:
                self.host()
            t0 = time.perf_counter()
            try:
                blob = self.cli.emit(self.cli.run(cfg, op.command, dict(op.opts)))
            except Exception as exc:  # a failing op is recorded; the loop goes on
                blob = None
                self.errors[(p, i)] = f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if not traced:
                self.latencies.append(latency)
            blobs.append(blob)
            digests.append(None if blob is None else hashlib.sha256(blob).hexdigest())
        self.walls[traced].append(time.perf_counter() - t_pass)
        self.digests.append(digests)
        if self.first is None:
            self.first = blobs
        return p

    def op_list_time(self):
        """Time of the whole op list: each op's median latency, summed.

        Per-op medians over the passes keep one slow pass from moving it.
        """
        n = len(self.ops)
        return sum(statistics.median(self.latencies[i::n]) for i in range(n))

    def failures(self, oracle) -> list:
        """(pass, op index, cause) for every failed op execution."""
        causes0 = [oracle.check(op, cfg, blob) if blob is not None else []
                   for op, cfg, blob in zip(self.ops, self.cfgs, self.first)]
        out = []
        for p, digests in enumerate(self.digests):
            for i, d in enumerate(digests):
                if (p, i) in self.errors:
                    out.append((p, i, self.errors[(p, i)]))
                elif d != self.digests[0][i]:
                    out.append((p, i, "emitted bytes differ from the first pass"))
                elif causes0[i]:
                    out.append((p, i, "; ".join(causes0[i])))
        return out


def tail(values):
    """Value at the highest percentile with at least ten samples above it."""
    xs = sorted(values)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def benchmark(wl, seed, seconds, trace, select=None):
    """Run one workload; returns (result object, info record).

    ``select`` keeps only the ops it accepts (the smoke tests use it).
    """
    from toric_quant import cli, quadrature

    from oracle import Oracle

    paths = [FIXTURES[f] for f in wl.fixtures]
    setup_times = [] if trace else probe_setup(paths)
    base = {f: cli.load_config(FIXTURES[f]) for f in wl.fixtures}
    oracle = Oracle({f: c.raw for f, c in base.items()}, quadrature.make_rule)
    ops = build_ops(wl, seed, {f: finite_norm_points(c.raw, oracle.lattice(f))
                               for f, c in base.items()})
    ops = [op for op in ops if select is None or select(op)]
    cfgs = [base[op.fixture] if op.resolution is None
            else dataclasses.replace(base[op.fixture], resolution=op.resolution) for op in ops]
    passes = pass_count(wl, seconds)

    if trace:
        from spans import SpanView, Tracer

        tracer = Tracer()
        runner = Runner(cli, ops, cfgs, tracer)
        with tracer:
            for r in range(SETUP_ROUNDS):
                tracer.current_op = -2 - r
                for path in paths:
                    cli.load_config(path)
        traced = []
        for _ in range(max(2, passes // 2)):
            runner.run_pass()
            with tracer:
                traced.append(runner.run_pass(traced=True))
    else:
        runner = Runner(cli, ops, cfgs, host=Probe())
        start = time.perf_counter()
        for p in range(passes):
            spent = time.perf_counter() - start
            if p >= 3 and spent + spent / p > OVERRUN * seconds:
                break
            runner.run_pass()
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = runner.failures(oracle)
    attempted = sum(len(d) for d in runner.digests)
    info = environment(seed)
    info.update(workload=wl.name, passes=len(runner.digests), ops_per_pass=len(ops),
                fail_frac=len(failures) / attempted,
                failed_ops=[f"pass {p} op {i} {ops[i].label}: {c}" for p, i, c in failures],
                emit_sha256=[f"{ops[i].label} {d}" for i, d in enumerate(runner.digests[0])],
                ops=[f"{op.label} {json.dumps(op.opts, sort_keys=True)}" for op in ops])

    if trace:
        arrays = tracer.arrays()
        rounds = [setup_metrics(SpanView(tracer, arrays, [-2 - r])) for r in range(SETUP_ROUNDS)]
        per_pass, shares = [], []
        n = len(ops)
        layers = sorted({name.split(".", 1)[0] for name in tracer.names})
        for p, wall in zip(traced, runner.walls[True]):
            view = SpanView(tracer, arrays, range(p * n, (p + 1) * n))
            per_pass.append(pass_metrics(view))
            share = {layer: view.layer_self(layer) / wall for layer in layers}
            share["predicted"] = view.covered(*wl.dominant) / wall
            shares.append(share)
        values = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
        values.update({k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]})
        values["trace.overhead_frac"] = (statistics.median(runner.walls[True])
                                         / statistics.median(runner.walls[False]) - 1.0)
        share = {k: statistics.median(s[k] for s in shares) for k in shares[0]}
        info.update(layer_self_share=share, dominant_prediction=wl.dominant,
                    dominant_confirmed=share["predicted"] > 0.5, spans=len(arrays["dur"]))
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"spans-{wl.name}-seed{seed}.npz"))
    else:
        lat_tail, pct = tail(runner.latencies)
        n = len(ops)
        raw = {"wall_s": runner.op_list_time(), "op_p50_s": statistics.median(runner.latencies),
               "op_tail_s": lat_tail}
        factor = runner.host.factor()
        probe = sorted(runner.host.samples)
        info.update(op_tail_percentile=pct, op_samples=len(runner.latencies),
                    raw_seconds=raw, host_factor=factor,
                    setup_probes=setup_times, pass_walls=runner.walls[False],
                    op_latencies=[runner.latencies[i::n] for i in range(n)],
                    host_probe_s={"samples": len(probe), "min": probe[0],
                                  "median": statistics.median(probe)})
        values = {k: v / factor for k, v in raw.items()}
        values.update({
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss,
            "ok_frac": 1.0 - len(failures) / attempted,
            "conc_err_max": max(oracle.conc_errors) if oracle.conc_errors else None,
        })
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "toric_quant", "__init__.py")):
        print(f"toric_quant sources not found under {SRC}", file=sys.stderr)
        return 2
    missing = [p for p in FIXTURES.values() if not os.path.isfile(p)]
    if missing:
        print(f"fixture configs missing: {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]
    result, info = benchmark(wl, args.seed, args.seconds, bool(args.trace))
    for line in info["failed_ops"]:
        print(f"FAILED {line}")
    print(json.dumps({"info": info}, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"info": info, "metrics": result["metrics"]}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
