"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""
import json
import math
import time
from pathlib import Path

import numpy as np

from toric_quant import (
    DelzantPolytope,
    SubtorusProjection,
    SymplecticPotential,
    box_rule,
    closed_form_norm_g0,
    concentration_experiment,
    decay_report,
    flow_identity_residual,
    inverse,
    is_delzant,
    l1_norms,
    lattice_points,
    make_rule,
    norm_factorization_check,
    norm_matrix,
    quadratic,
    radial_gram,
    torus_average,
    validate_potential,
    weight_multiplicities,
)
from toric_quant.polarization import degenerate_directions, isotropy_defect
from toric_quant.potential import boundary_approach_samples, interior_samples
from toric_quant.cli import emit, load_config, run

from conftest import g0_on, kahler_rows, limit_rows, sample_interior

REPO = Path(__file__).resolve().parent.parent

INTERVAL = DelzantPolytope.from_box([(0, 1)])
SQUARE1 = DelzantPolytope.from_box([(0, 1), (0, 1)])
SQUARE2 = DelzantPolytope.from_box([(0, 2), (0, 2)])
SIMPLEX = DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)))
TRIANGLE = DelzantPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)))

PROJ1 = SubtorusProjection(((1,),))
PROJ21 = SubtorusProjection(((1, 0),))
PHI = quadratic([[1.0]])


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_delzant_validation():
    t0 = time.perf_counter()
    ok_square = bool(is_delzant(SQUARE1))
    ok_simplex = bool(is_delzant(SIMPLEX))
    cert = is_delzant(TRIANGLE)
    ok_triangle = (not cert) and abs(cert.determinant) == 2 and cert.vertex == (0, 1)
    elapsed = time.perf_counter() - t0
    ok = ok_square and ok_simplex and ok_triangle and elapsed < 1.0
    report(1, ok, f"square/simplex smooth, triangle |det|={abs(cert.determinant)}, "
                  f"{elapsed:.3f}s")
    assert ok_square and ok_simplex
    assert ok_triangle, f"certificate: {cert}"
    assert elapsed < 1.0


def test_criterion_2_lattice_and_weights():
    counts = (len(lattice_points(INTERVAL)), len(lattice_points(SIMPLEX)),
              len(lattice_points(SQUARE2)))
    mult = weight_multiplicities(SQUARE2, PROJ21)
    ok = counts == (2, 3, 9) and mult == {(0,): 3, (1,): 3, (2,): 3}
    report(2, ok, f"counts {counts}, multiplicities {mult}")
    assert counts == (2, 3, 9)
    assert mult == {(0,): 3, (1,): 3, (2,): 3}


def test_criterion_3_potential_validity():
    t0 = time.perf_counter()
    worst = {}
    for P, expect in ((INTERVAL, 0.5), (SQUARE1, 0.25)):
        pts = interior_samples(P, 1000, seed=0)
        rays = boundary_approach_samples(P)
        [rep] = validate_potential(g0_on(P), pts, rays)
        assert rep.positive_definite
        dev = max(abs(rep.product_min - expect), abs(rep.product_max - expect))
        worst[P.dim] = dev
        assert dev < 1e-12, f"det*prod l deviates by {dev}"
    pot = SymplecticPotential(INTERVAL, PROJ1, PHI)
    for t in (1.0, 10.0, 100.0):
        [rep] = validate_potential(pot, interior_samples(INTERVAL, 500, seed=1),
                                   boundary_approach_samples(INTERVAL), [t])
        assert rep.positive_definite
        assert rep.product_min > 0 and math.isfinite(rep.product_max)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    report(3, ok, f"products constant to {max(worst.values()):.2e}, "
                  f"perturbed family positive, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_4_legendre_roundtrip():
    t0 = time.perf_counter()
    fixtures = ((INTERVAL, PROJ1), (SQUARE2, PROJ21), (SIMPLEX, PROJ21))
    worst = 0.0
    for P, proj in fixtures:
        pts = sample_interior(P, 100, seed=21)
        pot = SymplecticPotential(P, proj, PHI)
        for t in (0.0, 1.0, 10.0, 100.0):
            for x in pts:
                err = float(np.linalg.norm(inverse(pot, pot.gradient(x, t), t) - x))
                worst = max(worst, err)
    pot0 = g0_on(INTERVAL)
    analytic = 0.0
    for y in np.linspace(-3, 3, 25):
        x = inverse(pot0, np.array([y]))
        analytic = max(analytic, abs(x[0] - 1.0 / (1.0 + math.exp(-2 * y))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and analytic < 1e-10 and elapsed < 5.0
    report(4, ok, f"max roundtrip {worst:.2e}, analytic-inverse gap "
                  f"{analytic:.2e}, {elapsed:.2f}s")
    assert worst < 1e-8
    assert analytic < 1e-10
    assert elapsed < 5.0


def test_criterion_5_flow_identity():
    t0 = time.perf_counter()
    fixtures = ((INTERVAL, PROJ1), (SQUARE2, PROJ21), (SIMPLEX, PROJ21))
    worst = 0.0
    for P, proj in fixtures:
        pts = sample_interior(P, 20, seed=33)
        pot0 = SymplecticPotential(P, proj, PHI)
        for x in pts:
            worst = max(worst, *flow_identity_residual(pot0, (1.0, 5.0, 10.0), x))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    report(5, ok, f"max flow-identity residual {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 5.0


def test_criterion_6_polarization_degeneration():
    t0 = time.perf_counter()
    t_list = [8, 16, 32, 64, 128]
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.4, 1.6, size=(10, 2))
    pot = SymplecticPotential(SQUARE2, PROJ21, PHI)
    rep = decay_report(pot, PROJ21, pts, t_list)
    slopes, sub = rep.fitted_slopes.tolist(), rep.subframe_invariance
    iso = max(rep.isotropy_defect, isotropy_defect(rep.limit))
    for x, lim in zip(pts, rep.limit):
        for t in t_list:
            iso = max(iso, isotropy_defect(kahler_rows(pot, x, t)))
        assert degenerate_directions(lim) == PROJ21.k
        assert np.array_equal(lim, limit_rows(pot, PROJ21, x))
    elapsed = time.perf_counter() - t0
    slope_ok = all(-1.1 <= s <= -0.9 for s in slopes)
    ok = slope_ok and sub < 1e-10 and iso < 1e-10 and elapsed < 10.0
    report(6, ok, f"slopes [{min(slopes):.3f}, {max(slopes):.3f}], subframe drift "
                  f"{sub:.2e}, isotropy {iso:.2e}, {elapsed:.2f}s")
    assert slope_ok, f"slopes: {slopes}"
    assert sub < 1e-10
    assert iso < 1e-10
    assert elapsed < 10.0


def test_criterion_7_section_algebra():
    t0 = time.perf_counter()
    # closed form vs exponent formula, every lattice point of every fixture
    agree = 0.0
    for P in (INTERVAL, SQUARE2, SIMPLEX):
        pot = g0_on(P)
        pts = sample_interior(P, 50, seed=9)
        for m in lattice_points(P):
            agree = max(agree, float(np.max(np.abs(
                norm_matrix(pot, [m], pts)[0] - closed_form_norm_g0(P, m, pts)))))
    # L1 norm of sigma^0 on [0,1]
    l1 = l1_norms(g0_on(INTERVAL), (0,), 256, [0.0])[0]
    l1_gap = abs(l1 - 2.0 / 3.0)
    # factorization at 100 random (x, t)
    rng = np.random.default_rng(14)
    fact = 0.0
    for P, proj, m in ((INTERVAL, PROJ1, (0,)), (SQUARE2, PROJ21, (1, 1))):
        pts = sample_interior(P, 100, seed=15)
        times = rng.uniform(0.0, 10.0, size=6)
        res, _ = norm_factorization_check(SymplecticPotential(P, proj, PHI), m, times, pts)
        fact = max(fact, *res)
    # theta-orthogonality across all lattice pairs of the square
    ms = lattice_points(SQUARE2)
    G = radial_gram(g0_on(SQUARE2), ms, make_rule(SQUARE2, 16))
    orth = max(abs(torus_average(np.subtract(ms[a], ms[b]), 8) * G[a, b])
               for a in range(len(ms)) for b in range(a + 1, len(ms)))
    elapsed = time.perf_counter() - t0
    ok = agree < 1e-10 and l1_gap < 1e-6 and fact < 1e-10 and orth < 1e-12 \
        and elapsed < 10.0
    report(7, ok, f"norm agreement {agree:.2e}, L1 gap {l1_gap:.2e}, "
                  f"factorization {fact:.2e}, orthogonality {orth:.2e}, {elapsed:.2f}s")
    assert agree < 1e-10
    assert l1_gap < 1e-6
    assert fact < 1e-10
    assert orth < 1e-12
    assert elapsed < 10.0


# Quadrature noise floor for the concentration ratios: the square fixture's
# mirror symmetry makes R_t = R_inf exactly, so observed errors sit at
# rounding level and the t-doubling ratio is only meaningful above this.
NOISE_FLOOR = 1e-9


def _ratio_band_or_converged(result):
    pairs = list(zip(result.t_values, result.errors))
    for (ta, ea), (tb, eb) in zip(pairs, pairs[1:]):
        if tb < 32 or abs(tb - 2 * ta) > 1e-9:
            continue
        if ea <= NOISE_FLOOR and eb <= NOISE_FLOOR:
            continue  # below quadrature noise: converged
        if not 0.3 <= eb / ea <= 0.7:
            return False, f"error ratio {eb / ea:.3f} at t={tb}"
    return True, "ok"


def test_criterion_8a_concentration_square_symmetric_weights():
    t0 = time.perf_counter()
    t_list = [8, 16, 32, 64, 128]
    details = []
    ok = True
    for expr, u in (("x2", lambda x: x[..., 1]), ("x1", lambda x: x[..., 0])):
        res = concentration_experiment(SymplecticPotential(SQUARE2, PROJ21, PHI), (1, 1), u,
                                       t_list, resolution=256)
        band_ok, why = _ratio_band_or_converged(res)
        sym_ok = abs(res.slice_value - 1.0) < 1e-5 if expr == "x2" else True
        conv_ok = res.errors[-1] < 1e-5
        ok &= band_ok and sym_ok and conv_ok
        details.append(f"u={expr}: R_inf={res.slice_value:.8f}, "
                       f"final err {res.errors[-1]:.1e} ({why})")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report("8a", ok, "; ".join(details) + f", {elapsed:.2f}s")
    assert ok, details
    assert elapsed < 60.0


def test_criterion_8b_concentration_laplace_rate_visible():
    # the symmetric weights above sit at the noise floor, so exhibit the
    # Laplace regime the criterion targets with a symmetry-breaking weight
    t0 = time.perf_counter()
    res = concentration_experiment(SymplecticPotential(SQUARE2, PROJ21, PHI), (1, 1),
                                   lambda x: x[..., 0] ** 2,
                                   [16, 32, 64, 128, 256], resolution=256)
    ratios = [b / a for a, b in zip(res.errors, res.errors[1:])]
    band_ok = all(0.3 <= r <= 0.7 for r in ratios)
    slope_ok = -1.1 <= res.decay_exponent <= -0.9
    elapsed = time.perf_counter() - t0
    ok = band_ok and slope_ok and elapsed < 60.0
    report("8b", ok, f"u=x1^2 ratios {[f'{r:.2f}' for r in ratios]}, "
                     f"slope {res.decay_exponent:.3f}, {elapsed:.2f}s")
    assert band_ok, ratios
    assert slope_ok
    assert elapsed < 60.0


def _half_gaussian_mean(t):
    """Exact mean of x on [0,1] under the weight e^{-t x^2/2}.

    int_0^1 x e^{-t x^2/2} dx = (1 - e^{-t/2})/t and
    int_0^1 e^{-t x^2/2} dx = sqrt(pi/(2t)) erf(sqrt(t/2)), so the mean is
    (1 - e^{-t/2}) sqrt(2/(pi t)) / erf(sqrt(t/2)).
    """
    return ((1.0 - math.exp(-t / 2.0)) * math.sqrt(2.0 / (math.pi * t))
            / math.erf(math.sqrt(t / 2.0)))


def test_criterion_8c_interval_delta_limit_mean_bound():
    """The normalized weight e^{-t f_0}/||.||_1 on [0,1] collapses onto x = 0.

    The minimizer x = 0 of f_0 = x^2/2 is a vertex of P, and grad f_m
    vanishes at m for every strictly convex psi, so near the vertex the
    normalized weight is a half-Gaussian of width t^{-1/2}.  Its mean is
    the closed form mu(t) of `_half_gaussian_mean`, which decays by the
    boundary Laplace law sqrt(2/(pi t)) rather than like 1/t: since
    erfc(sqrt(t/2)) < e^{-t/2}, mu(t) <= sqrt(2/(pi t)), with a gap of
    relative order e^{-t/2}, which is below double precision at t = 128.

    The quadrature mean must match mu(t) to 1e-12, stay under the
    delta-limit bound, decrease, and shrink by 1/sqrt(2) per t-doubling.
    The program's own path, `concentration_experiment` with the section
    |sigma^0_0| = sqrt(1 - x), must give R_infinity = 0 (the fiber over a
    vertex is a point), 0 < R_t <= mu(t) (sqrt(1 - x) is decreasing, so by
    Chebyshev's inequality the section-weighted mean is at most the bare
    one), decreasing errors and the vertex exponent -1/2, as opposed to
    the ~ -1 of interior lattice points in 8b.
    """
    t_list = (32.0, 64.0, 128.0)
    rule = box_rule(INTERVAL, 256)
    x = rule.points[:, 0]
    means = []
    for t in t_list:
        w = np.exp(-t * 0.5 * x ** 2) * rule.weights
        means.append(float((w * x).sum() / w.sum()))
    exact = [_half_gaussian_mean(t) for t in t_list]
    laplace = [math.sqrt(2.0 / (math.pi * t)) for t in t_list]
    halvings = [b / a for a, b in zip(means, means[1:])]
    rel_errors = [abs(m - e) / e for m, e in zip(means, exact)]
    closed_ok = all(r <= 1e-12 for r in rel_errors)
    # at t = 128 mu(t) and sqrt(2/(pi t)) are equal in double precision, so
    # the bound gets the same rounding allowance as the closed form
    bound_ok = all(m <= b * (1.0 + 1e-12) for m, b in zip(means, laplace))
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    ratio_ok = all(abs(r - 1.0 / math.sqrt(2.0)) <= 1e-6 for r in halvings)

    res = concentration_experiment(SymplecticPotential(INTERVAL, PROJ1, PHI), (0,),
                                   lambda x: x[..., 0], list(t_list),
                                   resolution=256)
    slice_ok = res.slice_value == 0.0
    section_ok = all(0.0 < r <= e for r, e in zip(res.ratios, exact))
    errors_down = all(b < a for a, b in zip(res.errors, res.errors[1:]))
    vertex_ok = -0.6 <= res.decay_exponent <= -0.4

    ok = (closed_ok and bound_ok and decreasing and ratio_ok and slice_ok
          and section_ok and errors_down and vertex_ok)
    report("8c", ok,
           f"means {[f'{m:.4f}' for m in means]} vs closed form "
           f"{[f'{e:.4f}' for e in exact]} (rel err "
           f"{max(rel_errors):.1e}); sqrt(2/(pi t)) = "
           f"{[f'{a:.4f}' for a in laplace]}; per-doubling ratio "
           f"{[f'{r:.4f}' for r in halvings]} (1/sqrt(2) = 0.7071); "
           f"section-weighted R_t {[f'{r:.4f}' for r in res.ratios]}, "
           f"R_inf {res.slice_value}, exponent {res.decay_exponent:.3f}")
    assert closed_ok, (
        f"quadrature means {means} differ from the closed-form half-Gaussian "
        f"mean {exact} by relative {rel_errors} (> 1e-12)")
    assert bound_ok, f"means {means} exceed the delta-limit bound {laplace}"
    assert decreasing, f"means {means} do not decrease in t"
    assert ratio_ok, f"per-doubling ratios {halvings} are not 1/sqrt(2)"
    assert slice_ok, f"R_infinity {res.slice_value} over a vertex is not 0"
    assert section_ok, (
        f"section-weighted R_t {res.ratios} not in (0, mu(t)] = (0, {exact}]")
    assert errors_down, f"errors {res.errors} do not decrease in t"
    assert vertex_ok, (
        f"decay exponent {res.decay_exponent} is not the vertex law -1/2")


def test_criterion_9_determinism():
    cfg = load_config(str(REPO / "configs" / "interval.json"))
    blob1 = emit(run(cfg, "full-suite"), "json")
    t0 = time.perf_counter()
    blob2 = emit(run(cfg, "full-suite"), "json")
    rerun = time.perf_counter() - t0
    assert json.loads(blob1)["passed"] is True
    ok = blob1 == blob2 and rerun < 1.0
    report(9, ok, f"byte-identical={blob1 == blob2}, rerun {rerun:.2f}s")
    assert blob1 == blob2
    assert rerun < 1.0
