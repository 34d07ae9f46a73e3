"""Every flag a report carries can fail: each one is paired with named library mutations.

MUTATIONS maps each flag that ``full-suite`` reports to monkeypatches on the
library, each with the shipped configs on which it must turn the flag false.
A flag added to a command without a mutation here fails
``test_table_names_every_reported_flag``.
"""
import dataclasses
import pathlib

import numpy as np
import pytest

from toric_quant import legendre, polarization, potential, quadrature, sections
from toric_quant.cli import load_config, run

REPO = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = {p.stem: p for p in sorted((REPO / "configs").glob("*.json"))
           + sorted((REPO / "bench" / "fixtures").glob("*.json"))}


def _psi_hessian(change):
    """Hess psi replaced by change(Hess psi), on every family the potential layer builds."""
    def mutate(monkeypatch):
        real = potential.pullback

        def pullback(phi, proj):
            psi = real(phi, proj)
            return dataclasses.replace(psi, hessian=lambda x: change(psi.hessian(x)))
        monkeypatch.setattr(potential, "pullback", pullback)
    return mutate


def _g0_hessian_negated(monkeypatch):  # det(Hess g) prod l_j < 0 in odd dimension
    real = potential.g0_hessian
    monkeypatch.setattr(potential, "g0_hessian", lambda P, x, L=None: -real(P, x, L))


def _newton_stops_early(monkeypatch):  # |grad g(x) - y| <= 1e-3 ends the iteration
    monkeypatch.setattr(legendre, "TOLERANCE", 1e-3)


def _x_psi_sign_flipped(monkeypatch):  # iota_X omega = -d psi: the flow reaches g_{-t}
    real = polarization._hamiltonian_jacobian
    monkeypatch.setattr(polarization, "_hamiltonian_jacobian", lambda H: -real(H))


def _frames_from_g0(monkeypatch):  # the frames of G_0 at every t > 0
    real = polarization._frames
    monkeypatch.setattr(polarization, "_frames",
                        lambda pot, x, t_list: real(pot, x, np.zeros(len(t_list))))


def _t_squared(monkeypatch):
    """The frames of G_t = Hess g0 + t^2 Hess psi, fitted against log t."""
    real = polarization.decay_report

    def decay_report(pot, proj, x, t_list):
        rep = real(pot, proj, x, [float(t) ** 2 for t in t_list])
        slopes = np.polyfit(np.log(t_list), np.log(rep.distances).T, 1)[0]
        return dataclasses.replace(rep, fitted_slopes=slopes)
    monkeypatch.setattr(polarization, "decay_report", decay_report)


def _fm_psi_dropped(monkeypatch):  # f_m = <x - m, grad psi> without its -psi term
    real = sections.ConcentrationWeight.__call__
    monkeypatch.setattr(sections.ConcentrationWeight, "__call__",
                        lambda w, x: real(w, x) + w.psi.value(x))


def _facet_value_off_by_one(monkeypatch):  # l_1(m) + 1 for every m
    real = sections._facet_values_at
    monkeypatch.setattr(sections, "_facet_values_at",
                        lambda P, m: real(P, m) + np.eye(P.num_facets)[0])


def _exp_factor_dropped(monkeypatch):  # the last facet's e^{(l_j(m) - l_j)/2} left out
    real = sections._log_norm_g0
    monkeypatch.setattr(sections, "_log_norm_g0",
                        lambda L, lm: real(L, lm) - 0.5 * (lm[..., -1, None] - L[-1]))


def _r_inf_shifted(monkeypatch):  # R_infinity off by 1e-3, on box and segment fibers alike
    real = quadrature._pairing
    monkeypatch.setattr(quadrature, "_pairing", lambda *a, **kw: real(*a, **kw) + 1e-3)


MUTATIONS = {
    "potential-validate.hessian_positive_definite": {
        "psi_hessian_negated": (_psi_hessian(lambda H: -H), ["square2"])},
    "potential-validate.beta_product_positive_bounded": {
        "g0_hessian_negated": (_g0_hessian_negated, ["interval"])},
    "legendre-roundtrip.roundtrip_within_tolerance": {
        "newton_stops_early": (_newton_stops_early, ["square2"])},
    "flow-check.flow_identity_within_tolerance": {
        "x_psi_sign_flipped": (_x_psi_sign_flipped, list(CONFIGS)),
        "frames_from_g0": (_frames_from_g0, list(CONFIGS))},
    "polarization-limit.slopes_near_minus_one": {
        "t_squared": (_t_squared, ["square2"])},
    "polarization-limit.subframe_invariant": {
        # psi + |x|^2 / 2 does not factor through A
        "psi_off_A": (_psi_hessian(lambda H: H + np.eye(H.shape[-1])), ["square2"])},
    "sections-norms.factorization_within_tolerance": {
        "fm_psi_dropped": (_fm_psi_dropped, ["square2"])},
    "sections-norms.closed_form_agrees": {
        "facet_value_off_by_one": (_facet_value_off_by_one, list(CONFIGS)),
        "exp_factor_dropped": (_exp_factor_dropped, list(CONFIGS))},
    "concentrate.errors_decay_or_converged": {
        # square2 reads R_infinity off the box fiber moments, square2_skew
        # off the segment fiber through m
        "r_inf_shifted": (_r_inf_shifted, ["square2", "square2_skew"])},
}


def _flags(configs, command, name):
    return [run(load_config(str(CONFIGS[c])), command).flags[name] for c in configs]


def test_table_names_every_reported_flag():
    assert MUTATIONS.keys() == run(load_config(str(CONFIGS["square2"])), "full-suite").flags.keys()


@pytest.mark.parametrize("flag,mutation", [(f, m) for f, ms in MUTATIONS.items() for m in ms],
                         ids=[m for ms in MUTATIONS.values() for m in ms])
def test_mutation_fails_the_flag(flag, mutation, monkeypatch):
    command, name = flag.split(".")
    patch, configs = MUTATIONS[flag][mutation]
    assert configs and set(configs) <= CONFIGS.keys()
    assert all(_flags(configs, command, name))
    patch(monkeypatch)
    assert not any(_flags(configs, command, name))
