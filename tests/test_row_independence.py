"""Every row of a stacked small-matrix kernel equals its lone evaluation, bit for bit.

The n <= 2 kernels are closed forms applied elementwise, so a number in a report does not
depend on how many points and times share its stack; n = 3 takes LAPACK one matrix at a time.
Stacks are drawn from the Hessians G_t = Hess g0 + t Hess psi of the 9 shipped inputs.
"""
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_quant import inverse, potential
from toric_quant.cli import _RunInputs, load_config
from toric_quant.legendre import _solve_spd
from toric_quant.polarization import subspace_angle

REPO = Path(__file__).resolve().parents[1]
INPUTS = sorted((REPO / "configs").glob("*.json")) + sorted(
    (REPO / "bench" / "fixtures").glob("*.json"))
_FAMILIES = {}


def _family(i):
    if i not in _FAMILIES:
        _FAMILIES[i] = _RunInputs(load_config(str(INPUTS[i]))).family
    return _FAMILIES[i]


STACKS = st.tuples(st.integers(0, len(INPUTS) - 1), st.integers(1, 6), st.integers(0, 2 ** 16),
                   st.lists(st.sampled_from([0.0, 0.5, 8.0, 13.5, 128.0, 1e4]), min_size=6,
                            max_size=6))


def _stack(case):
    """A family, interior points x (N, n) and times t (N,), and G_t at them (N, n, n)."""
    i, count, seed, times = case
    pot = _family(i)
    P = pot.polytope
    w = np.random.default_rng(seed).dirichlet(np.ones(len(P.vertex_array)), size=count)
    x, t = w @ P.vertex_array, np.array(times[:count])
    return pot, x, t, pot.hessian(x, t)


def _rows_equal(stacked, lone):
    return all(np.array_equal(stacked[j], lone(j), equal_nan=True) for j in range(len(stacked)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(STACKS)
def test_each_row_equals_its_lone_evaluation(case):
    pot, x, t, H = _stack(case)
    n, rng = H.shape[-1], np.random.default_rng(case[2])
    r, R = rng.standard_normal((len(H), n, 1)), rng.standard_normal((len(H), n, 3))
    I = np.broadcast_to(np.eye(n), H.shape)
    for rhs in (r, R, I):  # a vector, a matrix and the inverse
        X = _solve_spd(H, rhs)
        assert _rows_equal(X, lambda j: _solve_spd(H[j:j + 1], rhs[j:j + 1])[0])
    if n <= 2:
        low, det = (v[0] for v in potential._lowest_eigenvalue_and_det(H[None], len(H)))
        lone = [potential._lowest_eigenvalue_and_det(H[None, j:j + 1], 1) for j in range(len(H))]
        assert _rows_equal(low, lambda j: lone[j][0][0, 0])
        assert _rows_equal(det, lambda j: lone[j][1][0, 0])
        frames = np.concatenate([_solve_spd(H, I), -1j * I], axis=-1)
        ker = frames[..., ::-1, ::-1]  # another frame of the same shape, its rows reversed
        angles = subspace_angle(frames, ker)
        assert _rows_equal(angles, lambda j: subspace_angle(frames[j], ker[j]))
    y = pot.gradient(x, t)
    X = inverse(pot, y, t)
    assert _rows_equal(X, lambda j: inverse(pot, y[j], t[j]))
