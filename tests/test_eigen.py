import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipkin import (
    Parity,
    build_block,
    eig_complex_tridiag,
    eig_real_tridiag,
)
from lipkin.eigen import det_state_at

from oracles import dense_sector_block

LAMBDA_GRID = [0.0, 0.5, 1.0, 2.0, 5.0]


def _sorted_complex(w):
    return np.sort_complex(np.asarray(w))


def multiset_distance(a, b):
    """Max matched distance between two complex multisets (optimal
    assignment; immune to sort flips between near-degenerate values)."""
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_real_solver_examples():
    assert np.allclose(
        eig_real_tridiag(build_block(2, 0.0, Parity.EVEN)).values, [-1.0, 1.0])
    assert np.allclose(
        eig_real_tridiag(build_block(2, 0.0, Parity.ODD)).values, [0.0])
    root = math.sqrt(1.25)
    assert np.allclose(
        eig_real_tridiag(build_block(2, 1.0, Parity.EVEN)).values,
        [-root, root], atol=1e-12)
    root = math.sqrt(3.25)
    assert np.allclose(
        eig_real_tridiag(build_block(4, 2.0, Parity.ODD)).values,
        [-root, root], atol=1e-12)


def test_real_solver_rejects_complex_blocks():
    with pytest.raises(ValueError):
        eig_real_tridiag(build_block(4, 1.0j, Parity.EVEN))


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("lam", LAMBDA_GRID)
def test_real_solver_matches_dense_oracle(n, lam):
    for parity, even in [(Parity.EVEN, True), (Parity.ODD, False)]:
        values = eig_real_tridiag(build_block(n, lam, parity)).values
        oracle = np.linalg.eigvalsh(dense_sector_block(n, lam, even))
        assert np.max(np.abs(values - oracle)) <= 1e-10


def test_eigenvector_residuals_and_orthonormality():
    block = build_block(40, 1.7, Parity.EVEN)
    res = eig_real_tridiag(block, want_vectors=True)
    dense = np.diag(block.diag) + np.diag(block.offdiag, 1) \
        + np.diag(block.offdiag, -1)
    for k in range(len(res.values)):
        v = res.vectors[:, k]
        e = res.values[k]
        assert np.linalg.norm(dense @ v - e * v) <= 1e-10 * max(1.0, abs(e))
    gram = res.vectors.T @ res.vectors
    assert np.max(np.abs(gram - np.eye(len(res.values)))) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_real_solver_index_range_picks_levels(n):
    block = build_block(n, 1.7, Parity.EVEN)
    full = eig_real_tridiag(block, want_vectors=True)
    dim = len(full.values)
    for lo, hi in {(0, 0), (0, min(1, dim - 1)), (dim - 1, dim - 1)}:
        part = eig_real_tridiag(block, want_vectors=True, index_range=(lo, hi))
        assert np.allclose(part.values, full.values[lo:hi + 1],
                           rtol=0.0, atol=1e-12)
        overlap = np.abs(np.sum(part.vectors * full.vectors[:, lo:hi + 1],
                                axis=0))
        assert np.allclose(overlap, 1.0, atol=1e-10)
    for bad in [(-1, 0), (1, 0), (0, dim)]:
        with pytest.raises(ValueError):
            eig_real_tridiag(block, index_range=bad)


def test_complex_solver_analytic_coalescence():
    # 2x2 even block of N=2: eigenvalues +-sqrt(1 + g^2/4)
    values = eig_complex_tridiag(build_block(2, 2.0j, Parity.EVEN))
    assert np.max(np.abs(values)) <= 1e-7  # defective double zero

    values = eig_complex_tridiag(build_block(2, 1.0j, Parity.EVEN))
    root = math.sqrt(0.75)
    assert np.allclose(values, [-root, root], atol=1e-12)

    values = eig_complex_tridiag(build_block(4, (4.0 / 3.0) * 1j,
                                             Parity.ODD))
    assert np.max(np.abs(values)) <= 1e-7


def test_complex_solver_output_is_lexicographically_sorted():
    values = eig_complex_tridiag(build_block(12, 0.8 + 1.3j,
                                             Parity.EVEN))
    key = np.lexsort((values.imag, values.real))
    assert np.array_equal(key, np.arange(len(values)))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_complex_solver_matches_dense_oracle(n):
    g = 0.9 + 1.4j
    for parity, even in [(Parity.EVEN, True), (Parity.ODD, False)]:
        block = build_block(n, g, parity)
        if block.dimension < 2:
            continue
        values = _sorted_complex(eig_complex_tridiag(block))
        oracle = _sorted_complex(np.linalg.eigvals(
            dense_sector_block(n, g, even)))
        assert np.max(np.abs(values - oracle)) <= 1e-9


def test_complex_spectrum_reversal_invariance():
    # reversing the basis order leaves the eigenvalue multiset alone
    block = build_block(10, 1.1 + 0.7j, Parity.EVEN)
    a = np.diag(block.diag.astype(complex))
    a += np.diag(block.offdiag, 1) + np.diag(block.offdiag, -1)
    rev = a[::-1, ::-1]
    w1 = _sorted_complex(np.linalg.eigvals(a))
    w2 = _sorted_complex(np.linalg.eigvals(rev))
    assert np.max(np.abs(w1 - w2)) <= 1e-9


@given(re=st.floats(-3, 3), im=st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_conjugation_and_sign_symmetries(re, im):
    g = complex(re, im)
    w = eig_complex_tridiag(build_block(8, g, Parity.EVEN))
    w_conj = eig_complex_tridiag(build_block(8, g.conjugate(),
                                             Parity.EVEN))
    assert multiset_distance(w.conjugate(), w_conj) <= 1e-9
    w_neg = eig_complex_tridiag(build_block(8, -g, Parity.EVEN))
    assert multiset_distance(w, w_neg) <= 1e-9


def determinant(st):
    """The determinant a scaled recurrence state stands for."""
    return st.det * 2.0**st.exponent


def test_charpoly_examples():
    st = det_state_at(2, Parity.EVEN, 1.0, 0.0)
    assert determinant(st) == pytest.approx(-1.25, abs=1e-14)
    assert abs(st.d_e) <= 1e-14

    st = det_state_at(2, Parity.EVEN, 2.0j, 0.0)
    assert abs(determinant(st)) <= 1e-14
    assert abs(st.d_e) * 2.0**max(st.exponent, 0) <= 1e-13


@pytest.mark.parametrize("n", [3, 4, 7, 10])
def test_charpoly_sign_at_large_positive_energy(n):
    st = det_state_at(n, Parity.EVEN, 1.5, 1e4)
    dimension = build_block(n, 1.5, Parity.EVEN).dimension
    assert np.sign(st.det.real) == (-1.0) ** dimension


@pytest.mark.parametrize("g", [1.3, 0.4 + 0.9j])
def test_charpoly_matches_dense_determinant(g):
    for n in [2, 5, 9]:
        block = build_block(n, g, Parity.EVEN)
        energy = 0.37 - 0.21j
        a = np.diag(block.diag.astype(complex))
        if block.dimension > 1:
            a += np.diag(block.offdiag, 1) + np.diag(block.offdiag, -1)
        direct = np.linalg.det(a - energy * np.eye(block.dimension))
        assert determinant(det_state_at(n, Parity.EVEN, g, energy)) \
            == pytest.approx(direct, rel=1e-10)


def test_charpoly_vanishes_at_computed_eigenvalues():
    n, g = 24, 1.8
    values = eig_real_tridiag(build_block(n, g, Parity.EVEN)).values
    span = values[-1] - values[0]
    scale = abs(determinant(det_state_at(n, Parity.EVEN, g,
                                         values[3] + 0.05 * span)))
    for e in values:
        assert abs(determinant(det_state_at(n, Parity.EVEN, g, e))) \
            <= 1e-8 * scale


def test_charpoly_energy_derivative_against_finite_differences():
    n, parity = 14, Parity.ODD
    g = 0.9 + 0.4j
    energy = 0.6 + 0.2j
    h = 1e-6
    st = det_state_at(n, parity, g, energy)
    fd = (determinant(det_state_at(n, parity, g, energy + h))
          - determinant(det_state_at(n, parity, g, energy - h))) / (2.0 * h)
    assert st.d_e * 2.0**st.exponent == pytest.approx(fd, rel=1e-7)


def test_det_state_coupling_derivative_against_finite_differences():
    n, parity = 12, Parity.EVEN
    g = 1.2 + 0.8j
    energy = -0.7 + 0.1j
    h = 1e-6
    st = det_state_at(n, parity, g, energy)
    fd = (determinant(det_state_at(n, parity, g + h, energy))
          - determinant(det_state_at(n, parity, g - h, energy))) / (2.0 * h)
    assert st.d_g * 2.0**st.exponent == pytest.approx(fd, rel=1e-6)
