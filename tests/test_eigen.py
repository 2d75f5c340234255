import ctypes
import math
import os
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import lipkin.core
import lipkin.eigen
from lipkin import (
    Parity,
    TridiagonalBlock,
    build_block,
    eig_complex_tridiag,
    eig_real_tridiag,
)
from lipkin.eigen import det_state_at

from oracles import dense_sector_block

LAMBDA_GRID = [0.0, 0.5, 1.0, 2.0, 5.0]


def _sorted_complex(w):
    return np.sort_complex(np.asarray(w))


def complex_block(n, g, parity):
    """The complex symmetric sector block at coupling g, assembled as
    eig_complex_tridiag assembles it."""
    diag, factors = lipkin.core._sector_arrays(n, parity)
    return TridiagonalBlock(diag, complex(g) * factors.astype(complex), n,
                            parity)


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
        eig_real_tridiag(complex_block(4, 1.0j, Parity.EVEN))
    with pytest.raises(ValueError):
        eig_real_tridiag([build_block(4, 1.0, Parity.EVEN),
                          complex_block(4, 1.0j, Parity.ODD)])


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
    # the values-only forms, a 1x1 block (n=1) included
    assert np.allclose(eig_real_tridiag(block).values, full.values,
                       rtol=0.0, atol=1e-12)
    assert np.allclose(eig_real_tridiag(block, index_range=(0, 0)).values,
                       full.values[:1], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 64, 1001])
def test_real_solver_is_byte_equal_to_scipy(n):
    # the values-only route calls LAPACK dstevd itself, the routine
    # scipy runs by default
    for parity in Parity:
        for lam in [0.0, 1.0, -1.0, 5.0, -3.5, 1e-300, 1e150]:
            block = build_block(n, lam, parity)
            reference = scipy.linalg.eigh_tridiagonal(
                block.diag, block.offdiag, eigvals_only=True)
            values = eig_real_tridiag(block).values
            assert values.dtype == reference.dtype
            assert values.tobytes() == reference.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 1001])
def test_real_solver_vectors_are_byte_equal_to_scipy(n):
    # the vector route calls LAPACK dstevd itself too, with jobz='V' and
    # the workspace scipy's wrapper passes
    for parity in Parity:
        for lam in [0.0, 1.0, -1.0, 5.0, 1e150]:
            block = build_block(n, lam, parity)
            ref_values, ref_vectors = scipy.linalg.eigh_tridiagonal(
                block.diag, block.offdiag)
            solved = eig_real_tridiag(block, want_vectors=True)
            assert solved.values.tobytes() == ref_values.tobytes()
            assert solved.vectors.shape == ref_vectors.shape
            assert solved.vectors.tobytes() == ref_vectors.tobytes()


@pytest.mark.parametrize("n", [8, 64, 1001, 4096])
def test_real_solver_index_range_is_byte_equal_to_unscaled_bisection(n):
    # every bisection runs on the block scaled by an exact power of two;
    # below the overflow it gives the levels of the unscaled one, at the
    # windows (k-1, k) eq2 asks for and at the top (a level at round-off
    # size, such as the middle one of N=64 even at g=1e150, can flip sign)
    for parity in Parity:
        for lam in [0.0, 1e-300, 0.3, 1.0, -2.0, 5.0, 1e6, 1e100, 1e150]:
            block = build_block(n, lam, parity)
            dim = block.dimension
            for lo, hi in [(k - 1, k) for k in range(1, min(6, dim))] + [
                    (0, min(4, dim - 1)), (dim - 2, dim - 1)]:
                reference = scipy.linalg.eigh_tridiagonal(
                    block.diag, block.offdiag, eigvals_only=True,
                    select="i", select_range=(lo, hi))
                values = eig_real_tridiag(block, index_range=(lo, hi)).values
                assert values.tobytes() == reference.tobytes()


def test_real_solver_batch_concatenates_single_solves():
    blocks = [build_block(n, lam, parity)
              for n, lam in [(1, 2.0), (64, 5.0), (33, -1.5), (2000, 1.0)]
              for parity in Parity]
    singles = [eig_real_tridiag(b).values for b in blocks]
    batch = eig_real_tridiag(blocks)
    assert batch.vectors is None
    assert batch.values.tobytes() == np.concatenate(singles).tobytes()
    assert eig_real_tridiag(tuple(blocks[:1])).values.tobytes() \
        == singles[0].tobytes()
    assert len(eig_real_tridiag([]).values) == 0


def _solve_pair_into(queue):
    blocks = [build_block(64, 2.0, parity) for parity in Parity]
    queue.put(eig_real_tridiag(blocks).values.tobytes())


def test_real_solver_batch_leaves_no_threads_behind(monkeypatch):
    import threading

    before = set(threading.enumerate())
    blocks = [build_block(64, 2.0, parity) for parity in Parity]
    eig_real_tridiag(blocks)
    assert set(threading.enumerate()) == before
    assert not [t for t in before if t.name.startswith("lipkin-eigen")]

    def no_convergence(*args):
        args[-1]._obj.value = 3  # info > 0

    monkeypatch.setattr(lipkin.eigen, "_DSTEVD", no_convergence)
    with pytest.raises(np.linalg.LinAlgError):
        eig_real_tridiag(blocks)
    assert set(threading.enumerate()) == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_real_solver_batch_works_in_a_forked_child():
    # a child forked after a batch, whose threads are all joined by then,
    # solves batches of its own
    import multiprocessing

    blocks = [build_block(64, 2.0, parity) for parity in Parity]
    expected = eig_real_tridiag(blocks).values.tobytes()
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_solve_pair_into, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=30) == expected
        child.join(timeout=30)
        assert not child.is_alive()
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()


def test_real_solver_vectors_and_index_range_take_one_block():
    blocks = [build_block(8, 1.0, Parity.EVEN), build_block(8, 1.0, Parity.ODD)]
    with pytest.raises(ValueError):
        eig_real_tridiag(blocks, want_vectors=True)
    with pytest.raises(ValueError):
        eig_real_tridiag(blocks, index_range=(0, 1))
    one = eig_real_tridiag(blocks[:1], want_vectors=True)
    assert one.vectors.shape == (5, 5)


def test_real_solver_names_an_overflowing_coupling():
    with pytest.raises(ValueError, match="coupling overflows .* N=64 even"):
        eig_real_tridiag(build_block(64, 1e308, Parity.EVEN))
    nan_block = build_block(8, math.nan, Parity.ODD)
    for kwargs in [{}, {"want_vectors": True}]:
        with pytest.raises(ValueError, match="N=8 odd block holds NaN"):
            eig_real_tridiag(nan_block, **kwargs)


def test_real_solver_rejects_mismatched_offdiagonal():
    block = build_block(16, 1.0, Parity.EVEN)
    for offdiag in [block.offdiag[:-1], np.append(block.offdiag, 1.0),
                    block.offdiag[:, None]]:
        bad = TridiagonalBlock(block.diag, offdiag, 16, Parity.EVEN)
        with pytest.raises(ValueError, match="do not form a tridiagonal"):
            eig_real_tridiag(bad)


def test_real_solver_failure_is_a_linalg_error(monkeypatch):
    def no_convergence(*args):
        args[-1]._obj.value = 3  # info > 0

    monkeypatch.setattr(lipkin.eigen, "_DSTEVD", no_convergence)
    for want_vectors in [False, True]:
        with pytest.raises(np.linalg.LinAlgError, match="info=3"):
            eig_real_tridiag(build_block(16, 1.0, Parity.EVEN), want_vectors)


def test_complex_solver_analytic_coalescence():
    # 2x2 even block of N=2: eigenvalues +-sqrt(1 + g^2/4)
    values = eig_complex_tridiag(2, Parity.EVEN, [2.0j])[0]
    assert np.max(np.abs(values)) <= 1e-7  # defective double zero

    values = eig_complex_tridiag(2, Parity.EVEN, [1.0j])[0]
    root = math.sqrt(0.75)
    assert np.allclose(values, [-root, root], atol=1e-12)

    values = eig_complex_tridiag(4, Parity.ODD, [(4.0 / 3.0) * 1j])[0]
    assert np.max(np.abs(values)) <= 1e-7


def test_complex_solver_output_is_lexicographically_sorted():
    values = eig_complex_tridiag(12, Parity.EVEN, [0.8 + 1.3j])[0]
    key = np.lexsort((values.imag, values.real))
    assert np.array_equal(key, np.arange(len(values)))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_complex_solver_matches_dense_oracle(n):
    g = 0.9 + 1.4j
    for parity, even in [(Parity.EVEN, True), (Parity.ODD, False)]:
        block = complex_block(n, g, parity)
        if block.dimension < 2:
            continue
        values = _sorted_complex(eig_complex_tridiag(n, parity, [g])[0])
        oracle = _sorted_complex(np.linalg.eigvals(
            dense_sector_block(n, g, even)))
        assert np.max(np.abs(values - oracle)) <= 1e-9


def test_complex_spectrum_reversal_invariance():
    # reversing the basis order leaves the eigenvalue multiset alone
    block = complex_block(10, 1.1 + 0.7j, Parity.EVEN)
    a = np.diag(block.diag.astype(complex))
    a += np.diag(block.offdiag, 1) + np.diag(block.offdiag, -1)
    rev = a[::-1, ::-1]
    w1 = _sorted_complex(np.linalg.eigvals(a))
    w2 = _sorted_complex(np.linalg.eigvals(rev))
    assert np.max(np.abs(w1 - w2)) <= 1e-9


# real couplings of both signs, generic complex ones, and the defective
# double zero of the N=2 even block at g = 2i
STACK_COUPLINGS = [0.0, 1.5, -0.7, 0.3 + 2.1j, 1.2 - 0.4j, -2.0 + 0.5j, 2.0j]


def dense_lex_eigvals(n, parity, g):
    """One dense solve of the complex block at g, lex-sorted."""
    block = complex_block(n, g, parity)
    a = np.diag(block.diag.astype(complex))
    a += np.diag(block.offdiag, 1) + np.diag(block.offdiag, -1)
    w = np.linalg.eigvals(a)
    return w[np.lexsort((w.imag, w.real))]


@pytest.mark.parametrize("n", [2, 3, 8, 9, 32])
@pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
def test_stacked_solver_rows_equal_single_block_solves(n, parity):
    rows = eig_complex_tridiag(n, parity, STACK_COUPLINGS)
    dim = build_block(n, 1.0, parity).dimension
    assert rows.shape == (len(STACK_COUPLINGS), dim)
    for g, row in zip(STACK_COUPLINGS, rows):
        assert np.array_equal(row, dense_lex_eigvals(n, parity, g))


def test_stacked_solver_slices_large_stacks(monkeypatch):
    couplings = [0.1 * k + 0.05j * k for k in range(1, 12)]
    whole = eig_complex_tridiag(9, Parity.ODD, couplings)
    # two blocks per LAPACK call
    monkeypatch.setattr(lipkin.eigen, "_STACK_BYTES", 2 * 16 * 5 * 5)
    assert np.array_equal(eig_complex_tridiag(9, Parity.ODD, couplings),
                          whole)


def fail_block(monkeypatch, marker):
    """Make the per-block LAPACK call fail (info = 1, as a QR iteration
    that does not converge) on each block whose (1, 0) entry is marker;
    every other call goes through."""
    real_zgeev = lipkin.eigen._ZGEEV

    def failing(*args):
        dim, a, lwork, info = (args[2]._obj, args[3], args[11]._obj,
                               args[13]._obj)
        if lwork.value != -1 and dim.value > 1:  # a solve, not the query
            re, im = (ctypes.c_double * 4).from_address(a)[2:]
            if complex(re, im) == marker:
                info.value = 1
                return
        real_zgeev(*args)

    monkeypatch.setattr(lipkin.eigen, "_ZGEEV", failing)


@pytest.mark.parametrize("n", [2, 9, 32])
def test_stacked_solver_failed_block_gives_nan_row(n, monkeypatch):
    parity = Parity.EVEN
    bad = 1.2 - 0.4j
    good = eig_complex_tridiag(n, parity, STACK_COUPLINGS)
    fail_block(monkeypatch, bad * lipkin.core._sector_arrays(n, parity)[1][0])
    rows = eig_complex_tridiag(n, parity, STACK_COUPLINGS)
    k = STACK_COUPLINGS.index(bad)
    assert np.isnan(rows[k]).all()
    others = np.arange(len(STACK_COUPLINGS)) != k
    assert np.array_equal(rows[others], good[others])


def test_overflowing_block_gives_nan_row_without_lapack(monkeypatch):
    # g = 1.7e308 overflows g times the largest ladder factor (1.19) of
    # the N=8 even block
    couplings = [0.5 + 1.0j, 1.7e308, 2.0j, complex(math.nan, 1.0)]
    good = eig_complex_tridiag(8, Parity.EVEN, couplings)
    solved = []
    real_zgeev = lipkin.eigen._ZGEEV

    def spy(*args):
        if args[11]._obj.value != -1:  # not the workspace query
            # the 5 x 5 complex entries of the block
            entries = (ctypes.c_double * 50).from_address(args[3])
            assert all(map(math.isfinite, entries))
            solved.append(complex(*entries[2:4]))
        real_zgeev(*args)

    monkeypatch.setattr(lipkin.eigen, "_ZGEEV", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning
        rows = eig_complex_tridiag(8, Parity.EVEN, couplings)
        assert not np.isnan(rows[[0, 2]]).any()
        assert np.isnan(rows[[1, 3]]).all()
        assert np.array_equal(rows, good, equal_nan=True)
        factor = lipkin.core._sector_arrays(8, Parity.EVEN)[1][0]
        assert sorted(solved, key=abs) == [0.5 * factor + 1j * factor,
                                           2j * factor]
        solved.clear()
        assert np.isnan(eig_complex_tridiag(8, Parity.EVEN, [1.7e308])).all()
    assert solved == []


def test_stacked_solver_rows_do_not_depend_on_the_thread_split(monkeypatch):
    # the couplings of the N = 32 branch-point map, grid 90 on [0, 3]^2
    centres = (np.arange(90) + 0.5) * 3.0 / 90
    couplings = (centres + 1j * centres[:, None]).ravel()
    before = set(threading.enumerate())
    for parity in Parity:
        split = eig_complex_tridiag(32, parity, couplings)
        with monkeypatch.context() as patch:
            patch.setattr(lipkin.eigen, "_usable_cpus", lambda: 1)
            serial = eig_complex_tridiag(32, parity, couplings)
        diag, factors = lipkin.core._sector_arrays(32, parity)
        i = np.arange(len(diag))
        offdiag = couplings[:, None] * factors.astype(complex)
        stack = np.zeros((len(couplings), len(i), len(i)), dtype=complex)
        stack[:, i, i] = diag
        stack[:, i[:-1], i[1:]] = stack[:, i[1:], i[:-1]] = offdiag
        w = np.linalg.eigvals(stack)
        w = np.take_along_axis(w, np.lexsort((w.imag, w.real), axis=-1), -1)
        assert split.tobytes() == serial.tobytes() == w.tobytes()
    assert set(threading.enumerate()) == before


def test_sector_arrays_built_once_and_read_only(monkeypatch):
    calls = []
    real_basis = lipkin.core.sector_basis
    monkeypatch.setattr(lipkin.core, "sector_basis",
                        lambda *a: calls.append("basis") or real_basis(*a))
    lipkin.core._sector_arrays.cache_clear()
    det_state_at(14, Parity.ODD, 0.5 + 1.0j, 0.3)  # builds the arrays
    built = list(calls)
    assert built == ["basis"]
    for g in (0.5 + 1.0j, 1.5 + 0.2j, 0.7):
        det_state_at(14, Parity.ODD, g, 0.3)
        eig_complex_tridiag(14, Parity.ODD, [g])
        block = build_block(14, g.real, Parity.ODD)
    assert calls == built
    diag, factors = lipkin.core._sector_arrays(14, Parity.ODD)
    assert block.diag is diag
    assert not diag.flags.writeable and not factors.flags.writeable
    lipkin.core._sector_arrays.cache_clear()


@given(re=st.floats(-3, 3), im=st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_conjugation_and_sign_symmetries(re, im):
    g = complex(re, im)
    w = eig_complex_tridiag(8, Parity.EVEN, [g])[0]
    w_conj = eig_complex_tridiag(8, Parity.EVEN, [g.conjugate()])[0]
    assert multiset_distance(w.conjugate(), w_conj) <= 1e-9
    w_neg = eig_complex_tridiag(8, Parity.EVEN, [-g])[0]
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
        block = complex_block(n, g, Parity.EVEN)
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
