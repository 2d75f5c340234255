import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipkin import (
    Parity,
    apply_scaled_hamiltonian,
    build_block,
    sector_basis,
)

from lipkin.core import UsageError
from oracles import dense_sector_block, full_m_grid

LAMBDA_GRID = [0.0, 0.5, 1.0, 2.0, 5.0]


def test_sector_basis_examples():
    assert list(sector_basis(2, Parity.EVEN)) == [-1.0, 1.0]
    assert list(sector_basis(2, Parity.ODD)) == [0.0]
    assert list(sector_basis(4, Parity.EVEN)) == [-2.0, 0.0, 2.0]
    # N=5: the class containing m = -j (physically labelled "odd" since
    # N is odd, neutrally labelled EVEN here)
    assert list(sector_basis(5, Parity.EVEN)) == [-2.5, -0.5, 1.5]


def test_sector_basis_rejects_zero():
    # N < 1 is an argument outside the rules, as in the sweeps and scans
    for n in [0, -1]:
        with pytest.raises(UsageError, match="n_particles must be >= 1"):
            sector_basis(n, Parity.EVEN)


@given(n=st.integers(min_value=1, max_value=64))
def test_sectors_partition_the_multiplet(n):
    even = sector_basis(n, Parity.EVEN)
    odd = sector_basis(n, Parity.ODD)
    assert np.all(np.diff(even) == 2.0)
    if len(odd) > 1:
        assert np.all(np.diff(odd) == 2.0)
    union = np.sort(np.concatenate([even, odd]))
    assert np.array_equal(union, full_m_grid(n))
    assert abs(len(even) - len(odd)) <= 1
    assert len(even) + len(odd) == n + 1
    assert even[0] == -n / 2.0  # EVEN is the class of the lowest weight


def test_build_block_examples():
    b = build_block(2, 3.7, Parity.EVEN)
    assert np.allclose(b.diag, [-1.0, 1.0])
    assert np.allclose(b.offdiag, [3.7 / 2.0])

    b = build_block(4, 3.7, Parity.ODD)
    assert np.allclose(b.diag, [-1.0, 1.0])
    assert np.allclose(b.offdiag, [3.0 * 3.7 / 4.0])

    b = build_block(4, 0.0, Parity.EVEN)
    assert np.allclose(b.diag, [-2.0, 0.0, 2.0])
    assert np.allclose(b.offdiag, [0.0, 0.0])


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("lam", LAMBDA_GRID)
def test_blocks_match_dense_oracle_entrywise(n, lam):
    for parity, even in [(Parity.EVEN, True), (Parity.ODD, False)]:
        block = build_block(n, lam, parity)
        dense = np.diag(block.diag).astype(float)
        if block.dimension > 1:
            dense += np.diag(block.offdiag, 1) + np.diag(block.offdiag, -1)
        oracle = dense_sector_block(n, lam, even)
        assert np.max(np.abs(dense - oracle)) <= 1e-13 * max(1.0, n * lam)


@given(n=st.integers(min_value=2, max_value=200),
       lam=st.floats(min_value=-10, max_value=10,
                     allow_nan=False, allow_infinity=False))
@settings(max_examples=60)
def test_coupling_linearity_and_reflection(n, lam):
    b1 = build_block(n, lam, Parity.EVEN)
    b2 = build_block(n, 2.0 * lam, Parity.EVEN)
    assert np.allclose(b2.offdiag, 2.0 * b1.offdiag, rtol=0, atol=1e-14 * n)
    assert np.array_equal(b1.diag, b2.diag)
    # the coupling radicand is invariant under m -> -m-2.  For even N each
    # sector's coupling grid is closed under that map, so the offdiag list
    # is a palindrome; for odd N the map exchanges the two sectors.
    if n % 2 == 0:
        assert np.allclose(b1.offdiag, b1.offdiag[::-1], rtol=1e-13, atol=0)
    else:
        b_odd = build_block(n, lam, Parity.ODD)
        assert np.allclose(b1.offdiag, b_odd.offdiag[::-1],
                           rtol=1e-13, atol=0)


def test_scaled_action_examples():
    b = build_block(2, 1.0, Parity.EVEN)
    out = apply_scaled_hamiltonian(b, np.array([1.0, 0.0]))
    assert np.allclose(out, [-1.0, 0.5], rtol=0, atol=1e-15)

    b = build_block(7, 0.0, Parity.EVEN)
    e0 = np.zeros(b.dimension)
    e0[0] = 1.0
    out = apply_scaled_hamiltonian(b, e0)
    expected = np.zeros(b.dimension)
    expected[0] = -1.0
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("n,lam", [(2, 3.0), (100, 3.0), (1000, 3.0)])
def test_scaled_action_exact_lowest_weight_element(n, lam):
    b = build_block(n, lam, Parity.EVEN)
    e0 = np.zeros(b.dimension)
    e0[0] = 1.0
    out = apply_scaled_hamiltonian(b, e0)
    exact = lam * np.sqrt(2.0 * n * (n - 1.0)) / n**2
    assert out[0] == pytest.approx(-1.0, abs=1e-14)
    if n > 1:
        assert out[1] == pytest.approx(exact, abs=1e-14)
        assert np.all(out[2:] == 0.0)
        # the sqrt(2) lam / N form is the large-N limit of the element
        asymptotic = np.sqrt(2.0) * lam / n
        assert abs(out[1] - asymptotic) <= 2.0 * lam / n**2


def test_scaled_action_large_n_element_value():
    b = build_block(100, 3.0, Parity.EVEN)
    e0 = np.zeros(b.dimension)
    e0[0] = 1.0
    out = apply_scaled_hamiltonian(b, e0)
    # exact: 3 sqrt(2*100*99)/100^2 = 0.04221374...; the asymptotic form
    # sqrt(2)*3/100 = 0.04242... agrees to O(1/N)
    assert out[1] == pytest.approx(3.0 * np.sqrt(19800.0) / 1e4, abs=1e-15)
    assert out[1] == pytest.approx(0.0422137, abs=1e-7)
    assert abs(out[1] - np.sqrt(2.0) * 3.0 / 100.0) < 3.0 / 100.0**2 * 2.0


def test_scaled_action_dimension_mismatch():
    b = build_block(4, 1.0, Parity.EVEN)
    with pytest.raises(ValueError):
        apply_scaled_hamiltonian(b, np.zeros(2))


def test_minimal_system_has_no_interaction():
    # N=1 (j=1/2): double raising annihilates everything, H = J_z
    for parity in (Parity.EVEN, Parity.ODD):
        b = build_block(1, 17.3, parity)
        assert b.dimension == 1
        assert len(b.offdiag) == 0
