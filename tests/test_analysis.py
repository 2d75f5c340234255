import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipkin import (
    NoCrossingError,
    Parity,
    TridiagonalBlock,
    build_block,
    critical_state,
    critical_x,
    eig_real_tridiag,
    full_spectrum,
    gap_ratio_eq3,
    gaps,
    ipr,
    min_gap,
    scaled_spectrum,
    scaling_exponent_eq2,
    spectral_derivative,
)
from lipkin.core import UsageError


def test_full_spectrum_examples():
    assert np.allclose(full_spectrum(2, 0.0).merged, [-1.0, 0.0, 1.0])
    root = math.sqrt(1.25)
    assert np.allclose(full_spectrum(2, 1.0).merged, [-root, 0.0, root],
                       atol=1e-12)
    assert np.allclose(full_spectrum(4, 0.0).merged, [-2, -1, 0, 1, 2])


def test_merged_counts_and_tags():
    s = full_spectrum(9, 1.3)
    assert len(s.merged) == 10
    assert len(s.even_values) + len(s.odd_values) == 10
    assert sum(1 for p in s.merged_parity if p is Parity.EVEN) \
        == len(s.even_values)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.7, 5.0])
@pytest.mark.parametrize("n", [2, 3, 17, 64, 128])
def test_spectrum_mirror_symmetry(n, lam):
    merged = full_spectrum(n, lam).merged
    assert np.max(np.abs(merged + merged[::-1])) <= 1e-9


def test_scaled_spectrum_examples():
    ss = scaled_spectrum(full_spectrum(2, 0.0), "merged")
    assert np.allclose(ss.x, [1.0])
    assert np.allclose(ss.eps, [-1.0])

    ss = scaled_spectrum(full_spectrum(4, 0.0), "merged")
    assert np.allclose(ss.x, [0.5, 1.0])
    assert np.allclose(ss.eps, [-1.0, -0.5])

    ss = scaled_spectrum(full_spectrum(1000, 5.0), "merged")
    # the mean-field ground state -(g + 1/g)/2
    assert ss.eps[0] == pytest.approx(-0.5 * (5.0 + 1.0 / 5.0), abs=0.01)


@given(n=st.integers(min_value=2, max_value=100),
       lam=st.floats(0, 6, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_scaled_spectrum_shape(n, lam):
    ss = scaled_spectrum(full_spectrum(n, lam), "merged")
    assert len(ss.x) == n // 2
    assert np.all(np.diff(ss.x) > 0)
    assert 0.0 < ss.x[0] and ss.x[-1] <= 1.0
    assert np.all(np.diff(ss.eps) >= -1e-12)


def test_gaps_examples():
    assert np.allclose(gaps(full_spectrum(4, 0.0), Parity.EVEN), [2.0, 2.0])
    assert np.allclose(gaps(full_spectrum(2, 1.0), Parity.EVEN),
                       [2.0 * math.sqrt(1.25)], atol=1e-12)
    assert np.allclose(gaps(full_spectrum(4, 0.0), Parity.ODD), [2.0])


def test_gaps_undersized_sector():
    with pytest.raises(UsageError):
        gaps(full_spectrum(2, 1.0), Parity.ODD)  # single level
    with pytest.raises(UsageError):  # one lower-half point, stride 1
        spectral_derivative(scaled_spectrum(full_spectrum(2, 1.0), "odd"))


def test_min_gap_tie_breaks_to_first():
    k_c, smallest = min_gap(full_spectrum(4, 0.0), Parity.EVEN)
    assert (k_c, smallest) == (1, 2.0)


def test_min_gap_tracks_critical_crossing():
    n = 200
    s = full_spectrum(n, 1.5)
    k_c, _ = min_gap(s, Parity.EVEN)
    x_c = critical_x(n, 1.5, spectrum=s)
    # the minimum same-sector gap marks the level crossing the critical
    # line; merged index over N/2 approximates x_c to a grid step or two
    assert abs(k_c / (n / 2) - x_c) <= 4.0 / n + 1e-12


def test_min_gap_magnitude_matches_log_law():
    n = 1000
    s = full_spectrum(n, 5.0)
    _, smallest = min_gap(s, Parity.EVEN)
    target = 2.0 * math.pi * math.sqrt(24.0)
    assert smallest * math.log(n) == pytest.approx(target, rel=0.5)


def test_critical_x_values():
    assert critical_x(2000, 2.0) == pytest.approx(0.25, abs=0.005)
    assert critical_x(123, 1.0) == 0.0
    with pytest.raises(NoCrossingError):
        critical_x(100, 0.5)
    for n in (2, 4):  # every lower-half level lies below the line
        with pytest.raises(NoCrossingError):
            critical_x(n, 5.0)
    with pytest.raises(NoCrossingError, match="no lower-half level"):
        critical_x(1, 5.0)
    # frozen from an N-refinement run: x_c changes < 1e-3 beyond N=2000
    assert critical_x(2000, 10.0) == pytest.approx(0.7467871764655691,
                                                   abs=1e-3)


def test_critical_x_monotone_in_coupling():
    values = [critical_x(2000, lam) for lam in [1.2, 1.5, 2, 3, 5, 10]]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_ground_state_bound_consistency():
    for lam in [1.0, 2.0, 5.0]:
        eps_1 = 2.0 * full_spectrum(1000, lam).merged[0] / 1000
        assert eps_1 >= -0.5 * (lam + 1.0 / lam) - 0.01


def test_scaling_exponent_flat_at_zero_coupling():
    report = scaling_exponent_eq2(1, [16, 32, 64], coupling=0.0)
    assert report.summary == pytest.approx(0.0, abs=1e-12)


def test_scaling_exponent_near_one_third():
    report = scaling_exponent_eq2(1, [64, 128, 256, 512])
    assert report.summary == pytest.approx(-1.0 / 3.0, abs=0.08)
    ns = [n for n, _ in report.samples]
    assert ns == sorted(ns)


def test_scaling_exponent_precondition():
    with pytest.raises(UsageError):
        scaling_exponent_eq2(3, [4, 8])
    with pytest.raises(UsageError):
        scaling_exponent_eq2(0, [16, 32])  # g[k - 1] would read g[-1]


def test_scaling_exponent_needs_two_distinct_n_before_any_solve(monkeypatch):
    import lipkin.analysis as analysis

    def no_solve(*args):
        raise AssertionError("solved a gap before checking the N list")

    monkeypatch.setattr(analysis, "_sector_gap", no_solve)
    for n_list in ([64], [64, 64], [64, 64, 64]):
        with pytest.raises(UsageError, match="two distinct N"):
            scaling_exponent_eq2(1, n_list)


WINDOW_NS = [16, 17, 64, 255, 1024, 4096]


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
def test_eq2_window_gap_matches_full_spectrum(k, lam):
    report = scaling_exponent_eq2(k, WINDOW_NS, coupling=lam)
    assert [n for n, _ in report.samples] == WINDOW_NS
    for n, gap in report.samples:
        full = gaps(full_spectrum(n, lam), Parity.EVEN)[k - 1]
        assert gap == pytest.approx(full, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("lam", [1.5, 2.0, 5.0],
                         ids=lambda lam: f"{lam}-even")
def test_eq3_one_sector_ratios_equal_min_gap(lam):
    ns = [3, 17, 256, 1000]
    report = gap_ratio_eq3(lam, ns)
    denom = 2.0 * math.pi * math.sqrt(lam * lam - 1.0)
    expected = [min_gap(full_spectrum(n, lam), Parity.EVEN)[1] * math.log(n)
                / denom for n in ns]
    assert [r for _, r in report.samples] == expected
    assert report.summary is None


def test_scaling_sweeps_solve_only_the_requested_sector(monkeypatch):
    import lipkin.analysis as analysis

    solves = []
    real_solver = analysis.eig_real_tridiag

    def counting_solver(blocks, *args, **kwargs):
        # one entry per block of a batch: its parity and its level count
        res = real_solver(blocks, *args, **kwargs)
        if isinstance(blocks, TridiagonalBlock):
            solves.append((blocks.parity, len(res.values)))
        else:
            solves.extend((b.parity, b.dimension) for b in blocks)
            assert len(res.values) == sum(b.dimension for b in blocks)
        return res

    def no_full_spectrum(*args, **kwargs):
        raise AssertionError("full_spectrum called by a scaling sweep")

    monkeypatch.setattr(analysis, "eig_real_tridiag", counting_solver)
    monkeypatch.setattr(analysis, "full_spectrum", no_full_spectrum)
    scaling_exponent_eq2(2, [64, 128, 256])
    assert solves == [(Parity.EVEN, 2)] * 3  # levels k and k+1 only
    solves.clear()
    gap_ratio_eq3(2.0, [64, 129])
    assert solves == [(Parity.EVEN, 33), (Parity.EVEN, 65)]


def test_gap_ratio_synthetic_identity():
    lam = 2.0
    denom = 2.0 * math.pi * math.sqrt(lam * lam - 1.0)
    for n in [100, 1000]:
        assert (denom / math.log(n)) * math.log(n) / denom \
            == pytest.approx(1.0, abs=1e-15)


def test_gap_ratio_loose_bracket():
    report = gap_ratio_eq3(5.0, [1000])
    (n, r), = report.samples
    assert n == 1000 and 0.5 <= r <= 1.5
    with pytest.raises(UsageError):
        gap_ratio_eq3(1.0, [100])


def test_gap_ratio_rejects_n_below_two_before_any_block(monkeypatch):
    import lipkin.analysis as analysis

    def no_block(*args):
        raise AssertionError("built a block before checking the N list")

    monkeypatch.setattr(analysis, "build_block", no_block)
    with pytest.raises(UsageError, match=">= 2"):
        gap_ratio_eq3(2.0, [1, 16384])


def test_ipr_basics():
    assert ipr(np.array([0.0, 1.0, 0.0])) == 1.0
    d = 16
    assert ipr(np.full(d, 1.0 / math.sqrt(d))) == pytest.approx(1.0 / d,
                                                                abs=1e-14)
    with pytest.raises(ValueError):
        ipr(np.array([1.0, 1.0]))


@pytest.mark.parametrize("n", [1, 17, 500, 4096])
def test_ipr_of_a_vector_matrix_is_taken_per_column(n):
    # the per-vector formula, column by column, is the reference: the
    # matrix form must give the same bits
    vectors = eig_real_tridiag(build_block(n, 5.0, Parity.EVEN),
                               want_vectors=True).vectors
    reference = [np.sum((np.abs(v) ** 2) ** 2) for v in vectors.T]
    assert np.array_equal(ipr(vectors), reference)
    bad = vectors.copy()
    bad[:, -1] *= 2.0
    with pytest.raises(ValueError):
        ipr(bad)


def test_critical_state_localizes_on_lowest_weight():
    # The level at the critical line concentrates on the lowest-weight
    # edge of the m-grid: its peak sits at m = -j and half its weight
    # lives on the first few of ~N/2 sites, while bulk states spread
    # over O(N) sites.  The edge profile is N-independent (the edge
    # couplings and detunings both scale as 1/N), so the IPR saturates
    # around 0.11 for coupling 5 instead of approaching 1.
    block = build_block(500, 5.0, Parity.EVEN)
    solved = eig_real_tridiag(block, want_vectors=True)
    k = critical_state(500, solved)
    assert type(k) is int
    energy, vec = solved.values[k - 1], solved.vectors[:, k - 1]
    m_grid = block.diag
    assert 2.0 * energy / 500 == pytest.approx(-1.0, abs=0.05)
    weights = np.abs(vec) ** 2
    assert m_grid[int(np.argmax(weights))] == m_grid[0] == -250.0
    assert weights[:10].sum() > 0.5
    assert ipr(vec) > 20.0 / len(vec)
    assert ipr(vec) == pytest.approx(0.1132, abs=0.01)  # frozen profile


def test_critical_state_edge_profile_is_scale_free():
    iprs = []
    for n in (500, 1000, 2000):
        solved = eig_real_tridiag(build_block(n, 5.0, Parity.EVEN),
                                  want_vectors=True)
        iprs.append(ipr(solved.vectors[:, critical_state(n, solved) - 1]))
    assert all(0.08 < v < 0.25 for v in iprs)


def test_spectral_derivative_flat_spectrum():
    # at g = 0 merged levels step by 1 and sector levels by 2 per level,
    # against dx = 2/N per level either way; the stride follows the
    # selector (2 on merged, 1 on a sector)
    s = full_spectrum(64, 0.0)
    for selector, stride, slope_at_zero in [("merged", 2, 1.0),
                                            ("even", 1, 2.0),
                                            ("odd", 1, 2.0)]:
        ss = scaled_spectrum(s, selector)
        xm, slope = spectral_derivative(ss)
        assert len(xm) == len(ss.x) - stride
        assert np.allclose(slope, slope_at_zero, atol=1e-10)


def test_spectral_derivative_vanishes_at_bottom_at_critical_coupling():
    ss = scaled_spectrum(full_spectrum(4096, 1.0), "merged")
    xm, slope = spectral_derivative(ss)
    assert slope[0] < 0.2
    assert slope[0] == slope.min()
    assert np.all(np.diff(slope[:20]) > 0)  # rises away from the touch point


def test_spectral_derivative_minimum_sits_at_crossing():
    n = 4096
    s = full_spectrum(n, 5.0)
    ss = scaled_spectrum(s, "merged")
    xm, slope = spectral_derivative(ss)
    x_c = critical_x(n, 5.0, spectrum=s)
    assert abs(xm[int(np.argmin(slope))] - x_c) <= 2.0 * (2.0 / n)
