import math

import numpy as np
import pytest

from lipkin import (
    EpConvergenceError,
    Parity,
    build_block,
    default_im_tol,
    eig_complex_tridiag,
    ep_pair_id,
    ep_refine,
    ep_scan,
    near_real_ep_count,
)
from lipkin.eigen import det_state_at


def closest_pair_gap(n, parity, g):
    w = eig_complex_tridiag(build_block(n, g, parity))
    d = np.abs(w[:, None] - w[None, :])
    d[np.diag_indices_from(d)] = np.inf
    return d.min()


def test_refine_analytic_two_level_cases():
    ep = ep_refine(2, Parity.EVEN, 1.8j, 0.1 + 0j)
    assert abs(ep.lambda_star - 2.0j) <= 1e-10
    assert abs(ep.energy_star) <= 1e-10
    assert ep.residual <= 1e-8

    ep = ep_refine(4, Parity.ODD, 1.2j, 0.1 + 0j)
    assert abs(ep.lambda_star - (4.0 / 3.0) * 1j) <= 1e-10
    assert abs(ep.energy_star) <= 1e-10


def test_refine_canonicalizes_to_upper_half_plane():
    ep = ep_refine(2, Parity.EVEN, -1.8j, 0.0j)
    assert ep.lambda_star == pytest.approx(2.0j, abs=1e-10)
    assert ep.lambda_star.imag > 0


def test_refine_rejects_real_axis_as_spurious():
    # a purely real seed keeps every iterate real, which can never be a
    # branch point of a real symmetric block
    with pytest.raises(EpConvergenceError):
        ep_refine(8, Parity.EVEN, 1.5 + 0.0j, -6.0 + 0.0j)


def test_refine_rejects_nonsense_seed():
    with pytest.raises(EpConvergenceError):
        ep_refine(2, Parity.EVEN, complex("inf"), 0.0j)


def test_scan_isolated_analytic_point():
    found = ep_scan(2, Parity.EVEN, (0.0, 3.0, 0.0, 3.0), 40)
    assert len(found) == 1
    assert found[0].lambda_star == pytest.approx(2.0j, abs=1e-10)
    assert found[0].energy_star == pytest.approx(0.0, abs=1e-10)


def test_scan_n4_both_sectors():
    odd = ep_scan(4, Parity.ODD, (0.0, 3.0, 0.0, 3.0), 50)
    assert any(abs(ep.lambda_star - (4.0 / 3.0) * 1j) < 1e-9 for ep in odd)
    # The even sector of N=4 has spectrum {0, +-sqrt(4 + 2 o^2)}, whose
    # only coalescence in this quadrant is the TRIPLE degeneracy at
    # g = 4i/sqrt(3).  The two-level Newton converges there linearly
    # (the Jacobian is singular at a third-order point), pinning g* very
    # tightly while E* retains ~1e-5 slack.  Frozen after the
    # brute-force pass below.
    even = ep_scan(4, Parity.EVEN, (0.0, 3.0, 0.0, 3.0), 50)
    assert len(even) == 1
    assert abs(even[0].lambda_star - 4.0 / math.sqrt(3.0) * 1j) < 1e-6
    assert abs(even[0].energy_star) < 1e-4


def test_n4_even_triple_point_brute_force():
    # dense-grid oracle at 10x the scan resolution in the relevant strip:
    # the only gap collapse sits at the analytic triple point 4i/sqrt(3),
    # and all three eigenvalues meet there
    target = 4.0 / math.sqrt(3.0) * 1j
    best = None
    for re in np.linspace(0.0, 3.0, 121):
        for im in np.linspace(0.0, 3.0, 121):
            g = complex(re, im)
            gap = closest_pair_gap(4, Parity.EVEN, g)
            if best is None or gap < best[0]:
                best = (gap, g)
    assert abs(best[1] - target) < 0.05
    w = eig_complex_tridiag(build_block(4, target, Parity.EVEN))
    assert np.max(np.abs(w[:, None] - w[None, :])) < 1e-3


def test_scan_normal_phase_real_segment_is_empty():
    found = ep_scan(8, Parity.EVEN, (0.0, 0.95, 0.0, 0.0), 30)
    assert found == []


def test_scan_fourfold_symmetry():
    right = ep_scan(6, Parity.EVEN, (0.0, 3.0, 0.0, 3.0), 45)
    left = ep_scan(6, Parity.EVEN, (-3.0, 0.0, 0.0, 3.0), 45)
    assert len(right) == len(left) > 0
    mirrored = sorted((-ep.lambda_star.conjugate() for ep in left),
                      key=lambda z: (z.real, z.imag))
    for ep, lam in zip(right, mirrored):
        assert abs(ep.lambda_star - lam) <= 1e-6


def test_residual_certificate_six_orders():
    ep = ep_refine(16, Parity.EVEN, 1.5 + 0.7j, 8.0 + 1.0j)
    here = det_state_at(16, Parity.EVEN, ep.lambda_star, ep.energy_star)
    there = det_state_at(16, Parity.EVEN, ep.lambda_star + 0.01,
                         ep.energy_star)

    def mag(z, ex):
        return abs(z) * 2.0 ** float(ex)

    assert mag(here.det, here.exponent) \
        <= 1e-6 * mag(there.det, there.exponent)
    assert mag(here.d_e, here.exponent) \
        <= 1e-6 * mag(there.d_e, there.exponent)


def test_square_root_separation_at_branch_point():
    ep = ep_refine(16, Parity.EVEN, 1.5 + 0.7j, 8.0 + 1.0j)

    def pair_gap(delta):
        w = eig_complex_tridiag(
            build_block(16, ep.lambda_star + delta, Parity.EVEN))
        d = np.sort(np.abs(w - ep.energy_star))[:2]
        idx = np.argsort(np.abs(w - ep.energy_star))[:2]
        return abs(w[idx[0]] - w[idx[1]])

    ratio = pair_gap(1e-4) / pair_gap(2.5e-5)
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_pair_id_two_level_sector():
    ep = ep_refine(2, Parity.EVEN, 1.8j, 0.1 + 0j)
    assert ep_pair_id(ep) == (1, 2)


def test_pair_id_frozen_small_n_cases():
    # regression values from the dense scans used to calibrate the
    # near-real family
    ep = ep_refine(8, Parity.EVEN, 1.51 + 1.41j, -3.4 - 1.1j)
    assert ep_pair_id(ep) == (1, 2)
    ep = ep_refine(16, Parity.EVEN, 1.52 + 0.62j, 8.0 + 1.0j)
    assert ep_pair_id(ep) == (1, 2)


def test_near_real_count_small_systems():
    # calibrated defaults: {8: 1.5, 16: 1.2}; counts follow the N/8 rule
    assert near_real_ep_count(8, 2.0) == 1
    assert near_real_ep_count(16, 2.0) == 2


def test_near_real_count_degenerate_window():
    assert near_real_ep_count(8, 1.0001, im_tol=0.05) == 0
    with pytest.raises(ValueError):
        near_real_ep_count(8, 1.0)


def test_default_im_tol_table():
    assert default_im_tol(8) == 1.5
    assert default_im_tol(16) == 1.2
    assert default_im_tol(32) == 0.8
    assert 0.0 < default_im_tol(96) < 0.8
