import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import lipkin.eigen
import lipkin.excpt
from lipkin import (
    EpConvergenceError,
    EpTrackingError,
    Parity,
    build_block,
    default_im_tol,
    eig_complex_tridiag,
    eig_real_tridiag,
    ep_pair_id,
    ep_refine,
    ep_scan,
    near_real_ep_count,
)
from lipkin.core import UsageError, _sector_arrays
from lipkin.eigen import det_state_at

from oracles import branch_couplings
from test_eigen import dense_lex_eigvals, fail_block


def closest_pair_gap(n, parity, g):
    w = eig_complex_tridiag(n, parity, [g])[0]
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


@pytest.mark.parametrize("n, parity", [(4, Parity.EVEN), (8, Parity.ODD),
                                       (2, Parity.EVEN)])
def test_refine_singular_jacobian_is_convergence_error(n, parity):
    # det depends on g only through g**2, so d_g det and d_eg vanish at
    # g = 0 and the Newton system's g column is zero: the scan never
    # seeds there, since its cell centres have Im g > 0
    st = det_state_at(n, parity, 0j, 0.5)
    assert st.d_g == st.d_eg == 0
    with pytest.raises(EpConvergenceError, match="singular Newton system"):
        ep_refine(n, parity, 0j, 0.5)


def test_refine_overflowing_seed_is_convergence_error():
    # (g * factor)**2 overflows the complex range inside the recurrence
    with pytest.raises(EpConvergenceError, match="recurrence overflows"):
        ep_refine(4, Parity.EVEN, 1e200 + 0.5j, 0.1)


def test_refine_overflowing_certificate_is_convergence_error():
    # Newton lands on the odd-N axis EP g* = 1.1516...i with a subnormal
    # Re g; |det| is subnormal there, so the certificate's recurrence
    # overflows in its power-of-two rescaling
    with pytest.raises(EpConvergenceError, match="overflows"):
        ep_refine(9, Parity.EVEN, 1.25e-301 + 0.43750000125j,
                  0.47392616950151667)


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
    w = eig_complex_tridiag(4, Parity.EVEN, [target])[0]
    assert np.max(np.abs(w[:, None] - w[None, :])) < 1e-3


def test_scan_normal_phase_real_segment_is_empty():
    # a segment has no height: the scan rejects it as a region
    with pytest.raises(UsageError, match="scan region"):
        ep_scan(8, Parity.EVEN, (0.0, 0.95, 0.0, 0.0), 30)
    for parity in Parity:
        assert ep_scan(8, parity, (0.0, 0.95, 0.0, 0.05), 30) == []


@pytest.mark.parametrize("region", [
    (3.0, 1.0, 0.0, 3.0),  # Re edges inverted
    (1.0, 3.0, 3.0, 0.0),  # Im edges inverted
    (1.0, 3.0, 1.0, 1.0),  # zero height
    (1.0, 1.0, 0.0, 3.0),  # zero width
    (1.0, 3.0, -1.0, 1.0),  # below the real axis
    (1.0, 3.0, 0.0, math.nan),
])
def test_scan_rejects_an_empty_region_before_any_solve(region, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved a block for a rejected region")

    monkeypatch.setattr(lipkin.excpt, "eig_complex_tridiag", no_solve)
    with pytest.raises(UsageError, match="scan region"):
        ep_scan(8, Parity.EVEN, region, 30)


@pytest.mark.parametrize("grid", [0, (0, 5), (5, 0), -1, (3, -2), 2.5,
                                  (4, 4.0), True, (True, 4), (4, 4, 4)])
def test_scan_rejects_a_bad_grid_before_any_solve(grid, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved a block for a rejected grid")

    monkeypatch.setattr(lipkin.excpt, "eig_complex_tridiag", no_solve)
    with pytest.raises(UsageError, match="scan grid"):
        ep_scan(8, Parity.EVEN, (0.0, 3.0, 0.0, 3.0), grid)


def test_scan_takes_numpy_integers_for_its_grid():
    region = (0.0, 3.0, 0.0, 3.0)
    plain = ep_scan(8, Parity.EVEN, region, 10)
    assert plain
    for grid in (np.int64(10), (np.int32(10), 10), np.array(10)):
        assert ep_scan(8, Parity.EVEN, region, grid) == plain


#: distinct g* on Re g = 0 in [0, 3]^2 that the grid scan misses: the
#: E* = 0 families of even N (EP3s in EVEN, iN/(N - 1 - 4k) in ODD)
AXIS_FAMILIES = {Parity.EVEN: {8: 1, 16: 3, 32: 5},
                 Parity.ODD: {8: 2, 16: 3, 32: 6}}


def distance(points, z):
    return np.min(np.abs(points - z), initial=np.inf)


def cluster_centres(points, radius):
    """Means of the groups of points within radius of a group's first."""
    groups = []
    for z in sorted(points, key=lambda z: (z.imag, z.real)):
        near = [group for group in groups if abs(group[0] - z) < radius]
        if near:
            near[0].append(z)
        else:
            groups.append([z])
    return np.array([np.mean(group) for group in groups])


@pytest.mark.parametrize("n", [8, 9, 16, 17, 32])
@pytest.mark.parametrize("parity", list(Parity), ids=str)
def test_scan_finds_every_oracle_branch_point(n, parity):
    roots = branch_couplings(n, parity is Parity.EVEN)
    found = np.array([ep.lambda_star for ep in
                      ep_scan(n, parity, (0.0, 3.0, 0.0, 3.0), 90)])
    for g in found:
        assert distance(roots, g) < 1e-6
    # fold the mirrors g -> -g and g -> conj(g) into the first quadrant;
    # the smeared roots of an EP3 land on both sides of the axis
    folded = np.abs(roots.real) + 1j * np.abs(roots.imag)
    box = folded[(folded.real <= 3.0) & (folded.imag > 0.0)
                 & (folded.imag <= 3.0)]
    found = np.abs(found.real) + 1j * found.imag
    for g in box[box.real >= 1e-3]:
        assert distance(found, g) < 1e-6
    axis = cluster_centres(box[box.real < 1e-3], 1e-3)
    if n % 2:
        for g in axis:
            assert distance(found, g) < 1e-6
        return
    assert len(axis) == AXIS_FAMILIES[parity][n]
    for g in axis:
        assert distance(found, g) > 1e-3
    if parity is Parity.ODD:
        closed = [n / (n - 1 - 4 * k) for k in range(n // 4)
                  if n / (n - 1 - 4 * k) <= 3.0]
        assert axis.imag == pytest.approx(closed, abs=1e-6)


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
        w = eig_complex_tridiag(16, Parity.EVEN,
                                [ep.lambda_star + delta])[0]
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
    # calibrated cutoffs: {8: 1.5, 16: 1.2}; counts follow the N/8 rule
    assert near_real_ep_count(8, 2.0, default_im_tol(8)) == 1
    assert near_real_ep_count(16, 2.0, default_im_tol(16)) == 2


def test_near_real_count_one_level_sectors():
    # the EVEN sector of N=1 and the ODD sector of N=1 and N=2 hold one
    # level each, so their scans find no branch point
    assert near_real_ep_count(1, 2.0, 1.5) == 0
    assert near_real_ep_count(2, 2.0, 1.5) == 0


def test_near_real_count_degenerate_window():
    assert near_real_ep_count(8, 1.0001, im_tol=0.05) == 0
    with pytest.raises(UsageError):
        near_real_ep_count(8, 1.0, 1.5)


@pytest.mark.parametrize("im_tol", [-1.0, 0.0])
def test_near_real_count_rejects_a_cutoff_at_or_below_zero(im_tol):
    with pytest.raises(UsageError, match="scan region"):
        near_real_ep_count(8, 2.0, im_tol)


def test_default_im_tol_table():
    assert default_im_tol(8) == 1.5
    assert default_im_tol(16) == 1.2
    assert default_im_tol(32) == 0.8
    # no cutoff is calibrated at any other N
    for n in [1, 4, 9, 64, 96]:
        with pytest.raises(UsageError, match=r"only N in \[8, 16, 32\]"):
            default_im_tol(n)


# -- the stacked scan against the per-cell path it replaced ----------------

def reference_seeds(n, parity, region, grid, skip=()):
    """(cell coupling, pair midpoint) of every seeding cell, found one
    build_block and one dense solve per cell; cells in skip count as
    failed solves."""
    re0, re1, im0, im1 = region
    xs = re0 + (np.arange(grid) + 0.5) * (re1 - re0) / grid
    ys = im0 + (np.arange(grid) + 0.5) * (im1 - im0) / grid
    gap = np.full((grid, grid), np.inf)
    mid = np.zeros((grid, grid), dtype=complex)
    for iy, b in enumerate(ys):
        for ix, a in enumerate(xs):
            if (iy, ix) in skip:
                continue
            w = dense_lex_eigvals(n, parity, a + 1j * b)
            d = np.abs(w[:, None] - w[None, :])
            d[np.diag_indices_from(d)] = np.inf
            i, j = np.unravel_index(np.argmin(d), d.shape)
            gap[iy, ix], mid[iy, ix] = d[i, j], 0.5 * (w[i] + w[j])
    seeds = []
    for iy in range(grid):
        for ix in range(grid):
            near = gap[max(0, iy - 1):iy + 2, max(0, ix - 1):ix + 2]
            if np.isfinite(gap[iy, ix]) and gap[iy, ix] <= near.min():
                seeds.append((xs[ix] + 1j * ys[iy], mid[iy, ix]))
    return seeds


def reference_pair(ep):
    """The walk of ep_pair_id, one build_block and one solve per step,
    matched against the real levels at Re g*.  Only for even N does
    E -> -E map a sector onto itself, so only then is E* folded."""
    energy = ep.energy_star
    if energy.real > 0 and ep.n_particles % 2 == 0:
        energy = -energy
    levels = eig_real_tridiag(
        build_block(ep.n_particles, ep.lambda_star.real, ep.sector)).values
    for steps, ratio in [(60, 0.5), (180, math.sqrt(0.5))]:
        current = None
        for t in range(1, steps + 1):
            lam = ep.lambda_star
            w = dense_lex_eigvals(ep.n_particles, ep.sector,
                                  lam.real + 1j * lam.imag * ratio ** t)
            if current is None:
                idx = list(np.argsort(np.abs(w - energy))[:2])
            else:
                d0, d1 = np.abs(w - current[0]), np.abs(w - current[1])
                i0, i1 = int(np.argmin(d0)), int(np.argmin(d1))
                if i0 == i1:
                    if d0[i0] <= d1[i1]:
                        d1[i0] = np.inf
                        i1 = int(np.argmin(d1))
                    else:
                        d0[i1] = np.inf
                        i0 = int(np.argmin(d0))
                idx = [i0, i1]
            current = w[idx]
        ks = sorted(int(np.argmin(np.abs(levels - c.real))) for c in current)
        if ks[1] == ks[0] + 1:
            return ks[0] + 1, ks[1] + 1
    return None


def reference_scan(n, parity, region, grid):
    re0, re1, im0, im1 = region
    pad = 0.02 * max(re1 - re0, im1 - im0)
    found = []
    for lam0, e0 in reference_seeds(n, parity, region, grid):
        try:
            ep = ep_refine(n, parity, lam0, e0)
        except EpConvergenceError:
            continue
        lam = ep.lambda_star
        if not (re0 - pad <= lam.real <= re1 + pad
                and im0 - pad <= lam.imag <= im1 + pad):
            continue
        if all(abs(prev.lambda_star - lam) >= 1e-6 for prev in found):
            found.append(ep)
    found.sort(key=lambda e: (e.lambda_star.real, e.lambda_star.imag))
    return [(ep.lambda_star, ep.energy_star, ep.residual, reference_pair(ep))
            for ep in found]


def record_seeds(monkeypatch):
    seeds = []
    real_refine = lipkin.excpt.ep_refine

    def recording(n, sector, lam, energy):
        seeds.append((lam, energy))
        return real_refine(n, sector, lam, energy)

    monkeypatch.setattr(lipkin.excpt, "ep_refine", recording)
    return seeds


#: the four off-axis branch points (g*, E*) of the N = 32 EVEN sector
#: on the arc Re g* < 0.33, from 40-digit Newton on the same determinant
#: recurrence; double-precision Newton stalls there with steps near
#: 1e-12, above its 1e-13 stop rule
N32_EVEN_ARC = [
    (0.098391977987260422662 + 1.1092577737599686523j,
     1.4748758010354602033 + 0.96746346994386364566j),
    (0.13763864377838224121 + 1.3154974459703986267j,
     -1.6668600052902884671 - 1.3294556478134487231j),
    (0.20147792312815059474 + 1.6047889632410211586j,
     1.9035963632529564255 + 1.7046615981431755145j),
    (0.319904459967658442 + 2.0490395574220338136j,
     2.2448168108413094929 + 2.1733999747588412562j),
]


@pytest.mark.parametrize("g_star,e_star", N32_EVEN_ARC,
                         ids=[f"{g.imag:.4f}" for g, _ in N32_EVEN_ARC])
def test_refine_accepts_a_stalled_run_that_passes_the_certificate(
        g_star, e_star):
    ep = ep_refine(32, Parity.EVEN, g_star + 1e-5, e_star)
    assert abs(ep.lambda_star - g_star) <= 1e-10
    assert abs(ep.energy_star - e_star) <= 1e-10
    assert ep.residual <= 1e-8


def test_refine_stall_fallback_still_applies_the_certificate(monkeypatch):
    g_star, e_star = N32_EVEN_ARC[0]
    monkeypatch.setattr(lipkin.excpt, "_RESIDUAL_LIMIT", 1e-12)
    with pytest.raises(EpConvergenceError, match="residual certificate"):
        ep_refine(32, Parity.EVEN, g_star + 1e-5, e_star)


def record_solves(monkeypatch):
    """The couplings of every complex solve the scan and the walks make."""
    calls = []
    real_solver = lipkin.excpt.eig_complex_tridiag

    def counting(n, parity, couplings):
        calls.append(np.asarray(couplings, dtype=complex).ravel())
        return real_solver(n, parity, couplings)

    monkeypatch.setattr(lipkin.excpt, "eig_complex_tridiag", counting)
    return calls


@pytest.mark.parametrize("n,parity", [(8, Parity.EVEN), (9, Parity.ODD),
                                      (16, Parity.EVEN), (16, Parity.ODD)])
def test_scan_matches_per_cell_reference(n, parity):
    region = (0.0, 3.0, 0.0, 3.0)
    found = ep_scan(n, parity, region, 24)
    assert found
    assert [(ep.lambda_star, ep.energy_star, ep.residual, ep_pair_id(ep))
            for ep in found] == reference_scan(n, parity, region, 24)


def test_scan_solves_every_cell_once_in_row_order(monkeypatch):
    nx, ny = 30, 20
    xs = (np.arange(nx) + 0.5) * 3.0 / nx
    ys = (np.arange(ny) + 0.5) * 3.0 / ny
    real_solves = []
    for module, name in [(lipkin.eigen, "_dstevd"),
                         (scipy.linalg, "eigh_tridiagonal")]:
        monkeypatch.setattr(module, name,
                            lambda *a, **k: real_solves.append(a))
    # the default budget takes the whole grid in one call; a budget of 3
    # rows of the N=8 even block (dimension 5) takes 3 rows per call
    for budget, rows_per_call in [(None, [ny]),
                                  (16 * 5 * nx * 3, [3] * 6 + [2])]:
        with monkeypatch.context() as patch:
            if budget:
                patch.setattr(lipkin.excpt, "_SCAN_BYTES", budget)
            calls = record_solves(patch)
            found = ep_scan(8, Parity.EVEN, (0.0, 3.0, 0.0, 3.0), (nx, ny))
            assert found
            assert all(ep_pair_id(ep) for ep in found)
        scan, walks = calls[:-len(found)], calls[-len(found):]
        # blocks of whole grid rows cover every cell centre exactly once,
        # in row order
        assert [len(c) % nx for c in scan] == [0] * len(scan)
        assert [len(c) // nx for c in scan] == rows_per_call
        assert np.concatenate(scan).tolist() == [complex(x, y)
                                                 for y in ys for x in xs]
        # then one 60-coupling walk per EP; the labels need no real solve
        assert [len(c) for c in walks] == [60] * len(found)
    assert real_solves == []


def test_scan_skips_exactly_a_failed_cell(monkeypatch):
    n, parity, region, grid = 16, Parity.EVEN, (0.0, 3.0, 0.0, 3.0), 24
    seeds = record_seeds(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clean scan warns of nothing
        ep_scan(n, parity, region, grid)
    baseline = list(seeds)
    assert baseline == reference_seeds(n, parity, region, grid)
    # fail the solve of the cell behind the first seed
    lam0 = baseline[0][0]
    step = (region[1] - region[0]) / grid
    cell = (int(lam0.imag / step), int(lam0.real / step))
    fail_block(monkeypatch, lam0 * _sector_arrays(n, parity)[1][0])
    seeds.clear()
    with pytest.warns(RuntimeWarning,
                      match="^1 of 576 cells skipped: eigensolve failed$"):
        ep_scan(n, parity, region, grid)
    assert (lam0, baseline[0][1]) not in seeds
    assert seeds == reference_seeds(n, parity, region, grid, skip={cell})


def test_pair_id_solves_one_stack_per_walk(monkeypatch):
    ep = ep_refine(8, Parity.EVEN, 1.51 + 1.41j, -3.4 - 1.1j)
    calls = record_solves(monkeypatch)
    assert ep_pair_id(ep) == (1, 2)
    assert [len(c) for c in calls] == [60]

    # a walk whose tracked endpoints are not adjacent levels fails at
    # once: the two values nearest E* keep ranks 1 and 3 on every row
    row = ep.energy_star + np.array([-10.0, -0.1, 5.0j, 0.1, 10.0])
    solves = []

    def non_adjacent(n, parity, couplings):
        solves.append(len(couplings))
        return np.tile(row, (len(couplings), 1))

    monkeypatch.setattr(lipkin.excpt, "eig_complex_tridiag", non_adjacent)
    with pytest.raises(EpTrackingError, match="non-adjacent levels"):
        ep_pair_id(ep)
    assert solves == [60]


def test_pair_id_failed_solve_on_walk_is_tracking_error(monkeypatch):
    ep = ep_refine(8, Parity.EVEN, 1.51 + 1.41j, -3.4 - 1.1j)
    real_solver = lipkin.excpt.eig_complex_tridiag

    def one_nan_row(n, parity, couplings):
        rows = real_solver(n, parity, couplings)
        rows[len(rows) // 2] = np.nan
        return rows

    monkeypatch.setattr(lipkin.excpt, "eig_complex_tridiag", one_nan_row)
    with pytest.raises(EpTrackingError):
        ep_pair_id(ep)


@pytest.mark.parametrize("n", [9, 17])
def test_odd_n_mirror_rows_carry_mirrored_labels(n):
    # for odd N the two sectors mirror each other: an EP at (g*, E*) in
    # one is an EP at (g*, -E*) in the other, and level k of a sector
    # with dim levels is level dim + 1 - k of the other
    found = {parity: ep_scan(n, parity, (0.0, 3.0, 0.0, 3.0), 60)
             for parity in Parity}
    dim = len(_sector_arrays(n, Parity.EVEN)[0])
    assert len(found[Parity.EVEN]) == len(found[Parity.ODD]) > 0
    for ep in found[Parity.EVEN]:
        twin, = [other for other in found[Parity.ODD]
                 if abs(other.lambda_star - ep.lambda_star) < 1e-6]
        assert abs(twin.energy_star + ep.energy_star) < 1e-6
        k, k_next = ep_pair_id(ep)
        assert ep_pair_id(twin) == (dim - k, dim + 1 - k)
    for ep in found[Parity.EVEN] + found[Parity.ODD]:
        assert ep_pair_id(ep) == reference_pair(ep)
