"""Locating exceptional points (EPs) of the analytically continued
Hamiltonian in the complex coupling plane.

An EP is a square-root branch point where two eigenvalues of one sector
block coalesce with a defective eigenvector.  The solver condition is

    det(H(g) - E) = 0   and   d/dE det(H(g) - E) = 0,

attacked with a two-variable Newton iteration on the rescaled
determinant recurrence: O(dim) per evaluation and, unlike the
characteristic-polynomial discriminant, usable up to dim ~ 1,500.  On
one branch point followed across N, the residual certificate (see
ep_refine) read 2e-14 at N = 38, 1.5e-12 at N = 860 and up to 7e-9,
near its 1e-8 limit, at N ~ 3,000 (dim ~ 1,500).  Scanning seeds the
Newton solver wherever two eigenvalues of the complex block nearly
coalesce on a grid.

Spectral symmetries used here: eigenvalues come in conjugate pairs
under g -> conj(g), so every EP has a mirror in the lower half-plane
and the canonical representative carries Im g >= 0.  Under E -> -E the
spectrum of one sector maps onto itself for even N, and onto the other
sector's for odd N, where the two m-grids mirror each other.  Either
way each g* hosts a pair of EPs at +-E*; they count once per g*,
matching how branch points are plotted and counted per coupling.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Parity, UsageError, _sector_arrays
from .eigen import det_state_at, eig_complex_tridiag

_DEDUP_RADIUS = 1e-6
_RESIDUAL_LIMIT = 1e-8
_SPURIOUS_IM = 1e-9
_NEWTON_MAX_ITER = 80
#: a run that never meets the 1e-13 step rule is still accepted when its
#: last _STALL_STEPS steps were all <= _STALL_TOL * max(1, |x|)
_STALL_STEPS = 10
_STALL_TOL = 1e-9
#: upper bound on the bytes of the eigenvalues one scan call returns:
#: ep_scan hands the solver as many whole grid rows as fit
_SCAN_BYTES = 1 << 18
#: seeding-grid cells per unit of coupling in near_real_ep_count
_NEAR_REAL_GRID_PER_UNIT = 90

#: near-real counting thresholds calibrated against scanned EP families;
#: finite-N EPs sit off the axis (minimum Im g* ~ 1.4 at N=8, ~0.29 at
#: N=32), so "near the real axis" is necessarily an N-dependent notion.
NEAR_REAL_IM_TOL = {8: 1.5, 16: 1.2, 32: 0.8}


def default_im_tol(n_particles: int) -> float:
    """NEAR_REAL_IM_TOL's calibrated cutoff at N; other N raise UsageError."""
    if n_particles not in NEAR_REAL_IM_TOL:
        raise UsageError(f"no calibrated near-real cutoff at N={n_particles}"
                         f"; only N in {sorted(NEAR_REAL_IM_TOL)} have one")
    return NEAR_REAL_IM_TOL[n_particles]


class EpConvergenceError(RuntimeError):
    """Newton refinement diverged or landed on a spurious point."""


class EpTrackingError(RuntimeError):
    """Eigenvalue-pair tracking toward the real axis became ambiguous."""


@dataclass(frozen=True)
class ExceptionalPoint:
    """A refined branch point of one sector.

    residual is max(|det|, |d_E det|) at the solution, normalized by the
    same quantities a distance 0.01 away in the coupling.  ep_pair_id
    names the two levels it joins.
    """

    lambda_star: complex
    energy_star: complex
    sector: Parity
    n_particles: int
    residual: float


def _det_state(n: int, parity: Parity, g: complex, energy: complex):
    """det_state_at, with an overflow of its rescaling (a subnormal or
    huge |det|) raised as EpConvergenceError, so the seed is dropped."""
    try:
        return det_state_at(n, parity, g, energy)
    except OverflowError as exc:
        raise EpConvergenceError(
            f"the determinant recurrence overflows at g={g}, E={energy}"
        ) from exc


def _residual_certificate(n: int, parity: Parity, g: complex,
                          energy: complex) -> float:
    """Drop of |det| and |d_E det| relative to a point 0.01 away in g."""
    here = _det_state(n, parity, g, energy)
    there = _det_state(n, parity, g + 0.01, energy)

    def log2mag(z: complex, ex: int) -> float:
        return math.log2(abs(z)) + ex if z != 0 else -math.inf

    def ratio(num: float, den: float) -> float:
        if num == -math.inf:
            return 0.0  # exactly zero at the solution
        if den == -math.inf:
            return math.inf  # reference degenerate but solution is not
        d = num - den
        return 2.0 ** d if d < 1000 else math.inf

    worst = max(
        ratio(log2mag(here.det, here.exponent),
              log2mag(there.det, there.exponent)),
        ratio(log2mag(here.d_e, here.exponent),
              log2mag(there.d_e, there.exponent)),
    )
    return worst


def ep_refine(n_particles: int, sector: Parity, lambda_seed: complex,
              energy_seed: complex) -> ExceptionalPoint:
    """Newton-refine a branch-point candidate.

    Solves (det, d_E det) = (0, 0) in the two complex unknowns (E, g)
    with the analytic Jacobian from the differentiated recurrence.  The
    shared power-of-two exponent cancels inside the 2x2 solve.  A run
    stops at a step <= 1e-13 * max(1, |x|) in both unknowns.  The
    recurrence's round-off can hold the steps above that (about 1e-12
    at N = 32), so a run that never meets the rule in its 80 iterations
    is accepted at its final iterate when each of its last 10 steps was
    <= 1e-9 * max(1, |x|) in both unknowns; the residual certificate
    then decides, as for a run that met the rule.  Output is
    canonicalized to Im g* >= 0.
    """
    g = complex(lambda_seed)
    energy = complex(energy_seed)
    if not (math.isfinite(g.real) and math.isfinite(g.imag)
            and math.isfinite(energy.real) and math.isfinite(energy.imag)):
        raise EpConvergenceError("seeds must be finite")
    converged = False
    small_steps = 0  # consecutive steps within the stall tolerance
    for _ in range(_NEWTON_MAX_ITER):
        st = _det_state(n_particles, sector, g, energy)
        jac = np.array([[st.d_e, st.d_g], [st.d_ee, st.d_eg]])
        rhs = np.array([st.det, st.d_e])
        try:
            step = np.linalg.solve(jac, -rhs)
        except np.linalg.LinAlgError as exc:
            raise EpConvergenceError(
                f"singular Newton system at g={g}, E={energy}"
            ) from exc
        # cap wild early steps so seeds on a shallow gap basin stay local
        cap = 0.5 * (1.0 + abs(g))
        size = max(abs(step[0]), abs(step[1]))
        if size > cap:
            step *= cap / size
        energy += step[0]
        g += step[1]
        if (abs(step[0]) <= 1e-13 * max(1.0, abs(energy))
                and abs(step[1]) <= 1e-13 * max(1.0, abs(g))):
            converged = True
            break
        if (abs(step[0]) <= _STALL_TOL * max(1.0, abs(energy))
                and abs(step[1]) <= _STALL_TOL * max(1.0, abs(g))):
            small_steps += 1
        else:
            small_steps = 0
    if not converged and small_steps < _STALL_STEPS:
        raise EpConvergenceError(
            f"no convergence in {_NEWTON_MAX_ITER} iterations from seed "
            f"g={lambda_seed}, E={energy_seed}"
        )
    if abs(g.imag) < _SPURIOUS_IM:
        raise EpConvergenceError(
            f"converged to real coupling g={g}: a real symmetric block has "
            "no defective eigenvalues, rejecting as spurious"
        )
    residual = _residual_certificate(n_particles, sector, g, energy)
    if not residual <= _RESIDUAL_LIMIT:
        raise EpConvergenceError(
            f"stationary point at g={g} fails the residual certificate "
            f"({residual:.3e} > {_RESIDUAL_LIMIT:.0e})"
        )
    if g.imag < 0:
        g = g.conjugate()
        energy = energy.conjugate()
    return ExceptionalPoint(g, energy, sector, n_particles, residual)


def _closest_pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of complex eigenvalues: the smallest pairwise distance and
    the midpoint of the closest pair (on ties, the first in row-major
    order of the distance matrix).  A NaN row (failed solve) gets an
    infinite distance, and so does a distance beyond the double range:
    such a pair is not close."""
    n_rows, dim = rows.shape
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.abs(rows[:, :, None] - rows[:, None, :])
    d[:, np.arange(dim), np.arange(dim)] = np.inf
    d = d.reshape(n_rows, dim * dim)
    k = np.argmin(d, axis=1)
    r = np.arange(n_rows)
    i, j = np.divmod(k, dim)
    gap = d[r, k]
    gap[np.isnan(gap)] = np.inf
    return gap, 0.5 * (rows[r, i] + rows[r, j])


def ep_scan(n_particles: int, sector: Parity,
            region: tuple[float, float, float, float],
            grid: tuple[int, int] | int) -> list[ExceptionalPoint]:
    """Find the EPs of one sector inside a rectangle of the upper
    half coupling plane.

    region is (re_min, re_max, im_min, im_max), and grid the cells per
    axis, one integer for both or a pair (nx, ny); a region without
    re_min < re_max and 0 <= im_min < im_max, or a grid axis that is not
    an integer >= 1 (a numpy integer is one; a bool is not), raises
    UsageError before any solve.  The rectangle
    is tiled into grid cells; at each cell center the complex spectrum
    is computed, and cells where the two closest eigenvalues dip to a
    local minimum seed the Newton refinement.  The solver takes blocks
    of whole grid rows in row order, as many per call as keep the
    eigenvalues it returns within _SCAN_BYTES.  A cell whose solve fails
    is skipped, and the number of skipped cells is reported as a
    RuntimeWarning.  Cell centers carry strictly positive imaginary
    part, which matters: a Newton iterate seeded exactly on the real
    axis could never leave it.  A refined g* is kept if it lies inside
    the rectangle widened on all four sides by 2 % of its larger extent.
    Results are deduplicated (1e-6 in g), sorted by (Re g*, Im g*) and
    unlabelled: ep_pair_id labels an EP.
    """
    re0, re1, im0, im1 = map(float, region)
    if not (re0 < re1 and 0.0 <= im0 < im1):
        raise UsageError(f"the scan region {region} needs re_min < re_max "
                         "and 0 <= im_min < im_max")
    try:  # an integer is what operator.index takes, bar bool
        nx, ny = (0 if isinstance(k, bool) else operator.index(k)
                  for k in ((grid,) * 2 if np.ndim(grid) == 0 else grid))
    except (TypeError, ValueError):
        nx = ny = 0
    if min(nx, ny) < 1:
        raise UsageError(f"the scan grid {grid} needs an integer >= 1 "
                         "per axis")
    xs, ys = _cell_centres(re0, re1, nx), _cell_centres(im0, im1, ny)
    gap = np.empty((ny, nx))
    mid = np.empty((ny, nx), dtype=complex)
    failed = 0
    dim = len(_sector_arrays(n_particles, sector)[0])
    step = max(1, _SCAN_BYTES // (16 * dim * nx))
    for lo in range(0, ny, step):
        rows = eig_complex_tridiag(n_particles, sector,
                                   (xs + 1j * ys[lo:lo + step, None]).ravel())
        failed += int(np.isnan(rows).any(axis=1).sum())
        # row by row: a block's distance matrices take dim times its bytes
        for iy, row in enumerate(rows.reshape(-1, nx, dim), lo):
            gap[iy], mid[iy] = _closest_pairs(row)
    if failed:
        warnings.warn(f"{failed} of {nx * ny} cells skipped: eigensolve "
                      "failed", RuntimeWarning, stacklevel=2)
    # a seed is a finite gap no larger than any of its (up to) 8 neighbours
    padded = np.pad(gap, 1, constant_values=np.inf)
    lowest = np.min([padded[dy:dy + ny, dx:dx + nx]
                     for dy in range(3) for dx in range(3)], axis=0)
    seeds = np.argwhere(np.isfinite(gap) & (gap <= lowest))

    found: list[ExceptionalPoint] = []
    pad = 0.02 * max(re1 - re0, im1 - im0)
    for iy, ix in seeds:
        try:
            ep = ep_refine(n_particles, sector, xs[ix] + 1j * ys[iy],
                           mid[iy, ix])
        except EpConvergenceError:
            continue
        lam = ep.lambda_star
        if not (re0 - pad <= lam.real <= re1 + pad
                and im0 - pad <= lam.imag <= im1 + pad):
            continue
        if any(abs(prev.lambda_star - lam) < _DEDUP_RADIUS
               for prev in found):
            continue
        found.append(ep)
    found.sort(key=lambda e: (e.lambda_star.real, e.lambda_star.imag))
    return found


def _cell_centres(lo: float, hi: float, n: int) -> np.ndarray:
    """Centres of n equal cells on [lo, hi]: lo + (i + 1/2)(hi - lo)/n,
    which fixes the digits of every scan, or where that overflows, the
    overflow-free lo (1 - t) + hi t with t = (i + 1/2)/n."""
    i = np.arange(n) + 0.5
    with np.errstate(over="ignore"):
        centres = lo + i * (hi - lo) / n
        return np.where(np.isfinite(centres), centres,
                        lo * (1.0 - i / n) + hi * (i / n))


def ep_pair_id(ep: ExceptionalPoint) -> tuple[int, int]:
    """Identify which two sector levels an EP connects.

    Walks the coupling from g* straight down to the real axis, halving
    Im g each step for 60 steps, and tracks the two nearly-degenerate
    eigenvalues by continuity, each matched by distance to its previous
    value; the blocks of the walk are solved in one call.  The
    pair is (k, k+1), 1-based levels of the EP's own sector at Re g*.
    For even N, E -> -E maps a sector onto itself and an EP with
    Re E* > 0 is folded to -E* first, so the pair sits in the lower half
    of the spectrum; for odd N the mirror is in the other sector and the
    walk starts at E*.  A failed eigensolve on the walk, or tracked
    endpoints that are not adjacent levels, raise EpTrackingError.
    """
    energy = ep.energy_star
    if energy.real > 0 and ep.n_particles % 2 == 0:
        energy = -energy
    lam = ep.lambda_star
    rows = eig_complex_tridiag(
        ep.n_particles, ep.sector,
        [lam.real + 1j * lam.imag * 0.5 ** t for t in range(1, 61)])
    if np.isnan(rows).any():
        raise EpTrackingError(
            f"eigensolve failed on the walk from g*={lam} toward the real axis"
        )
    order = np.argsort(np.abs(rows[0] - energy))
    idx = [int(order[0]), int(order[1])]
    for prev, w in zip(rows, rows[1:]):
        d0 = np.abs(w - prev[idx[0]])
        d1 = np.abs(w - prev[idx[1]])
        i0, i1 = int(np.argmin(d0)), int(np.argmin(d1))
        if i0 == i1:
            if d0[i0] <= d1[i1]:
                d1[i0] = np.inf
                i1 = int(np.argmin(d1))
            else:
                d0[i1] = np.inf
                i0 = int(np.argmin(d0))
        idx = [i0, i1]
    # rows are sorted by real part and the walk ends at Im g = Im g*
    # * 2**-60: a last-row index is a rank at Re g*
    ks = sorted(idx)
    if ks[1] != ks[0] + 1:
        raise EpTrackingError(
            f"tracked endpoints map to non-adjacent levels {ks} for EP at "
            f"g*={lam}; another branch point probably sits on the path"
        )
    return ks[0] + 1, ks[1] + 1


def near_real_ep_count(n_particles: int, lambda_max: float,
                       im_tol: float) -> int:
    """Count EPs accumulating along the real axis in (1, lambda_max).

    Both sectors are scanned and combined; conjugate mirrors (and the
    +-E* partners at one g*) are implicit in the per-coupling dedup, so
    each branch coupling counts once.  There is no N-independent notion
    of "near" at finite N, so im_tol is the caller's choice:
    default_im_tol gives the calibrated one for N = 8, 16 and 32.
    lambda_max <= 1 or im_tol <= 0 raise UsageError before any solve.
    """
    if lambda_max <= 1.0:
        raise UsageError("lambda_max must exceed 1")
    tol = float(im_tol)
    height = tol * 1.05
    nx = max(40, int(round(_NEAR_REAL_GRID_PER_UNIT * (lambda_max - 1.0))))
    ny = max(24, int(round(_NEAR_REAL_GRID_PER_UNIT * height)))
    lam_values: list[complex] = []
    for sector in (Parity.EVEN, Parity.ODD):
        eps = ep_scan(n_particles, sector, (1.0, lambda_max, 0.0, height),
                      (nx, ny))
        lam_values.extend(ep.lambda_star for ep in eps)
    return _near_real_count(lam_values, lambda_max, tol)


def _near_real_count(couplings, lambda_max: float, im_tol: float) -> int:
    """Number of distinct branch couplings g* with 1 < Re g* < lambda_max
    and |Im g*| < im_tol.

    Couplings within the dedup radius count once, so the two sectors of
    an odd N, whose blocks mirror each other and share every g*, do not
    double-count.
    """
    seen: list[complex] = []
    for lam in sorted(couplings, key=lambda z: (z.real, z.imag)):
        if not (1.0 < lam.real < lambda_max and abs(lam.imag) < im_tol):
            continue
        if any(abs(lam - s) < _DEDUP_RADIUS for s in seen):
            continue
        seen.append(lam)
    return len(seen)
