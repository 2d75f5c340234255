"""Locating exceptional points (EPs) of the analytically continued
Hamiltonian in the complex coupling plane.

An EP is a square-root branch point where two eigenvalues of one sector
block coalesce with a defective eigenvector.  The solver condition is

    det(H(g) - E) = 0   and   d/dE det(H(g) - E) = 0,

attacked with a two-variable Newton iteration on the rescaled
determinant recurrence (O(dim) per evaluation, stable to dim ~ 10^3,
unlike the characteristic-polynomial discriminant).  Scanning seeds the
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
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import Parity, sector_basis
from .eigen import det_state_at, eig_complex_tridiag

_DEDUP_RADIUS = 1e-6
_RESIDUAL_LIMIT = 1e-8
_SPURIOUS_IM = 1e-9
_NEWTON_MAX_ITER = 80
#: seeding-grid cells per unit of coupling in near_real_ep_count
_NEAR_REAL_GRID_PER_UNIT = 90

#: near-real counting thresholds calibrated against scanned EP families;
#: finite-N EPs sit off the axis (minimum Im g* ~ 1.4 at N=8, ~0.29 at
#: N=32), so "near the real axis" is necessarily an N-dependent notion.
NEAR_REAL_IM_TOL = {8: 1.5, 16: 1.2, 32: 0.8}


def default_im_tol(n_particles: int) -> float:
    """Documented default for the near-real cutoff at a given N."""
    if n_particles in NEAR_REAL_IM_TOL:
        return NEAR_REAL_IM_TOL[n_particles]
    return min(1.5, 3.6 * n_particles ** -0.45)


class EpConvergenceError(RuntimeError):
    """Newton refinement diverged or landed on a spurious point."""


class EpTrackingError(RuntimeError):
    """Eigenvalue-pair tracking toward the real axis became ambiguous."""


@dataclass(frozen=True)
class ExceptionalPoint:
    """A refined branch point of one sector.

    residual is max(|det|, |d_E det|) at the solution, normalized by the
    same quantities a distance 0.01 away in the coupling; pair holds the
    1-based sector indices of the coalescing levels once identified.
    """

    lambda_star: complex
    energy_star: complex
    sector: Parity
    n_particles: int
    residual: float
    pair: tuple[int, int] | None = None


def _residual_certificate(n: int, parity: Parity, g: complex,
                          energy: complex) -> float:
    """Drop of |det| and |d_E det| relative to a point 0.01 away in g."""
    here = det_state_at(n, parity, g, energy)
    there = det_state_at(n, parity, g + 0.01, energy)

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
    shared power-of-two exponent cancels inside the 2x2 solve.  Output
    is canonicalized to Im g* >= 0.
    """
    g = complex(lambda_seed)
    energy = complex(energy_seed)
    if not (math.isfinite(g.real) and math.isfinite(g.imag)
            and math.isfinite(energy.real) and math.isfinite(energy.imag)):
        raise EpConvergenceError("seeds must be finite")
    converged = False
    for _ in range(_NEWTON_MAX_ITER):
        try:
            st = det_state_at(n_particles, sector, g, energy)
        except OverflowError as exc:
            raise EpConvergenceError(
                f"the determinant recurrence overflows at g={g}, E={energy}"
            ) from exc
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
    if not converged:
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
    infinite distance."""
    n_rows, dim = rows.shape
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
            grid: tuple[int, int] | int = 60,
            identify_pairs: bool = False) -> list[ExceptionalPoint]:
    """Find the EPs of one sector inside a rectangle of the upper
    half coupling plane.

    region is (re_min, re_max, im_min, im_max) with im_min >= 0.  The
    rectangle is tiled into grid cells; at each cell center the complex
    spectrum is computed, one stacked solve per grid row, and cells where
    the two closest eigenvalues dip to a local minimum seed the Newton
    refinement.  A cell whose solve fails is skipped, and the number of
    skipped cells is reported as a RuntimeWarning.  Cell centers carry
    strictly positive imaginary part, which matters: a Newton iterate
    seeded exactly on the real axis could never leave it.  Results are
    deduplicated (1e-6 in g) and sorted by (Re g*, Im g*).
    """
    re0, re1, im0, im1 = map(float, region)
    if im0 < 0:
        raise ValueError("region must lie in the closed upper half-plane")
    if isinstance(grid, int):
        nx = ny = grid
    else:
        nx, ny = grid
    xs, ys = _cell_centres(re0, re1, nx), _cell_centres(im0, im1, ny)
    gap = np.empty((ny, nx))
    mid = np.empty((ny, nx), dtype=complex)
    failed = 0
    for iy, b in enumerate(ys):
        rows = eig_complex_tridiag(n_particles, sector, xs + 1j * b)
        failed += int(np.isnan(rows).any(axis=1).sum())
        gap[iy], mid[iy] = _closest_pairs(rows)
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
                and lam.imag <= im1 + pad):
            continue
        if any(abs(prev.lambda_star - lam) < _DEDUP_RADIUS
               for prev in found):
            continue
        found.append(ep)
    found.sort(key=lambda e: (e.lambda_star.real, e.lambda_star.imag))
    if identify_pairs:
        labelled = []
        for ep in found:
            try:
                labelled.append(replace(ep, pair=ep_pair_id(ep)))
            except EpTrackingError:
                labelled.append(ep)
        found = labelled
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


def _track_pair(n: int, sector: Parity, lam: complex, energy: complex,
                steps: int, ratio: float) -> list[int]:
    """Follow the two coalescing eigenvalues while Im g shrinks
    geometrically, matching by distance to the previous pair, and return
    their indices in the walk's last row.  The whole walk is one stacked
    solve; a failed solve anywhere on it is a tracking failure."""
    couplings = [lam.real + 1j * lam.imag * ratio ** t
                 for t in range(1, steps + 1)]
    rows = eig_complex_tridiag(n, sector, couplings)
    if np.isnan(rows).any():
        raise EpTrackingError(
            f"eigensolve failed on the walk from g*={lam} toward the real axis"
        )
    current = None
    for w in rows:
        if current is None:
            order = np.argsort(np.abs(w - energy))
            idx = [int(order[0]), int(order[1])]
        else:
            d0 = np.abs(w - current[0])
            d1 = np.abs(w - current[1])
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
    return idx


def ep_pair_id(ep: ExceptionalPoint) -> tuple[int, int]:
    """Identify which two sector levels an EP connects.

    Walks the coupling from g* straight down to the real axis, halving
    Im g each step for 60 steps and tracking the two nearly-degenerate
    eigenvalues by continuity; the blocks of one walk are solved in one
    stacked call.  The pair is (k, k+1), 1-based levels of the EP's own
    sector at Re g*.  For even N, E -> -E maps a sector onto itself and
    an EP with Re E* > 0 is folded to -E* first, so the pair sits in the
    lower half of the spectrum; for odd N the mirror is in the other
    sector and the walk starts at E*.  If the tracked endpoints are not
    adjacent levels the walk is retried with a finer step (factor
    sqrt(1/2), 180 steps) before giving up.  A failed eigensolve on a
    walk raises EpTrackingError at once.
    """
    energy = ep.energy_star
    if energy.real > 0 and ep.n_particles % 2 == 0:
        energy = -energy
    for n_steps, r in [(60, 0.5), (180, math.sqrt(0.5))]:
        # rows are sorted by real part and the walk ends at Im g = Im g*
        # * 2**-60 (2**-90 on the retry): a last-row index is a rank at Re g*
        ks = sorted(_track_pair(ep.n_particles, ep.sector, ep.lambda_star,
                                energy, n_steps, r))
        if ks[1] == ks[0] + 1:
            return ks[0] + 1, ks[1] + 1
    raise EpTrackingError(
        f"tracked endpoints map to non-adjacent levels {ks} for EP at "
        f"g*={ep.lambda_star}; another branch point probably sits on the path"
    )


def near_real_ep_count(n_particles: int, lambda_max: float,
                       im_tol: float | None = None) -> int:
    """Count EPs accumulating along the real axis in (1, lambda_max).

    Both sectors are scanned and combined; conjugate mirrors (and the
    +-E* partners at one g*) are implicit in the per-coupling dedup, so
    each branch coupling counts once.  im_tol defaults to the calibrated
    per-N value from NEAR_REAL_IM_TOL; there is no N-independent notion
    of "near" at finite N, so the cutoff is an explicit caller choice.
    """
    if lambda_max <= 1.0:
        raise ValueError("lambda_max must exceed 1")
    tol = default_im_tol(n_particles) if im_tol is None else float(im_tol)
    height = tol * 1.05
    nx = max(40, int(round(_NEAR_REAL_GRID_PER_UNIT * (lambda_max - 1.0))))
    ny = max(24, int(round(_NEAR_REAL_GRID_PER_UNIT * height)))
    lam_values: list[complex] = []
    for sector in (Parity.EVEN, Parity.ODD):
        if len(sector_basis(n_particles, sector)) < 2:
            continue
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
