"""Spectrum-derived quantities: scaled spectra, gaps, critical crossing,
mean-field comparisons, finite-size scaling, and localization.

Conventions used throughout (and in the CLI output):

* levels are 1-based; the merged spectrum is the ascending union of the
  two sector spectra, N+1 values in total;
* the scaled view maps level k to (x, eps) = (2k/N, 2E_k/N) and keeps
  k = 1 .. floor(N/2), so x stays in (0, 1] -- the lower half of the
  spectrum (the upper half mirrors it);
* below the critical line eps = -1 the two sectors are degenerate to
  exponential accuracy, so merged levels come in parity doublets there.
  Quantities that would be corrupted by those doublets (minimum gaps,
  derivative curves) are computed per sector or doublet-aware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Parity, build_block, sector_basis
from .eigen import EigenResult, eig_real_tridiag


class NoCrossingError(ValueError):
    """The scaled spectrum does not reach the critical line."""


class UndefinedAtCriticalCoupling(ValueError):
    """Both mean-field branches vanish at coupling 1; there is no value."""


@dataclass(frozen=True)
class Spectrum:
    """Full real spectrum at one coupling, per sector and merged."""

    n_particles: int
    coupling: float
    even_values: np.ndarray = field(repr=False)
    odd_values: np.ndarray = field(repr=False)
    merged: np.ndarray = field(repr=False)
    merged_parity: np.ndarray = field(repr=False)  # Parity per merged level

    def sector_values(self, sector: Parity) -> np.ndarray:
        return self.even_values if sector is Parity.EVEN else self.odd_values


@dataclass(frozen=True)
class ScaledSpectrum:
    """The (x, eps) = (2k/N, 2E_k/N) view of the lower half."""

    x: np.ndarray = field(repr=False)
    eps: np.ndarray = field(repr=False)
    n_particles: int
    coupling: float
    selector: str  # "merged", "even" or "odd"


@dataclass(frozen=True)
class ScalingReport:
    """Samples of a finite-size scaling quantity plus its summary."""

    samples: list[tuple[int, float]]
    summary: float | list[float]  # eq2: fitted exponent; eq3: the ratios


def full_spectrum(n_particles: int, coupling: float) -> Spectrum:
    """Diagonalize both sector blocks (concurrently) and merge, ascending."""
    lam = float(coupling)
    even_block = build_block(n_particles, lam, Parity.EVEN)
    values = eig_real_tridiag(
        [even_block, build_block(n_particles, lam, Parity.ODD)]).values
    even, odd = np.split(values, [even_block.dimension])
    tags = np.concatenate([
        np.zeros(len(even), dtype=np.int8),
        np.ones(len(odd), dtype=np.int8),
    ])
    order = np.argsort(values, kind="stable")
    parities = np.array([Parity.EVEN, Parity.ODD], dtype=object)
    return Spectrum(n_particles, lam, even, odd, values[order],
                    parities[tags[order]])


def _selected_values(s: Spectrum, selector) -> np.ndarray:
    if selector == "merged" or selector is None:
        return s.merged
    if isinstance(selector, Parity):
        return s.sector_values(selector)
    if selector in ("even", "odd"):
        return s.sector_values(Parity(selector))
    raise ValueError(f"unknown selector {selector!r}")


def scaled_spectrum(s: Spectrum, selector="merged") -> ScaledSpectrum:
    """Map the selected ordered levels to (2k/N, 2E_k/N), k <= N/2."""
    values = _selected_values(s, selector)
    n = s.n_particles
    kmax = min(len(values), n // 2)
    k = np.arange(1, kmax + 1)
    name = selector.value if isinstance(selector, Parity) else str(selector)
    return ScaledSpectrum(2.0 * k / n, 2.0 * values[:kmax] / n, n,
                          s.coupling, name)


def gaps(s: Spectrum, sector: Parity) -> np.ndarray:
    """Consecutive same-sector level distances, E_{k+1} - E_k."""
    values = s.sector_values(sector)
    if len(values) < 2:
        raise ValueError(
            f"sector {sector} has {len(values)} level(s); no gaps to take"
        )
    return np.diff(values)


def _lower_half_min_gap(values: np.ndarray) -> tuple[int, float]:
    """Index and size of the smallest gap among one sector's lower-half
    levels (values ascending); ties go to the smallest index."""
    if len(values) < 2:
        raise ValueError(
            f"sector has {len(values)} level(s); no gaps to take"
        )
    half = (len(values) + 1) // 2
    n_gaps = max(1, half - 1)
    search = np.diff(values[:n_gaps + 1])
    i = int(np.argmin(search))  # argmin takes the first of equal values
    return i, float(search[i])


def min_gap(s: Spectrum, sector: Parity) -> tuple[int, float]:
    """Smallest same-sector gap among the lower-half levels.

    Returns (k_c, gap) with k_c the 1-based merged index of the gap's
    lower level, so that k_c/(N/2) lines up with the crossing position
    x_c of the scaled spectrum.  Ties go to the smallest index.
    """
    values = s.sector_values(sector)
    i, gap = _lower_half_min_gap(values)
    k_c = int(np.searchsorted(s.merged, values[i], side="left")) + 1
    return k_c, gap


def critical_x(n_particles: int, coupling: float,
               spectrum: Spectrum | None = None) -> float:
    """Position x_c where the merged scaled spectrum crosses eps = -1.

    Linear interpolation between the bracketing levels.  At coupling 1
    the spectrum only touches the line, so 0.0 is returned as the
    documented boundary value; below 1 there is no crossing at all.
    """
    lam = float(coupling)
    if lam < 1.0:
        raise NoCrossingError(
            f"no crossing of the critical line for coupling {lam} < 1"
        )
    if lam == 1.0:
        return 0.0
    s = spectrum if spectrum is not None else full_spectrum(n_particles, lam)
    ss = scaled_spectrum(s, "merged")
    eps = ss.eps
    if eps[0] >= -1.0:
        raise NoCrossingError(
            f"scaled ground state {eps[0]:.6f} is above the critical line at "
            f"coupling {lam}; N={n_particles} is too small to resolve the "
            "deformed region"
        )
    i = int(np.searchsorted(eps, -1.0))
    if i == len(eps):
        raise NoCrossingError(
            f"every scaled lower-half level lies below the critical line at "
            f"coupling {lam}; N={n_particles} is too small to resolve the "
            "crossing"
        )
    x0, x1 = ss.x[i - 1], ss.x[i]
    e0, e1 = eps[i - 1], eps[i]
    return float(x0 + (-1.0 - e0) * (x1 - x0) / (e1 - e0))


def mf_excitation(coupling: float, k: int) -> float:
    """Mean-field excitation energy of the k-th rung above the ground
    state: k sqrt(1-g^2) below the critical coupling, k sqrt(2(g^2-1))
    above it.  Undefined exactly at 1.

    The ladder alternates parity sectors in the normal phase (rungs are
    consecutive merged levels) and runs within a sector in the deformed
    phase (rungs are the doublets; the merged neighbor is the
    exponentially split partner).
    """
    lam = float(coupling)
    if k < 1:
        raise ValueError("level index k must be positive")
    if lam == 1.0:
        raise UndefinedAtCriticalCoupling(
            "both mean-field branches vanish at coupling 1"
        )
    if lam < 1.0:
        return k * math.sqrt(1.0 - lam * lam)
    return k * math.sqrt(2.0 * (lam * lam - 1.0))


def mf_ground_scaled(coupling: float) -> float:
    """Scaled ground-state energy -(g + 1/g)/2, valid for coupling >= 1."""
    lam = float(coupling)
    if lam < 1.0:
        raise ValueError(
            f"deformed-phase ground-state formula needs coupling >= 1, "
            f"got {lam}"
        )
    return -0.5 * (lam + 1.0 / lam)


def loglog_slope(ns: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) against log(n)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ns) < 2:
        raise ValueError("need at least two points for a regression")
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


def _sector_gap(n: int, coupling: float, k: int, sector: Parity) -> float:
    """E_{k+1} - E_k of one sector, from those two levels alone."""
    block = build_block(n, coupling, sector)
    if k > block.dimension - 1:
        raise ValueError(
            f"sector has only {block.dimension - 1} gaps, asked for k={k}"
        )
    lower, upper = eig_real_tridiag(block, index_range=(k - 1, k)).values
    return float(upper - lower)


def scaling_exponent_eq2(k: int, n_list: Sequence[int],
                         coupling: float = 1.0,
                         sector: Parity = Parity.EVEN) -> ScalingReport:
    """Finite-size decay of the k-th same-sector gap at fixed k.

    At the critical coupling the gap scales like (k/N)^(1/3), so the
    log-log slope against N comes out near -1/3.  Each N solves for
    levels k and k+1 of the one sector only.
    """
    if k < 1:
        raise ValueError(f"gap index k must be >= 1, got {k}")
    n_list = sorted(int(n) for n in n_list)
    if any(n < 2 * k + 2 for n in n_list):
        raise ValueError(f"all N must be >= 2k+2 = {2 * k + 2}")
    samples = [(n, _sector_gap(n, coupling, k, sector)) for n in n_list]
    slope = loglog_slope([n for n, _ in samples], [g for _, g in samples])
    return ScalingReport(samples, slope)


def gap_ratio_eq3(coupling: float, n_list: Sequence[int],
                  sector: Parity = Parity.EVEN) -> ScalingReport:
    """Minimum-gap ratio r(N) = gap_min * ln(N) / (2 pi sqrt(g^2 - 1)).

    gap_min is min_gap's gap, taken from the one sector's spectrum; the
    blocks of all N are solved in one batch.  Convergence of r toward 1
    is logarithmically slow; callers should treat the sequence as a
    trend, not a limit.
    """
    lam = float(coupling)
    if lam <= 1.0:
        raise ValueError("the minimum-gap law needs coupling > 1")
    denom = 2.0 * math.pi * math.sqrt(lam * lam - 1.0)
    n_list = sorted(int(n) for n in n_list)
    blocks = [build_block(n, lam, sector) for n in n_list]
    values = eig_real_tridiag(blocks).values
    ends = np.cumsum([b.dimension for b in blocks])[:-1]
    samples = []
    for n, levels in zip(n_list, np.split(values, ends)):
        _, gap = _lower_half_min_gap(levels)
        samples.append((n, gap * math.log(n) / denom))
    return ScalingReport(samples, [r for _, r in samples])


def ipr(v: np.ndarray) -> float:
    """Inverse participation ratio of a normalized coefficient vector.

    1 for a basis state, 1/dim for a uniform superposition.
    """
    v = np.asarray(v)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"vector norm {norm} is not 1 within 1e-10")
    a2 = np.abs(v) ** 2
    return float(np.sum(a2 * a2))


def spectral_derivative(ss: ScaledSpectrum,
                        stride: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Finite differences (x_mid, d eps / d x) of a scaled spectrum.

    Merged spectra default to stride 2: below the critical line merged
    levels form parity doublets whose splitting is exponentially small,
    so consecutive differences alternate between ~0 and twice the local
    slope; differencing across the doublet removes that.  Sector curves
    have no doublets and default to stride 1.  For coupling > 1 the
    minimum of the curve marks the zero-slope inflection at x_c.
    """
    if stride is None:
        stride = 2 if ss.selector == "merged" else 1
    if len(ss.x) < stride + 1:
        raise ValueError(
            f"need at least {stride + 1} points for stride-{stride} "
            "differences"
        )
    dx = ss.x[stride:] - ss.x[:-stride]
    de = ss.eps[stride:] - ss.eps[:-stride]
    xm = 0.5 * (ss.x[stride:] + ss.x[:-stride])
    return xm, de / dx


def level_vs_coupling(n_particles: int, k: int, sector: Parity,
                      couplings: Sequence[float]) -> np.ndarray:
    """Scaled energy 2E_k/N of one sector level along a coupling grid;
    the blocks of the grid are solved in one batch."""
    dim = len(sector_basis(n_particles, sector))
    if k > dim:
        raise ValueError(f"sector holds {dim} levels, k={k}")
    blocks = [build_block(n_particles, float(lam), sector) for lam in couplings]
    values = eig_real_tridiag(blocks).values
    return 2.0 * values.reshape(-1, dim)[:, k - 1] / n_particles


def critical_lambda(n_particles: int, k: int, sector: Parity,
                    couplings: Sequence[float],
                    eps_curve: np.ndarray | None = None) -> float:
    """Coupling at which level k crosses the critical line eps = -1,
    interpolated linearly on the given grid."""
    lams = np.asarray(couplings, dtype=float)
    eps = (eps_curve if eps_curve is not None
           else level_vs_coupling(n_particles, k, sector, lams))
    below = eps <= -1.0
    if not below.any() or below.all():
        raise NoCrossingError(
            f"level k={k} does not cross the critical line on the grid "
            f"[{lams[0]}, {lams[-1]}]"
        )
    i = int(np.argmax(below))  # first index below the line
    if i == 0:
        raise NoCrossingError("grid starts below the critical line")
    l0, l1 = lams[i - 1], lams[i]
    e0, e1 = eps[i - 1], eps[i]
    return float(l0 + (-1.0 - e0) * (l1 - l0) / (e1 - e0))


def critical_state(n_particles: int, coupling: float,
                   sector: Parity = Parity.EVEN,
                   solved: EigenResult | None = None):
    """Eigenvector of the sector level nearest the critical line.

    Returns (k, eigenvalue, vector, basis_m).  This is the state that
    localizes on m = -j as N grows.  solved, when given, is the block's
    full solve with vectors, which is then not repeated.
    """
    if solved is None:
        block = build_block(n_particles, float(coupling), sector)
        solved = eig_real_tridiag(block, want_vectors=True)
    eps = 2.0 * solved.values / n_particles
    k = int(np.argmin(np.abs(eps + 1.0)))
    return (k + 1, float(solved.values[k]), solved.vectors[:, k],
            sector_basis(n_particles, sector))
