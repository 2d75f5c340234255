"""Spectrum-derived quantities: scaled spectra, gaps, critical crossing,
finite-size scaling, and localization.

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

from .core import Parity, build_block
from .eigen import EigenResult, eig_real_tridiag


class NoCrossingError(ValueError):
    """The scaled spectrum does not reach the critical line."""


@dataclass(frozen=True)
class Spectrum:
    """Full real spectrum at one coupling, per sector and merged."""

    n_particles: int
    even_values: np.ndarray = field(repr=False)
    odd_values: np.ndarray = field(repr=False)
    merged: np.ndarray = field(repr=False)
    merged_parity: np.ndarray = field(repr=False)  # Parity per merged level

    def levels(self, selector: str) -> np.ndarray:
        """The ascending levels of "merged", "even" or "odd"."""
        if selector == "merged":
            return self.merged
        even = Parity(selector) is Parity.EVEN
        return self.even_values if even else self.odd_values


@dataclass(frozen=True)
class ScaledSpectrum:
    """The (x, eps) = (2k/N, 2E_k/N) view of the lower half."""

    x: np.ndarray = field(repr=False)
    eps: np.ndarray = field(repr=False)
    n_particles: int
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
    return Spectrum(n_particles, even, odd, values[order],
                    parities[tags[order]])


def scaled_spectrum(s: Spectrum, selector: str = "merged") -> ScaledSpectrum:
    """Map the ordered levels of "merged", "even" or "odd" to
    (2k/N, 2E_k/N), k <= N/2."""
    values = s.levels(selector)
    n = s.n_particles
    kmax = min(len(values), n // 2)
    k = np.arange(1, kmax + 1)
    return ScaledSpectrum(2.0 * k / n, 2.0 * values[:kmax] / n, n, selector)


def gaps(s: Spectrum, sector: Parity) -> np.ndarray:
    """Consecutive same-sector level distances, E_{k+1} - E_k."""
    values = s.levels(sector.value)
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
    values = s.levels(sector.value)
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


def loglog_slope(ns: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) against log(n)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ns) < 2:
        raise ValueError("need at least two points for a regression")
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


def _sector_gap(n: int, coupling: float, k: int) -> float:
    """E_{k+1} - E_k of the EVEN sector, from those two levels alone."""
    block = build_block(n, coupling, Parity.EVEN)
    if k > block.dimension - 1:
        raise ValueError(
            f"sector has only {block.dimension - 1} gaps, asked for k={k}"
        )
    lower, upper = eig_real_tridiag(block, index_range=(k - 1, k)).values
    return float(upper - lower)


def scaling_exponent_eq2(k: int, n_list: Sequence[int],
                         coupling: float = 1.0) -> ScalingReport:
    """Finite-size decay of the k-th same-sector gap at fixed k.

    At the critical coupling the gap scales like (k/N)^(1/3), so the
    log-log slope against N comes out near -1/3.  Each N solves for
    levels k and k+1 of the EVEN sector only.
    """
    if k < 1:
        raise ValueError(f"gap index k must be >= 1, got {k}")
    n_list = sorted(int(n) for n in n_list)
    if any(n < 2 * k + 2 for n in n_list):
        raise ValueError(f"all N must be >= 2k+2 = {2 * k + 2}")
    samples = [(n, _sector_gap(n, coupling, k)) for n in n_list]
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


def spectral_derivative(ss: ScaledSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Finite differences (x_mid, d eps / d x) of a scaled spectrum.

    Merged spectra take stride 2: below the critical line merged levels
    form parity doublets whose splitting is exponentially small, so
    consecutive differences alternate between ~0 and twice the local
    slope; differencing across the doublet removes that.  Sector curves
    have no doublets and take stride 1.  For coupling > 1 the minimum of
    the curve marks the zero-slope inflection at x_c.
    """
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


def critical_state(n_particles: int, solved: EigenResult):
    """Eigenvector of the sector level nearest the critical line.

    solved is one sector block's full solve with vectors.  Returns
    (k, eigenvalue, vector); this is the state that localizes on m = -j
    as N grows.
    """
    eps = 2.0 * solved.values / n_particles
    k = int(np.argmin(np.abs(eps + 1.0)))
    return k + 1, float(solved.values[k]), solved.vectors[:, k]
