"""Fitting the logarithmic singularity of the scaled spectrum.

Near the critical crossing x_c the shifted curve y = eps + 1 is modelled
by

    y(x) = (x - x_c)^2 * sum_{p=1..3} a_p (ln|x - x_c|)^p,

fitted separately on each side of x_c (the function is non-analytic
there, so left and right coefficients are independent).  x_c itself is
not a fit parameter; it comes from the crossing interpolation, which is
far better conditioned than a nonlinear fit of a logarithmic model.

The derivative of the fitted model against the finite-difference slope
of the spectrum is the acid test: the model must reproduce a curve it
was never fitted to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import ScaledSpectrum, spectral_derivative

DEFAULT_WINDOW = (0.02, 0.15)


class FitError(ValueError):
    """The least-squares problem is under-determined or degenerate."""


@dataclass(frozen=True)
class SingularityFit:
    """One-sided fit result.

    coefficients[p-1] multiplies (x-x_c)^2 (ln|x-x_c|)^p.
    """

    x_c: float
    side: str  # "left" or "right"
    coefficients: np.ndarray = field(repr=False)
    rms_residual: float


def _check_side(side: str) -> str:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return side


def window_points(ss: ScaledSpectrum, x_c: float, side: str,
                  window: tuple[float, float] = DEFAULT_WINDOW) -> tuple[np.ndarray, np.ndarray]:
    """Select (x, y = eps+1) on one side of x_c within the fit window.

    Points closer to x_c than one level spacing, 2/N, are dropped: the
    discrete spectrum cannot resolve the singularity below its own
    spacing.
    """
    _check_side(side)
    lo, hi = window
    exclusion = 2.0 / ss.n_particles
    t = ss.x - x_c
    onside = t < 0 if side == "left" else t > 0
    dist = np.abs(t)
    sel = onside & (dist >= max(lo, exclusion)) & (dist <= hi)
    return ss.x[sel], ss.eps[sel] + 1.0


def _basis(t: np.ndarray, n_terms: int) -> np.ndarray:
    log_t = np.log(np.abs(t))
    return np.stack([t * t * log_t ** p for p in range(1, n_terms + 1)],
                    axis=1)


def fit_singularity(x: np.ndarray, y: np.ndarray, x_c: float, side: str,
                    n_terms: int = 3) -> SingularityFit:
    """Least-squares fit of the log-power model on one side of x_c.

    x, y must already be windowed (see window_points); y is the shifted
    curve eps + 1.  The solve orthogonalizes the design matrix (SVD via
    lstsq) rather than forming normal equations -- the log-power basis
    is badly scaled.
    """
    _check_side(side)
    if not 1 <= n_terms <= 3:
        raise ValueError(f"n_terms must be 1..3, got {n_terms}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = x - x_c
    if side == "left" and (t >= 0).any() or side == "right" and (t <= 0).any():
        raise ValueError(f"all points must lie strictly on the {side} of x_c")
    if len(x) < n_terms:
        raise FitError(
            f"{len(x)} points cannot determine {n_terms} coefficients"
        )
    design = _basis(t, n_terms)
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < n_terms:
        raise FitError(
            f"design matrix rank {rank} < {n_terms}: degenerate window"
        )
    resid = design @ coef - y
    rms = float(np.sqrt(np.mean(resid * resid)))
    return SingularityFit(float(x_c), side, np.asarray(coef, dtype=float),
                          rms)


def fit_spectrum_side(ss: ScaledSpectrum, x_c: float, side: str,
                      n_terms: int = 3,
                      window: tuple[float, float] = DEFAULT_WINDOW) -> SingularityFit:
    """Window a scaled spectrum and fit it in one call."""
    x, y = window_points(ss, x_c, side, window)
    return fit_singularity(x, y, x_c, side, n_terms)


def _eval_terms(fit: SingularityFit, x: np.ndarray):
    x = np.asarray(x, dtype=float)
    t = x - fit.x_c
    if (t == 0).any():
        raise ValueError("the model is singular exactly at x_c")
    sign_ok = (t < 0).all() if fit.side == "left" else (t > 0).all()
    if not sign_ok:
        raise ValueError(f"evaluation points must stay on the {fit.side} side")
    return t, np.log(np.abs(t))


def fit_eval(fit: SingularityFit, x) -> np.ndarray | float:
    """Evaluate the fitted model."""
    scalar = np.isscalar(x)
    t, log_t = _eval_terms(fit, np.atleast_1d(x))
    y = np.zeros_like(t)
    for p, a in enumerate(fit.coefficients, start=1):
        y += a * log_t ** p
    y *= t * t
    return float(y[0]) if scalar else y


def fit_derivative(fit: SingularityFit, x) -> np.ndarray | float:
    """dy/dx of the fitted model: 2(x-x_c) sum a_p L^p + (x-x_c) sum p a_p L^(p-1)."""
    scalar = np.isscalar(x)
    t, log_t = _eval_terms(fit, np.atleast_1d(x))
    d = np.zeros_like(t)
    for p, a in enumerate(fit.coefficients, start=1):
        d += a * (2.0 * t * log_t ** p + p * t * log_t ** (p - 1))
    return float(d[0]) if scalar else d


def fit_second_derivative(fit: SingularityFit, x) -> np.ndarray | float:
    """d2y/dx2; carries a 2 a_1 ln|x-x_c| term, hence diverges at x_c."""
    scalar = np.isscalar(x)
    t, log_t = _eval_terms(fit, np.atleast_1d(x))
    d = np.zeros_like(t)
    for p, a in enumerate(fit.coefficients, start=1):
        d += a * (2.0 * log_t ** p + 3.0 * p * log_t ** (p - 1))
        if p >= 2:
            d += a * p * (p - 1) * log_t ** (p - 2)
    return float(d[0]) if scalar else d


def derivative_comparison(fit: SingularityFit, ss: ScaledSpectrum) -> dict:
    """Acid test: fitted derivative against finite differences.

    Compares on fit.side of x_c for 0.02 <= |x - x_c| <= 0.1 and
    reports pointwise relative deviations plus their max and rms.  The
    finite differences use the doublet-aware default stride of
    spectral_derivative.
    """
    xm, slope = spectral_derivative(ss)
    t = xm - fit.x_c
    onside = t < 0 if fit.side == "left" else t > 0
    sel = onside & (np.abs(t) >= 0.02) & (np.abs(t) <= 0.1)
    if not sel.any():
        raise ValueError("no finite-difference points in the test band")
    x_sel = xm[sel]
    fd = slope[sel]
    model = fit_derivative(fit, x_sel)
    rel = np.abs(model - fd) / np.abs(fd)
    return {
        "x": x_sel,
        "finite_difference": fd,
        "model": model,
        "relative_deviation": rel,
        "max_relative_deviation": float(rel.max()),
        "rms_relative_deviation": float(np.sqrt(np.mean(rel * rel))),
    }
