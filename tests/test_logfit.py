import math

import numpy as np
import pytest

from lipkin import (
    FitError,
    Parity,
    ScaledSpectrum,
    build_block,
    critical_x,
    derivative_comparison,
    eig_real_tridiag,
    fit_derivative,
    fit_eval,
    fit_second_derivative,
    fit_spectrum_side,
    full_spectrum,
    scaled_spectrum,
    window_points,
)
from lipkin.logfit import SingularityFit

#: a fit window that keeps every point on the side
WHOLE_SIDE = (0.0, np.inf)


def model_values(x, x_c, coeffs):
    t = x - x_c
    log_t = np.log(np.abs(t))
    return t * t * sum(a * log_t ** p for p, a in enumerate(coeffs, start=1))


def synthetic_spectrum(x, y):
    """A scaled spectrum whose shifted curve eps + 1 is y; its N is so
    large that the 2/N exclusion ring around x_c drops no point."""
    return ScaledSpectrum(np.asarray(x, dtype=float),
                          np.asarray(y, dtype=float) - 1.0, 10 ** 9,
                          "merged")


def test_recovers_noiseless_synthetic_coefficients():
    x_c = 0.37
    coeffs = [2.0, -0.5, 0.0]
    x = x_c + np.linspace(0.005, 0.2, 300)
    y = model_values(x, x_c, coeffs)
    fit = fit_spectrum_side(synthetic_spectrum(x, y), x_c, "right",
                            window=WHOLE_SIDE)
    assert np.allclose(fit.coefficients, coeffs, atol=1e-10)
    assert fit.rms_residual <= 1e-12


def test_zero_data_gives_zero_fit():
    x = 0.5 + np.linspace(0.01, 0.1, 50)
    fit = fit_spectrum_side(synthetic_spectrum(x, np.zeros_like(x)), 0.5,
                            "right", window=WHOLE_SIDE)
    assert np.allclose(fit.coefficients, 0.0, atol=1e-14)
    assert fit.rms_residual == 0.0


def test_eval_and_derivative_hand_values():
    fit = SingularityFit(x_c=0.0, side="right",
                         coefficients=np.array([1.0]),
                         rms_residual=0.0)
    assert fit_eval(fit, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert fit_derivative(fit, 1.0) == pytest.approx(1.0, abs=1e-15)
    e = math.exp(-1.0)
    assert fit_eval(fit, e) == pytest.approx(-math.exp(-2.0), abs=1e-15)
    assert fit_derivative(fit, e) == pytest.approx(-e, abs=1e-15)


def test_input_validation():
    x = 0.5 + np.linspace(0.01, 0.1, 20)
    ss = synthetic_spectrum(x, np.zeros_like(x))
    with pytest.raises(FitError):
        fit_spectrum_side(ss, 0.5, "left", window=WHOLE_SIDE)  # no points
    with pytest.raises(ValueError):
        fit_spectrum_side(ss, 0.5, "middle", window=WHOLE_SIDE)
    with pytest.raises(ValueError):
        fit_spectrum_side(ss, 0.5, "right", n_terms=4, window=WHOLE_SIDE)
    with pytest.raises(FitError):
        fit_spectrum_side(synthetic_spectrum(x[:2], np.zeros(2)), 0.5,
                          "right", window=WHOLE_SIDE)
    fit = fit_spectrum_side(ss, 0.5, "right", window=WHOLE_SIDE)
    with pytest.raises(ValueError):
        fit_eval(fit, 0.5)  # singular point
    with pytest.raises(ValueError):
        fit_eval(fit, 0.4)  # wrong side


def test_second_derivative_structure():
    fit = SingularityFit(x_c=0.0, side="right",
                         coefficients=np.array([1.0]),
                         rms_residual=0.0)
    # d2/dx2 [x^2 ln x] = 2 ln x + 3
    for x in (0.3, 0.05, 1.7):
        assert fit_second_derivative(fit, x) \
            == pytest.approx(2.0 * math.log(x) + 3.0, abs=1e-12)


def test_derivative_decay_and_curvature_divergence_toward_singularity():
    fit = SingularityFit(x_c=0.2, side="right",
                         coefficients=np.array([2.0, -0.5, 0.1]),
                         rms_residual=0.0)
    offsets = [1e-2, 1e-4, 1e-6]
    first = [abs(fit_derivative(fit, 0.2 + d)) for d in offsets]
    second = [abs(fit_second_derivative(fit, 0.2 + d)) for d in offsets]
    assert first[0] > first[1] > first[2]
    assert second[0] < second[1] < second[2]


def test_window_points_excludes_inner_ring():
    ss = scaled_spectrum(full_spectrum(512, 5.0), "merged")
    x_c = critical_x(512, 5.0)
    x, y = window_points(ss, x_c, "left", window=(0.0, 0.15))
    assert np.all(np.abs(x - x_c) >= 2.0 / 512)
    assert np.all(x < x_c)


def test_two_sided_fits_on_spectrum_data():
    n = 2048
    s = full_spectrum(n, 5.0)
    x_c = critical_x(n, 5.0, spectrum=s)
    ss = scaled_spectrum(s, "merged")
    fits = {side: fit_spectrum_side(ss, x_c, side)
            for side in ("left", "right")}
    # each side fits well on its own; coefficients are NOT constrained to
    # agree across the singularity
    assert fits["left"].rms_residual <= 2e-3
    assert fits["right"].rms_residual <= 2e-3
    assert fits["left"].coefficients[0] * fits["right"].coefficients[0] < 0


def test_acid_comparison_regression_at_module_scale():
    n = 2048
    s = full_spectrum(n, 5.0)
    x_c = critical_x(n, 5.0, spectrum=s)
    ss = scaled_spectrum(s, "merged")
    for side, max_ceiling in (("left", 0.08), ("right", 0.08)):
        fit = fit_spectrum_side(ss, x_c, side)
        acid = derivative_comparison(fit, ss)
        assert acid["rms_relative_deviation"] <= 0.04
        assert acid["max_relative_deviation"] <= max_ceiling


def test_coupling_variable_variant():
    # the same machinery applied to one level as a function of the
    # coupling, with the crossing coupling in place of x_c
    n, k = 512, 33
    lams = np.arange(1.70, 2.45, 0.005)
    blocks = [build_block(n, lam, Parity.EVEN) for lam in lams]
    levels = eig_real_tridiag(blocks).values.reshape(len(lams), -1)
    eps_k = 2.0 * levels[:, k - 1] / n
    assert np.all(np.diff(eps_k) < 0)  # the level descends with coupling
    i = int(np.argmax(eps_k <= -1.0))  # first grid point below the line
    assert i > 0 and eps_k[-1] <= -1.0
    lam_c = lams[i - 1] + (-1.0 - eps_k[i - 1]) * (lams[i] - lams[i - 1]) \
        / (eps_k[i] - eps_k[i - 1])
    # sector level 33 sits at merged position ~ 2k, x ~ 0.25, whose
    # crossing coupling is ~2 by the crossing-count consistency
    assert lam_c == pytest.approx(2.0, abs=0.05)
    # the default window keeps 0.02 <= |g - g_c| <= 0.15; 2/N = 0.004
    # excludes nothing more
    ss = ScaledSpectrum(lams, eps_k, n, "even")
    for side in ("left", "right"):
        fit = fit_spectrum_side(ss, lam_c, side)
        assert fit.rms_residual <= 1e-3
