"""Collective-spin Hamiltonian spectra, finite-size scaling, and
branch points of the analytic continuation in the coupling."""

from .core import (
    Parity,
    TridiagonalBlock,
    apply_scaled_hamiltonian,
    build_block,
    sector_basis,
)
from .eigen import (
    eig_complex_tridiag,
    eig_real_tridiag,
)
from .analysis import (
    NoCrossingError,
    ScaledSpectrum,
    ScalingReport,
    Spectrum,
    critical_state,
    critical_x,
    full_spectrum,
    gap_ratio_eq3,
    gaps,
    ipr,
    loglog_slope,
    min_gap,
    scaled_spectrum,
    scaling_exponent_eq2,
    spectral_derivative,
)
from .excpt import (
    EpConvergenceError,
    EpTrackingError,
    ExceptionalPoint,
    default_im_tol,
    ep_pair_id,
    ep_refine,
    ep_scan,
    near_real_ep_count,
)
from .logfit import (
    FitError,
    SingularityFit,
    derivative_comparison,
    fit_derivative,
    fit_eval,
    fit_second_derivative,
    fit_singularity,
    fit_spectrum_side,
    window_points,
)

__version__ = "0.1.0"
