"""Collective-spin Hamiltonian in its SU(2) form.

The model is H(g) = J_z + g/(2N) (J_+^2 + J_-^2) on the spin-j = N/2
multiplet, N being the particle number.  Because the interaction raises
and lowers m by 2, the (N+1)-dimensional space splits into two invariant
sectors (step-2 classes of m).  Each sector block is tridiagonal in the
J_z eigenbasis, which is the only representation this module builds:
dense matrices never appear outside the test oracles.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np


class UsageError(ValueError):
    """An argument outside a call's rules (CLI exit 2): an N below 1, a
    sweep's k, N or coupling, or a scan region or grid, before any solve;
    too few levels, after."""


class Parity(enum.Enum):
    """Invariant-sector label.

    EVEN is the class of m-values reachable from the lowest-weight state
    m = -j by double raising (m + j even); ODD is its complement.  This
    labelling never depends on whether N itself is even or odd.
    """

    EVEN = "even"
    ODD = "odd"

    def __str__(self) -> str:
        return self.value


@functools.lru_cache(maxsize=64)
def _sector_arrays(n_particles: int, parity: Parity) -> tuple[np.ndarray, np.ndarray]:
    """The ascending m-grid of one sector and its unit-coupling ladder
    factors; N < 1 raises UsageError.

    The two grids partition {-j, ..., j} in steps of 2, exactly in
    floating point.  Factor i couples m = diag[i] to m + 2 and equals
    sqrt((j-m)(j+m+1)(j-m-1)(j+m+2)) / (2N), i.e. the off-diagonal of
    the block at unit coupling.  Computed from the product form; no
    factorials, so large N stays in range.  Built once per (N, parity)
    and shared read-only by block assembly, the complex solver and the
    determinant recurrence, which only vary g and E.
    """
    if n_particles < 1:
        raise UsageError(
            f"n_particles must be >= 1, got {n_particles}; the 1/N "
            "interaction scale is undefined otherwise"
        )
    j = n_particles / 2.0
    diag = np.arange(-j if parity is Parity.EVEN else -j + 1.0, j + 0.5, 2.0)
    m = diag[:-1]
    radicand = (j - m) * (j + m + 1.0) * (j - m - 1.0) * (j + m + 2.0)
    factors = np.sqrt(radicand) / (2.0 * n_particles)
    diag.flags.writeable = False
    factors.flags.writeable = False
    return diag, factors


@dataclass(frozen=True)
class TridiagonalBlock:
    """One sector of H(g) as a symmetric tridiagonal matrix.

    diag holds the J_z eigenvalues m; offdiag holds g/(2N) times the
    double-raising matrix elements, for a real coupling g.
    """

    diag: np.ndarray = field(repr=False)
    offdiag: np.ndarray = field(repr=False)
    n_particles: int
    parity: Parity

    @property
    def dimension(self) -> int:
        return len(self.diag)


def build_block(n_particles: int, coupling: float,
                parity: Parity) -> TridiagonalBlock:
    """Assemble the real symmetric tridiagonal sector block of H at a
    real coupling.  The diagonal is the sector's shared read-only m-grid.
    """
    diag, factors = _sector_arrays(n_particles, parity)
    # a coupling too large for the double range leaves inf entries,
    # which eig_real_tridiag rejects with the cause named
    with np.errstate(over="ignore"):
        offdiag = float(coupling) * factors
    return TridiagonalBlock(diag, offdiag, n_particles, parity)


def apply_scaled_hamiltonian(block: TridiagonalBlock, v: np.ndarray) -> np.ndarray:
    """Apply (2/N) H to a coefficient vector, exactly tridiagonally.

    On the unit vector at m = -j this produces coefficient -1 there and
    g*sqrt(2N(N-1))/N**2 at m = -j+2; the familiar sqrt(2) g/N form is
    the large-N limit of that exact element.
    """
    v = np.asarray(v)
    if v.shape != (block.dimension,):
        raise ValueError(
            f"vector length {v.shape} does not match block dimension "
            f"{block.dimension}"
        )
    scale = 2.0 / block.n_particles
    out_dtype = np.result_type(v.dtype, block.offdiag.dtype, float)
    w = np.zeros(block.dimension, dtype=out_dtype)
    w += block.diag * v
    if block.dimension > 1:
        w[:-1] += block.offdiag * v[1:]
        w[1:] += block.offdiag * v[:-1]
    return scale * w
