"""Eigenvalue machinery for the sector blocks.

Three routes, each matched to where it is used:

* real coupling: LAPACK's symmetric-tridiagonal solver (implicit-shift
  QL/QR family) through scipy, O(dim) storage, handles dim ~ 10^4;
* complex coupling: dense Hessenberg QR (LAPACK zgeev), with the
  blocks of one sector at many couplings solved as one stack (they
  differ only in g); branch-point searches never exceed dim ~ 100, so
  dense is fine;
* characteristic determinant: a three-term recurrence with power-of-two
  rescaling, differentiated simultaneously with respect to the energy
  and the coupling.  This is what the branch-point Newton solver runs
  on -- raw determinants overflow near dim ~ 10^3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .core import Parity, TridiagonalBlock, ladder_couplings, sector_basis


#: upper bound on the bytes of one dense stack handed to LAPACK at once
_STACK_BYTES = 1 << 22


@functools.lru_cache(maxsize=64)
def _sector_arrays(n_particles: int, parity: Parity) -> tuple[np.ndarray, np.ndarray]:
    """The m-grid and unit-coupling ladder factors of one sector.

    Built once per (N, parity) and shared read-only by the complex
    solver and the determinant recurrence, which only vary g and E.
    """
    diag = sector_basis(n_particles, parity)
    factors = ladder_couplings(n_particles, parity)
    diag.flags.writeable = False
    factors.flags.writeable = False
    return diag, factors


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues (and optionally vectors) of one sector block."""

    values: np.ndarray = field(repr=False)
    vectors: np.ndarray | None = field(repr=False)


def eig_real_tridiag(block: TridiagonalBlock, want_vectors: bool = False,
                     index_range: tuple[int, int] | None = None) -> EigenResult:
    """Eigenvalues of a real-coupling block, ascending.

    All of them by default.  index_range=(lo, hi) asks for levels lo..hi
    only (0-based, inclusive), found by Sturm-count bisection at O(dim)
    per level; use it when a few levels are needed, never for the whole
    spectrum, where bisection is an order of magnitude slower than the
    full solve.  Vectors, when requested, come back column-aligned with
    the values and orthonormal.
    """
    if not block.is_real:
        raise ValueError("block has complex coupling; use eig_complex_tridiag")
    d = block.diag
    e = np.asarray(block.offdiag, dtype=float)
    select = {}
    if index_range is not None:
        lo, hi = index_range
        if not 0 <= lo <= hi < block.dimension:
            raise ValueError(
                f"level range ({lo}, {hi}) is outside 0..{block.dimension - 1}"
            )
        select = {"select": "i", "select_range": (lo, hi)}
    if block.dimension == 1:
        values = d.copy()
        vectors = np.ones((1, 1)) if want_vectors else None
    elif want_vectors:
        values, vectors = scipy.linalg.eigh_tridiagonal(d, e, **select)
    else:
        values = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True,
                                               **select)
        vectors = None
    return EigenResult(values, vectors)


def eig_complex_tridiag(n_particles: int, parity: Parity,
                        couplings) -> np.ndarray:
    """All eigenvalues of one sector block at each coupling, as a
    (len(couplings), dim) array.

    The blocks differ only in g, so they are assembled as one dense stack
    and solved by one batched LAPACK call (in slices of at most
    _STACK_BYTES).  Each row is sorted lexicographically (real part, then
    imaginary part) so output is deterministic; the order carries no
    physical meaning.  A block whose QR iteration does not converge gives
    a row of NaN, and the other rows are unaffected.
    """
    diag, factors = _sector_arrays(n_particles, parity)
    g = np.asarray(couplings, dtype=complex).reshape(-1)
    offdiag = g[:, None] * factors.astype(complex)
    dim = len(diag)
    i = np.arange(dim)
    values = np.empty((len(g), dim), dtype=complex)
    step = max(1, _STACK_BYTES // (16 * dim * dim))
    for lo in range(0, len(g), step):
        off = offdiag[lo:lo + step]
        stack = np.zeros((len(off), dim, dim), dtype=complex)
        stack[:, i, i] = diag
        stack[:, i[:-1], i[1:]] = off
        stack[:, i[1:], i[:-1]] = off
        values[lo:lo + step] = _eigvals(stack)
    order = np.lexsort((values.imag, values.real), axis=-1)
    return np.take_along_axis(values, order, axis=-1)


def _eigvals(stack: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals of a stack; if it fails, re-solve block by block
    and leave a NaN row for each block that still fails."""
    try:
        return np.linalg.eigvals(stack)
    except np.linalg.LinAlgError:
        rows = np.full(stack.shape[:2], np.nan, dtype=complex)
        for k, a in enumerate(stack):
            try:
                rows[k] = np.linalg.eigvals(a)
            except np.linalg.LinAlgError:
                pass
        return rows


class _DetState(NamedTuple):
    """Scaled determinant and its partials at one (E, g) point.

    All mantissas share `exponent`; d_eg is the mixed E,g partial.
    """

    det: complex
    d_e: complex
    d_ee: complex
    d_g: complex
    d_eg: complex
    exponent: int


def _det_derivatives(diag: np.ndarray, factors: np.ndarray, g: complex,
                     energy: complex) -> _DetState:
    """Run the differentiated three-term recurrence with shared rescaling.

    D_i = (d_i - E) D_{i-1} - o_{i-1}^2 D_{i-2}, with o = g * factors;
    the four partial-derivative sequences ride along.  Every step the
    whole state is renormalized by a power of two keyed to |D_i|.
    """
    n = len(diag)
    d0, d1 = 1.0 + 0.0j, complex(diag[0]) - energy
    e0, e1 = 0.0j, -1.0 + 0.0j
    f0, f1 = 0.0j, 0.0j
    g0, g1 = 0.0j, 0.0j
    m0, m1 = 0.0j, 0.0j
    ex = 0
    for i in range(1, n):
        a = complex(diag[i]) - energy
        o2 = (g * factors[i - 1]) ** 2
        do2 = 2.0 * g * factors[i - 1] ** 2
        d2 = a * d1 - o2 * d0
        e2 = -d1 + a * e1 - o2 * e0
        f2 = -2.0 * e1 + a * f1 - o2 * f0
        g2 = a * g1 - o2 * g0 - do2 * d0
        m2 = -g1 + a * m1 - o2 * m0 - do2 * e0
        d0, d1 = d1, d2
        e0, e1 = e1, e2
        f0, f1 = f1, f2
        g0, g1 = g1, g2
        m0, m1 = m1, m2
        mag = abs(d1)
        if mag != 0.0:
            k = math.frexp(mag)[1]
            if abs(k) > 16:
                s = math.ldexp(1.0, -k)
                d0 *= s; d1 *= s
                e0 *= s; e1 *= s
                f0 *= s; f1 *= s
                g0 *= s; g1 *= s
                m0 *= s; m1 *= s
                ex += k
    return _DetState(d1, e1, f1, g1, m1, ex)


def det_state_at(n_particles: int, parity: Parity, coupling: complex,
                 energy: complex) -> _DetState:
    """det(H - E) of one sector block and its partials in E and g.

    Runs the recurrence straight off the sector's cached m-grid and
    ladder factors, without materializing a block (solver hot path).  All
    values share the power-of-two exponent in the result, so
    det * 2**exponent is the determinant itself.
    """
    diag, factors = _sector_arrays(n_particles, parity)
    return _det_derivatives(diag, factors, complex(coupling), complex(energy))
