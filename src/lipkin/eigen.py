"""Eigenvalue machinery for the sector blocks.

Three routes, each matched to where it is used:

* real coupling: LAPACK's symmetric-tridiagonal divide-and-conquer
  routine dstevd, O(dim) storage, handles dim ~ 10^4.  Values-only
  solves call it through scipy's Cython LAPACK table by ctypes, which
  releases the interpreter lock for the call, so the blocks of one
  request (the two parity sectors, a sweep over N or over g) are solved
  concurrently, on threads the call starts and joins (up to one per CPU);
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

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg import cython_lapack

from .core import Parity, TridiagonalBlock, _sector_arrays


#: upper bound on the bytes of one dense stack handed to LAPACK at once
_STACK_BYTES = 1 << 22
#: largest block entry that LAPACK's bisection (index_range) takes
#: unscaled; the squares it forms overflow from about 2**512 = 1.34e154
_BISECTION_MAX = 2.0 ** 510


def _lapack_function(name: str, *argtypes) -> ctypes.CFUNCTYPE:
    """A routine of scipy's Cython LAPACK table as a ctypes function.

    A ctypes foreign call releases the interpreter lock, which the f2py
    wrappers of scipy.linalg.lapack hold for the whole solve.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.pythonapi.PyCapsule_GetName
    get_name.restype = ctypes.c_char_p
    get_name.argtypes = [ctypes.py_object]
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.restype = ctypes.c_void_p
    get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


_INT = ctypes.POINTER(ctypes.c_int)
_PTR = ctypes.c_void_p
# dstevd(jobz, n, d, e, z, ldz, work, lwork, iwork, liwork, info)
_DSTEVD = _lapack_function("dstevd", ctypes.c_char_p, _INT, _PTR, _PTR,
                           _PTR, _INT, _PTR, _INT, _PTR, _INT, _INT)


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues (and optionally vectors) of one or more sector blocks."""

    values: np.ndarray = field(repr=False)
    vectors: np.ndarray | None = field(repr=False)


def eig_real_tridiag(blocks: TridiagonalBlock | Sequence[TridiagonalBlock],
                     want_vectors: bool = False,
                     index_range: tuple[int, int] | None = None) -> EigenResult:
    """Eigenvalues of real-coupling blocks, ascending within each block.

    blocks is one block or a sequence of them.  For a sequence, values
    holds every block's levels concatenated in the order given.  Without
    vectors or index_range the blocks are solved concurrently, largest
    first, on worker threads that are joined before the call returns.
    index_range=(lo, hi) asks for levels lo..hi of a single block only
    (0-based, inclusive), found by Sturm-count bisection at O(dim) per
    level; use it when a few levels are needed, never for the whole
    spectrum, where bisection is an order of magnitude slower than the
    full solve.  Vectors, when requested of a single block, come back
    column-aligned with the values and orthonormal.  A block whose
    entries LAPACK cannot take, or whose levels are not finite (they
    exceed the double range), raises ValueError naming the block.
    """
    batch = [blocks] if isinstance(blocks, TridiagonalBlock) else list(blocks)
    for block in batch:
        _check_real(block)
    if not want_vectors and index_range is None:
        if not batch:
            return EigenResult(np.empty(0), None)
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        futures = [None] * len(batch)
        with ThreadPoolExecutor(max_workers=min(len(batch), cpus),
                                thread_name_prefix="lipkin-eigen") as pool:
            for i in sorted(range(len(batch)),
                            key=lambda i: batch[i].dimension, reverse=True):
                futures[i] = pool.submit(_values, batch[i])
        # read in input order, so the first failing block's error surfaces
        values = [_check_levels(b, f.result()) for b, f in zip(batch, futures)]
        return EigenResult(np.concatenate(values), None)
    if len(batch) != 1:
        raise ValueError("vectors and index_range take a single block, "
                         f"got {len(batch)}")
    block, = batch
    diag, offdiag, scale = block.diag, block.offdiag, 0
    select = {}
    if index_range is not None:
        lo, hi = index_range
        if not 0 <= lo <= hi < block.dimension:
            raise ValueError(
                f"level range ({lo}, {hi}) is outside 0..{block.dimension - 1}"
            )
        select = {"select": "i", "select_range": (lo, hi)}
        # dstevd rescales a block, bisection does not: bisect a huge
        # block scaled by an exact power of two, which leaves the
        # vectors as they are and the levels exact up to that power
        top = max(np.abs(diag).max(), np.abs(offdiag).max(initial=0.0))
        if top > _BISECTION_MAX:
            scale = math.frexp(top)[1]
            diag, offdiag = np.ldexp(diag, -scale), np.ldexp(offdiag, -scale)
    solved = scipy.linalg.eigh_tridiagonal(
        diag, offdiag, eigvals_only=not want_vectors, **select)
    values, vectors = solved if want_vectors else (solved, None)
    if scale:
        with np.errstate(over="ignore"):  # _check_levels names an overflow
            values = np.ldexp(values, scale)
    return EigenResult(_check_levels(block, values), vectors)


def _check_real(block: TridiagonalBlock) -> None:
    """Reject what LAPACK cannot take: complex or non-finite entries, or
    an off-diagonal whose length does not match the diagonal."""
    if np.iscomplexobj(block.offdiag):
        raise ValueError("block has complex coupling; use eig_complex_tridiag")
    if block.diag.ndim != 1 or block.offdiag.shape != (block.dimension - 1,):
        raise ValueError(f"diagonal of shape {block.diag.shape} and "
                         f"off-diagonal of shape {block.offdiag.shape} do "
                         "not form a tridiagonal block")
    if np.isfinite(block.diag).all() and np.isfinite(block.offdiag).all():
        return
    where = f"the N={block.n_particles} {block.parity} block"
    if np.isnan(block.offdiag).any() or not np.isfinite(block.diag).all():
        raise ValueError(f"{where} holds NaN or infinite entries")
    raise ValueError(f"the coupling overflows the off-diagonal of {where}: "
                     "g times the ladder factors exceeds the double range")


def _check_levels(block: TridiagonalBlock, values: np.ndarray) -> np.ndarray:
    """The levels of one block, or ValueError if any of them is not
    finite: a finite off-diagonal can still carry levels past the double
    range."""
    if not np.isfinite(values).all():
        raise ValueError(f"the levels of the N={block.n_particles} "
                         f"{block.parity} block exceed the double range")
    return values


def _values(block: TridiagonalBlock) -> np.ndarray:
    """All levels of one checked real block, ascending: LAPACK dstevd
    with jobz='N', the routine scipy's eigh_tridiagonal runs by default,
    called without the interpreter lock.  Runs on worker threads, so it
    touches no public function of the package.  A 1x1 block comes
    back as its diagonal, as from scipy."""
    d = np.array(block.diag, dtype=float)  # overwritten with the levels
    e = np.array(block.offdiag, dtype=float)  # destroyed
    z, work = np.empty(1), np.empty(1)  # z is not referenced for jobz='N'
    iwork = np.empty(1, dtype=np.intc)
    n, one, info = ctypes.c_int(len(d)), ctypes.c_int(1), ctypes.c_int(0)
    _DSTEVD(b"N", ctypes.byref(n), d.ctypes.data, e.ctypes.data,
            z.ctypes.data, ctypes.byref(one), work.ctypes.data,
            ctypes.byref(one), iwork.ctypes.data, ctypes.byref(one),
            ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of dstevd")
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"dstevd did not converge (LAPACK info={info.value})")
    return d


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
    # a coupling past the double range leaves inf or NaN entries, whose
    # block fails to solve and gets the NaN row described above
    with np.errstate(over="ignore", invalid="ignore"):
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


def det_state_at(n_particles: int, parity: Parity, coupling: complex,
                 energy: complex) -> _DetState:
    """det(H - E) of one sector block and its partials in E and g.

    Runs the differentiated three-term recurrence straight off the
    sector's cached m-grid and ladder factors, without materializing a
    block (solver hot path):
    D_i = (d_i - E) D_{i-1} - o_{i-1}^2 D_{i-2}, with o = g * factors;
    the four partial-derivative sequences ride along.  Every step the
    whole state is renormalized by a power of two keyed to |D_i|, so
    det * 2**exponent is the determinant itself.
    """
    diag, factors = _sector_arrays(n_particles, parity)
    g, energy = complex(coupling), complex(energy)
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
