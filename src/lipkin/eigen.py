"""Eigenvalue machinery for the sector blocks.

Three routes, each matched to where it is used:

* real coupling: LAPACK's divide-and-conquer routine dstevd for every
  full solve, with or without vectors, up to dim ~ 10^4, and Sturm
  bisection through scipy.linalg for a range of levels;
* complex coupling: dense Hessenberg QR (LAPACK zgeev), one block per
  call, at many couplings of one sector at once (the blocks differ only
  in g); branch-point searches never exceed dim ~ 100, so dense is fine;
* characteristic determinant: a three-term recurrence with power-of-two
  rescaling, differentiated simultaneously with respect to the energy
  and the coupling.  This is what the branch-point Newton solver runs
  on -- raw determinants overflow near dim ~ 10^3.

Both LAPACK routes call their routine through scipy's Cython LAPACK
table by ctypes, which releases the interpreter lock for the call, so
the blocks of one request (the two parity sectors, a sweep over N, the
couplings of a scan) are solved concurrently, on threads the call
starts and joins (up to one per usable CPU).
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


#: upper bound on the bytes of one slice of dense complex blocks that a
#: solver worker builds at once
_STACK_BYTES = 1 << 17


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
# zgeev(jobvl, jobvr, n, a, lda, w, vl, ldvl, vr, ldvr, work, lwork,
#       rwork, info)
_ZGEEV = _lapack_function("zgeev", ctypes.c_char_p, ctypes.c_char_p, _INT,
                          _PTR, _INT, _PTR, _PTR, _INT, _PTR, _INT, _PTR,
                          _INT, _PTR, _INT)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fan_out(work, jobs: list) -> list:
    """[work(job) for job in jobs], on up to one thread per usable CPU.

    Jobs start in the order given.  The threads are started and joined
    within the call, so none outlives it; one job, or one usable CPU,
    runs on the calling thread.  The first failing job's error, in job
    order, is raised.  work runs on worker threads, so it must touch no
    public function of the package: the benchmark's tracer keeps one
    span stack for all threads.
    """
    workers = min(len(jobs), _usable_cpus())
    if workers <= 1:
        return [work(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers,
                            thread_name_prefix="lipkin-eigen") as pool:
        futures = [pool.submit(work, job) for job in jobs]
    return [f.result() for f in futures]


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
    holds every block's levels concatenated in the order given.  A full
    solve, with or without vectors, is LAPACK dstevd (_dstevd); the
    blocks are solved concurrently, largest first, on worker threads
    that are joined before the call returns (_fan_out).
    index_range=(lo, hi) asks for levels lo..hi of a single block only
    (0-based, inclusive), without vectors, found by Sturm-count
    bisection at O(dim) per level; use it when a few levels are needed,
    never for the whole spectrum, where bisection is an order of
    magnitude slower than the full solve.  Vectors, when requested of
    one block's full solve, come back column-aligned with the values and
    orthonormal; asked of a batch or with index_range, they raise
    ValueError before any solve.  A block whose
    entries LAPACK cannot take, or whose levels are not finite (they
    exceed the double range), raises ValueError naming the block.
    """
    batch = [blocks] if isinstance(blocks, TridiagonalBlock) else list(blocks)
    for block in batch:
        _check_real(block)
    if (want_vectors or index_range is not None) and (
            len(batch) != 1 or want_vectors and index_range is not None):
        raise ValueError("vectors take one block's full solve and "
                         f"index_range one block, got {len(batch)}")
    if index_range is None:
        order = sorted(range(len(batch)), key=lambda i: batch[i].dimension,
                       reverse=True)
        solved = dict(zip(order, _fan_out(lambda b: _dstevd(b, want_vectors),
                                          [batch[i] for i in order])))
        # checked in input order, so the first overflowing block is named
        levels = [_check_levels(b, solved[i][0]) for i, b in enumerate(batch)]
        return EigenResult(np.concatenate([np.empty(0), *levels]),
                           solved[0][1] if want_vectors else None)
    block, = batch
    lo, hi = index_range
    if not 0 <= lo <= hi < block.dimension:
        raise ValueError(f"level range ({lo}, {hi}) is outside "
                         f"0..{block.dimension - 1}")
    # dstevd rescales a block, bisection does not, and the squares it
    # forms overflow from about 2**512: bisect the block scaled by an
    # exact power of two, which leaves the levels exact up to that power
    scale = math.frexp(max(np.abs(block.diag).max(),
                           np.abs(block.offdiag).max(initial=0.0)))[1]
    values = scipy.linalg.eigh_tridiagonal(
        np.ldexp(block.diag, -scale), np.ldexp(block.offdiag, -scale),
        eigvals_only=True, select="i", select_range=(lo, hi))
    with np.errstate(over="ignore"):  # _check_levels names an overflow
        values = np.ldexp(values, scale)
    return EigenResult(_check_levels(block, values), None)


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


def _dstevd(block: TridiagonalBlock, want_vectors: bool) -> tuple:
    """All levels of one checked real block, ascending, and with
    want_vectors their vectors as columns: LAPACK dstevd with the
    workspace scipy's eigh_tridiagonal passes it, so the bits are
    scipy's, called without the interpreter lock.  Runs on worker
    threads, so it touches no public function of the package."""
    d = np.array(block.diag, dtype=float)  # overwritten with the levels
    e = np.array(block.offdiag, dtype=float)  # destroyed
    n = len(d)
    # jobz='N' references no z and needs one entry of each workspace
    ldz, lwork, liwork = ((n, 1 + 4 * n + n * n, 3 + 5 * n) if want_vectors
                          else (1, 1, 1))
    z = np.empty((ldz, ldz), order="F")
    work, iwork = np.empty(lwork), np.empty(liwork, dtype=np.intc)
    info = ctypes.c_int(0)
    n_, ldz_, lwork_, liwork_ = (ctypes.byref(ctypes.c_int(k))
                                 for k in (n, ldz, lwork, liwork))
    _DSTEVD(b"V" if want_vectors else b"N", n_, d.ctypes.data,
            e.ctypes.data, z.ctypes.data, ldz_, work.ctypes.data, lwork_,
            iwork.ctypes.data, liwork_, ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of dstevd")
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"dstevd did not converge (LAPACK info={info.value})")
    return d, z if want_vectors else None


def eig_complex_tridiag(n_particles: int, parity: Parity,
                        couplings) -> np.ndarray:
    """All eigenvalues of one sector block at each coupling, as a
    (len(couplings), dim) array.

    The couplings are cut into slices of at most one usable CPU's share
    and at most _STACK_BYTES of dense blocks, which worker threads solve
    concurrently (_fan_out), one LAPACK zgeev call per block.  zgeev gets
    the arguments np.linalg.eigvals passes, so the values match numpy's
    to the bit (the tests check this).  Each row is sorted
    lexicographically (real part, then imaginary part) so output is
    deterministic; the order carries no physical meaning.  A block with
    a non-finite entry (a coupling past the double range), or whose QR
    iteration does not converge, gives a row of NaN, and the other rows
    are unaffected.
    """
    diag, factors = _sector_arrays(n_particles, parity)
    g = np.asarray(couplings, dtype=complex).reshape(-1)
    dim = len(diag)
    values = np.full((len(g), dim), np.nan, dtype=complex)
    size = max(1, min(_STACK_BYTES // (16 * dim * dim),
                      -(-len(g) // _usable_cpus())))
    _fan_out(lambda lo: _solve_slice(diag, factors, g[lo:lo + size],
                                     values[lo:lo + size]),
             list(range(0, len(g), size)))
    return values


def _solve_slice(diag: np.ndarray, factors: np.ndarray, g: np.ndarray,
                 out: np.ndarray) -> None:
    """Write the lex-sorted eigenvalues of the sector block at each
    coupling g into the NaN rows of out: LAPACK zgeev with
    jobvl = jobvr = 'N' and the optimal workspace, as np.linalg.eigvals
    calls it, without the interpreter lock.  A block with a non-finite
    entry never reaches LAPACK, and a block whose solve fails (info != 0)
    keeps its NaN row.  Runs on worker threads, so it touches no public
    function of the package.
    """
    dim = len(diag)
    with np.errstate(over="ignore", invalid="ignore"):
        offdiag = g[:, None] * factors.astype(complex)
    finite = np.flatnonzero(np.isfinite(offdiag).all(axis=1))
    if not len(finite):
        return
    # the blocks are complex symmetric, so their rows are their columns
    i = np.arange(dim)
    stack = np.zeros((len(finite), dim, dim), dtype=complex)
    stack[:, i, i] = diag
    stack[:, i[:-1], i[1:]] = offdiag[finite]
    stack[:, i[1:], i[:-1]] = offdiag[finite]
    w = np.empty((len(finite), dim), dtype=complex)
    solved = np.zeros(len(finite), dtype=bool)
    n, one = ctypes.c_int(dim), ctypes.c_int(1)
    lwork, info = ctypes.c_int(-1), ctypes.c_int(0)  # -1: workspace query
    n_, one_, lwork_, info_ = map(ctypes.byref, (n, one, lwork, info))
    # vl and vr are not referenced; the workspace query answers in spare
    rwork, spare = np.empty(2 * dim), np.empty(1, dtype=complex)
    a, v, r, u = (x.ctypes.data for x in (stack, w, rwork, spare))
    _ZGEEV(b"N", b"N", n_, a, n_, v, u, one_, u, one_, u, lwork_, r, info_)
    lwork.value = max(1, int(spare[0].real))
    work = np.empty(lwork.value, dtype=complex)
    z = work.ctypes.data
    for k in range(len(finite)):
        _ZGEEV(b"N", b"N", n_, a + 16 * dim * dim * k, n_, v + 16 * dim * k,
               u, one_, u, one_, z, lwork_, r, info_)
        solved[k] = info.value == 0
    w = w[solved]
    order = np.lexsort((w.imag, w.real), axis=-1)
    out[finite[solved]] = np.take_along_axis(w, order, axis=-1)


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
