"""First-principles dense oracles, independent of the package's
tridiagonal construction.

Everything here is built from the elementary ladder action
J+|j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1> on the full (N+1)-dimensional
multiplet, then squared and projected.  Deliberately dense and slow.
"""

import numpy as np
import scipy.linalg


def full_m_grid(n):
    j = n / 2.0
    return np.arange(-j, j + 0.5, 1.0)


def dense_ladder_plus(n):
    """Dense J+ on the full multiplet, basis ordered by ascending m."""
    j = n / 2.0
    m = full_m_grid(n)
    a = np.zeros((n + 1, n + 1))
    for i in range(n):
        a[i + 1, i] = np.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    return a


def dense_hamiltonian(n, coupling):
    """J_z + coupling/(2N) (J+^2 + J-^2), dense on the full multiplet."""
    jp = dense_ladder_plus(n).astype(complex)
    jm = jp.T.copy()
    h = np.diag(full_m_grid(n)).astype(complex)
    h += coupling / (2.0 * n) * (jp @ jp + jm @ jm)
    if abs(np.asarray(coupling).imag) == 0:
        return h.real
    return h


def sector_indices(n, even):
    """Indices of one step-2 class in the ascending full m-grid."""
    j = n / 2.0
    m = full_m_grid(n)
    cls = np.mod(np.rint(m + j).astype(int), 2)
    return np.where(cls == (0 if even else 1))[0]


def dense_sector_block(n, coupling, even):
    h = dense_hamiltonian(n, coupling)
    idx = sector_indices(n, even)
    return h[np.ix_(idx, idx)]


def branch_couplings(n, even):
    """Every coupling g at which two levels of one sector block coalesce.

    With H(g) = H0 + g H1, K(g) = H(g)(x)I - I(x)H(g) restricted to the
    antisymmetric square has eigenvalues E_i - E_j (i < j), so
    det(K(g)^2) there is the discriminant of det(H(g) - E) in E.  Its
    roots solve the quadratic eigenproblem K0^2 + g(K0 K1 + K1 K0) +
    g^2 K1^2, linearized to a companion pencil (the double-eigenvalue
    problem of Jarlebring, Kvaal & Michiels, SIAM J. Matrix Anal. Appl.
    32, 2011).  Returns the finite roots, all four quadrants.
    """
    h0 = dense_sector_block(n, 0.0, even)
    h1 = dense_sector_block(n, 1.0, even) - h0
    d = len(h0)
    eye = np.eye(d)
    k0 = np.kron(h0, eye) - np.kron(eye, h0)
    k1 = np.kron(h1, eye) - np.kron(eye, h1)
    # orthonormal basis (e_i (x) e_j - e_j (x) e_i) / sqrt(2), i < j
    i, j = np.triu_indices(d, 1)
    cols = np.arange(len(i))
    q = np.zeros((d * d, len(i)))
    q[i * d + j, cols] = 0.5 ** 0.5
    q[j * d + i, cols] = -(0.5 ** 0.5)
    a0, a1, a2 = (q.T @ k @ q for k in (k0 @ k0, k0 @ k1 + k1 @ k0, k1 @ k1))
    zero, one = np.zeros_like(a0), np.eye(len(a0))
    roots = scipy.linalg.eig(np.block([[zero, one], [-a0, -a1]]),
                             np.block([[one, zero], [zero, a2]]), right=False)
    return roots[np.isfinite(roots)]
