"""Numeric kernels: ordered bilinear sums and a cyclic Jacobi eigensolver.

Every sum runs in one fixed order (first index outer, second index inner)
and accumulates in float64, so a result is reproducible bit for bit across
runs and platforms and equals a naive reference loop
``acc = 0.0; acc += x`` over the same terms.  ``np.sum`` would not give
that guarantee (it reassociates pairwise), but ``np.cumsum`` adds strictly
in order: each kernel builds its row-major array of terms and takes the
last running sum.  The only way that can differ from the loop is the
loop's ``+0.0`` start, which turns an all-``-0.0`` sum into ``+0.0``;
adding ``0.0`` to the result restores it.

The Jacobi eigensolver carries ``@njit``; when numba is disabled it runs
as a vectorized NumPy twin, because interpreted O(d^3) loops would be
unusable.  ``jacobi_eigvals`` is the flavor selected by
:mod:`moebius_csr._accel`.
"""

from __future__ import annotations

import math

import numpy as np

from ._accel import NUMBA_ENABLED, njit


def _ordered_sum(terms: np.ndarray) -> float:
    """Row-major sum of ``terms``, bit for bit the sequential loop."""
    if terms.size == 0:
        return 0.0
    return float(0.0 + np.cumsum(terms)[-1])


def sum_all(x):
    """Sum every entry of a 2-d float64 array, rows outer, columns inner."""
    return _ordered_sum(x)


def sum_ring_products(a):
    """Sum a[i, j] * a[i+1, j] around each column's ring.

    The first index is cyclic: the last row pairs with the first.  Each
    directed pair is counted once (no reverse term).
    """
    return _ordered_sum(a * np.roll(a, -1, axis=0))


def sum_rung_products(a):
    """Sum a[i, j] * a[i, j+1] over adjacent-column pairs, rows outer."""
    return _ordered_sum(a[:, :-1] * a[:, 1:])


def sum_antipodal_products(a):
    """Sum a[i, last] * a[i+half, last] over all rows of the last column.

    ``half`` is half the (even) row count, so every unordered pair is
    visited twice; callers that want each pair once apply a 1/2 factor.
    """
    last = a[:, -1]
    return _ordered_sum(last * np.roll(last, -(a.shape[0] // 2)))


@njit(cache=True)
def jacobi_eigvals_compiled(a, tol, max_sweeps):
    """Eigenvalues of a real symmetric matrix by the cyclic Jacobi method.

    Sweeps rotate every upper-triangle pivot (p, q) in row order until the
    off-diagonal Frobenius norm drops to ``tol`` or ``max_sweeps`` is hit.
    The matrix is destroyed; the diagonal is returned unsorted.
    """
    n = a.shape[0]
    for _ in range(max_sweeps):
        off2 = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off2 += a[i, j] * a[i, j]
        if math.sqrt(2.0 * off2) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                diff = aqq - app
                # asymptotic tangent 1/(2*tau) when |tau| > 1e12, chosen
                # before dividing by apq: a tiny apq would overflow tau
                if abs(diff) > 2e12 * abs(apq):
                    t = apq / diff
                else:
                    tau = diff / (2.0 * apq)
                    if tau >= 0.0:
                        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                    else:
                        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for i in range(n):
                    if i != p and i != q:
                        aip = a[i, p]
                        aiq = a[i, q]
                        a[i, p] = c * aip - s * aiq
                        a[p, i] = a[i, p]
                        a[i, q] = s * aip + c * aiq
                        a[q, i] = a[i, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
    return np.diag(a).copy()


def jacobi_eigvals_numpy(a, tol, max_sweeps):
    """Vectorized twin of :func:`jacobi_eigvals_compiled`.

    Same rotations and pivot order, but each rotation updates whole rows
    and columns at once so the interpreted path stays usable.
    """
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2)))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                diff = aqq - app
                # asymptotic tangent 1/(2*tau) when |tau| > 1e12, chosen
                # before dividing by apq: a tiny apq would overflow tau
                if abs(diff) > 2e12 * abs(apq):
                    t = apq / diff
                else:
                    tau = diff / (2.0 * apq)
                    if tau >= 0.0:
                        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                    else:
                        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
    return np.diag(a).copy()


if NUMBA_ENABLED:
    jacobi_eigvals = jacobi_eigvals_compiled
else:
    jacobi_eigvals = jacobi_eigvals_numpy
