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

The Jacobi eigensolver works on Python scalars (``a.tolist()``), not on
NumPy arrays: the matrices it meets are small (the ``M x M`` wire chains
of a flux sweep, dense strips up to a few hundred sites), and at those
sizes one interpreted scalar operation costs less than one NumPy call on
a row.  A complex Hermitian matrix is rotated in place with the phase of
each pivot, so it is never embedded in a real matrix of twice its size.
"""

from __future__ import annotations

import math

import numpy as np



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


def _off_norm(a):
    """Frobenius norm of the off-diagonal part of the Hermitian ``a``.

    When the largest entry exceeds 1, every entry is first multiplied by
    the power of two that brings the largest below 1, so the squares
    cannot overflow.  The scaling is exact, so the norm is the one the
    unscaled sum gives wherever that sum stays in float range.
    """
    upper = [abs(x) for p, row in enumerate(a) for x in row[p + 1 :]]
    big = max(upper, default=0.0)
    scale = math.ldexp(1.0, -max(0, math.frexp(big)[1]))
    total = 0.0
    for x in upper:
        x *= scale
        total += x * x
    return math.sqrt(2.0 * total) / scale


def _sweep(a, hermitian):
    """One cyclic sweep over the rows ``a``: rotate every upper-triangle
    pivot (p, q) in row order, in place.

    Real input rotates by the signed pivot; complex input first takes out
    the pivot's phase ``z = a[p][q] / |a[p][q]|``, which leaves the real
    problem with pivot ``|a[p][q]|``.  Both keep ``a`` exactly Hermitian.
    """
    n = len(a)
    for p in range(n - 1):
        row_p = a[p]
        for q in range(p + 1, n):
            apq = row_p[q]
            if apq == 0.0:
                continue
            row_q = a[q]
            if hermitian:
                r = abs(apq)
                z = apq / r
            else:
                r = apq
                z = 1.0
            app = row_p[p]
            aqq = row_q[q]
            diff = aqq - app
            # asymptotic tangent 1/(2*tau) when |tau| > 1e12, chosen
            # before dividing by the pivot: a tiny pivot would overflow tau
            if abs(diff) > 2e12 * abs(r):
                t = r / diff
            else:
                tau = diff / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            # columns p and q of every row, then rows p and q as their
            # conjugates; the 2x2 block at (p, q), which these loops leave
            # stale, is set after them.  Real input skips the conjugations,
            # which would cost it about a tenth of its time.
            if hermitian:
                sz = s * z
                szc = sz.conjugate()
                for i, row in enumerate(a):
                    x = row[p]
                    y = row[q]
                    u = c * x - szc * y
                    v = sz * x + c * y
                    row[p] = u
                    row[q] = v
                    row_p[i] = u.conjugate()
                    row_q[i] = v.conjugate()
            else:
                for i, row in enumerate(a):
                    x = row[p]
                    y = row[q]
                    u = c * x - s * y
                    v = s * x + c * y
                    row[p] = row_p[i] = u
                    row[q] = row_q[i] = v
            row_p[p] = app - t * r
            row_q[q] = aqq + t * r
            row_p[q] = row_q[p] = 0.0


def jacobi_eigvals(a, tol, max_sweeps):
    """Eigenvalues of a Hermitian matrix by the cyclic Jacobi method.

    ``a`` is a square float64 (real symmetric) or complex128 (Hermitian)
    ndarray; only its upper triangle and the real part of its diagonal
    are read, and ``a`` itself is left unchanged.  Sweeps run until the
    off-diagonal Frobenius norm is at most ``tol`` or ``max_sweeps`` sweeps
    have run.  Returns ``(levels, sweeps, off)``: the eigenvalues as an
    unsorted float64 array, the number of sweeps run and the final
    off-diagonal norm.
    """
    hermitian = np.iscomplexobj(a)
    rows = a.tolist()
    for p, row in enumerate(rows):
        row[p] = row[p].real
        for q in range(p + 1, len(rows)):
            rows[q][p] = row[q].conjugate()
    sweeps = 0
    off = _off_norm(rows)
    while off > tol and sweeps < max_sweeps:
        _sweep(rows, hermitian)
        sweeps += 1
        off = _off_norm(rows)
    levels = np.array([row[p] for p, row in enumerate(rows)], dtype=np.float64)
    return levels, sweeps, off
