"""Numeric kernels: ordered bilinear sums and a Hermitian eigensolver.

Every sum runs in one fixed order (first index outer, second index inner)
and accumulates in float64, so a result is reproducible bit for bit across
runs and platforms and equals a naive reference loop
``acc = 0.0; acc += x`` over the same terms.  ``np.sum`` would not give
that guarantee (it reassociates pairwise), but ``np.cumsum`` adds strictly
in order: each kernel builds its row-major array of terms and takes the
last running sum.  The only way that can differ from the loop is the
loop's ``+0.0`` start, which turns an all-``-0.0`` sum into ``+0.0``;
adding ``0.0`` to the result restores it.

The eigensolver works on a stack of matrices at once (a block of flux
points): Householder reflections reduce each one to real tridiagonal form,
and every level of every matrix is bisected together on Sturm counts, so
the number of NumPy calls does not grow with the stack.  Bisection ends
after a fixed number of halvings: no input comes back unconverged.
"""

from __future__ import annotations

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


# the ordered integers of [-7/4, 7/4] span less than 2**63, so this many
# halvings end on two adjacent floats, and their sums stay in int64
HALVINGS = 63
TINY = np.finfo(np.float64).tiny


def _power_of_two_scale(x: np.ndarray) -> np.ndarray:
    """Per-matrix power of two that brings the largest |entry| of ``x`` into
    [1/2, 1), or as close as the largest finite power 2**1023 allows.

    The first axis of ``x`` indexes matrices; the factor keeps the other
    axes as length-1 axes.  Scaling by a power of two is exact.
    """
    big = np.abs(x).max(axis=tuple(range(1, x.ndim)), keepdims=True)
    if not np.isfinite(big).all():  # the modulus of a complex entry can round past max
        raise ValueError("a matrix entry is past float range")
    return np.ldexp(1.0, np.minimum(-np.frexp(big)[1], 1023))


def _tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder reduction of a Hermitian stack ``a`` of shape (P, d, d).

    Returns the diagonals (P, d) and the off-diagonal moduli (P, d - 1) of
    real symmetric tridiagonal matrices with the spectra of the input.
    Step k reflects column k below the diagonal onto its first entry by
    ``H = I - 2 v v^H`` and updates the trailing block to
    ``A - 2 v w^H - 2 w v^H`` with ``p = A v``, ``w = p - (v^H p) v``.
    A zero column gives ``v = 0``, so diagonal input passes through exactly.
    """
    p_count, d, _ = a.shape
    diag = np.empty((p_count, d))
    off = np.empty((p_count, d - 1))
    for k in range(d - 1):
        diag[:, k] = a[:, 0, 0].real
        # scaled by a power of two, the column's squares cannot underflow
        scale = _power_of_two_scale(a[:, 1:, 0])
        v = a[:, 1:, 0] * scale
        norm = np.linalg.norm(v, axis=1)
        off[:, k] = norm / scale[:, 0]
        # v = x + phase(x0)|x| e1 adds in its first entry, never cancels, and
        # has norm sqrt(2|x|(|x| + |x0|)); dividing by |x0| < TINY could
        # overflow, and such an x0 is negligible beside |x|, so it takes phase 1
        r0 = np.abs(v[:, 0])
        small = r0 < TINY
        v[:, 0] += (v[:, 0] + small) / (r0 + small) * norm
        length = np.sqrt(2.0 * norm * (norm + r0))
        v /= np.where(length > 0.0, length, 1.0)[:, None]
        rest = a[:, 1:, 1:]
        p = np.einsum("pij,pj->pi", rest, v)
        w = p - np.einsum("pi,pi->p", v.conj(), p).real[:, None] * v
        a = rest - 2.0 * (
            v[:, :, None] * w.conj()[:, None, :] + w[:, :, None] * v.conj()[:, None, :]
        )
    diag[:, d - 1] = a[:, 0, 0].real
    return diag, off


def _ordered(bits: np.ndarray) -> np.ndarray:
    """Swap float64 bit patterns (as int64) and integers in the order of the
    floats, by inverting the magnitude bits of negative floats (an involution)."""
    return bits ^ ((bits >> 63) & 0x7FFFFFFFFFFFFFFF)


def _counts_below(a, b2, x):
    """Levels below ``x`` (P, L) of each tridiagonal matrix: negative pivots
    of the Sturm sequence of diagonal ``a`` (P, d) and squared off-diagonal
    ``b2`` (P, d - 1).  An exact zero pivot is not counted, so a level that
    is a float is bracketed from below by itself.  A pivot below ``TINY``
    in modulus takes that modulus, keeping its sign, which keeps ``b2 / q``
    finite for ``b2 < 1``.  No entry of ``a`` may be -0.0: then no pivot is
    -0.0, and the sign a pivot is counted with is the one it keeps.
    """
    negative = np.empty((a.shape[1],) + x.shape, dtype=bool)
    shifted = a[:, :, None] - x[:, None, :]
    q = shifted[:, 0].copy()
    size = np.empty_like(q)
    for i in range(a.shape[1]):
        if i:
            np.divide(b2[:, i - 1 : i], q, out=q)
            np.subtract(shifted[:, i], q, out=q)
        np.less(q, 0.0, out=negative[i])
        np.maximum(np.abs(q, out=size), TINY, out=size)
        np.copysign(size, q, out=q)
    return negative.sum(axis=0)


def tridiagonal_eigvals(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of real symmetric tridiagonal matrices.

    ``diag`` (P, d) holds the finite diagonals and ``off`` (P, d - 1) the
    finite off-diagonals; only ``|off|`` matters.  Returns the (P, d)
    levels, ascending in each row.

    Each matrix is scaled by a power of two (exact) so its entries are
    below 1/2 in modulus and, by Gershgorin, its levels lie inside
    (-3/2, 3/2).  Every level of every matrix is then bisected at once on
    Sturm counts (Barth, Martin & Wilkinson, Numer. Math. 9, 1967) from the
    bracket [-7/4, 7/4], halving in the order of the floats
    (:func:`_ordered`) rather than of their values, so ``HALVINGS`` steps
    always end on two adjacent floats.  The lower one is returned: a level
    that is a float, such as an entry of a diagonal matrix, comes back
    exactly.
    """
    scale = 0.5 * _power_of_two_scale(np.concatenate([diag, off], axis=1))
    a = diag * scale + 0.0  # turns -0.0 into 0.0, see _counts_below
    b2 = (off * scale) ** 2
    level = np.arange(a.shape[1])
    lo = np.full(a.shape, _ordered(np.float64(-1.75).view(np.int64)))
    hi = np.full(a.shape, _ordered(np.float64(1.75).view(np.int64)))
    for _ in range(HALVINGS):
        mid = (lo + hi) >> 1
        above = _counts_below(a, b2, _ordered(mid).view(np.float64)) > level
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return np.sort(_ordered(lo).view(np.float64) / scale, axis=1)


def hermitian_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of Hermitian matrices, shape (P, d, d).

    ``a`` is finite float64 (real symmetric) or complex128 (Hermitian) and
    is left unchanged.  Each matrix is scaled by a power of two (exact) so
    its largest entry is below 1, reduced by :func:`_tridiagonalize` and
    bisected by :func:`tridiagonal_eigvals`.  Returns the (P, d) levels,
    ascending in each row; a level past float range raises ValueError.
    """
    scale = _power_of_two_scale(a)
    levels = tridiagonal_eigvals(*_tridiagonalize(a * scale))
    past = np.abs(levels) > np.minimum(scale[:, :, 0], 1.0) * np.finfo(np.float64).max
    if past.any():  # dividing by the (exact) power of two would overflow
        p, i = np.argwhere(past)[0]
        raise ValueError(f"level {i} of matrix {p} is past float range")
    return levels / scale[:, :, 0]
