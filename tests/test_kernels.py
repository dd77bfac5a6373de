import math
import warnings

import numpy as np

from conftest import (
    naive_antipodal_sum,
    naive_ring_sum,
    naive_rung_sum,
    naive_sum,
)
from moebius_csr import _kernels
from moebius_csr.hamiltonian import HoppingParams, assemble
from moebius_csr.lattice import build_moebius

def random_symmetric(rng, size):
    x = rng.normal(size=(size, size))
    return (x + x.T) / 2.0


def random_unitary(rng, size):
    z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def solve(a):
    """Solver levels of ``a``, after checking the solver's contract."""
    before = a.copy()
    levels = _kernels.hermitian_eigvals(a[None])[0]
    assert np.array_equal(a, before)  # the input is only read
    assert levels.dtype == np.float64 and levels.shape == (a.shape[0],)
    assert np.all(np.diff(levels) >= 0.0)
    return levels


def assert_matches_lapack(a):
    want = np.linalg.eigvalsh(a)
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(solve(a), want, rtol=0.0, atol=1e-12 * scale)


def test_solver_real_symmetric_matches_lapack():
    rng = np.random.default_rng(13)
    for size in range(1, 41):
        assert_matches_lapack(random_symmetric(rng, size))
    # a stack is solved in one call, every matrix to the same accuracy
    stack = np.stack([random_symmetric(rng, 12) for _ in range(5)])
    want = np.linalg.eigvalsh(stack)
    np.testing.assert_allclose(
        _kernels.hermitian_eigvals(stack), want, rtol=0.0, atol=1e-12 * np.abs(want).max()
    )


def test_solver_complex_hermitian_with_exact_degeneracies():
    rng = np.random.default_rng(14)
    # levels with multiplicities 1 to 4, rotated by a random unitary
    for spectrum in ([2.0, 2.0], [-1.0, 0.5, 0.5, 0.5, 3.0], [0.0] * 3 + [1.5] * 4 + [-2.0]):
        u = random_unitary(rng, len(spectrum))
        h = (u * spectrum) @ u.conj().T
        h = (h + h.conj().T) / 2.0
        assert_matches_lapack(h)
        np.testing.assert_allclose(solve(h), np.sort(spectrum), rtol=0.0, atol=1e-12)
    # two identical purely imaginary blocks: exact ties with no real part
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[2, 3] = 1j
    h[1, 0] = h[3, 2] = -1j
    np.testing.assert_allclose(solve(h), [-1.0, -1.0, 1.0, 1.0], rtol=0.0, atol=1e-12)
    # strip Hamiltonians at complex flux points
    for h in (assemble(build_moebius(3, 2), HoppingParams(t1=1.0, t2=0.4, phi=0.3)),
              assemble(build_moebius(2, 1), HoppingParams(t1=1.0, t2=1.0, phi=0.5))):
        assert np.any(h.imag)
        assert_matches_lapack(h)


def test_solver_diagonal_input_comes_back_exact():
    diag = np.array([3.0, -0.0, -1.5, 1e-300, 2.0])
    for a in (np.diag(diag), np.diag(diag).astype(complex)):
        assert np.array_equal(solve(a), np.sort(diag))
    # a chain that has fallen apart into 1x1 blocks is diagonal too
    levels = _kernels.tridiagonal_eigvals(diag[None], np.zeros((1, 4)))
    assert np.array_equal(levels[0], np.sort(diag))


def test_solver_tiny_pivot_point():
    # the Moebius (4,1) flux point whose Jacobi run met pivots small enough
    # to overflow a quotient, a first pivot far below its diagonal gap,
    # with the gap of either sign, and off-diagonals whose squares underflow
    h = assemble(build_moebius(4, 1), HoppingParams(t1=1.0, t2=0.9, phi=4.4691543028184295))
    tiny = np.array([[0.0, 1e-300, 1.0], [1e-300, 1.0, 0.0], [1.0, 0.0, 2.0]])
    graded = np.array([[1.0, 1e-160, 1e-160], [1e-160, 0.5, 0.3], [1e-160, 0.3, -0.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (h, h.real.copy(), tiny, tiny[::-1, ::-1].copy(), graded):
            assert_matches_lapack(a)


SUM_KERNELS = [
    (_kernels.sum_all, naive_sum),
    (_kernels.sum_ring_products, naive_ring_sum),
    (_kernels.sum_rung_products, naive_rung_sum),
    (_kernels.sum_antipodal_products, naive_antipodal_sum),
]


def test_sum_kernels_bitwise_match_naive_loops():
    # mixed signs over 16 decades make the sum depend on the order of the
    # additions, so only the loops' own row-major order matches bit for bit
    rng = np.random.default_rng(11)
    inputs = [np.array([[0.25], [-0.75]]), np.full((6, 3), -0.0)]
    for _ in range(300):
        rows = 2 * int(rng.integers(1, 41))
        cols = int(rng.integers(1, 21))
        magnitude = 10.0 ** rng.uniform(-16.0, 0.0, (rows, cols))
        inputs.append(rng.choice([-1.0, 1.0], (rows, cols)) * magnitude)
    inputs.append(np.asfortranarray(inputs[-1]))
    for a in inputs:
        for kernel, naive in SUM_KERNELS:
            got = kernel(a)
            want = naive(a)
            assert type(got) is float
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (
                kernel.__name__, a.shape, got, want,
            )
