import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import (
    naive_antipodal_sum,
    naive_ring_sum,
    naive_rung_sum,
    naive_sum,
)
from moebius_csr import _kernels
from moebius_csr._accel import NUMBA_ENABLED

try:
    import numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

needs_numba = pytest.mark.skipif(
    not NUMBA_ENABLED, reason="compiled backend disabled in this environment"
)

FALSY_SPELLINGS = ["0", "false", "off", "no", "FALSE", "Off", "NO", " no ", "\t0\n"]
TRUTHY_SPELLINGS = ["1", "true", "YES", " on "]


def run_fresh(script, flag):
    """Run ``script`` in a new interpreter and return its stdout.

    ``flag`` is the value of ``MOEBIUS_CSR_NUMBA`` in the child's
    environment; ``None`` removes the variable altogether.
    """
    env = dict(os.environ)
    env.pop("MOEBIUS_CSR_NUMBA", None)
    if flag is not None:
        env["MOEBIUS_CSR_NUMBA"] = flag
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def random_symmetric(rng, size):
    x = rng.normal(size=(size, size))
    return (x + x.T) / 2.0


def test_backend_flag_default():
    # with the switch unset, numba is used exactly when it imports cleanly
    script = textwrap.dedent(
        """
        from moebius_csr import _kernels
        from moebius_csr._accel import NUMBA_ENABLED

        compiled = _kernels.jacobi_eigvals is _kernels.jacobi_eigvals_compiled
        fallback = _kernels.jacobi_eigvals is _kernels.jacobi_eigvals_numpy
        print(NUMBA_ENABLED, compiled, fallback)
        """
    )
    enabled, compiled, fallback = run_fresh(script, None).split()
    assert enabled == str(HAVE_NUMBA)
    assert compiled == str(HAVE_NUMBA)
    assert fallback == str(not HAVE_NUMBA)


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


@needs_numba
def test_jacobi_backends_agree():
    rng = np.random.default_rng(12)
    for size in (2, 5, 9, 16):
        a = random_symmetric(rng, size)
        compiled = np.sort(_kernels.jacobi_eigvals_compiled(a.copy(), 1e-12, 100))
        fallback = np.sort(_kernels.jacobi_eigvals_numpy(a.copy(), 1e-12, 100))
        reference = np.linalg.eigvalsh(a)
        assert np.allclose(compiled, fallback, atol=1e-10)
        assert np.allclose(compiled, reference, atol=1e-9)
        assert np.allclose(fallback, reference, atol=1e-9)


def test_numpy_fallback_alone_matches_lapack():
    rng = np.random.default_rng(13)
    for size in (3, 7, 12):
        a = random_symmetric(rng, size)
        got = np.sort(_kernels.jacobi_eigvals_numpy(a.copy(), 1e-12, 100))
        assert np.allclose(got, np.linalg.eigvalsh(a), atol=1e-9)


def test_disabled_backend_subprocess():
    script = textwrap.dedent(
        """
        import numpy as np
        from moebius_csr import _kernels
        from moebius_csr._accel import NUMBA_ENABLED
        from moebius_csr.hamiltonian import HoppingParams, assemble, eigenvalues
        from moebius_csr.lattice import build_moebius

        assert not NUMBA_ENABLED
        assert _kernels.jacobi_eigvals is _kernels.jacobi_eigvals_numpy

        h = assemble(build_moebius(3, 2), HoppingParams(t1=1.0, t2=0.4, phi=0.3))
        got = eigenvalues(h)
        want = np.linalg.eigvalsh(h)
        assert np.allclose(got, want, atol=1e-9), (got, want)
        print("fallback-ok")
        """
    )
    assert "fallback-ok" in run_fresh(script, "0")


def test_truthy_and_falsy_flag_spellings():
    # a falsy spelling always forces the fallback; a truthy one only asks
    # for numba, which is granted when numba imports
    script = (
        "from moebius_csr import _accel; "
        "print(_accel._want_numba, _accel.NUMBA_ENABLED)"
    )
    for value in FALSY_SPELLINGS:
        assert run_fresh(script, value).split() == ["False", "False"], repr(value)
    for value in TRUTHY_SPELLINGS:
        assert run_fresh(script, value).split() == ["True", str(HAVE_NUMBA)], repr(value)
