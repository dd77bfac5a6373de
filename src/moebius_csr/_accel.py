"""Backend selection for the Jacobi eigensolver.

The eigensolver in :mod:`moebius_csr._kernels` comes in two flavors: a
numba-compiled one and a pure-NumPy one (the sum kernels are NumPy
only).  Which flavor the package uses is decided once, at import time:

* ``MOEBIUS_CSR_NUMBA=0`` (also ``false``/``off``/``no``) in the environment
  forces the pure-NumPy fallback,
* otherwise numba is used when it imports cleanly, and the fallback is
  selected silently when it does not.

``NUMBA_ENABLED`` records the outcome so callers (and the benchmark) can
report which path is active.
"""

from __future__ import annotations

import os

_flag = os.environ.get("MOEBIUS_CSR_NUMBA", "1").strip().lower()
_want_numba = _flag not in ("0", "false", "off", "no")

NUMBA_ENABLED = False
if _want_numba:
    try:
        from numba import njit as _numba_njit  # noqa: F401

        NUMBA_ENABLED = True
    except ImportError:
        NUMBA_ENABLED = False


if NUMBA_ENABLED:
    njit = _numba_njit
else:

    def njit(*args, **kwargs):
        """Stand-in for ``numba.njit`` that leaves the function as is."""

        def wrap(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return wrap
