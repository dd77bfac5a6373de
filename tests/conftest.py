"""Shared fixtures and independent reference oracles.

The oracles here deliberately avoid the package's own kernels: plain
Python loops for the bilinear sums (same fixed order, so results must
match bit for bit), bisection for first-order-condition roots of H' in
the paper's expanded form, and ``numpy.linalg`` for spectra.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from moebius_csr.decision import CsrScenario

# Child interpreters started by the tests (``python -m moebius_csr`` and the
# fresh-import checks) import the same source tree as this process, which
# ``pythonpath`` in pyproject.toml puts on sys.path.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part
)


@pytest.fixture
def s0() -> CsrScenario:
    return CsrScenario(N=10, M=2, a=0.5, k=2.0, beta=2.0, delta=0.1, p=3.0, w=1.0)


@pytest.fixture
def s1() -> CsrScenario:
    return CsrScenario(N=10, M=2, a=0.5, k=2.0, beta=0.5, delta=0.1, p=3.0, w=1.0)


@pytest.fixture
def s2() -> CsrScenario:
    return CsrScenario(N=5, M=2, a=0.9, k=1.0, beta=1.0, delta=0.2, p=3.0, w=1.0)


def random_scenario(rng: np.random.Generator, regime: str | None = None) -> CsrScenario:
    """Valid scenario with beta drawn away from the knife edge at 1.

    ``regime`` forces 'below' or 'above'; default alternates randomly.
    """
    if regime is None:
        regime = "below" if rng.random() < 0.5 else "above"
    if regime == "below":
        beta = float(rng.uniform(0.15, 0.85))
    elif regime == "above":
        beta = float(rng.uniform(1.15, 3.8))
    else:
        raise ValueError(regime)
    w = float(rng.uniform(0.0, 2.0))
    return CsrScenario(
        N=int(rng.integers(1, 7)),
        M=int(rng.integers(1, 5)),
        a=float(rng.uniform(0.1, 0.9)),
        k=float(rng.uniform(0.3, 3.0)),
        beta=beta,
        delta=float(rng.uniform(0.05, 0.95)),
        p=w + float(rng.uniform(0.2, 4.2)),
        w=w,
        loyalty_exponent=int(rng.choice([2, 4])),
    )


def naive_sum(x: np.ndarray) -> float:
    """Plain-loop full sum, rows outer, columns inner."""
    acc = 0.0
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            acc += float(x[i, j])
    return acc


def naive_ring_sum(a: np.ndarray) -> float:
    rows, cols = a.shape
    acc = 0.0
    for i in range(rows):
        for j in range(cols):
            acc += float(a[i, j]) * float(a[(i + 1) % rows, j])
    return acc


def naive_rung_sum(a: np.ndarray) -> float:
    rows, cols = a.shape
    acc = 0.0
    for i in range(rows):
        for j in range(cols - 1):
            acc += float(a[i, j]) * float(a[i, j + 1])
    return acc


def naive_antipodal_sum(a: np.ndarray) -> float:
    rows = a.shape[0]
    half = rows // 2
    last = a.shape[1] - 1
    acc = 0.0
    for i in range(rows):
        acc += float(a[i, last]) * float(a[(i + half) % rows, last])
    return acc


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    """Bisection root of a sign-changing scalar function."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def dhcsr_expanded(c: float, s: CsrScenario) -> float:
    """H'(c) in the paper's expanded form, addend by addend and without the
    package's grouping: the outlay's price, then the neighborhood and sector
    addends and the loyalty addend, each differentiated in c."""
    scale = s.beta * s.k * c ** (s.beta - 1.0) * s.N
    neighborhood_and_sector = 2.0 * s.M * (1.0 - s.delta) + 2.0 * (s.M - 1)
    return (
        -2.0 * s.N * s.M * s.a
        + scale * s.a ** (2.0 + s.beta) * neighborhood_and_sector
        + scale * s.a ** (s.loyalty_exponent + s.beta)
    )


def ring_dispersion(N: int, t1: float, phi: float) -> np.ndarray:
    """Analytic eigenvalues of one 2N-site ring with flux, ascending."""
    q = np.arange(2 * N)
    return np.sort(-2.0 * t1 * np.cos(np.pi * q / N - 2.0 * np.pi * phi / N))
