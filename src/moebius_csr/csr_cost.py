"""Cost function of corporate social contributions on the twisted strip.

Firms sit on the ``2N x M`` lattice.  Firm ``(n, m)`` chooses a monetary
outlay ``c[n, m] >= 0`` and a contribution level ``a[n, m]`` in ``[0, 1)``.
The cost functional is

    H = -sum(c)
        + t1 * (1 - delta) * sum_ring  a[n, m] * a[n+1, m]     (cyclic in n)
        + t2               * sum_rung  a[n, m] * a[n, m+1]
        + (t2 / 2)         * sum_anti  a[n, M] * a[n+N, M]

where the ring sum pairs neighbors along each wire (counted once per
directed bond), the rung sum pairs sector neighbors across wires, and the
antipodal sum runs over all ``2N`` rows of the outermost wire, visiting
each loyalty pair twice; the ``1/2`` prefactor restores single counting.
``delta`` discounts neighborhood cooperation relative to sector
cooperation.

Every sum runs in a fixed order (row ``n`` outer, column ``m`` inner) with
float64 accumulation, so results are bit-for-bit reproducible and the four
addends recombine to the total exactly.  :func:`total_hcsr` validates each
matrix once and returns every addend as a field of :class:`CostBreakdown`;
read the neighborhood, sector and loyalty terms from there.  The sums are the ordered
``np.cumsum`` kernels of :mod:`moebius_csr._kernels`, which equal naive
row-major loops bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    sum_all,
    sum_antipodal_products,
    sum_ring_products,
    sum_rung_products,
)


@dataclass(frozen=True)
class CsrParams:
    """Cooperation weights ``t1``, ``t2`` and neighborhood discount ``delta``."""

    t1: float
    t2: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("t1", "t2", "delta"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.t1 < 0.0 or self.t2 < 0.0:
            raise ValueError("t1 and t2 must be >= 0")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


def _as_grid(x, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got {arr.ndim}-d")
    rows, cols = arr.shape
    if rows < 2 or rows % 2 != 0:
        raise ValueError(f"{name} needs an even row count >= 2, got {rows}")
    if cols < 1:
        raise ValueError(f"{name} needs at least one column")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class CostBreakdown:
    """The four addends of the cost functional and their exact sum.

    ``total == ((cost + neighborhood) + sector) + loyalty`` holds bit for
    bit; ``cost`` is the (negative) outlay addend ``-sum(c)``.
    """

    cost: float
    neighborhood: float
    sector: float
    loyalty: float
    total: float


def total_hcsr(a, c, params: CsrParams) -> CostBreakdown:
    """Evaluate the cost functional for contribution levels ``a`` in [0, 1)
    and outlays ``c >= 0``, both of shape (2N, M); a total past float range
    raises ValueError naming the first such term."""
    arr_a = _as_grid(a, "contribution matrix")
    if np.any(arr_a < 0.0) or np.any(arr_a >= 1.0):
        raise ValueError("contribution entries must lie in [0, 1)")
    arr_c = _as_grid(c, "cost matrix")
    if np.any(arr_c < 0.0):
        raise ValueError("cost entries must be >= 0")
    if arr_a.shape != arr_c.shape:
        raise ValueError(
            f"shape mismatch: contributions {arr_a.shape} vs costs {arr_c.shape}"
        )
    with np.errstate(over="ignore"):  # an outlay sum past float range is named below
        cost = -sum_all(arr_c)
    neighborhood = params.t1 * (1.0 - params.delta) * sum_ring_products(arr_a)
    sector = params.t2 * sum_rung_products(arr_a)
    # the raw antipodal sum counts each pair twice; t2/2 single-counts it
    loyalty = (params.t2 / 2.0) * sum_antipodal_products(arr_a)
    total = ((cost + neighborhood) + sector) + loyalty
    terms = dict(cost=cost, neighborhood=neighborhood, sector=sector, loyalty=loyalty)
    if not math.isfinite(total):  # a term is not finite, or the sum of finite ones
        name = next((k for k, v in terms.items() if not math.isfinite(v)), "total")
        raise ValueError(f"{name} past float range ({terms.get(name, total)!r})")
    return CostBreakdown(**terms, total=total)
