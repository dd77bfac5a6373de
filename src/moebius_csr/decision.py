"""Uniform-contribution investment decision on the twisted strip.

When every firm on a ``2N x M`` strip chooses the same contribution level
``a`` and the same outlay ``c``, the benefit of contributing is priced at
``2NMa`` per unit outlay, the cooperation weights follow the technology
rule ``t1 = t2 = t(c) = k * (c * a) ** beta``, and the cost functional
collapses to a single-variable objective

    H(c) = -2*N*M*a*c
           + k * c**beta * N * a**(2 + beta) * (2*M*(1 - delta) + 2*(M - 1))
           + k * c**beta * N * a**(lam + beta)

where ``lam`` is the loyalty exponent (how many contribution factors the
half-turn pairing carries; 4 by default, 2 for the variant that keeps the
pairing quadratic like the other terms).  Grouping the powers of ``a``
gives the bracket

    B = 2*M*(2 - delta) - 2 + a**(lam - 2)

so that  H'(c) = -2*N*M*a + beta*k*c**(beta - 1)*N*a**(2 + beta)*B.

:func:`hcsr_of_c` evaluates H in the technology-rule grouping

    H(c) = t(c) * a * a * (N*B) - 2*N*M*a*c,

``t`` first and then left to right.  Each factor after ``t`` is finite, so
H stays finite (or overflows to ``inf``) for as long as the cooperation
weight does; the expanded form's ``c**beta * a**(2 + beta)`` gives
``inf * 0 = nan`` when ``c**beta`` overflows while ``a**(2 + beta)``
underflows.  The power is ``np.power`` on scalars and arrays alike, so a
scalar evaluation equals the array evaluation bit for bit.

The firm maximizes H over the budget interval ``0 <= c <= p - w`` (sale
price minus wage).  The stationary point, when one exists, is

    c* = (2*M / (beta*k*a**(1 + beta)*B)) ** (1/(beta - 1))      beta > 1
    c* = ((beta*k*a**(1 + beta)*B) / (2*M)) ** (1/(1 - beta))    beta < 1

a local minimum of H for ``beta > 1`` (the optimum then sits on a budget
boundary) and a local maximum for ``beta < 1``.  For ``beta == 1`` the
derivative is constant and the sign of ``k*a**2*B - 2*M`` decides which
boundary wins.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .lattice import is_int


class BetaRegime(enum.Enum):
    """Which side of the knife edge ``beta == 1`` a scenario sits on."""

    BETA_ABOVE_ONE = "BetaAboveOne"
    BETA_BELOW_ONE = "BetaBelowOne"
    BETA_EQUAL_ONE = "BetaEqualOne"


class StationaryKind(enum.Enum):
    LOCAL_MAX = "LocalMax"
    LOCAL_MIN = "LocalMin"
    FLAT_DERIVATIVE = "FlatDerivative"


# Each scenario-file key, the CsrScenario field it sets and that field's
# type.  A key whose field has a default (``lambda``) may be left out.
SCENARIO_KEYS = (
    ("N", "N", int),
    ("M", "M", int),
    ("a", "a", float),
    ("k", "k", float),
    ("beta", "beta", float),
    ("delta", "delta", float),
    ("p", "p", float),
    ("w", "w", float),
    ("lambda", "loyalty_exponent", int),
)

_FLOAT_FIELDS = tuple(name for _, name, kind in SCENARIO_KEYS if kind is float)

LOYALTY_EXPONENTS = (2, 4)


def _scenario_value(key: str, value, kind: type):
    """``value`` of scenario-file ``key`` converted to ``kind``.

    Raises ValueError naming the key unless ``value`` is a real number
    other than a bool and, for an int field, finite and integral.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if kind is float:
                return float(value)
            if value == math.floor(value):
                return int(value)
        except (OverflowError, ValueError):  # past float range, inf or nan
            pass
    noun = "an integer" if kind is int else "a number"
    raise ValueError(f"scenario key {key} must be {noun}, got {value!r}")


@dataclass(frozen=True)
class CsrScenario:
    """Economic parameters of the uniform-contribution decision problem.

    ``N`` and ``M`` set the strip (2N firms per wire, M wires), ``a`` is
    the common contribution level, ``k``/``beta`` the technology rule for
    the cooperation weights, ``delta`` the neighborhood discount, ``p``
    the sale price, ``w`` the wage, and ``loyalty_exponent`` the power of
    ``a`` carried by the half-turn pairing (2 or 4).
    """

    N: int
    M: int
    a: float
    k: float
    beta: float
    delta: float
    p: float
    w: float
    loyalty_exponent: int = 4

    def __post_init__(self) -> None:
        for name, value in (("N", self.N), ("M", self.M)):
            if not (is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name in _FLOAT_FIELDS:
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (0.0 <= self.a < 1.0):
            raise ValueError(f"a must lie in [0, 1), got {self.a}")
        if self.k <= 0.0:
            raise ValueError(f"k must be > 0, got {self.k}")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.p < 0.0 or self.w < 0.0:
            raise ValueError("p and w must be >= 0")
        if self.loyalty_exponent not in LOYALTY_EXPONENTS:
            raise ValueError(
                f"loyalty exponent must be 2 or 4, got {self.loyalty_exponent!r}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "CsrScenario":
        """Build from a scenario-file mapping keyed as in ``SCENARIO_KEYS``.

        Every value must be a real number (NumPy scalars included), never a
        bool.  ``N``, ``M`` and ``lambda`` must also be finite and integral,
        so ``10.0`` loads as 10; ``lambda`` may be left out and defaults to
        4.  Anything else raises ValueError naming the key.
        """
        unknown = sorted(set(data) - {key for key, _, _ in SCENARIO_KEYS})
        if unknown:
            raise ValueError(f"unknown scenario keys: {', '.join(unknown)}")
        optional = {f.name for f in fields(cls) if f.default is not MISSING}
        missing = sorted(
            key
            for key, name, _ in SCENARIO_KEYS
            if key not in data and name not in optional
        )
        if missing:
            raise ValueError(f"missing scenario keys: {', '.join(missing)}")
        return cls(
            **{
                name: _scenario_value(key, data[key], kind)
                for key, name, kind in SCENARIO_KEYS
                if key in data
            }
        )

    def to_dict(self) -> dict:
        return {key: getattr(self, name) for key, name, _ in SCENARIO_KEYS}


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of the constrained maximization of H over the budget.

    ``stationary`` is the closed-form stationary point (None when there is
    none), reported alongside the true optimum even when the two disagree;
    ``feasible`` states whether the margin constraint
    ``N*M*a*(p - w - c) >= 0`` holds at the chosen outlay.
    """

    stationary: float | None
    stationary_kind: StationaryKind | None
    constrained_opt: float
    objective_at_opt: float
    case: BetaRegime
    feasible: bool


def profit_baseline(scenario: CsrScenario) -> float:
    """Aggregate margin N*M*a*(p - w) before any outlay is spent."""
    s = scenario
    return s.N * s.M * s.a * (s.p - s.w)


def bracket(scenario: CsrScenario) -> float:
    """B = 2*M*(2 - delta) - 2 + a**(lam - 2); strictly positive."""
    s = scenario
    return 2.0 * s.M * (2.0 - s.delta) - 2.0 + float(
        np.float64(s.a) ** (s.loyalty_exponent - 2)
    )


def _objective(scenario: CsrScenario):
    """H as a function of the outlay, with the scenario's constants computed once.

    The returned ``h`` takes a float or a float64 array of outlays ``>= 0``
    and does no checks.  Callers hold ``np.errstate(over="ignore")``.
    """
    s = scenario
    a, k, beta = s.a, s.k, s.beta
    nb = s.N * bracket(s)
    slope = 2.0 * s.N * s.M * s.a

    def h(c):
        return k * np.power(c * a, beta) * a * a * nb - slope * c

    return h


def hcsr_of_c(c, scenario: CsrScenario):
    """Objective H(c); accepts a scalar or an array of outlays >= 0."""
    arr = np.asarray(c, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("c must be finite")
    if np.any(arr < 0.0):
        raise ValueError("c must be >= 0")
    with np.errstate(over="ignore"):
        value = _objective(scenario)(arr)
    if arr.ndim == 0:
        return float(value)
    return value


def dhcsr_dc(c, scenario: CsrScenario):
    """Derivative H'(c) for outlays > 0; scalar or array."""
    s = scenario
    arr = np.asarray(c, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("c must be finite")
    if np.any(arr <= 0.0):
        raise ValueError("c must be > 0")
    with np.errstate(over="ignore"):
        value = (
            -2.0 * s.N * s.M * s.a
            + s.beta
            * s.k
            * arr ** (s.beta - 1.0)
            * s.N
            * np.float64(s.a) ** (2.0 + s.beta)
            * bracket(s)
        )
    if arr.ndim == 0:
        return float(value)
    return value


def beta_regime(scenario: CsrScenario) -> BetaRegime:
    if scenario.beta > 1.0:
        return BetaRegime.BETA_ABOVE_ONE
    if scenario.beta < 1.0:
        return BetaRegime.BETA_BELOW_ONE
    return BetaRegime.BETA_EQUAL_ONE


def stationary_closed_form(scenario: CsrScenario) -> float | None:
    """Positive root of H'(c) = 0, or None when no stationary point exists.

    There is none for ``beta == 1`` (constant derivative) and for ``a == 0``
    (H vanishes identically).  Extreme parameter combinations can push the
    root past float range; the overflow is returned as ``inf`` rather than
    raised, and downstream code treats it as lying beyond any budget.
    """
    s = scenario
    if s.beta == 1.0 or s.a == 0.0:
        return None
    b = bracket(s)
    # a**(1 + beta) may underflow to 0, and the root is then inf
    with np.errstate(over="ignore", divide="ignore"):
        if s.beta > 1.0:
            base = np.float64(2.0 * s.M) / np.float64(
                s.beta * s.k * np.float64(s.a) ** (1.0 + s.beta) * b
            )
            root = base ** (1.0 / (s.beta - 1.0))
        else:
            base = np.float64(
                s.beta * s.k * np.float64(s.a) ** (1.0 + s.beta) * b
            ) / np.float64(2.0 * s.M)
            root = base ** (1.0 / (1.0 - s.beta))
    return float(root)


def classify_stationary(scenario: CsrScenario) -> StationaryKind | None:
    """Nature of the stationary point: minimum above the knife edge
    (``beta > 1``), maximum below it, constant derivative at ``beta == 1``.
    Returns None when H has no stationary point (``a == 0``)."""
    if scenario.beta == 1.0:
        return StationaryKind.FLAT_DERIVATIVE
    if scenario.a == 0.0:
        return None
    if scenario.beta > 1.0:
        return StationaryKind.LOCAL_MIN
    return StationaryKind.LOCAL_MAX


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    if hi - lo <= tol:
        return 0.5 * (lo + hi)
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv * (hi - lo)
    x2 = lo + inv * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = f(x2)
        else:
            hi = x2
            x2, f2 = x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


def optimize_constrained(scenario: CsrScenario) -> DecisionReport:
    """Maximize H over the budget interval [0, p - w].

    Candidates are the two boundaries plus the interior stationary point
    when it is a local maximum inside the interval; ties go to the
    smallest outlay.  With ``p < w`` the budget is empty, the outlay is
    zero, and the report comes back infeasible (except in the degenerate
    ``a == 0`` case, where the margin constraint holds trivially).
    """
    s = scenario
    budget = max(0.0, s.p - s.w)
    stationary = stationary_closed_form(s)
    kind = classify_stationary(s)

    candidates = [0.0]
    if budget > 0.0:
        if (
            kind is StationaryKind.LOCAL_MAX
            and stationary is not None
            and 0.0 < stationary < budget
        ):
            candidates.append(stationary)
        candidates.append(budget)

    h = _objective(s)
    with np.errstate(over="ignore"):
        best_c = candidates[0]
        best_h = float(h(best_c))
        for c in candidates[1:]:
            value = float(h(c))
            if value > best_h:
                best_c, best_h = c, value

    return DecisionReport(
        stationary=stationary,
        stationary_kind=kind,
        constrained_opt=best_c,
        objective_at_opt=best_h,
        case=beta_regime(s),
        feasible=s.N * s.M * s.a * (s.p - s.w - best_c) >= 0.0,
    )


def optimize_oracle(
    scenario: CsrScenario, grid_points: int = 10_000
) -> tuple[float, float]:
    """Grid-plus-refinement maximizer of H, independent of the closed form.

    Scans a uniform grid over the budget, refines the best bracket by
    golden section, and keeps the exact boundaries as candidates.  Returns
    ``(c, H(c))``; ties go to the smallest outlay.
    """
    s = scenario
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    budget = max(0.0, s.p - s.w)
    h = _objective(s)
    with np.errstate(over="ignore"):
        best_h = float(h(0.0))
        if budget == 0.0:
            return 0.0, best_h

        grid = np.linspace(0.0, budget, grid_points)
        values = h(grid)
        peak = int(np.argmax(values))
        lo = float(grid[max(peak - 1, 0)])
        hi = float(grid[min(peak + 1, grid_points - 1)])
        refined = _golden_max(h, lo, hi, tol=1e-10 * max(1.0, budget))

        best_c = 0.0
        for c in sorted({float(grid[peak]), refined, budget}):
            value = float(h(c))
            if value > best_h:
                best_c, best_h = c, value
    return best_c, best_h


def comparative_statics(
    scenario: CsrScenario, param: str, step: float = 1e-2
) -> float:
    """Signed sensitivity of the stationary point to one parameter.

    ``delta`` and ``beta`` use a central difference of the closed form
    (the step is halved once if a stepped scenario leaves the valid domain
    or hops across the ``beta == 1`` knife edge, then the computation
    fails).  ``M`` is discrete, so its sensitivity is the forward
    difference ``c*(M+1) - c*(M)``.
    """
    s = scenario
    if s.beta == 1.0 or s.a == 0.0:
        raise ValueError("sensitivity needs a stationary point (beta != 1, a > 0)")

    if param == "M":
        c_here = stationary_closed_form(s)
        c_next = stationary_closed_form(replace(s, M=s.M + 1))
        return c_next - c_here

    if param not in ("delta", "beta"):
        raise ValueError(f"param must be 'delta', 'beta' or 'M', got {param!r}")

    center = float(getattr(s, param))
    for h in (step, step / 2.0):
        try:
            s_hi = replace(s, **{param: center + h})
            s_lo = replace(s, **{param: center - h})
        except ValueError:
            continue
        if param == "beta" and (s_hi.beta - 1.0) * (s_lo.beta - 1.0) <= 0.0:
            continue  # the two closed forms would straddle the knife edge
        c_hi = stationary_closed_form(s_hi)
        c_lo = stationary_closed_form(s_lo)
        return (c_hi - c_lo) / (2.0 * h)
    raise ValueError(
        f"cannot step {param} by {step} (or half) without leaving the domain"
    )
