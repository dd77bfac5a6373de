"""The uniform-contribution investment decision on the twisted strip.

When every firm on a ``2N x M`` strip contributes the same level ``a``
and spends the same outlay ``c``, the cost functional collapses to one
objective H(c) (``_objective``), which the firm maximizes over its budget
``0 <= c <= p - w``.  The module holds the scenario (``CsrScenario``),
H and its bracket (``hcsr_of_c``, ``bracket``), the stationary point and
its kind (``stationary_closed_form``, ``classify_stationary``), the
optimizer over the budget (``optimize_constrained``), a grid oracle that
does without the closed form (``optimize_oracle``) and the sensitivity of
the stationary point (``comparative_statics``).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import MISSING, dataclass, fields

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

LOYALTY_EXPONENTS = (2, 4)

STATICS_STEP = 1e-2  # half-width of the central difference in comparative_statics


def _scenario_value(key: str, value, kind: type):
    """``value`` of scenario-file ``key`` converted to ``kind``; ValueError
    naming the key unless it is a real number other than a bool and, for
    an int field, finite and integral (so ``10.0`` loads as 10)."""
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


def _check_domain(N, M, a, k, beta, delta, p, w, loyalty_exponent) -> None:
    """Raise ValueError naming the first field outside the scenario domain,
    for ``CsrScenario`` and the stepped fields of ``comparative_statics``."""
    for name, value in (("a", a), ("k", k), ("beta", beta), ("delta", delta), ("p", p),
                        ("w", w)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if N < 1 or M < 1:
        raise ValueError(f"N and M must be >= 1, got N={N}, M={M}")
    try:
        size = 4.0 * N * M
    except OverflowError:  # N past float range
        size = math.inf
    if not math.isfinite(size):
        raise ValueError("N and M too large: 4*N*M must be a finite float")
    if not (0.0 <= a < 1.0):
        raise ValueError(f"a must lie in [0, 1), got {a}")
    if k <= 0.0:
        raise ValueError(f"k must be > 0, got {k}")
    if beta <= 0.0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if p < 0.0 or w < 0.0:
        raise ValueError("p and w must be >= 0")
    if loyalty_exponent not in LOYALTY_EXPONENTS:
        raise ValueError(f"loyalty exponent must be 2 or 4, got {loyalty_exponent!r}")


@dataclass(frozen=True)
class CsrScenario:
    """Economic parameters of the uniform-contribution decision problem.

    ``N`` and ``M`` set the strip (2N firms per wire, M wires), ``a`` is
    the common contribution level, ``k``/``beta`` the technology rule for
    the cooperation weights, ``delta`` the neighborhood discount, ``p``
    the sale price, ``w`` the wage, and ``loyalty_exponent`` the power of
    ``a`` carried by the half-turn pairing (2 or 4).  Counts take ints or
    NumPy integers, never bools or floats.
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
        # store each field as the type SCENARIO_KEYS names; a value of exactly
        # that type (the common case, as in ``replace``) skips the conversion
        for _, name, kind in SCENARIO_KEYS:
            value = getattr(self, name)
            if type(value) is not kind:
                if kind is int and not is_int(value):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
                if not isinstance(value, numbers.Real) or isinstance(value, bool):
                    raise ValueError(f"{name} must be a real number, got {value!r}")
                try:
                    value = kind(value)
                except OverflowError:  # an int past float range
                    value = math.inf
                object.__setattr__(self, name, value)
        _check_domain(self.N, self.M, self.a, self.k, self.beta, self.delta,
                      self.p, self.w, self.loyalty_exponent)

    @classmethod
    def from_dict(cls, data: dict) -> "CsrScenario":
        """Build from a scenario-file mapping keyed as in ``SCENARIO_KEYS``,
        each value converted by ``_scenario_value``; an unknown or missing
        key raises ValueError."""
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
    ``feasible`` states whether the margin ``N*M*a*(p - w - c)`` is
    non-negative at the chosen outlay.
    """

    stationary: float | None
    stationary_kind: StationaryKind | None
    constrained_opt: float
    objective_at_opt: float
    case: BetaRegime
    feasible: bool


def bracket(scenario: CsrScenario) -> float:
    """B = 2*M*(2 - delta) - 2 + a**(lam - 2), strictly positive: the
    neighborhood (``2*M*(1 - delta)``), sector (``2*(M - 1)``) and loyalty
    (``a**(lam - 2)``, ``lam`` the loyalty exponent) addends of H per
    ``k*(c*a)**beta*a*a*N``."""
    s = scenario
    return _bracket(s.M, s.a, s.delta, s.loyalty_exponent)


def _bracket(M, a, delta, loyalty_exponent) -> float:
    return 2.0 * M * (2.0 - delta) - 2.0 + a ** (loyalty_exponent - 2)


def _float_pow(x: float, y: float) -> float:
    """``x ** y`` in Python floats, ``inf`` past float range."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def _objective(scenario: CsrScenario, power=np.power):
    """H(c) = t(c) * a * a * (N*B) - 2*N*M*a*c, with ``t(c) = k * (c*a)**beta``
    the technology rule for the cooperation weights and ``2*N*M*a`` the
    price of a unit outlay.

    Taken ``t`` first and then left to right, the gain is finite or
    ``inf``, never the ``inf * 0`` of the expanded ``c**beta * a**(2 +
    beta)``; H is ``inf - inf = nan`` only where both terms overflow
    (``_nan_rank``).  The returned function takes a float or a float64
    array of outlays ``>= 0`` and checks nothing.  Every H that is
    reported or compared takes ``(c*a)**beta`` by ``power=np.power``,
    under ``np.errstate(over="ignore")``, so a scalar H equals the array H
    bit for bit (libm's ``pow`` differs from NumPy's in the last bit on
    some inputs).  Only ``optimize_oracle``'s golden section, which
    reports none of its H, passes ``_float_pow``: a NumPy call on one
    float costs several times its arithmetic.
    """
    s = scenario
    a, k, beta = s.a, s.k, s.beta
    nb = s.N * bracket(s)
    slope = 2.0 * s.N * s.M * s.a

    def h(c):
        return k * power(c * a, beta) * a * a * nb - slope * c

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
    return float(value) if arr.ndim == 0 else value


def beta_regime(scenario: CsrScenario) -> BetaRegime:
    if scenario.beta > 1.0:
        return BetaRegime.BETA_ABOVE_ONE
    if scenario.beta < 1.0:
        return BetaRegime.BETA_BELOW_ONE
    return BetaRegime.BETA_EQUAL_ONE


def stationary_closed_form(scenario: CsrScenario) -> float | None:
    """The stationary point of H (H'(c) = 0), or None when there is none:

        c* = (2*M / (beta*k*a**(1 + beta)*B)) ** (1/(beta - 1)),

    a local minimum of H for ``beta > 1`` (the best outlay then sits on a
    budget boundary) and a local maximum for ``beta < 1``.  At ``beta ==
    1`` H' is constant and the sign of ``k*a**2*B - 2*M`` picks the
    boundary; at ``a == 0`` H vanishes.  A root past float range comes
    back as ``inf``, which callers treat as lying beyond any budget.
    """
    s = scenario
    return _root(s.M, s.a, s.k, s.beta, s.delta, s.loyalty_exponent)


def _root(M, a, k, beta, delta, loyalty_exponent) -> float | None:
    """``stationary_closed_form`` of the plain fields, unchecked."""
    if beta == 1.0 or a == 0.0:
        return None
    # a**(1 + beta) may underflow to 0, and the base is then inf; as the
    # first factor before finite ones it never forms inf * 0.  Python floats
    # raise where NumPy would return inf: 2M / 0, a finite power past float
    # range, and 0.0 to a negative power.
    try:
        b = _bracket(M, a, delta, loyalty_exponent)
        base = 2.0 * M / (a ** (1.0 + beta) * b * k * beta)
    except ZeroDivisionError:
        base = math.inf
    try:
        return base ** (1.0 / (beta - 1.0))
    except (OverflowError, ZeroDivisionError):
        return math.inf


_STATIONARY_KIND = {
    BetaRegime.BETA_ABOVE_ONE: StationaryKind.LOCAL_MIN,
    BetaRegime.BETA_BELOW_ONE: StationaryKind.LOCAL_MAX,
    BetaRegime.BETA_EQUAL_ONE: StationaryKind.FLAT_DERIVATIVE,
}


def classify_stationary(scenario: CsrScenario) -> StationaryKind | None:
    """Kind of ``stationary_closed_form``'s point by the regime of beta;
    None when H has none (``a == 0``, ``beta != 1``)."""
    regime = beta_regime(scenario)
    if scenario.a == 0.0 and regime is not BetaRegime.BETA_EQUAL_ONE:
        return None
    return _STATIONARY_KIND[regime]


def _nan_rank(c, scenario: CsrScenario):
    """Rank of a NaN H (``inf - inf``) at outlays ``c > 0``, float or
    array: ``inf`` where the log of ``t * a * a * (N*B)`` exceeds that of
    ``2*N*M*a*c``, else ``-inf``."""
    s = scenario
    gain = (math.log(s.k) + s.beta * np.log(c * s.a) + 2.0 * math.log(s.a)
            + math.log(s.N * bracket(s)))
    loss = math.log(2.0 * s.N * s.M * s.a) + np.log(c)
    return np.where(gain > loss, np.inf, -np.inf)


def _best(scored, scenario: CsrScenario) -> tuple[float, float]:
    """The first of the scored ``(c, H(c))`` pairs with the largest H, a
    NaN H ranked by ``_nan_rank``.  Callers list the pairs in ascending c,
    so a tie goes to the smallest outlay.  A winning H that is not finite
    raises ValueError naming the outlay."""
    c, value = max(
        scored,
        key=lambda cv: cv[1] if cv[1] == cv[1] else float(_nan_rank(cv[0], scenario)),
    )
    if not math.isfinite(value):
        raise ValueError(f"H past float range at outlay c={c!r} (H={value!r})")
    return c, value


def _golden_max(f, lo: float, hi: float) -> float:
    """Golden-section maximization of a unimodal f on [lo, hi] over
    ``log c`` (floored at the smallest normal float) to a width of 1e-6.
    At an interior maximum of H ``c**2 * |H''| = beta * |H|`` with
    ``beta < 1``, so this puts H within 1e-12 of itself however far below
    the grid's step the maximizer lies.  Ties step toward larger c, so
    where H is flat in floats the search does not sink to ``c*a == 0``."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    u_lo = math.log(max(lo, 2.0**-1022))
    u_hi = math.log(max(hi, 2.0**-1022))
    u1 = u_hi - inv * (u_hi - u_lo)
    u2 = u_lo + inv * (u_hi - u_lo)
    f1 = f(math.exp(u1))
    f2 = f(math.exp(u2))
    while u_hi - u_lo > 1e-6:
        if f1 <= f2:
            u_lo = u1
            u1, f1 = u2, f2
            u2 = u_lo + inv * (u_hi - u_lo)
            f2 = f(math.exp(u2))
        else:
            u_hi = u2
            u2, f2 = u1, f1
            u1 = u_hi - inv * (u_hi - u_lo)
            f1 = f(math.exp(u1))
    return min(max(math.exp(0.5 * (u_lo + u_hi)), lo), hi)


def optimize_constrained(scenario: CsrScenario) -> DecisionReport:
    """Maximize H over the budget interval [0, p - w]: ``_best`` of the
    two boundaries and of c* when it is a local maximum inside.  With
    ``p < w`` the budget is empty, the outlay 0 and the report infeasible
    unless ``a == 0``, where the margin vanishes."""
    s = scenario
    budget = max(0.0, s.p - s.w)
    stationary = stationary_closed_form(s)
    kind = classify_stationary(s)

    candidates = [0.0]
    if budget > 0.0:
        # LOCAL_MAX means beta < 1 and a > 0, so the root exists
        if kind is StationaryKind.LOCAL_MAX and 0.0 < stationary < budget:
            candidates.append(stationary)
        candidates.append(budget)
    h = _objective(s)
    with np.errstate(over="ignore", invalid="ignore"):
        best_c, best_h = _best([(c, float(h(c))) for c in candidates], s)

    return DecisionReport(
        stationary=stationary,
        stationary_kind=kind,
        constrained_opt=best_c,
        objective_at_opt=best_h,
        case=beta_regime(s),
        feasible=s.a == 0.0 or s.p - s.w - best_c >= 0.0,
    )


def _uniform_grid(stop: float, n: int) -> np.ndarray:
    """``np.linspace(0.0, stop, n)`` bit for bit, for ``stop >= 0`` and
    ``n >= 2``, without its per-call overhead, and clamped to ``stop``."""
    grid = np.arange(n, dtype=np.float64)
    step = stop / (n - 1)
    if step:
        grid *= step
        if step < 2.0**-1022:  # a subnormal step keeps few bits and overshoots
            np.minimum(grid, stop, out=grid)
    else:  # the step underflowed to 0; np.linspace then scales in two
        grid /= n - 1
        grid *= stop
    grid[-1] = stop
    return grid


def optimize_oracle(
    scenario: CsrScenario, grid_points: int = 10_000
) -> tuple[float, float]:
    """Grid-plus-refinement maximizer of H, independent of the closed form:
    ``_best`` of 0, the peak of a uniform grid over the budget, its
    refinement by ``_golden_max`` and the budget, as ``(c, H(c))``.  Only
    the refinement is scored afresh; the others keep their grid scores."""
    s = scenario
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    budget = max(0.0, s.p - s.w)
    h = _objective(s)
    if budget == 0.0:
        return _best([(0.0, float(h(0.0)))], s)
    grid = _uniform_grid(budget, grid_points)  # pins 0 and the budget exactly
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = h(grid)
        peak = int(np.argmax(values))
        if math.isnan(values[peak]):  # argmax stops at the first NaN
            peak = int(np.argmax(np.where(np.isnan(values), _nan_rank(grid, s), values)))
        refined = _golden_max(
            _objective(s, power=_float_pow),
            float(grid[max(peak - 1, 0)]),
            float(grid[min(peak + 1, grid_points - 1)]),
        )
        scored = [(refined, float(h(refined)))]
    scored += [(float(grid[i]), float(values[i])) for i in (0, peak, grid_points - 1)]
    return _best(sorted(scored), s)


def comparative_statics(scenario: CsrScenario, param: str) -> float:
    """Signed sensitivity of the stationary point to one parameter.

    ``delta`` and ``beta`` use a central difference of the closed-form root
    of the stepped fields, with step ``STATICS_STEP`` (halved once if a
    stepped field leaves the domain or hops across the ``beta == 1`` knife
    edge, then the computation fails).  ``M`` is discrete, so its
    sensitivity is the forward difference ``c*(M+1) - c*(M)``.  A
    difference that is not finite (a root past float range) raises ValueError.
    """
    s = scenario
    if s.beta == 1.0 or s.a == 0.0:
        raise ValueError("sensitivity needs a stationary point (beta != 1, a > 0)")

    def root(M=s.M, beta=s.beta, delta=s.delta):
        _check_domain(s.N, M, s.a, s.k, beta, delta, s.p, s.w, s.loyalty_exponent)
        return _root(M, s.a, s.k, beta, delta, s.loyalty_exponent)

    if param == "M":
        diff = root(M=s.M + 1) - stationary_closed_form(s)
    elif param in ("delta", "beta"):
        center = getattr(s, param)
        for h in (STATICS_STEP, STATICS_STEP / 2.0):
            try:
                c_hi = root(**{param: center + h})
                c_lo = root(**{param: center - h})
            except ValueError:
                continue
            if param == "beta" and (center + h - 1.0) * (center - h - 1.0) <= 0.0:
                continue  # the two closed forms would straddle the knife edge
            diff = (c_hi - c_lo) / (2.0 * h)
            break
        else:
            raise ValueError(
                f"cannot step {param} by {STATICS_STEP} (or half) "
                "without leaving the domain"
            )
    else:
        raise ValueError(f"param must be 'delta', 'beta' or 'M', got {param!r}")
    if not math.isfinite(diff):
        raise ValueError(f"sensitivity to {param} is not finite (root past float range)")
    return diff
