"""The uniform-contribution investment decision on the twisted strip.

When every firm on a ``2N x M`` strip contributes the same level ``a``
and spends the same outlay ``c``, the cost functional collapses to one
objective H(c) (``_objective``), which the firm maximizes over its budget
``0 <= c <= p - w``.  The module holds the scenario (``CsrScenario``),
H and its bracket (``hcsr_of_c``, ``bracket``), the stationary point
(``stationary_closed_form``), the optimizer over the budget, which also
reports the regime of beta and the stationary point's kind
(``optimize_constrained``), a grid oracle that does without the closed
form (``optimize_oracle``) and the sensitivity of the stationary point
(``comparative_statics``).
"""

from __future__ import annotations

import contextlib
import enum
import functools
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
_NO_ERRSTATE = contextlib.nullcontext()  # _objective's error state where H stays finite


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
    if not math.isfinite(a + k + beta + delta + p + w):  # finite only if every field is
        for name, value in zip("a k beta delta p w".split(), (a, k, beta, delta, p, w)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
    if N < 1 or M < 1:
        raise ValueError(f"N and M must be >= 1, got N={N}, M={M}")
    _check_size(N, M)
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


def _check_size(N, M) -> None:
    try:
        size = 4.0 * N * M
    except OverflowError:  # N past float range
        size = math.inf
    if not math.isfinite(size):
        raise ValueError("N and M too large: 4*N*M must be a finite float")


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


def _objective(s: CsrScenario, budget: float):
    """H(c) = t(c) * a * a * (N*B) - 2*N*M*a*c, with ``t(c) = k * (c*a)**beta``
    the technology rule for the cooperation weights and ``2*N*M*a`` the
    price of a unit outlay, so H(0) = 0; as ``(N*B, 2*N*M*a, errstate)``
    for outlays in ``[0, budget]``.

    Taken ``t`` first and then left to right, the gain is finite or
    ``inf``, never the ``inf * 0`` of the expanded ``c**beta * a**(2 +
    beta)``.  Every H that is reported or compared takes ``(c*a)**beta``
    from ``np.power`` (libm's ``pow`` differs in the last bit on some
    inputs): ``_h`` on an array, in place, and ``_h_at`` on one outlay by
    the same operations in order in Python floats, which round as float64
    does and overflow to ``inf`` without a warning, so the two agree bit
    for bit.  The golden section steers by H in Python floats, ``inf`` past
    float range.  ``np.power`` runs inside ``errstate``.  For ``beta > 0``
    both terms of H rise with c, so where ``t``, the gain and the loss at
    the budget lie below 2**1020 (a margin for the last bits of ``pow``)
    no H on ``[0, budget]`` leaves float range, and ``errstate`` is a
    no-op; elsewhere it is ``np.errstate``, silencing overflow, and H is
    ``inf - inf = nan`` where both terms overflow (``_nan_rank``).
    """
    a = s.a
    nb = s.N * _bracket(s.M, a, s.delta, s.loyalty_exponent)
    slope = 2.0 * s.N * s.M * a
    try:
        t = s.k * (budget * a) ** s.beta
    except OverflowError:
        t = math.inf
    if t < 2.0**1020 and t * a * a * nb < 2.0**1020 and slope * budget < 2.0**1020:
        return nb, slope, _NO_ERRSTATE
    return nb, slope, np.errstate(divide="ignore", over="ignore", invalid="ignore")


def _h(c, s: CsrScenario, nb, slope):
    gain = np.power(c * s.a, s.beta)
    for factor in (s.k, s.a, s.a, nb):  # in place; t * k == k * t
        gain *= factor
    gain -= slope * c
    return gain


def _h_at(c, s: CsrScenario, nb, slope) -> float:
    return float(np.power(c * s.a, s.beta)) * s.k * s.a * s.a * nb - slope * c


def _past_range(c, value) -> ValueError:
    return ValueError(f"H past float range at outlay c={c!r} (H={value!r})")


def hcsr_of_c(c, scenario: CsrScenario):
    """Objective H(c); accepts a scalar or an array of outlays >= 0.  An H
    past float range raises ValueError naming the first such outlay."""
    arr = np.asarray(c, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("c must be finite")
    if np.any(arr < 0.0):
        raise ValueError("c must be >= 0")
    nb, slope, errstate = _objective(scenario, float(np.max(arr, initial=0.0)))
    with errstate:
        value = _h(arr, scenario, nb, slope)
    bad = ~np.isfinite(value)
    if np.any(bad):
        raise _past_range(float(arr[bad].flat[0]), float(value[bad].flat[0]))
    return float(value) if arr.ndim == 0 else value


def _case(beta, a):
    """``DecisionReport``'s ``(case, stationary_kind)`` of a scenario's beta
    and a: the kind of ``stationary_closed_form``'s point by the regime of
    beta, None when H has none (``a == 0``, ``beta != 1``)."""
    if beta == 1.0:
        return BetaRegime.BETA_EQUAL_ONE, StationaryKind.FLAT_DERIVATIVE
    if beta > 1.0:
        return BetaRegime.BETA_ABOVE_ONE, None if a == 0.0 else StationaryKind.LOCAL_MIN
    return BetaRegime.BETA_BELOW_ONE, None if a == 0.0 else StationaryKind.LOCAL_MAX


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
    top = None
    for x, h in scored:
        rank = h if h == h else float(_nan_rank(x, scenario))
        if top is None or rank > top:
            c, value, top = x, h, rank
    if not math.isfinite(value):
        raise _past_range(c, value)
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
    case, kind = _case(s.beta, s.a)
    stationary = _root(s.M, s.a, s.k, s.beta, s.delta, s.loyalty_exponent)
    budget = s.p - s.w
    scored = [(0.0, 0.0)]
    if budget > 0.0:
        # LOCAL_MAX means beta < 1 and a > 0, so the root exists; one that
        # underflowed to 0 stands for the outlay where c*a is the least float
        interior = (min(stationary or math.ulp(0.0) / s.a, budget)
                    if kind is StationaryKind.LOCAL_MAX else budget)
        nb, slope, errstate = _objective(s, budget)
        with errstate:
            scored += [(c, _h_at(c, s, nb, slope))
                       for c in ((interior, budget) if interior < budget else (budget,))]
    best_c, best_h = _best(scored, s)
    return DecisionReport(stationary, kind, best_c, best_h, case,
                          s.a == 0.0 or s.p - s.w - best_c >= 0.0)


@functools.lru_cache(maxsize=1)  # holds one array, of the last grid size
def _counts(n: int) -> np.ndarray:
    counts = np.arange(n, dtype=np.float64)
    counts.flags.writeable = False
    return counts


def _uniform_grid(stop: float, n: int) -> np.ndarray:
    """``np.linspace(0.0, stop, n)`` bit for bit, for ``stop >= 0`` and
    ``n >= 2``, clamped to ``stop``, without the per-call overhead of it or
    of ``np.arange``: a product with the cached ``_counts`` costs less."""
    step = stop / (n - 1)
    if step:
        grid = _counts(n) * step
        if step < 2.0**-1022:  # a subnormal step keeps few bits and overshoots
            np.minimum(grid, stop, out=grid)
    else:  # the step underflowed to 0; np.linspace then scales in two
        grid = _counts(n) / (n - 1)
        grid *= stop
    grid[-1] = stop
    return grid


def optimize_oracle(
    scenario: CsrScenario, grid_points: int = 10_000
) -> tuple[float, float]:
    """Grid-plus-refinement maximizer of H, independent of the closed form:
    ``_best`` of 0, the peak of a uniform grid over the budget, its
    refinement by ``_golden_max`` and the budget, as ``(c, H(c))``.  Only
    the refinement is scored afresh; the others keep their grid scores.

    At ``a == 0`` every H is ``0.0 - 0.0`` (N*B <= 4*N*M is finite) and
    c = 0 wins: no grid is built.

    Where H is convex its two ends prove the answer, and neither the grid
    nor the refinement is computed (``_convex_ends``): for ``1 <= beta <=
    2**20`` with H finite, n = ``grid_points`` below 2**50 and every
    partial product of G (the gain) and of the loss L at least 2**-1020 at
    grid[1] (so the step b/(n - 1) is normal, b the budget, grid[1] and
    grid[-2] are ``_uniform_grid``'s and no product is subnormal on
    [grid[1], b]).  The real H of the computed constants, h, is convex with
    h(0) = 0, so h(c) <= c/b * h(b).  With NumPy's pow within 2**8 ulps,
    each computed G is within eta/2 * G and each computed H within eta *
    (G + L) of h, for eta = (beta + 2**10) * 2**-52 (the rounding of c*a
    raised to beta, pow, four products and the subtraction).  Peak at 0:
    every grid H past 0 is < 0 where G(b) * (1 + 4*eta) < L(b).  The
    refinement ends at grid[1] or in [2**-1023, grid[1]], where ``a >=
    2**-16`` and ``G <= 2**20 * slope * (c*a)**beta`` keep the rounding of
    G, subnormal steps included, below 2**-30 of the loss: H < 0 by the
    2**-20 margin asked of H(grid[1]).  Peak at b: every grid H before b
    is < H(b) where (n - 1) * 8*eta * (G(b) + L(b)) < H(b).  The
    refinement ends at r <= b * exp(-e), e = min(3e-7, 1/(2*(n - 1))) (at
    least half the golden section's last width, or of its first where
    that is below 1e-6), so h(r) <= exp(-e) * h(b), and H(r) < H(b)
    strictly (a tie would go to r) where (1 + 2/(1 - exp(-e))) * eta *
    (G(b) + L(b)) < H(b).  That factor is below 6 666 669 at e = 3e-7 and
    below 4*(n - 1) + 3 otherwise, so ``max(8*(n - 1), 2**23) * eta *
    (G(b) + L(b)) < H(b)`` proves both the grid's peak and the refinement's
    loss.  Elsewhere the whole grid is scored and refined."""
    s = scenario
    if not is_int(grid_points) or grid_points < 3:
        raise ValueError(f"grid_points must be an integer >= 3, got {grid_points!r}")
    budget = s.p - s.w
    if budget <= 0.0 or s.a == 0.0:
        return 0.0, 0.0  # H(0) = 0
    nb, slope, errstate = _objective(s, budget)
    last = grid_points - 1
    hb = (_convex_ends(s, nb, slope, budget, last)
          if errstate is _NO_ERRSTATE and 1.0 <= s.beta <= 2.0**20 else None)
    if hb is not None:
        return (budget, hb) if hb > 0.0 else (0.0, 0.0)
    with errstate:
        grid = _uniform_grid(budget, grid_points)  # pins 0 and the budget exactly
        values = _h(grid, s, nb, slope)
        peak = int(values.argmax())
        if math.isnan(values.item(peak)):  # argmax stops at the first NaN
            peak = int(np.where(np.isnan(values), _nan_rank(grid, s), values).argmax())
        a, k, beta = s.a, s.k, s.beta

        def h_float(c):
            try:
                t = k * (c * a) ** beta
            except OverflowError:
                t = math.inf
            return t * a * a * nb - slope * c

        lo, hi = grid.item(max(peak - 1, 0)), grid.item(min(peak + 1, last))
        refined = _golden_max(h_float, lo, hi)
        scored = [(0.0, 0.0), (grid.item(peak), values.item(peak)), (budget, values.item(-1)),
                  (refined, _h_at(refined, s, nb, slope))]
    return _best(sorted(scored), s)


def _convex_ends(s: CsrScenario, nb, slope, budget: float, last: int) -> float | None:
    """H(budget), bit for bit as ``_h`` has it, where the convex-ends rule
    proves that ``optimize_oracle``'s grid 0..``last`` first peaks at 0 or
    at the budget and that the refinement loses; else None."""
    a = s.a
    step = budget / last
    x1 = step * a
    p1, pb = np.power((x1, budget * a), s.beta).tolist()  # as _h has them
    t1, gb, lb = p1 * s.k * a * a, pb * s.k * a * a * nb, slope * budget
    g1, l1, hb = t1 * nb, slope * step, gb - lb
    if last >= 2**50 or min(x1, p1, t1, g1, l1) < 2.0**-1020 or pb >= 2.0**1020:
        return None
    eta = (s.beta + 2.0**10) * 2.0**-52
    if (gb * (1.0 + 4.0 * eta) < lb and a >= 2.0**-16 and s.k * a * a * nb <= 2.0**20 * slope
            and g1 - l1 < -2.0**-20 * slope * step
            or max(8.0 * last, 2.0**23) * eta * (gb + lb) < hb):
        return hb
    return None


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
    M, a, k, beta, delta, lam = s.M, s.a, s.k, s.beta, s.delta, s.loyalty_exponent
    if param == "M":
        _check_size(s.N, M + 1)
        diff = _root(M + 1, a, k, beta, delta, lam) - _root(M, a, k, beta, delta, lam)
    elif param in ("delta", "beta"):
        center = getattr(s, param)
        for h in (STATICS_STEP, STATICS_STEP / 2.0):
            hi, lo = center + h, center - h
            if param == "delta":  # the stepped field's domain (_check_domain)
                if lo <= 0.0 or hi >= 1.0:
                    continue
                c_hi, c_lo = _root(M, a, k, beta, hi, lam), _root(M, a, k, beta, lo, lam)
            elif lo <= 0.0 or (hi - 1.0) * (lo - 1.0) <= 0.0:
                continue  # beta <= 0, or the closed forms straddle beta == 1
            else:
                c_hi, c_lo = _root(M, a, k, hi, delta, lam), _root(M, a, k, lo, delta, lam)
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
