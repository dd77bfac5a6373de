"""Shared fixtures, CLI goldens, independent reference oracles and the
decision half's scenario draws.

The oracles here deliberately avoid the package's own kernels: plain
Python loops for the bilinear sums (same fixed order, so results must
match bit for bit), bisection for first-order-condition roots of H' in
the paper's expanded form, ``numpy.linalg`` for spectra, and the site
coordinates for the strip's bonds.  The decision references restate the
root, the optimizers and the statics as the package stated them before a
refactor, so they pin its bits.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import reject, settings
from hypothesis import strategies as st

from moebius_csr.decision import (
    LOYALTY_EXPONENTS,
    STATICS_STEP,
    CsrScenario,
    bracket,
    hcsr_of_c,
    stationary_closed_form,
    _best,
    _golden_max,
    _nan_rank,
)
from moebius_csr.lattice import EdgeKind, SiteCoord, Topology

# Child interpreters started by the tests (``python -m moebius_csr`` and the
# fresh-import checks) import the same source tree as this process, which
# ``pythonpath`` in pyproject.toml puts on sys.path.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part
)

# Every property test draws the same examples on every run and has no deadline;
# each test sets only its own max_examples.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


# The CLI's goldens: scenario S0 with lambda = 4, the cost inputs, and the
# exact stdout of each subcommand run on them.
S0_DATA = {
    "N": 10,
    "M": 2,
    "a": 0.5,
    "k": 2.0,
    "beta": 2.0,
    "delta": 0.1,
    "p": 3.0,
    "w": 1.0,
    "lambda": 4,
}

OPTIMIZE_S0_REPORT = (
    "case=BetaAboveOne\n"
    "c_star_paper=1.36752136752\n"
    "kind=LocalMin\n"
    "c_opt=0\n"
    "H_opt=0\n"
    "feasible=true\n"
)

STATICS_M_CSV = (
    "param_value,c_star\n"
    "2,1.36752136752\n"
    "3,1.24352331606\n"
    "4,1.18959107807\n"
    "5,1.15942028986\n"
)

SPECTRUM_CSV = (
    "phi,total_energy\n"
    "0,-5.11803398875\n"
    "1,-5.11803398875\n"
    "2,-5.11803398875\n"
)

COST_REPORT = "cost=-2\nneighborhood=2\nsector=1\nloyalty=0.5\ntotal=1.5\n"


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "s0.json"
    path.write_text(json.dumps(S0_DATA), encoding="utf-8")
    return str(path)


@pytest.fixture
def cost_files(tmp_path):
    a = tmp_path / "a.csv"
    c = tmp_path / "c.csv"
    a.write_text("\n".join(["0.5,0.5"] * 4) + "\n", encoding="utf-8")
    c.write_text("\n".join(["0.25,0.25"] * 4) + "\n", encoding="utf-8")
    return str(a), str(c)


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


def second_difference(s, c, rel_step=1e-3):
    h = rel_step * c
    return hcsr_of_c(c + h, s) - 2.0 * hcsr_of_c(c, s) + hcsr_of_c(c - h, s)


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


def coordinate_neighbors(lat, site):
    """Independent neighbor oracle, from the coordinates alone: ring
    neighbors n-1 and n+1 (mod 2N), which coincide for N = 1 and so give
    the doubled ring bond twice; rung neighbors m-1 and m+1; on a Moebius
    strip, the twist partner n+N (mod 2N) on wire M."""
    n, m = site
    ring = 2 * lat.N
    found = [
        (SiteCoord((n - 1 + step) % ring + 1, m), EdgeKind.LONGITUDINAL)
        for step in (-1, 1)
    ]
    found += [
        (SiteCoord(n, m + step), EdgeKind.TRANSVERSE)
        for step in (-1, 1)
        if 1 <= m + step <= lat.M
    ]
    if lat.topology is Topology.MOEBIUS and m == lat.M:
        found.append((SiteCoord((n - 1 + lat.N) % ring + 1, m), EdgeKind.TWIST))
    return found


def incidences(lat):
    """Every site, in ``site_index`` order, mapped to the bonds that meet it:
    one ``(other end, kind)`` entry per stored edge, from one pass over
    ``lat.edges``.  An edge with an end off the lattice raises KeyError."""
    found = {SiteCoord(n, m): [] for m in range(1, lat.M + 1) for n in range(1, 2 * lat.N + 1)}
    for kind, a, b in lat.edges:
        found[a].append((b, kind))
        found[b].append((a, kind))
    return found


# --- the decision half: scenario draws and bit-for-bit references ----------


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


def scenarios(max_beta, max_p, max_w):
    """Every valid scenario within the given bounds, edges included:
    a = 0, beta = 1, p <= w, both loyalty exponents."""
    return st.builds(
        CsrScenario,
        N=st.integers(1, 200),
        M=st.integers(1, 50),
        a=st.floats(0.0, 1.0, exclude_max=True),
        k=st.floats(1e-3, 1e3),
        beta=st.one_of(st.just(1.0), st.floats(0.05, max_beta)),
        delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        p=st.floats(0.0, max_p),
        w=st.floats(0.0, max_w),
        loyalty_exponent=st.sampled_from([2, 4]),
    )


def paper_scenarios(beta):
    """Scenarios across the domain the paper's claims are read on, with a
    positive budget ``p - w``."""
    return st.builds(
        CsrScenario,
        N=st.integers(1, 19),
        M=st.integers(1, 9),
        a=st.floats(0.05, 0.95),
        k=_log_uniform(-2.0, 2.0),
        beta=beta,
        delta=st.floats(0.05, 0.95),
        p=st.floats(2.001, 1e3),
        w=st.floats(0.0, 2.0),
        loyalty_exponent=st.sampled_from([2, 4]),
    )


def _extreme_scenarios(rng, count):
    """Scenarios over the whole domain: N and M to 1e150, a down to
    subnormals, k to 1e308, beta near 0, near 1 and to 1e300, budgets from
    subnormal to 1e300; in half of them k puts t, or the gain, at the
    budget within a factor 64 of float max."""
    def exp10(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)

    out = []
    while len(out) < count:
        field = dict(
            N=int(exp10(0, 150)), M=int(exp10(0, 150)),
            a=float(rng.choice([rng.random(), exp10(-323, 0)])), k=exp10(-300, 308),
            beta=float(rng.choice([exp10(-300, -3), 1.0 + rng.uniform(-1e-6, 1e-6),
                                   rng.uniform(0.05, 5.0), exp10(0, 300)])),
            delta=rng.uniform(0.01, 0.99), p=exp10(-323, 300), w=0.0,
            loyalty_exponent=int(rng.choice([2, 4])),
        )
        try:
            s = CsrScenario(**field)
            if rng.random() < 0.5:
                t = (s.p * s.a) ** s.beta / sys.float_info.max
                scale = t * s.a * s.a * s.N * bracket(s) if rng.random() < 0.5 else t
                s = replace(s, k=2.0 ** rng.uniform(-6.0, 6.0) / scale)
        except (ValueError, OverflowError, ZeroDivisionError):
            continue
        out.append(s)
    return out


@st.composite
def skip_edge_scenarios(draw):
    """Scenarios at the edges of the oracle's skip rule: beta at 1, just
    above it or in (1, 4), a down to subnormals, budgets from subnormal to
    1e300, and k up to 1e300 or set so that gain / loss is near 1 at the
    budget or at the first grid point."""
    beta = draw(st.one_of(st.just(1.0), st.builds(lambda e: 1.0 + 10.0**e, st.floats(-16, -1)),
                          st.floats(1.0, 4.0)))
    fields = dict(N=int(draw(_log_uniform(0, 150))), M=int(draw(_log_uniform(0, 150))),
                  a=draw(st.one_of(st.floats(0.0, 0.999), _log_uniform(-323, -0.01))),
                  k=1.0, beta=beta, delta=draw(st.floats(0.01, 0.99)),
                  p=draw(_log_uniform(-323, 300)), w=0.0,
                  loyalty_exponent=draw(st.sampled_from(LOYALTY_EXPONENTS)))
    ratio = draw(st.sampled_from([None, "tie", "wide"]))
    try:
        s = CsrScenario(**fields)
        if ratio is None:
            return replace(s, k=draw(_log_uniform(-300, 300)))
        near = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(_log_uniform(-16, -1))
        target = near if ratio == "tie" else draw(_log_uniform(-3, 3))
        c = s.p / draw(st.sampled_from([1.0, 2000.0]))
        log_k = (math.log(target * 2.0 * s.N * s.M / (s.N * bracket(s))) - math.log(s.a)
                 - (s.beta - 1.0) * math.log(c) - s.beta * math.log(s.a))
        return replace(s, k=math.exp(log_k))
    except (ValueError, OverflowError):
        reject()


# the draws of convex_end_scenarios: each example sits at one margin
_CONVEX_END_DRAWS = st.fixed_dictionaries(dict(
    margin=st.sampled_from(["end", "ratio", "beta", "step", "tiny"]),
    n=st.sampled_from([3, 4, 2001, 10_000]),
    a=st.one_of(st.floats(0.01, 0.999), _log_uniform(-300, -2)),
    sizes=st.tuples(st.floats(0, 30), st.floats(0, 30)),
    delta=st.floats(0.01, 0.99),
    loyalty_exponent=st.sampled_from(LOYALTY_EXPONENTS),
    beta=st.one_of(st.floats(1.0, 4.0), st.floats(0.0, 11.0).map(lambda e: 2.0**e)),
    edge_beta=st.sampled_from([1.0, 1.0 + 2.0**-52, 2.0**20, math.nextafter(2.0**20, math.inf)]),
    step=_log_uniform(-300, 300),
    edge_step=st.sampled_from([2.0**-1022, math.nextafter(2.0**-1022, 0.0)]),
    unit=st.booleans(),
    u=st.floats(-600, 600),
    sign=st.sampled_from([-1.0, 1.0]),
    near=st.floats(14.0, 60.0),
    log2_m=st.floats(-3.0, 3.0),
    clear=st.floats(1.0, 20.0),
    log2_target=st.floats(-1023.0, -1017.0),
))


@st.composite
def convex_end_scenarios(draw):
    """``(scenario, grid size)`` at one margin of the oracle's convex-ends
    rule: H(b) within 2**±3 of the budget end's margin max(8*(n - 1),
    2**23) * eta * (G(b) + L(b)), H(b)/G(b) within 2**-60 to 2**-14 of 0 on
    either side (elsewhere 2**-20 to 1/2), beta at 1, 1 + 2**-52, 2**20 and
    just past it (elsewhere up to 2**11), steps at 2**-1022 and one ulp
    below, or the least partial product of G and of the loss at grid[1]
    near 2**-1020 (b the budget, G the gain, L the loss)."""
    d = draw(_CONVEX_END_DRAWS)
    margin, n, a = d["margin"], d["n"], d["a"]
    beta = d["edge_beta"] if margin == "beta" else d["beta"]
    if margin == "end":  # past 8, (c*a)**beta at grid[1] is mostly subnormal
        beta = min(beta, 8.0)
    step = d["step"]
    if margin == "step":
        step = d["edge_step"]
    elif d["unit"] or beta > 64.0 or margin == "end":  # b*a = exp(u/beta): (b*a)**beta finite
        step = math.exp(d["u"] / beta) / a / (n - 1)
    r = d["sign"] * 2.0 ** -(d["near"] if margin == "ratio" else d["clear"])
    if margin == "end":  # H(b) = m*eta*(G(b) + L(b)), so r = 2*m*eta/(1 + m*eta)
        m_eta = max(8.0 * (n - 1), 2.0**23) * 2.0 ** d["log2_m"] * (beta + 2.0**10) * 2.0**-52
        r = 2.0 * m_eta / (1.0 + m_eta)
    log_target = math.log(2.0) * d["log2_target"]

    def fit(s, scale):  # k that puts G(b) at L(b) / (1 - r), so that H(b)/G(b) = r
        log_b, log_a, log_nb = math.log(s.p), math.log(a), math.log(s.N * bracket(s))
        log_slope = math.log(2.0 * s.N * s.M * a)
        log_k = log_slope - math.log1p(-r) - (beta - 1.0) * log_b - (beta + 2.0) * log_a - log_nb
        if not scale:  # a k past float range is clamped, and misses r
            return replace(s, k=math.exp(min(max(log_k, -700.0), 700.0)))
        # scale b so that the least of x = c*a, x**beta, t = k*x**beta*a*a,
        # t*N*B and L at c = grid[1] meets the target, with k refitted (so t
        # and G scale as b does)
        x = log_b - math.log(n - 1) + log_a
        t = beta * x + log_k + 2.0 * log_a
        least, rate = min((x, 1.0), (beta * x, beta), (t, 1.0), (t + log_nb, 1.0),
                          (log_slope + x - log_a, 1.0))
        return replace(s, p=s.p * math.exp(min((log_target - least) / rate, 700.0)))

    try:
        s = CsrScenario(N=int(10.0 ** d["sizes"][0]), M=int(10.0 ** d["sizes"][1]), a=a, k=1.0,
                        beta=beta, delta=d["delta"], p=step * (n - 1), w=0.0,
                        loyalty_exponent=d["loyalty_exponent"])
        for _ in range(3 if margin == "tiny" else 0):
            s = fit(s, scale=True)
        s = fit(s, scale=False)
        # correct the rounding of the logs once
        nb, loss = s.N * bracket(s), 2.0 * s.N * s.M * a * s.p
        with np.errstate(over="ignore"):
            gain = float(np.power(s.p * a, beta)) * s.k * a * a * nb
        k = s.k * loss / (1.0 - r) / gain if 0.0 < gain < math.inf else s.k
        return (replace(s, k=k) if 0.0 < k < math.inf else s), n
    except (ValueError, OverflowError, ZeroDivisionError):
        reject()


def _errstate_closed_form(s):
    """The root in NumPy scalars under ``np.errstate``, as the package
    stated it before it moved to Python floats; the reference for them."""
    if s.beta == 1.0 or s.a == 0.0:
        return None
    with np.errstate(over="ignore", divide="ignore"):
        b = 2.0 * s.M * (2.0 - s.delta) - 2.0 + float(
            np.float64(s.a) ** (s.loyalty_exponent - 2)
        )
        base = np.float64(2.0 * s.M) / (
            np.float64(s.a) ** (1.0 + s.beta) * b * s.k * s.beta
        )
        root = base ** (1.0 / (s.beta - 1.0))
    return float(root)


def _errstate_optimizers(s, grid_points=2001):
    """Both optimizers as ``(c, H)`` or their error message, with every H
    scored under ``np.errstate``, the oracle's grid from ``np.linspace``
    and its golden section over H in Python floats: the reference for the
    package, which enters the error state only where the budget says H
    can leave float range."""
    budget = max(0.0, s.p - s.w)
    a, k, beta = s.a, s.k, s.beta
    nb = s.N * bracket(s)
    slope = 2.0 * s.N * s.M * s.a

    def h(c):
        return k * np.power(c * a, beta) * a * a * nb - slope * c

    def h_float(c):
        try:
            t = (c * a) ** beta
        except OverflowError:
            t = math.inf
        return k * t * a * a * nb - slope * c

    def best(scored):
        try:
            return _best(sorted(scored), s)
        except ValueError as exc:
            return str(exc)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        outlays = [0.0]
        if budget > 0.0:
            if beta < 1.0 and a > 0.0:  # H has an interior local maximum
                interior = stationary_closed_form(s) or math.ulp(0.0) / a
                outlays += [interior] if interior < budget else []
            outlays.append(budget)
        constrained = best([(c, float(h(c))) for c in outlays])
        if budget == 0.0:
            return constrained, (0.0, 0.0)
        grid = np.minimum(np.linspace(0.0, budget, grid_points), budget)
        values = h(grid)
        ranked = values  # a nan H needs a > 0, where _nan_rank is defined
        if np.isnan(values).any():
            ranked = np.where(np.isnan(values), _nan_rank(grid, s), values)
        peak = int(np.argmax(ranked))
        bracket_ends = grid[max(peak - 1, 0)], grid[min(peak + 1, grid_points - 1)]
        refined = _golden_max(h_float, *map(float, bracket_ends))
        scored = [(float(grid[i]), float(values[i])) for i in (0, peak, grid_points - 1)]
        return constrained, best(scored + [(refined, float(h(refined)))])


def _replace_sweep(s, param, values):
    """``stationary_sweep`` as the CLI stated it when it built the scenario
    of each point with ``replace``; the reference for the field-dict sweep."""
    roots = []
    for value in values:
        if param == "M":
            if abs(value - round(value)) > 1e-9:
                raise ValueError(f"M sweep values must be integers, got {value}")
            varied = replace(s, M=int(round(value)))
        else:
            varied = replace(s, **{param: float(value)})
        roots.append(stationary_closed_form(varied))
    return roots


def _replace_statics(s, param):
    """``comparative_statics`` as the package stated it when it built each
    stepped scenario with ``replace``; the reference for the stepped-field
    version."""
    if s.beta == 1.0 or s.a == 0.0:
        raise ValueError("sensitivity needs a stationary point (beta != 1, a > 0)")
    if param == "M":
        diff = stationary_closed_form(replace(s, M=s.M + 1)) - stationary_closed_form(s)
    elif param in ("delta", "beta"):
        center = float(getattr(s, param))
        for h in (STATICS_STEP, STATICS_STEP / 2.0):
            try:
                s_hi = replace(s, **{param: center + h})
                s_lo = replace(s, **{param: center - h})
            except ValueError:
                continue
            if param == "beta" and (s_hi.beta - 1.0) * (s_lo.beta - 1.0) <= 0.0:
                continue
            c_hi = stationary_closed_form(s_hi)
            c_lo = stationary_closed_form(s_lo)
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
        raise ValueError(
            f"sensitivity to {param} is not finite (root past float range)"
        )
    return diff
