import json
import math
import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import (
    _errstate_closed_form,
    _errstate_optimizers,
    _extreme_scenarios,
    _log_uniform,
    _replace_statics,
    convex_end_scenarios,
    dhcsr_expanded,
    paper_scenarios,
    random_scenario,
    scenarios,
    skip_edge_scenarios,
)
from moebius_csr.decision import (
    LOYALTY_EXPONENTS,
    SCENARIO_KEYS,
    BetaRegime,
    CsrScenario,
    StationaryKind,
    bracket,
    comparative_statics,
    hcsr_of_c,
    optimize_constrained,
    optimize_oracle,
    stationary_closed_form,
    _certified,
    _check_domain,
    _golden_max,
    _h,
    _h_at,
    _objective,
    _past_range,
)


# --- scenario plumbing -------------------------------------------------


def test_scenario_validation():
    good = dict(N=2, M=1, a=0.5, k=1.0, beta=2.0, delta=0.5, p=2.0, w=1.0)
    CsrScenario(**good)
    for field, bad in [
        ("N", 0),
        ("N", 1.5),
        ("N", True),
        ("M", 0),
        ("M", True),
        ("a", -0.1),
        ("a", 1.0),
        ("k", 0.0),
        ("k", -1.0),
        ("beta", 0.0),
        ("beta", -2.0),
        ("delta", 0.0),
        ("delta", 1.0),
        ("p", -1.0),
        ("w", -0.5),
        ("loyalty_exponent", 3),
        ("loyalty_exponent", 2.0),
        ("a", "0.5"),
        ("p", 10**400),
    ]:
        with pytest.raises(ValueError):
            CsrScenario(**{**good, field: bad})


def test_scenario_rejects_sizes_past_float_range():
    good = dict(N=2, M=1, a=0.5, k=1.0, beta=2.0, delta=0.5, p=2.0, w=1.0)
    for N, M in ((10**310, 1), (10**300, 10**10), (1, 10**308)):
        with pytest.raises(ValueError, match="^N and M too large"):
            CsrScenario(**{**good, "N": N, "M": M})
    CsrScenario(**{**good, "N": 10**150, "M": 10**150})


def test_scenario_and_domain_check_accept_the_same_values():
    # the scenario and the stepped fields of comparative_statics share one
    # statement of the domain; every edge must fall on the same side of it
    good = dict(N=2, M=1, a=0.5, k=1.0, beta=2.0, delta=0.5, p=2.0, w=1.0,
                loyalty_exponent=4)
    tiny = math.ulp(0.0)
    edges = [0.0, -0.0, 1.0, 1.0 - 2.0**-53, tiny, -tiny, 2.2250738585072014e-308,
             math.nan, math.inf, -math.inf]
    cases = [{name: v} for name in ("a", "k", "beta", "delta", "p", "w") for v in edges]
    # 4*N*M at, past and far past float range
    cases += [{"N": n, "M": m} for n, m in (
        (0, 1), (1, 0), (1, 1), (4 * 10**307, 1), (4 * 10**307, 2), (10**308, 1),
        (10**310, 1), (10**154, 10**154), (10**155, 10**154),
    )]
    cases += [{"loyalty_exponent": lam} for lam in (0, 1, 2, 3, 4, 5)]
    for case in cases:
        values = {**good, **case}
        outcomes = []
        for check in (CsrScenario, _check_domain):
            try:
                check(**values)
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], case


def test_scenario_stores_the_schema_types():
    s = CsrScenario(
        N=np.int64(10), M=np.int32(2), a=np.float32(0.5), k=2, beta=2.0,
        delta=0.1, p=3.0, w=1.0, loyalty_exponent=np.int64(4),
    )
    for _, name, kind in SCENARIO_KEYS:
        assert type(getattr(s, name)) is kind
    assert json.loads(json.dumps(s.to_dict())) == s.to_dict()
    assert s == CsrScenario(N=10, M=2, a=0.5, k=2.0, beta=2.0, delta=0.1,
                            p=3.0, w=1.0)


def test_scenario_dict_round_trip(s0):
    data = s0.to_dict()
    assert data["lambda"] == 4
    assert CsrScenario.from_dict(data) == s0
    assert CsrScenario.from_dict(json.loads(json.dumps(data))) == s0

    missing_lambda = {k: v for k, v in data.items() if k != "lambda"}
    assert CsrScenario.from_dict(missing_lambda).loyalty_exponent == 4

    with pytest.raises(ValueError):
        CsrScenario.from_dict({**data, "extra": 1.0})
    with pytest.raises(ValueError):
        CsrScenario.from_dict({k: v for k, v in data.items() if k != "beta"})


def test_from_dict_takes_real_numbers_only(s0):
    data = s0.to_dict()
    integral = [
        (key, bad)
        for key in ("N", "M", "lambda")
        for bad in (2.5, True, "3", math.inf, math.nan, None)
    ]
    real = [
        (key, bad)
        for key in ("a", "k", "beta", "delta", "p", "w")
        for bad in (True, "0.5", None, 10**400)
    ]
    for key, bad in integral + real:
        with pytest.raises(ValueError, match=f"^scenario key {key} must be"):
            CsrScenario.from_dict({**data, key: bad})
    # integral floats and NumPy scalars load; float fields stay float
    loaded = CsrScenario.from_dict(
        {**data, "N": 10.0, "M": np.int64(2), "k": 2, "p": np.float32(3.0),
         "lambda": np.float64(2.0)}
    )
    assert loaded == replace(s0, loyalty_exponent=2)
    for name, kind in (("N", int), ("M", int), ("loyalty_exponent", int),
                       ("k", float), ("p", float)):
        assert type(getattr(loaded, name)) is kind


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300)
@given(st.sampled_from([key for key, _, _ in SCENARIO_KEYS]), json_values)
def test_from_dict_raises_only_value_error_property(key, value):
    base = CsrScenario(N=10, M=2, a=0.5, k=2.0, beta=2.0, delta=0.1, p=3.0, w=1.0)
    try:
        scenario = CsrScenario.from_dict({**base.to_dict(), key: value})
    except ValueError:
        return
    assert scenario.to_dict()[key] == value


# --- objective and derivative ------------------------------------------


def test_hcsr_basics(s1):
    assert hcsr_of_c(0.0, s1) == 0.0
    with pytest.raises(ValueError):
        hcsr_of_c(-0.5, s1)
    with pytest.raises(ValueError):
        hcsr_of_c(np.inf, s1)
    # complex and bool outlays were taken as their real parts, or as 1.0
    for bad in (np.array([1 + 5j]), [1 + 5j], 1 + 5j, True, np.array([True]), [0.5, True]):
        with pytest.raises(ValueError, match="^c (must hold real|entry must be a real) number"):
            hcsr_of_c(bad, s1)
    # array evaluation agrees with scalar evaluation pointwise
    grid = np.array([0.0, 0.1, 0.7, 2.0])
    values = hcsr_of_c(grid, s1)
    assert values.shape == grid.shape
    for c, v in zip(grid, values):
        assert v == hcsr_of_c(float(c), s1)
    assert hcsr_of_c(0.267363, s1) == pytest.approx(5.3473, abs=2e-4)


@settings(max_examples=300)
@given(
    scenarios(max_beta=40.0, max_p=1e12, max_w=1e3),
    st.integers(0, 2**32 - 1).map(
        lambda seed: _extreme_scenarios(np.random.default_rng(seed), 1)[0]),
    st.data(),
)
def test_scalar_h_equals_array_h_bitwise_property(plain, extreme, data):
    # H one outlay at a time, by hcsr_of_c and by the optimizers' _h_at (Python
    # floats around one np.power), equals hcsr_of_c on an array bit for bit;
    # a non-finite H is the one both name.  Outlays: a grid over the budget,
    # its third, draws up to max(budget, 1) and 1.0, so some lie past it
    for s in (plain, extreme):
        budget = max(0.0, s.p - s.w)
        picks = data.draw(st.lists(st.floats(0.0, max(budget, 1.0)), max_size=8))
        outlays = [*map(float, np.linspace(0.0, budget, 17)), budget / 3.0, *picks, 1.0]
        nb, slope, errstate = _objective(s, budget)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or 0 * inf warnings
            scalars = []
            for c in outlays:
                try:
                    scalars.append(hcsr_of_c(c, s))
                except ValueError as exc:  # H past float range
                    scalars.append(str(exc))
            with errstate:  # _h_at runs only on [0, budget], as in the optimizers
                at = [(c, _h_at(c, s, nb, slope), h) for c, h in zip(outlays, scalars)
                      if c <= budget]
            for c, h_at, h in at:
                if type(h) is float:
                    assert h_at.hex() == h.hex()
                else:
                    assert h == str(_past_range(c, h_at))
            finite = [(c, h) for c, h in zip(outlays, scalars) if type(h) is float]
            values = hcsr_of_c(np.array([c for c, _ in finite]), s)
            assert values.tobytes() == np.array([h for _, h in finite]).tobytes()
            named = [h for h in scalars if type(h) is str]
            if named:  # the array names its first outlay past float range
                with pytest.raises(ValueError, match=f"^{re.escape(named[0])}$"):
                    hcsr_of_c(np.array(outlays), s)


@settings(max_examples=300)
@given(scenarios(max_beta=6.0, max_p=1e12, max_w=10.0))
# an interior maximum far below a large budget: an oracle that stopped at
# 1e-10 * budget left a relative H gap of 3.4e-9 here
@example(CsrScenario(N=1, M=1, a=0.5, k=1.0, beta=0.5, delta=0.5, p=211070.0,
                     w=0.0, loyalty_exponent=2))
# the root underflows to 0 while H(1e-323) = 3.125e-6 > H(0): the optimizer
# that tried only the boundaries then reported c = 0, H = 0
@example(CsrScenario(N=10**25, M=1, a=0.5, k=1e-30, beta=1e-300, delta=0.5, p=1.0,
                     w=0.0))
def test_optimizer_matches_oracle_property(s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = optimize_constrained(s)
        c_ref, h_ref = optimize_oracle(s)
    budget = max(0.0, s.p - s.w)
    assert abs(report.constrained_opt - c_ref) <= max(1e-8, budget / 10_000)
    assert abs(report.objective_at_opt - h_ref) <= 1e-10 * max(1.0, abs(h_ref))


def test_hcsr_finite_where_power_of_a_underflows():
    # (c*a)**beta stays finite while c**beta overflows and a**(2 + beta)
    # underflows; the expanded product gave inf * 0 = nan
    s = CsrScenario(N=1, M=1, a=1e-10, k=1.0, beta=40.0, delta=0.5, p=1e10, w=0.0)
    assert hcsr_of_c(1e10, s) == -2.0
    assert hcsr_of_c(np.array([1e10]), s)[0] == -2.0
    c_ref, h_ref = optimize_oracle(s, 2001)
    assert (c_ref, h_ref) == (0.0, 0.0)


def test_hcsr_loyalty_variants_converge_as_a_tends_to_one(s1):
    near_one = replace(s1, a=1.0 - 1e-8)
    h4 = hcsr_of_c(0.5, near_one)
    h2 = hcsr_of_c(0.5, replace(near_one, loyalty_exponent=2))
    assert abs(h4 - h2) <= 1e-6 * max(1.0, abs(h4))


def test_bracket_expansion(s0):
    # lambda=4: B = 2M(2-delta) - 2 + a^2
    assert bracket(s0) == pytest.approx(
        2 * s0.M * (2 - s0.delta) - 2 + s0.a**2, rel=1e-14
    )
    assert bracket(s0) == pytest.approx(5.85, rel=1e-12)
    # lambda=2: the trailing power becomes a^0 = 1
    assert bracket(replace(s0, loyalty_exponent=2)) == pytest.approx(
        2 * s0.M * (2 - s0.delta) - 2 + 1.0, rel=1e-14
    )


def test_bracket_positive_everywhere():
    rng = np.random.default_rng(77)
    for _ in range(200):
        assert bracket(random_scenario(rng)) > 0.0


def test_beta_one_derivative_is_constant(s2):
    # H is linear in c, so its difference quotients agree
    d1 = (hcsr_of_c(0.3, s2) - hcsr_of_c(0.0, s2)) / 0.3
    d2 = (hcsr_of_c(1.7, s2) - hcsr_of_c(0.3, s2)) / 1.4
    assert d1 == pytest.approx(d2, rel=1e-12)
    # sign rule: k a^2 [2M(2-delta)-2+a^2] - 2M, positive here
    sign_value = s2.k * s2.a**2 * bracket(s2) - 2 * s2.M
    assert sign_value == pytest.approx(0.8681, abs=1e-10)
    assert d1 > 0


# --- stationary points ---------------------------------------------------


def test_stationary_none_cases(s2):
    assert stationary_closed_form(s2) is None  # beta = 1
    flat = CsrScenario(N=2, M=1, a=0.0, k=1.0, beta=2.0, delta=0.5, p=2.0, w=1.0)
    assert stationary_closed_form(flat) is None  # objective vanishes


def test_stationary_past_float_range_is_inf_without_warnings():
    # a**(1 + beta) underflows to 0, so the root (2M / 0) ** (1/39) is inf;
    # with beta*k past float range too the denominator must not be inf * 0
    for s in (
        CsrScenario(N=1, M=1, a=1e-10, k=1.0, beta=40.0, delta=0.5, p=1e10, w=0.0),
        CsrScenario(N=1, M=1, a=0.5, k=1e10, beta=1e300, delta=0.5, p=3.0, w=0.0),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stationary_closed_form(s) == math.inf


@settings(max_examples=500)
@given(
    st.builds(
        CsrScenario,
        N=st.integers(1, 10**6),
        M=st.integers(1, 10**6),
        # a down to subnormals, k up to 1e308, beta up to 1e300
        a=st.one_of(
            st.floats(0.0, 1.0, exclude_max=True),
            st.floats(0.0, 1e-300),
            _log_uniform(-323.0, -0.001),
        ),
        k=st.one_of(
            st.floats(0.0, 1e308, exclude_min=True), _log_uniform(-300.0, 308.0)
        ),
        beta=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(1.0, 1e300, exclude_min=True),
            _log_uniform(-300.0, -1e-12),
            _log_uniform(1e-12, 300.0),
        ),
        delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        p=st.just(1.0),
        w=st.just(0.0),
        loyalty_exponent=st.sampled_from([2, 4]),
    )
)
# a**(1 + beta) * B * k overflows, so the base is 0 and its power negative
@example(CsrScenario(N=1, M=1, a=0.9, k=1e308, beta=0.5, delta=0.5, p=1.0, w=0.0))
# a**(1 + beta) underflows to 0, so the base is inf
@example(CsrScenario(N=1, M=1, a=1e-10, k=1.0, beta=40.0, delta=0.5, p=1.0, w=0.0))
def test_stationary_equals_errstate_formula_bitwise_property(s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = stationary_closed_form(s)
        ref = _errstate_closed_form(s)
    if ref is None:
        assert got is None
    else:
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", ref)


def test_foc_consistency_property():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        s = random_scenario(rng)
        c_star = stationary_closed_form(s)
        assert c_star is not None and math.isfinite(c_star) and c_star > 0
        scale = 2.0 * s.N * s.M * s.a
        assert abs(dhcsr_expanded(c_star, s)) <= 1e-9 * scale


def test_stationary_continuity_near_knife_edge(s0):
    for betas in (np.arange(1.1, 3.0, 0.01), np.arange(0.2, 0.9, 0.01)):
        values = [stationary_closed_form(replace(s0, beta=float(b))) for b in betas]
        assert all(v is not None and math.isfinite(v) and v > 0 for v in values)
        logs = np.log(values)
        assert np.abs(np.diff(logs)).max() < 1.0  # smooth on each side


# --- constrained optimization --------------------------------------------


def test_optimize_s1_interior_max(s1):
    report = optimize_constrained(s1)
    assert report.case is BetaRegime.BETA_BELOW_ONE
    assert report.stationary_kind is StationaryKind.LOCAL_MAX
    assert report.constrained_opt == pytest.approx(0.26736328125, rel=1e-14)
    assert report.objective_at_opt == pytest.approx(5.347265625, rel=1e-12)
    assert report.objective_at_opt > 0  # investing in CSR pays off here
    assert report.feasible


def test_optimize_s0_boundary_zero(s0):
    report = optimize_constrained(s0)
    # the closed-form stationary point is reported, but it is a local
    # minimum: H(0)=0 beats H(c*)~-13.68 and H(2)=-10.75
    assert report.stationary == pytest.approx(1.3675213675213675, rel=1e-14)
    assert report.stationary_kind is StationaryKind.LOCAL_MIN
    assert report.constrained_opt == 0.0
    assert report.objective_at_opt == 0.0
    assert hcsr_of_c(report.stationary, s0) == pytest.approx(
        -13.675213675213676, rel=1e-12
    )
    assert hcsr_of_c(2.0, s0) == pytest.approx(-10.75, rel=1e-12)
    assert report.feasible


def test_optimize_tie_breaks_to_smaller_outlay():
    s = CsrScenario(N=2, M=1, a=0.0, k=1.0, beta=2.0, delta=0.5, p=2.0, w=1.0)
    report = optimize_constrained(s)  # objective identically zero
    assert report.constrained_opt == 0.0
    assert report.objective_at_opt == 0.0
    assert report.feasible
    assert optimize_oracle(s) == (0.0, 0.0)


def test_optimize_empty_and_negative_budget(s0):
    even = replace(s0, p=1.0, w=1.0)
    report = optimize_constrained(even)
    assert report.constrained_opt == 0.0
    assert report.objective_at_opt == 0.0
    assert report.feasible  # p = w satisfies the margin constraint at c = 0

    # the margin N*M*a*(p - w) of the second underflows to -0.0
    tiny = CsrScenario(N=1, M=1, a=1e-300, k=1.0, beta=2.0, delta=0.5, p=0.0, w=1e-30)
    for broke in (replace(s0, p=1.0, w=3.0), tiny):
        report2 = optimize_constrained(broke)
        assert report2.constrained_opt == 0.0
        assert not report2.feasible  # losing margin regardless of c


def test_optimize_report_invariants_property():
    rng = np.random.default_rng(555)
    for _ in range(100):
        s = random_scenario(rng)
        report = optimize_constrained(s)
        budget = max(0.0, s.p - s.w)
        assert 0.0 <= report.constrained_opt <= budget
        eq4 = s.N * s.M * s.a * (s.p - s.w - report.constrained_opt)
        assert report.feasible == (eq4 >= 0.0)
        assert report.objective_at_opt >= hcsr_of_c(0.0, s)
        assert report.objective_at_opt >= hcsr_of_c(budget, s)


# --- numerical oracle -----------------------------------------------------


def test_oracle_reference_scenarios(s0, s1):
    c_ref, h_ref = optimize_oracle(s1)
    assert c_ref == pytest.approx(0.26736328125, abs=2e-4)
    assert h_ref == pytest.approx(5.347265625, rel=1e-10)
    c0, h0 = optimize_oracle(s0)
    assert c0 == 0.0 and h0 == 0.0


def test_oracle_trivial_and_errors(s0):
    assert optimize_oracle(replace(s0, p=1.0, w=1.0)) == (0.0, 0.0)
    # a float, a string or a bool used to raise TypeError, or be refused by accident
    for bad in (2, np.int64(2), 2001.0, 3.5, "2001", True, None):
        message = f"grid_points must be an integer >= 3, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            optimize_oracle(s0, grid_points=bad)
    assert optimize_oracle(s0, np.int64(2001)) == optimize_oracle(s0, 2001)


def test_oracle_at_zero_contribution_builds_no_grid(monkeypatch):
    # at a = 0 every grid H is 0.0 - 0.0, so the oracle answers before
    # building the grid, whatever the sizes and k
    def no_objective(*args):
        raise AssertionError("H was scored")

    monkeypatch.setattr("moebius_csr.decision._objective", no_objective)
    for N, M, k in ((1, 1, 1.0), (10**150, 10**150, 1e300), (10**150, 1, 1e-300)):
        for beta in (0.5, 1.0, 2.0):
            s = CsrScenario(N=N, M=M, a=0.0, k=k, beta=beta, delta=0.5, p=3.0, w=0.0)
            assert repr(optimize_oracle(s, 2001)) == "(0.0, 0.0)"
            assert repr(_errstate_optimizers(s)[1]) == "(0.0, 0.0)"


def _oracle_budgets(rng):
    """Budgets from subnormals, where the grid step underflows to 0, to 1e308."""
    # np.linspace(0, 1.85793e-319, 2001) has 20 points above its stop
    budgets = [0.0, 4e-323, 1e-321, 1.85793e-319, 1e-300, 1.0, 3.0, 1e308]
    return budgets + list(10.0 ** rng.uniform(-323.0, 308.0, 300) * rng.random(300))


def test_oracle_grid_is_linspace_bitwise():
    # np.linspace overshoots its stop only where the step is subnormal, and
    # the oracle's grid is clamped to the budget there; where the step is
    # normal, every index that _certified scores without the grid is i * step
    rng = np.random.default_rng(909)
    budgets = _oracle_budgets(rng)
    for budget in budgets:
        for n in (2, 3, 2001, int(rng.integers(2, 5000))):
            linspace = np.linspace(0.0, budget, n)
            assert linspace[0] == 0.0 and linspace[-1] == budget
            step = float(budget) / (n - 1)
            if step >= 2.0**-1022:
                assert linspace.tobytes() == np.minimum(linspace, budget).tobytes()
                assert linspace[:-1].tobytes() == (np.arange(n - 1) * step).tobytes()


def test_oracle_refinement_ends_for_every_budget():
    # golden section over log c ends within 44 steps (46 evaluations) on
    # any bracket of floats, rising, falling or flat, whatever its scale
    s = CsrScenario(N=1, M=1, a=0.5, k=1.0, beta=0.5, delta=0.5, p=1.0, w=0.0)
    for budget in map(float, _oracle_budgets(np.random.default_rng(909))):
        c_ref, h_ref = optimize_oracle(replace(s, p=budget), 2001)
        assert 0.0 <= c_ref <= budget and math.isfinite(h_ref)
        for lo, hi in ((0.0, budget / 2000), (0.0, budget), (0.999 * budget, budget)):
            for slope in (1.0, -1.0, 0.0):
                calls = []
                c = _golden_max(lambda x: calls.append(x) or slope * x, lo, hi)
                assert lo <= c <= hi
                assert len(calls) <= 46


def test_optimizers_reject_a_winning_h_past_float_range():
    # H(c) holds (c*a)**beta = (c/2)**1e300, past float range for c > 2
    s = CsrScenario(N=1, M=1, a=0.5, k=1e10, beta=1e300, delta=0.5, p=3.0, w=0.0)
    message = r"^H past float range at outlay c={} \(H=inf\)$"
    with pytest.raises(ValueError, match=message.format(r"3\.0")):
        optimize_constrained(s)
    # hcsr_of_c names the first such outlay, of a scalar or an array
    with pytest.raises(ValueError, match=message.format(r"3\.0")):
        hcsr_of_c(3.0, s)
    with pytest.raises(ValueError, match=message.format(r"2\.5")):
        hcsr_of_c(np.array([[1.0, 2.0], [2.5, 3.0]]), s)
    # the oracle's first candidate past c = 2 wins the tie among the infs
    with pytest.raises(ValueError, match=message.format(r"2\.0\d*")):
        optimize_oracle(s, 2001)


def test_optimizers_reject_a_nan_h_past_float_range():
    # at c = 1e10 both terms of H overflow, so H = inf - inf = nan, while
    # the true H(1e10) is about 1.9e325; max() alone never picks a nan
    s = CsrScenario(N=10**153, M=10**153, a=0.5, k=1.0, beta=2.0, delta=0.5,
                    p=1e10, w=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = r"^H past float range at outlay c=10000000000\.0 \(H=nan\)$"
        with pytest.raises(ValueError, match=message):
            optimize_constrained(s)
        with pytest.raises(ValueError, match=r"^H past float range at outlay c="):
            optimize_oracle(s, 2001)


@pytest.mark.parametrize("k, p, c_star, h_star", [
    (1.0, 1e10, 0.07031249999999999, 7.031249999999997e304),
    # the finite maximum spans grid points below the first nan one
    (5.0, 1e4, 1.7578124999999996, 1.757812499999999e306),
])
def test_optimizers_skip_a_nan_h_far_below_zero(k, p, c_star, h_star):
    # beta < 1: where both terms of H overflow the true H is about -1e316,
    # so the finite interior maximum must still win
    s = CsrScenario(N=10**153, M=10**153, a=0.5, k=k, beta=0.5, delta=0.5,
                    p=p, w=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"H past float range at outlay c={p!r} (H=nan)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hcsr_of_c(p, s)
        report = optimize_constrained(s)
        assert (report.constrained_opt, report.objective_at_opt) == (c_star, h_star)
        for points in (2001, 10_000):
            c, value = optimize_oracle(s, points)
            assert c == pytest.approx(c_star, rel=1e-6)
            assert value == pytest.approx(h_star, rel=1e-10)
            assert value == hcsr_of_c(c, s)


# k * (c*a)**beta is finite in Python floats at the budget 2 * 3.25...,
# but NumPy's pow rounds (c*a)**beta one bit higher, past float max
_POW_ROUNDS_PAST_MAX = CsrScenario(N=1, M=1, a=0.5, k=1.0793482593468371e307,
                                   beta=2.3848423025793943, delta=0.5,
                                   p=2 * 3.252488904664145, w=0.0)


def test_optimizers_equal_errstate_reference_bitwise_property():
    # the package skips np.errstate where the budget bounds every H below
    # float max; any H it then let overflow would warn (an error here) or
    # differ from the reference
    rng = np.random.default_rng(2020)
    for s in [_POW_ROUNDS_PAST_MAX, *_extreme_scenarios(rng, 1000)]:
        ref_constrained, ref_oracle = _errstate_optimizers(s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = optimize_constrained(s)
                constrained = report.constrained_opt, report.objective_at_opt
            except ValueError as exc:
                constrained = str(exc)
            try:
                oracle = optimize_oracle(s, 2001)
            except ValueError as exc:
                oracle = str(exc)
        assert repr(constrained) == repr(ref_constrained), s
        assert repr(oracle) == repr(ref_oracle), s


@settings(max_examples=450)
@given(st.one_of(
    skip_edge_scenarios().map(lambda s: (s, 2001)),
    st.integers(0, 2**32 - 1).map(
        lambda seed: (_extreme_scenarios(np.random.default_rng(seed), 1)[0], 2001)),
    convex_end_scenarios(),
))
# beta >= 1 alone does not let the refinement be skipped.  Here (c*a)**beta
# is subnormal at the budget, so H there rounds to the H of the refined
# outlay just below it, which wins the tie
@example((CsrScenario(N=10**79, M=10**43, a=0.666577065872421, k=1.2949296662598811e289,
                      beta=1.5577551381065609, delta=0.3227421767802934,
                      p=3.321734511280194e-206, w=0.0), 2001))
# H(budget) is 2e-12 of the gain, so rounding lets the refinement beat it
@example((CsrScenario(N=5, M=2, a=0.338495195835977, k=11.736428496663622, beta=1.0,
                      delta=0.7850111155110768, p=3.1691020057939365, w=0.0), 2001))
# t(grid[-2]) is subnormal, so G is off by far more than the convex gap
@example((CsrScenario(N=int(4.188544566538050e95), M=45806, a=0.6195110430767343,
                      k=1.4200265397345585e26, beta=1.0880490153745432,
                      delta=0.7131626465586113, p=7.812714135703466e-294, w=0.0), 2001))
# H(grid[1]) < 0 by 2e-15 of the loss, and at the refined outlay 1.4e-307
# the rounding of G puts H at +1.5e-322
@example((CsrScenario(N=1, M=19, a=0.0003044350285646902, k=9514769.478616554, beta=1.0,
                      delta=0.8133699063446298, p=3.719499883564066, w=0.0), 2001))
# every product is subnormal, and their rounding puts the H of a grid point
# before the budget b above H(b), where the two ends alone prove b the peak
@example((CsrScenario(N=4, M=1, a=0.5, k=13.317014969421283, beta=1.0,
                      delta=0.8246260864625755, p=4.2175484e-317, w=0.0), 2001))
# (c*a)**beta is subnormal at grid[1] while its product with k is normal
@example((CsrScenario(N=3, M=4, a=0.5, k=4.601472348866735e16, beta=1.0533256495858618,
                      delta=0.053159456296778484, p=1.7048013644181218e-306, w=0.0,
                      loyalty_exponent=2), 4))
# H(b) just below and just above max(8*(n - 1), 2**23) * eta * (G(b) + L(b)),
# the margin at which the convex-ends rule proves the budget b the answer:
# 2**23 at n = 2001, and 8*(n - 1) at n = 1 500 001, where the golden
# section's first width is below 1e-6 and it makes no step
@example((CsrScenario(N=3, M=2, a=0.5, k=3.0738812242201945, beta=1.5, delta=0.5,
                      p=3.0, w=0.0), 2001))
@example((CsrScenario(N=3, M=2, a=0.5, k=3.073881224220195, beta=1.5, delta=0.5,
                      p=3.0, w=0.0), 2001))
@example((CsrScenario(N=3, M=2, a=0.5, k=3.073886279764919, beta=1.5, delta=0.5,
                      p=3.0, w=0.0), 1_500_001))
@example((CsrScenario(N=3, M=2, a=0.5, k=3.0738862797649196, beta=1.5, delta=0.5,
                      p=3.0, w=0.0), 1_500_001))
# H(b) is 33 * eta * (G(b) + L(b)), past the grid's margin 8*(n - 1) at
# n = 3, yet the refined outlay's rounding beats H(b): the 2**23 floor of the
# margin is what makes the oracle refine here
@example((CsrScenario(N=5, M=1, a=0.23545920238452683, k=34.37473787354205, beta=1.0,
                      delta=0.502998524483212, p=3.5948196059270203, w=0.0), 3))
# H(b) < 0 well past the rounding, but a < 2**-16 fails the zero end's rule
# for the refinement, which reaches outlays near 2**-1022
@example((CsrScenario(N=3, M=2, a=1e-5, k=1.0, beta=1.5, delta=0.5, p=3.0, w=0.0), 2001))
def test_oracle_equals_full_refinement_property(case):
    # the oracle skips its grid and its golden section where the convex-ends
    # rule proves both the grid's peak and the refinement's loss; the
    # reference always scores the grid and refines
    s, n = case
    _, reference = _errstate_optimizers(s, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            oracle = optimize_oracle(s, n)
        except ValueError as exc:
            oracle = str(exc)
    assert repr(oracle) == repr(reference)


def test_oracle_refines_only_where_h_can_peak_inside(monkeypatch):
    evaluations = []

    def counting_golden_max(f, lo, hi):
        return _golden_max(lambda c: evaluations.append(c) or f(c), lo, hi)

    monkeypatch.setattr("moebius_csr.decision._golden_max", counting_golden_max)
    base = CsrScenario(N=3, M=2, a=0.5, k=1.0, beta=2.0, delta=0.5, p=3.0, w=0.0)
    cases = [
        (dict(a=0.0, beta=0.5), 0.0),  # H = 0 everywhere
        (dict(a=0.0, beta=2.0), 0.0),
        (dict(k=1.0), 0.0),  # convex, H < 0 on the budget
        (dict(k=100.0), 3.0),  # convex, H(budget) > 0
        (dict(beta=1.0, k=1.0), 0.0),  # linear, falling
        (dict(beta=1.0, k=100.0), 3.0),  # linear, rising
        (dict(beta=3.7, k=0.3, a=0.1, p=4.2), 0.0),
    ]
    def no_grid(*args):
        raise AssertionError("the grid was scored")

    for change, c_best in cases:
        s = replace(base, **change)
        evaluations.clear()
        with monkeypatch.context() as patch:
            if s.beta >= 1.0:  # convex or linear: the two ends prove the peak
                patch.setattr("moebius_csr.decision._h", no_grid)
            assert optimize_oracle(s, 2001)[0] == c_best, change
            assert evaluations == [], change
            assert repr(optimize_oracle(s, 2001)) == repr(_errstate_optimizers(s)[1])
    grids = []
    monkeypatch.setattr("moebius_csr.decision._h", lambda grid, *args:
                        grids.append((grid.item(-1), grid.size)) or _h(grid, *args))
    for change, grid in (
        # concave: the peak lies inside, and the window around the root proves
        # where, so it is refined without the grid
        (dict(beta=0.5), []),
        (dict(a=1e-5), [(3.0, 2001)]),  # convex, but a < 2**-16 fails the zero end's rule
        # convex, with H(b) just below the budget end's margin
        (dict(k=3.0738812242201945, beta=1.5), [(3.0, 2001)]),
    ):
        s = replace(base, **change)
        evaluations.clear()
        grids.clear()
        assert repr(optimize_oracle(s, 2001)) == repr(_errstate_optimizers(s)[1]), change
        assert len(evaluations) > 0 and grids == grid, change


def test_oracle_window_takes_the_root_as_a_hint_only(monkeypatch):
    # a root at 0, inf, nan or a few grid steps off places the window away
    # from the grid's peak: the certificate fails and the whole grid is scored
    s = CsrScenario(N=3, M=2, a=0.5, k=1.0, beta=0.5, delta=0.5, p=3.0, w=0.0)
    reference = repr(_errstate_optimizers(s)[1])
    root, step = stationary_closed_form(s), 3.0 / 2000
    grids = []
    monkeypatch.setattr("moebius_csr.decision._h", lambda grid, *args:
                        grids.append((grid.item(-1), grid.size)) or _h(grid, *args))
    assert repr(optimize_oracle(s, 2001)) == reference and grids == []
    for wrong in (0.0, math.inf, math.nan, 1.0, root - 3.0 * step, root + 4.0 * step):
        grids.clear()
        monkeypatch.setattr("moebius_csr.decision._root", lambda *args: wrong)
        assert repr(optimize_oracle(s, 2001)) == reference, wrong
        assert grids == [(3.0, 2001)], wrong


def _cancelling_scenarios(rng, count):
    """Concave scenarios with beta = 1 - eps, eps from 1e-16 to 1e-9, and k
    fitted to put the root inside the budget: there H is eps of the gain,
    so the gain and the loss cancel to within the rounding of H."""
    out = []
    while len(out) < count:
        beta = 1.0 - 10.0 ** rng.uniform(-16.0, -9.0)
        M, a, delta = int(rng.integers(1, 5)), rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.95)
        lam = int(rng.choice(LOYALTY_EXPONENTS))
        p = rng.uniform(0.2, 4.2)
        root = p * rng.uniform(0.05, 0.95)
        b = 2.0 * M * (2.0 - delta) - 2.0 + a ** (lam - 2)
        k = 2.0 * M / (beta * a ** (1.0 + beta) * b * root ** (beta - 1.0))
        out.append(CsrScenario(N=int(rng.integers(1, 7)), M=M, a=a, k=k, beta=beta,
                               delta=delta, p=p, w=0.0, loyalty_exponent=lam))
    return out


def test_oracle_window_equals_full_grid_on_domain_draws(monkeypatch):
    # the concave oracle scores a window where its certificate holds and the
    # grid elsewhere; on concave draws over the whole domain, and on draws
    # where the gain and the loss cancel (there the certificate's 2E margin
    # decides: with a margin of 0 the window is taken on rounding noise),
    # both paths must run and equal the reference that scores the grid
    certified = []
    monkeypatch.setattr("moebius_csr.decision._certified",
                        lambda *args: certified.append(_certified(*args)) or certified[-1])
    extreme = [s for s in _extreme_scenarios(np.random.default_rng(4243), 2000)
               if s.beta < 1.0 and s.a > 0.0]
    for draws in (extreme, _cancelling_scenarios(np.random.default_rng(4244), 400)):
        certified.clear()
        for s in draws:
            for n in (3, 17, 2001):
                _, reference = _errstate_optimizers(s, n)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        oracle = optimize_oracle(s, n)
                    except ValueError as exc:
                        oracle = str(exc)
                assert repr(oracle) == repr(reference), (s, n)
        assert None in certified and any(w is not None for w in certified)


def test_oracle_refines_below_the_convex_ends_floor(monkeypatch):
    # at n below 2**20 the budget end's margin max(8*(n - 1), 2**23) * eta *
    # (G(b) + L(b)) is its floor: with H(b) = m * eta * (G(b) + L(b)), k
    # fitted, the oracle must refine wherever m < 2**23 and skip above it
    evaluations = []

    def counting_golden_max(f, lo, hi):
        return _golden_max(lambda c: evaluations.append(c) or f(c), lo, hi)

    monkeypatch.setattr("moebius_csr.decision._golden_max", counting_golden_max)
    rng = np.random.default_rng(2323)
    for _ in range(300):
        n, log2_m = int(rng.choice([3, 4, 17, 2001])), rng.uniform(0.0, 26.0)
        if abs(log2_m - 23.0) < 0.01:  # the @examples pin the margin itself
            continue
        beta = float(rng.choice([1.0, rng.uniform(1.0, 4.0)]))
        s = CsrScenario(N=int(rng.integers(1, 7)), M=int(rng.integers(1, 5)),
                        a=rng.uniform(0.1, 0.9), k=1.0, beta=beta, delta=rng.uniform(0.05, 0.95),
                        p=rng.uniform(0.5, 5.0), w=0.0,
                        loyalty_exponent=int(rng.choice(LOYALTY_EXPONENTS)))
        m_eta = 2.0**log2_m * (beta + 2.0**10) * 2.0**-52
        gain = s.k * (s.p * s.a) ** beta * s.a * s.a * s.N * bracket(s)
        s = replace(s, k=2.0 * s.N * s.M * s.a * s.p / gain * (1.0 + m_eta) / (1.0 - m_eta))
        evaluations.clear()
        assert repr(optimize_oracle(s, n)) == repr(_errstate_optimizers(s, n)[1]), (s, n)
        assert bool(evaluations) == (log2_m < 23.0), (s, n, log2_m)


# --- comparative statics ---------------------------------------------------


def test_statics_reference_values(s0, s1):
    assert comparative_statics(s0, "delta") == pytest.approx(
        0.9351010639696788, rel=1e-9
    )
    assert comparative_statics(s0, "beta") == pytest.approx(
        -0.16394436832539716, rel=1e-9
    )
    assert comparative_statics(s0, "M") == pytest.approx(
        -0.12399805145919118, rel=1e-9
    )
    # the low-sensitivity regime reverses the delta and M responses
    assert comparative_statics(s1, "delta") < 0
    assert comparative_statics(s1, "M") > 0


def test_statics_m_is_discrete_forward_difference(s0):
    expected = stationary_closed_form(replace(s0, M=3)) - stationary_closed_form(s0)
    assert comparative_statics(s0, "M") == expected


def test_statics_step_shrinks_once_then_fails(s0):
    near_edge = replace(s0, delta=0.0075)
    # full step leaves (0,1); the halved step stays inside
    value = comparative_statics(near_edge, "delta")
    assert math.isfinite(value)
    with pytest.raises(ValueError):
        comparative_statics(replace(s0, delta=0.004), "delta")


def test_statics_past_float_range_raises():
    # both stepped roots are inf, so every difference would be inf - inf
    s = CsrScenario(N=1, M=1, a=1e-10, k=1.0, beta=40.0, delta=0.5, p=1e10, w=0.0)
    for param in ("delta", "beta", "M"):
        with pytest.raises(ValueError, match=f"^sensitivity to {param} is not finite"):
            comparative_statics(s, param)


def _bits_or_error(f, *args):
    try:
        return struct.pack("<d", f(*args))
    except ValueError as exc:
        return type(exc), str(exc)


def _near(x, width):
    return st.floats(x - width, x + width)


@settings(max_examples=300)
@given(
    st.fixed_dictionaries(dict(
        N=st.one_of(st.integers(1, 200), st.integers(1, 10**160)),
        M=st.one_of(st.integers(1, 50), st.integers(1, 10**160)),
        # a, k and beta far enough out push the root past float range
        a=st.one_of(
            st.floats(0.0, 1.0, exclude_max=True), _log_uniform(-320.0, -0.001)
        ),
        k=st.one_of(st.floats(1e-3, 1e3), _log_uniform(-300.0, 308.0)),
        # beta straddling the knife edge and near 0, where the step halves
        # or fails
        beta=st.one_of(
            _near(1.0, 1e-2), st.floats(0.0, 2e-2, exclude_min=True),
            st.floats(0.0, 6.0, exclude_min=True), _log_uniform(-300.0, 300.0),
        ),
        # delta within 1e-2 of either end, where the step halves or fails
        delta=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(0.0, 2e-2, exclude_min=True),
            st.floats(0.98, 1.0, exclude_max=True),
        ),
        p=st.floats(0.0, 10.0),
        w=st.floats(0.0, 10.0),
        loyalty_exponent=st.sampled_from([2, 4]),
    ))
)
@example(dict(N=10, M=2, a=0.5, k=2.0, beta=2.0, delta=0.0075, p=3.0, w=1.0,
              loyalty_exponent=4))  # delta: the step halves
@example(dict(N=10, M=2, a=0.5, k=2.0, beta=1.005, delta=0.004, p=3.0, w=1.0,
              loyalty_exponent=4))  # delta and beta: both steps fail
@example(dict(N=10, M=2, a=0.5, k=2.0, beta=1.008, delta=0.9925, p=3.0, w=1.0,
              loyalty_exponent=2))  # beta: the full step straddles 1
@example(dict(N=1, M=1, a=1e-10, k=1.0, beta=40.0, delta=0.5, p=1e10, w=0.0,
              loyalty_exponent=4))  # every root past float range
@example(dict(N=4 * 10**307, M=1, a=0.5, k=1.0, beta=0.5, delta=0.5, p=1.0, w=0.0,
              loyalty_exponent=4))  # M + 1 puts 4*N*M past float range
def test_statics_equal_replace_reference_property(values):
    try:
        s = CsrScenario(**values)
    except ValueError:
        reject()
    for param in ("delta", "beta", "M"):
        got = _bits_or_error(comparative_statics, s, param)
        assert got == _bits_or_error(_replace_statics, s, param), param


def test_statics_rejects_knife_edge_and_bad_param(s0, s2):
    with pytest.raises(ValueError):
        comparative_statics(s2, "delta")  # beta = 1
    with pytest.raises(ValueError):
        comparative_statics(s0, "alpha")
    # stepping beta across 1 is refused rather than silently mixing regimes
    with pytest.raises(ValueError):
        comparative_statics(replace(s0, beta=1.005), "beta")


# --- the paper's result over the whole valid domain --------------------------


@settings(max_examples=200)
@given(paper_scenarios(st.one_of(st.floats(0.01, 1.0, exclude_max=True),
                                 st.floats(1.0, 10.0, exclude_min=True))))
def test_statics_sign_table_property(s):
    # c* = (2M / (beta*k*a**(1 + beta)*B)) ** (1/(beta - 1)).  M/B falls
    # with M, since d(M/B)/dM = (a**(lam - 2) - 2)/B**2 and a < 1, and B
    # falls with delta.  So below the knife edge c* rises with the number
    # of sectors and falls with the decay rate; above it both signs reverse.
    c_star = stationary_closed_form(s)
    if not 0.0 < c_star < math.inf:
        reject()  # a root outside float range carries no sign
    below = 1.0 if s.beta < 1.0 else -1.0
    for param, sign in (("M", below), ("delta", -below)):
        try:
            diff = comparative_statics(s, param)
        except ValueError as exc:
            assert str(exc).startswith(f"sensitivity to {param} is not finite")
            continue
        assert sign * diff > 0.0, param


@settings(max_examples=200)
@given(paper_scenarios(st.one_of(st.floats(0.01, 10.0), st.just(1.0))))
def test_invest_rule_property(s):
    # with budget b = p - w > 0 the firm invests (c_opt > 0) exactly when
    # beta < 1, or when k * a**(1 + beta) * B * b**(beta - 1) > 2M: for
    # beta > 1 that is H(b) > 0, at beta == 1 the sign of the constant slope
    b = s.p - s.w
    threshold = s.k * s.a ** (1.0 + s.beta) * bracket(s) * b ** (s.beta - 1.0)
    if abs(threshold - 2.0 * s.M) <= 1e-12 * 2.0 * s.M:
        reject()  # too close to call in floats
    c_star = stationary_closed_form(s)
    if s.beta < 1.0 and not c_star >= 2.0**-1022:
        reject()  # the maximum lies below every normal float outlay
    invests = s.beta < 1.0 or threshold > 2.0 * s.M
    assert (optimize_constrained(s).constrained_opt > 0.0) == invests
