import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bisect_root, random_scenario
from moebius_csr import csr_cost
from moebius_csr.decision import (
    SCENARIO_KEYS,
    BetaRegime,
    CsrScenario,
    StationaryKind,
    beta_regime,
    bracket,
    classify_stationary,
    comparative_statics,
    dhcsr_dc,
    hcsr_of_c,
    optimize_constrained,
    optimize_oracle,
    stationary_closed_form,
)


def second_difference(s, c, rel_step=1e-3):
    h = rel_step * c
    return hcsr_of_c(c + h, s) - 2.0 * hcsr_of_c(c, s) + hcsr_of_c(c - h, s)


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


@settings(derandomize=True, max_examples=300, deadline=None)
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
    # array evaluation agrees with scalar evaluation pointwise
    grid = np.array([0.0, 0.1, 0.7, 2.0])
    values = hcsr_of_c(grid, s1)
    assert values.shape == grid.shape
    for c, v in zip(grid, values):
        assert v == hcsr_of_c(float(c), s1)
    assert hcsr_of_c(0.267363, s1) == pytest.approx(5.3473, abs=2e-4)


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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scenarios(max_beta=40.0, max_p=1e12, max_w=1e3), st.data())
def test_hcsr_scalar_equals_array_bitwise_property(s, data):
    budget = max(0.0, s.p - s.w)
    grid = np.linspace(0.0, budget, 17)
    picks = data.draw(st.lists(st.floats(0.0, max(budget, 1.0)), max_size=8))
    outlays = np.concatenate([grid, picks, [1.0]])
    positive = outlays[outlays > 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or 0 * inf warnings
        # H over every outlay, H' over the positive ones
        for f, xs in ((hcsr_of_c, outlays), (dhcsr_dc, positive)):
            values = f(xs, s)
            for c, v in zip(xs, values):
                scalar = f(float(c), s)
                assert not math.isnan(scalar)
                assert scalar == v


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scenarios(max_beta=6.0, max_p=10.0, max_w=10.0))
def test_optimizer_matches_oracle_property(s):
    # the oracle refines to 1e-10 * budget, so the budget stays at the
    # scale where that resolves H to the tolerance below
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # closed-form root
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


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(101)
    for _ in range(40):
        s = random_scenario(rng)
        c = float(rng.uniform(0.2, 2.0))
        h = 1e-6 * c
        fd = (hcsr_of_c(c + h, s) - hcsr_of_c(c - h, s)) / (2.0 * h)
        an = dhcsr_dc(c, s)
        assert an == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_derivative_finite_where_power_of_a_underflows():
    # the expanded c**(beta - 1) * a**(2 + beta) gave inf * 0 = nan here
    s = CsrScenario(N=1, M=1, a=1e-10, k=1.0, beta=40.0, delta=0.5, p=1e10, w=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dhcsr_dc(1e10, s) == pytest.approx(-2e-10, rel=1e-12)
        assert dhcsr_dc(np.array([1e10]), s)[0] == dhcsr_dc(1e10, s)


def test_derivative_rejects_nonpositive_c(s0):
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            dhcsr_dc(bad, s0)


def test_beta_one_derivative_is_constant(s2):
    d1 = dhcsr_dc(0.3, s2)
    d2 = dhcsr_dc(1.7, s2)
    assert d1 == pytest.approx(d2, rel=1e-14)
    # sign rule: k a^2 [2M(2-delta)-2+a^2] - 2M, positive here
    sign_value = s2.k * s2.a**2 * bracket(s2) - 2 * s2.M
    assert sign_value == pytest.approx(0.8681, abs=1e-10)
    assert d1 > 0


# --- stationary points ---------------------------------------------------


def test_stationary_reference_values(s0, s1):
    c0 = stationary_closed_form(s0)
    c1 = stationary_closed_form(s1)
    assert c0 == pytest.approx(1.3675213675213675, rel=1e-14)
    assert c1 == pytest.approx(0.26736328125, rel=1e-14)


def test_stationary_agrees_with_bisection(s0, s1):
    for s in (s0, s1):
        root = bisect_root(lambda c: dhcsr_dc(c, s), 1e-6, 10.0)
        assert stationary_closed_form(s) == pytest.approx(root, rel=1e-10)


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


def test_foc_consistency_property():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        s = random_scenario(rng)
        c_star = stationary_closed_form(s)
        assert c_star is not None and math.isfinite(c_star) and c_star > 0
        scale = 2.0 * s.N * s.M * s.a
        assert abs(dhcsr_dc(c_star, s)) <= 1e-9 * scale


def test_stationary_continuity_near_knife_edge(s0):
    for betas in (np.arange(1.1, 3.0, 0.01), np.arange(0.2, 0.9, 0.01)):
        values = [stationary_closed_form(replace(s0, beta=float(b))) for b in betas]
        assert all(v is not None and math.isfinite(v) and v > 0 for v in values)
        logs = np.log(values)
        assert np.abs(np.diff(logs)).max() < 1.0  # smooth on each side


def test_classification():
    rng = np.random.default_rng(404)
    for _ in range(50):
        s = random_scenario(rng)
        kind = classify_stationary(s)
        expected = (
            StationaryKind.LOCAL_MIN if s.beta > 1 else StationaryKind.LOCAL_MAX
        )
        assert kind is expected
    s2 = CsrScenario(N=5, M=2, a=0.9, k=1.0, beta=1.0, delta=0.2, p=3.0, w=1.0)
    assert classify_stationary(s2) is StationaryKind.FLAT_DERIVATIVE
    zero = CsrScenario(N=2, M=1, a=0.0, k=1.0, beta=2.0, delta=0.5, p=2.0, w=1.0)
    assert classify_stationary(zero) is None


def test_classification_matches_second_difference(s0, s1):
    assert second_difference(s0, stationary_closed_form(s0)) > 0  # LocalMin
    assert second_difference(s1, stationary_closed_form(s1)) < 0  # LocalMax


def test_beta_regime(s0, s1, s2):
    assert beta_regime(s0) is BetaRegime.BETA_ABOVE_ONE
    assert beta_regime(s1) is BetaRegime.BETA_BELOW_ONE
    assert beta_regime(s2) is BetaRegime.BETA_EQUAL_ONE


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


def test_optimize_beta_one_corner_rule(s2):
    # positive constant slope: spend the whole budget
    report = optimize_constrained(s2)
    assert report.constrained_opt == 2.0
    assert report.stationary is None
    assert report.stationary_kind is StationaryKind.FLAT_DERIVATIVE
    # raising delta flips the slope sign and the corner
    flipped = replace(s2, delta=0.95)
    sign_value = flipped.k * flipped.a**2 * bracket(flipped) - 2 * flipped.M
    assert sign_value == pytest.approx(-1.5619, abs=1e-10)
    report2 = optimize_constrained(flipped)
    assert report2.constrained_opt == 0.0


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
    with pytest.raises(ValueError):
        optimize_oracle(s0, grid_points=2)


def test_oracle_equivalence_property():
    rng = np.random.default_rng(808)
    for _ in range(100):
        s = random_scenario(rng)
        report = optimize_constrained(s)
        c_ref, h_ref = optimize_oracle(s)
        budget = max(0.0, s.p - s.w)
        assert abs(report.constrained_opt - c_ref) <= max(1e-8, budget / 10_000)
        assert report.objective_at_opt == pytest.approx(
            h_ref, rel=1e-10, abs=1e-12
        )


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


def test_statics_rejects_knife_edge_and_bad_param(s0, s2):
    with pytest.raises(ValueError):
        comparative_statics(s2, "delta")  # beta = 1
    with pytest.raises(ValueError):
        comparative_statics(s0, "alpha")
    # stepping beta across 1 is refused rather than silently mixing regimes
    with pytest.raises(ValueError):
        comparative_statics(replace(s0, beta=1.005), "beta")