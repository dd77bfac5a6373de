import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import naive_antipodal_sum, naive_ring_sum, naive_rung_sum, naive_sum
from moebius_csr.csr_cost import CsrParams, total_hcsr
from moebius_csr.hamiltonian import HoppingParams, assemble
from moebius_csr.lattice import build_cylinder, build_moebius


def zero_outlay(a, params):
    """``total_hcsr`` of ``a`` with every outlay 0, read for its addends."""
    return total_hcsr(a, np.zeros_like(a), params)


def random_grids(rng, N, M):
    a = rng.uniform(0.0, 1.0, size=(2 * N, M)) * 0.999
    c = rng.uniform(0.0, 3.0, size=(2 * N, M))
    return a, c


def test_terms_match_naive_loops_bit_for_bit():
    rng = np.random.default_rng(42)
    for _ in range(30):
        N = int(rng.integers(1, 6))
        M = int(rng.integers(1, 6))
        a, c = random_grids(rng, N, M)
        params = CsrParams(
            t1=float(rng.uniform(0, 2)),
            t2=float(rng.uniform(0, 2)),
            delta=float(rng.uniform(0.05, 0.95)),
        )
        breakdown = total_hcsr(a, c, params)
        assert breakdown.neighborhood == params.t1 * (1.0 - params.delta) * naive_ring_sum(a)
        assert breakdown.sector == params.t2 * naive_rung_sum(a)
        assert breakdown.loyalty == (params.t2 / 2.0) * naive_antipodal_sum(a)
        assert breakdown.cost == -naive_sum(c)


def test_breakdown_addends_sum_exactly():
    rng = np.random.default_rng(9)
    for _ in range(20):
        N = int(rng.integers(1, 5))
        M = int(rng.integers(1, 5))
        a, c = random_grids(rng, N, M)
        params = CsrParams(t1=1.4, t2=0.6, delta=0.3)
        b = total_hcsr(a, c, params)
        assert b.total == ((b.cost + b.neighborhood) + b.sector) + b.loyalty


def test_two_site_wire_neighborhood():
    # single 2-site wire: the cyclic sum has terms xy and yx
    x, y = 0.4, 0.7
    a = np.array([[x], [y]])
    params = CsrParams(t1=1.0, t2=0.0, delta=0.5)
    assert zero_outlay(a, params).neighborhood == pytest.approx(x * y, rel=1e-15)


def test_single_wire_has_no_sector_term():
    a = np.array([[0.1], [0.2], [0.3], [0.4]])
    assert zero_outlay(a, CsrParams(t1=1.0, t2=2.0, delta=0.5)).sector == 0.0


def test_sector_single_pair():
    a = np.zeros((2, 2))
    a[0, 0] = 0.2
    a[0, 1] = 0.5
    params = CsrParams(t1=0.0, t2=2.0, delta=0.5)
    assert zero_outlay(a, params).sector == pytest.approx(0.2, rel=1e-15)


def test_loyalty_halving():
    # antipodal column (0.1, 0.2, 0.3, 0.4): raw double-counted sum is
    # 2*(0.1*0.3 + 0.2*0.4) = 0.22, halved to 0.11
    a = np.array([[0.1], [0.2], [0.3], [0.4]])
    params = CsrParams(t1=0.0, t2=1.0, delta=0.5)
    assert zero_outlay(a, params).loyalty == pytest.approx(0.11, rel=1e-14)


def test_constant_matrix_summands():
    rng = np.random.default_rng(17)
    for _ in range(20):
        N = int(rng.integers(1, 6))
        M = int(rng.integers(1, 6))
        value = float(rng.uniform(0.05, 0.95))
        t1 = float(rng.uniform(0.1, 2))
        t2 = float(rng.uniform(0.1, 2))
        delta = float(rng.uniform(0.05, 0.95))
        a = np.full((2 * N, M), value)
        params = CsrParams(t1=t1, t2=t2, delta=delta)
        sq = value * value
        assert zero_outlay(a, params).neighborhood == pytest.approx(
            t1 * (1 - delta) * 2 * N * M * sq, rel=1e-12
        )
        assert zero_outlay(a, params).sector == pytest.approx(
            t2 * 2 * N * (M - 1) * sq, rel=1e-12
        )
        assert zero_outlay(a, params).loyalty == pytest.approx(t2 * N * sq, rel=1e-12)


def test_zero_contributions_give_pure_cost():
    c = np.array([[1.0, 0.5], [0.25, 0.25]])
    b = total_hcsr(np.zeros((2, 2)), c, CsrParams(t1=1.0, t2=1.0, delta=0.5))
    assert b.neighborhood == 0.0 and b.sector == 0.0 and b.loyalty == 0.0
    assert b.total == -2.0


def test_monotonicity_in_single_entry():
    rng = np.random.default_rng(31)
    params = CsrParams(t1=0.8, t2=1.2, delta=0.4)
    for _ in range(20):
        N = int(rng.integers(1, 4))
        M = int(rng.integers(1, 4))
        a, _ = random_grids(rng, N, M)
        i = int(rng.integers(0, 2 * N))
        j = int(rng.integers(0, M))
        bumped = a.copy()
        bumped[i, j] = min(a[i, j] + 0.05, 0.9999)
        before, after = zero_outlay(a, params), zero_outlay(bumped, params)
        for term in ("neighborhood", "sector", "loyalty"):
            assert getattr(after, term) >= getattr(before, term)


def test_linearity_in_sensitivities():
    rng = np.random.default_rng(13)
    a, _ = random_grids(rng, 3, 3)
    base = CsrParams(t1=1.0, t2=1.0, delta=0.25)
    scaled = CsrParams(t1=3.0, t2=5.0, delta=0.25)
    assert zero_outlay(a, scaled).neighborhood == pytest.approx(
        3.0 * zero_outlay(a, base).neighborhood, rel=1e-14
    )
    assert zero_outlay(a, scaled).sector == pytest.approx(
        5.0 * zero_outlay(a, base).sector, rel=1e-14
    )
    assert zero_outlay(a, scaled).loyalty == pytest.approx(
        5.0 * zero_outlay(a, base).loyalty, rel=1e-14
    )
    half = CsrParams(t1=1.0, t2=1.0, delta=0.625)
    assert zero_outlay(a, half).neighborhood == pytest.approx(
        0.5 * zero_outlay(a, base).neighborhood, rel=1e-13
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    N=st.integers(1, 6),
    M=st.integers(1, 5),
    t1=st.floats(0.0, 10.0),
    t2=st.floats(0.0, 10.0),
    delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    data=st.data(),
)
def test_interaction_is_the_strip_hamiltonian_form_property(N, M, t1, t2, delta, data):
    # the three pair sums are -1/2 v.H.v of the strip Hamiltonian at zero
    # flux: no formula or sum kernel is shared with csr_cost
    entries = st.floats(0.0, 1.0, exclude_max=True)
    a = data.draw(arrays(np.float64, (2 * N, M), elements=entries))
    h = assemble(build_moebius(N, M), HoppingParams(t1 * (1.0 - delta), t2))
    v = a.T.ravel()  # wire-major, as site_index
    form = -0.5 * (v @ h @ v).real
    terms = zero_outlay(a, CsrParams(t1, t2, delta))
    interaction = terms.neighborhood + terms.sector + terms.loyalty
    # products below the smallest normal float round on an absolute grid
    assert math.isclose(interaction, form, rel_tol=1e-13, abs_tol=np.finfo(float).tiny)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    N=st.integers(1, 6),
    M=st.integers(1, 5),
    t1=st.floats(0.0, 10.0),
    t2=st.floats(0.0, 10.0),
    delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    data=st.data(),
)
def test_twist_bound_property(N, M, t1, t2, delta, data):
    # the interaction is at most |lambda_min| / 2 * sum(a**2), lambda_min the
    # lowest level of the strip at zero flux, and the Perron vector attains
    # it: uniform along each wire and sin(pi*m/(2M+1)) across the wires of
    # the Moebius strip (largest on the loyalty wire m = M), sin(pi*m/(M+1))
    # on the cylinder (Horn & Johnson, Matrix Analysis, 4.2 and ch. 8)
    entries = st.floats(0.0, 1.0, exclude_max=True)
    a = data.draw(arrays(np.float64, (2 * N, M), elements=entries))
    hopping = HoppingParams(t1 * (1.0 - delta), t2)

    def cost_terms(h, x):  # the cost functional, defined on the Moebius strip
        terms = zero_outlay(x, CsrParams(t1, t2, delta))
        return terms.neighborhood + terms.sector + terms.loyalty

    def form(h, x):  # -1/2 v.H.v, its value on any strip
        v = x.T.ravel()
        return -0.5 * (v @ h @ v).real

    wires = np.arange(1, M + 1)
    for lattice, folded, interaction in ((build_moebius(N, M), 2 * M + 1, cost_terms),
                                         (build_cylinder(N, M), M + 1, form)):
        h = assemble(lattice, hopping)
        lam_min = -2.0 * hopping.t1 - 2.0 * t2 * math.cos(math.pi / folded)
        assert math.isclose(lam_min, np.linalg.eigvalsh(h)[0], rel_tol=1e-12, abs_tol=1e-12)
        bound = -0.5 * lam_min * np.sum(a * a)
        assert interaction(h, a) <= bound * (1.0 + 1e-12) + np.finfo(float).tiny
        perron = np.tile(0.5 * np.sin(np.pi * wires / folded), (2 * N, 1))
        assert math.isclose(interaction(h, perron), -0.5 * lam_min * np.sum(perron**2),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_total_past_float_range_names_the_term_without_warnings():
    a, ones = np.full((4, 2), 0.5), np.ones((4, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # each addend is finite (1e308, 1e308 and 5e307); their sum is not
        with pytest.raises(ValueError, match=r"^total past float range \(inf\)$"):
            total_hcsr(a, ones, CsrParams(t1=1e308, t2=1e308, delta=0.5))
        with pytest.raises(ValueError, match=r"^cost past float range \(-inf\)$"):
            total_hcsr(a, np.full((4, 2), 1e308), CsrParams(t1=1.0, t2=1.0, delta=0.5))
        # the largest finite outlay sum still comes back
        big = np.zeros((4, 2))
        big[0, 0] = np.finfo(np.float64).max
        assert total_hcsr(a, big, CsrParams(t1=0.0, t2=0.0, delta=0.5)).cost == -big[0, 0]


def test_validation_errors():
    good = np.full((2, 2), 0.5)  # valid as contributions and as outlays
    params = CsrParams(t1=1.0, t2=1.0, delta=0.5)
    for a, c, message in (
        (np.full((2, 2), 1.0), good, r"^contribution entries must lie in \[0, 1\)$"),
        (np.full((2, 2), -0.1), good, r"^contribution entries must lie in \[0, 1\)$"),
        (np.full((3, 2), 0.5), good,
         r"^contribution matrix needs an even row count >= 2, got 3$"),
        (np.full((2,), 0.5), good, r"^contribution matrix must be 2-d, got 1-d$"),
        (good, np.full((2, 2), -1.0), r"^cost entries must be >= 0$"),
        (good, np.full((2, 0), 1.0), r"^cost matrix needs at least one column$"),
        (good, np.array([[np.nan, 0.0], [0.0, 0.0]]), r"^cost matrix must be finite$"),
    ):
        with pytest.raises(ValueError, match=message):
            total_hcsr(a, c, params)
    with pytest.raises(ValueError):
        total_hcsr(good, np.zeros((4, 2)), params)  # shape mismatch
    for bad in (
        dict(t1=-1.0, t2=1.0, delta=0.5),
        dict(t1=1.0, t2=-0.1, delta=0.5),
        dict(t1=1.0, t2=1.0, delta=0.0),
        dict(t1=1.0, t2=1.0, delta=1.0),
        dict(t1=np.inf, t2=1.0, delta=0.5),
    ):
        with pytest.raises(ValueError):
            CsrParams(**bad)
