"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single
``[criterion N] PASS/FAIL`` line; run with ``pytest -s`` to see them.
Reference values are frozen from independent oracles (bisection, dense
LAPACK, grid search, exact rational arithmetic), never from the code
under test.
"""

import contextlib
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import sympy

from conftest import (
    COST_REPORT,
    OPTIMIZE_S0_REPORT,
    SPECTRUM_CSV,
    STATICS_M_CSV,
    bisect_root,
    coordinate_neighbors,
    dhcsr_expanded,
    incidences,
    random_scenario,
    ring_dispersion,
    second_difference,
)
from moebius_csr import cli, csr_cost
from moebius_csr.decision import (
    CsrScenario,
    StationaryKind,
    bracket,
    comparative_statics,
    hcsr_of_c,
    optimize_constrained,
    optimize_oracle,
    stationary_closed_form,
)
from moebius_csr.hamiltonian import HoppingParams, assemble, eigenvalues
from moebius_csr.lattice import EdgeKind, build_cylinder, build_moebius


@contextlib.contextmanager
def criterion(num, summary):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {summary}")
        raise
    print(f"[criterion {num}] PASS - {summary}")


def test_criterion_01_closed_form_roots(s0, s1):
    with criterion(1, "closed-form stationary points match bisection roots in < 1 s"):
        start = time.perf_counter()
        for s, expected in ((s0, 1.367521), (s1, 0.267363)):
            root = bisect_root(lambda c: dhcsr_expanded(c, s), 1e-6, 10.0)
            closed = stationary_closed_form(s)
            assert abs(closed - root) <= 1e-10 * abs(root)
            assert closed == pytest.approx(expected, abs=5e-7)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_regime_classification():
    with criterion(2, "200 random scenarios classify by the second-difference sign"):
        rng = np.random.default_rng(20260816)
        failures = 0
        for i in range(200):
            s = random_scenario(rng, regime="above" if i % 2 else "below")
            c_star = stationary_closed_form(s)
            kind = optimize_constrained(s).stationary_kind
            curvature = second_difference(s, c_star)
            if s.beta > 1.0:
                ok = kind is StationaryKind.LOCAL_MIN and curvature > 0.0
            else:
                ok = kind is StationaryKind.LOCAL_MAX and curvature < 0.0
            failures += not ok
        assert failures == 0


def test_criterion_03_flat_slope_corner_rule(s2):
    with criterion(3, "constant-slope sign picks the budget corner, grid-confirmed"):
        sign_value = s2.k * s2.a**2 * bracket(s2) - 2.0 * s2.M
        assert sign_value == pytest.approx(0.8681, abs=1e-10)
        assert sign_value > 0.0
        report = optimize_constrained(s2)
        assert report.constrained_opt == 2.0  # spend the whole budget p - w
        c_ref, h_ref = optimize_oracle(s2, 10_000)
        assert c_ref == 2.0
        assert h_ref == report.objective_at_opt

        flipped = replace(s2, delta=0.95)
        flipped_sign = flipped.k * flipped.a**2 * bracket(flipped) - 2.0 * flipped.M
        assert flipped_sign == pytest.approx(-1.5619, abs=1e-10)
        assert flipped_sign < 0.0
        report2 = optimize_constrained(flipped)
        assert report2.constrained_opt == 0.0
        c_ref2, h_ref2 = optimize_oracle(flipped, 10_000)
        assert c_ref2 == 0.0
        assert h_ref2 == report2.objective_at_opt == 0.0


def test_criterion_04_oracle_equivalence():
    with criterion(4, "closed-form optimizer matches the grid oracle on 200 draws"):
        start = time.perf_counter()
        rng = np.random.default_rng(40404)
        for _ in range(200):
            s = random_scenario(rng)
            report = optimize_constrained(s)
            c_ref, h_ref = optimize_oracle(s)
            budget = max(0.0, s.p - s.w)
            assert abs(report.constrained_opt - c_ref) <= max(1e-8, budget / 10_000)
            assert abs(report.objective_at_opt - h_ref) <= 1e-10 * max(1.0, abs(h_ref))
        assert time.perf_counter() - start < 30.0


def test_criterion_05_lattice_functional_consistency():
    with criterion(5, "matrix functional equals the reduced objective, both exponents"):
        # quadratic pairing: lattice sums on constant matrices vs closed form
        rng = np.random.default_rng(505)
        for _ in range(50):
            s = replace(random_scenario(rng), loyalty_exponent=2)
            c = float(rng.uniform(0.05, 2.5))
            a_mat = np.full((2 * s.N, s.M), s.a)
            c_mat = np.full((2 * s.N, s.M), c * s.a)
            t = s.k * (c * s.a) ** s.beta
            params = csr_cost.CsrParams(t1=t, t2=t, delta=s.delta)
            total = csr_cost.total_hcsr(a_mat, c_mat, params).total
            want = hcsr_of_c(c, s)
            assert abs(total - want) <= 1e-12 * max(1.0, abs(want))

        # quartic pairing: exact coefficient match against the reduced
        # polynomial, checked in rational arithmetic at 3 random outlays
        c_sym = sympy.Symbol("c", positive=True)
        n_, m_ = 3, 2
        a_ = sympy.Rational(1, 2)
        k_ = sympy.Rational(3, 4)
        beta_ = 2
        delta_ = sympy.Rational(1, 4)
        reduced = (
            -c_sym * a_ * 2 * n_ * m_
            + 2 * k_ * c_sym**beta_ * n_ * m_ * (1 - delta_) * a_ ** (2 + beta_)
            + 2 * k_ * c_sym**beta_ * n_ * (m_ - 1) * a_ ** (2 + beta_)
            + k_ * c_sym**beta_ * n_ * a_ ** (4 + beta_)
        )
        scenario = CsrScenario(
            N=3, M=2, a=0.5, k=0.75, beta=2.0, delta=0.25, p=5.0, w=1.0
        )
        picks = np.random.default_rng(55).choice(np.arange(1, 257), 3, replace=False)
        for num in picks:
            cv = sympy.Rational(int(num), 64)  # dyadic, exact as a float
            got = sympy.Rational(hcsr_of_c(float(cv), scenario))
            assert got == reduced.subs(c_sym, cv)
        # two evaluations pin both coefficients of H(c) = -A c + G c^2
        h1 = sympy.Rational(hcsr_of_c(1.0, scenario))
        h2 = sympy.Rational(hcsr_of_c(2.0, scenario))
        g_impl = (h2 - 2 * h1) / 2
        a_impl = g_impl - h1
        assert sympy.Poly(reduced, c_sym).all_coeffs() == [g_impl, -a_impl, 0]


def test_criterion_06_comparative_statics_signs(s0, s1):
    with criterion(6, "sensitivity signs at S0 and their reversal at S1"):
        assert comparative_statics(s0, "delta") > 0.0
        assert comparative_statics(s0, "M") < 0.0
        assert comparative_statics(s0, "beta") < 0.0
        assert comparative_statics(s1, "delta") < 0.0  # reversed
        assert comparative_statics(s1, "M") > 0.0  # reversed
        # the beta response does not flip at S1: it is a knife edge,
        # measurably negative but near zero
        assert abs(comparative_statics(s1, "beta")) < 0.02


def test_criterion_07_hamiltonian_suite():
    with criterion(7, "Hermiticity, trace, flux period, ring limit in < 60 s"):
        start = time.perf_counter()
        # solver sanity on analytic cases
        diag = np.diag([3.0, 1.0, 2.0])
        assert np.array_equal(eigenvalues(diag), [1.0, 2.0, 3.0])
        two = np.array([[0.0, -0.7], [-0.7, 0.0]])
        assert np.allclose(eigenvalues(two), [-0.7, 0.7], atol=1e-12)

        rng = np.random.default_rng(707)
        for n in range(2, 7):
            for m in range(1, 5):
                lat = build_moebius(n, m)
                eps = rng.normal(size=(2 * n, m))
                phi = float(rng.uniform(-2.0, 2.0))
                params = HoppingParams(t1=1.0, t2=0.6, phi=phi, epsilon=eps)
                h = assemble(lat, params)
                assert np.array_equal(h, h.conj().T)  # Hermitian by construction
                w1 = eigenvalues(h)
                assert np.isclose(w1.sum(), np.trace(h).real, atol=1e-9)
                # one flux quantum per period: E(phi) = E(phi + N)
                w2 = eigenvalues(assemble(lat, replace(params, phi=phi + n)))
                assert np.allclose(w1, w2, atol=1e-9, rtol=0.0)

        # cutting the rungs leaves M independent rings
        for n in range(2, 7):
            for m in (1, 3):
                lat = build_moebius(n, m)
                phi = float(rng.uniform(-1.0, 1.0))
                h = assemble(lat, HoppingParams(t1=0.8, t2=0.0, phi=phi))
                want = np.sort(np.tile(ring_dispersion(n, 0.8, phi), m))
                assert np.allclose(eigenvalues(h), want, atol=1e-8)
        assert time.perf_counter() - start < 60.0


def test_criterion_08_lattice_suite():
    with criterion(8, "edge counts and neighbor symmetry, exhaustive to N=M=8"):
        for n in range(1, 9):
            for m in range(1, 9):
                for lat in (build_moebius(n, m), build_cylinder(n, m)):
                    assert lat.n_sites == 2 * n * m
                    counts = Counter(kind for kind, _, _ in lat.edges)
                    assert counts[EdgeKind.LONGITUDINAL] == 2 * n * m
                    assert counts[EdgeKind.TRANSVERSE] == 2 * n * (m - 1)
                    twisted = lat.topology.value == "moebius"
                    assert counts[EdgeKind.TWIST] == (n if twisted else 0)
                    # each site's bonds, read from one pass over the edges,
                    # equal the coordinate oracle's; every edge is read at
                    # both its ends, so the bonds are symmetric too
                    for site, found in incidences(lat).items():
                        assert Counter(found) == Counter(coordinate_neighbors(lat, site))


def test_criterion_09_cli_determinism(tmp_path, capsys, scenario_file, cost_files):
    with criterion(9, "every subcommand reproduces its golden output byte for byte"):
        a_csv, c_csv = cost_files
        goldens = {
            "optimize": (["optimize", "--scenario", scenario_file], OPTIMIZE_S0_REPORT),
            "statics": (
                ["statics", "--scenario", scenario_file, "--param", "M",
                 "--range", "2:5:1"],
                STATICS_M_CSV,
            ),
            "spectrum": (
                ["spectrum", "--n", "2", "--m", "2", "--t1", "1", "--t2", "0.5",
                 "--flux-sweep", "0:2:1"],
                SPECTRUM_CSV,
            ),
            "cost": (
                ["cost", "--contributions", a_csv, "--costs", c_csv,
                 "--t1", "2", "--t2", "1", "--delta", "0.5"],
                COST_REPORT,
            ),
            "lattice": (
                ["lattice", "--n", "1", "--m", "2"],
                build_moebius(1, 2).to_csv(),
            ),
        }
        for name, (argv, want) in goldens.items():
            runs = []
            for repeat in range(2):
                out_path = tmp_path / f"{name}_{repeat}.txt"
                assert cli.main(argv + ["--out", str(out_path)]) == 0
                runs.append(out_path.read_bytes())
            assert runs[0] == runs[1]  # byte-identical on repeat
            assert runs[0].decode("utf-8") == want
        capsys.readouterr()
