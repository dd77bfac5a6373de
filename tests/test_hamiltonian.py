import math
import re
import sys
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moebius_csr.hamiltonian as hamiltonian
from moebius_csr.csr_cost import CsrParams, total_hcsr
from moebius_csr.hamiltonian import (
    HoppingParams,
    assemble,
    eigenvalues,
    flux_sweep,
)
from moebius_csr.lattice import EdgeKind, SiteCoord, Topology, build_cylinder, build_moebius


def test_assemble_shape_and_exact_hermiticity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        N = int(rng.integers(1, 5))
        M = int(rng.integers(1, 4))
        lat = build_moebius(N, M)
        params = HoppingParams(
            t1=float(rng.uniform(-2, 2)),
            t2=float(rng.uniform(-2, 2)),
            phi=float(rng.uniform(-3, 3)),
            epsilon=rng.normal(size=(2 * N, M)),
        )
        h = assemble(lat, params)
        assert h.shape == (lat.n_sites, lat.n_sites)
        assert h.dtype == np.complex128
        assert np.abs(h - h.conj().T).max() == 0.0


def test_assemble_diagonal_is_epsilon():
    lat = build_moebius(2, 3)
    eps = np.arange(12, dtype=float).reshape(4, 3)
    h = assemble(lat, HoppingParams(t1=1.0, t2=0.5, epsilon=eps))
    for n in range(1, 5):
        for m in range(1, 4):
            index = lat.site_index(SiteCoord(n, m))
            assert h[index, index] == eps[n - 1, m - 1]


def test_assemble_zero_hopping_spectrum_is_sorted_epsilon():
    lat = build_moebius(3, 2)
    rng = np.random.default_rng(5)
    eps = rng.normal(size=(6, 2))
    h = assemble(lat, HoppingParams(t1=0.0, t2=0.0, epsilon=eps))
    assert np.allclose(eigenvalues(h), np.sort(eps.ravel()), atol=1e-12)


def _loop_assemble(lat, params):
    """Bond-by-bond fill over ``lat.edges``: the oracle of the stacked builder."""
    d = lat.n_sites
    h = np.zeros((d, d), dtype=np.complex128)
    if params.epsilon is not None:
        h[np.diag_indices(d)] = np.asarray(params.epsilon, dtype=np.float64).T.ravel()
    amp_long = -params.t1 * np.exp(-2j * np.pi * params.phi / lat.N)
    amp_cross = complex(-params.t2)
    for kind, a, b in lat.edges:
        i, j = lat.site_index(a), lat.site_index(b)
        amp = amp_long if kind is EdgeKind.LONGITUDINAL else amp_cross
        h[i, j] += amp
        h[j, i] += np.conj(amp)
    return h


@pytest.mark.parametrize("build", [build_moebius, build_cylinder])
@pytest.mark.parametrize("N", [1, 2, 3, 5])
@pytest.mark.parametrize("M", [1, 2, 4])
def test_assemble_equals_bond_loop_bit_for_bit(build, N, M):
    lat = build(N, M)
    rng = np.random.default_rng(10 * N + M)
    for epsilon in (None, rng.normal(size=(2 * N, M))):
        for phi in (0.0, -0.37, 0.5 * N, 1.3 * N, -2.9 * N, float(rng.uniform(-3 * N, 3 * N))):
            params = HoppingParams(
                t1=float(rng.uniform(-2, 2)), t2=float(rng.uniform(-2, 2)),
                phi=phi, epsilon=epsilon,
            )
            # bytes, not values: signed zeros and the last bit must agree
            assert assemble(lat, params).tobytes() == _loop_assemble(lat, params).tobytes()


def test_eigenvalues_past_float_range_raise_without_warnings():
    # all-equal entries x have the levels 0, 0 and 3x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eigenvalues(np.full((3, 3), 5e307))[-1] == pytest.approx(1.5e308, rel=1e-12)
        with pytest.raises(ValueError, match=r"^level 2 of matrix 0 is past float range$"):
            eigenvalues(np.full((3, 3), 1e308))


def test_four_ring_analytic():
    lat = build_cylinder(2, 1)
    h = assemble(lat, HoppingParams(t1=1.0, t2=0.0))
    assert np.allclose(eigenvalues(h), [-2.0, 0.0, 0.0, 2.0], atol=1e-10)


def test_ring_plus_antipodal_chords_is_complete_graph():
    # N=2, M=1 strip with t1=t2=1: the 4-ring plus both diagonals, i.e.
    # the complete graph on 4 sites with uniform amplitude -1
    lat = build_moebius(2, 1)
    h = assemble(lat, HoppingParams(t1=1.0, t2=1.0))
    assert np.array_equal(h, (np.eye(4) - np.ones((4, 4))).astype(complex))
    assert np.allclose(eigenvalues(h), [-3.0, 1.0, 1.0, 1.0], atol=1e-10)


def test_eigenvalues_match_lapack_oracle():
    rng = np.random.default_rng(23)
    for _ in range(12):
        N = int(rng.integers(1, 5))
        M = int(rng.integers(1, 4))
        lat = build_moebius(N, M) if rng.random() < 0.5 else build_cylinder(N, M)
        params = HoppingParams(
            t1=float(rng.uniform(-1.5, 1.5)),
            t2=float(rng.uniform(-1.5, 1.5)),
            phi=float(rng.uniform(-2, 2)),
            epsilon=rng.normal(scale=0.5, size=(2 * N, M)),
        )
        h = assemble(lat, params)
        w = eigenvalues(h)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose(w, np.linalg.eigvalsh(h), atol=1e-9)


def test_uniform_shift_moves_spectrum_rigidly():
    lat = build_moebius(2, 2)
    base = HoppingParams(t1=1.0, t2=0.6, phi=0.4)
    shift = 1.7
    w0 = eigenvalues(assemble(lat, base))
    w1 = eigenvalues(
        assemble(lat, HoppingParams(t1=1.0, t2=0.6, phi=0.4,
                                    epsilon=np.full((4, 2), shift)))
    )
    assert np.allclose(w1, w0 + shift, atol=1e-9)


def test_flux_sign_symmetry():
    # with real site energies H(-phi) = conj(H(phi)), so spectra agree
    lat = build_moebius(3, 2)
    h_plus = assemble(lat, HoppingParams(t1=1.0, t2=0.5, phi=0.63))
    h_minus = assemble(lat, HoppingParams(t1=1.0, t2=0.5, phi=-0.63))
    assert np.allclose(h_minus, h_plus.conj(), atol=0.0)
    assert np.allclose(eigenvalues(h_plus), eigenvalues(h_minus), atol=1e-10)


def test_cylinder_equals_moebius_at_zero_transverse():
    moe = build_moebius(3, 2)
    cyl = build_cylinder(3, 2)
    params = HoppingParams(t1=1.0, t2=0.0, phi=0.2)
    assert np.array_equal(assemble(moe, params), assemble(cyl, params))


def test_flux_sweep_curve():
    lat = build_moebius(2, 2)
    params = HoppingParams(t1=1.0, t2=0.5)
    grid = np.linspace(0.0, 2.0, 5)
    curve = flux_sweep(lat, params, grid, 4)
    assert curve.shape == (5, 2)
    assert np.array_equal(curve[:, 0], grid)
    assert abs(curve[0, 1] - curve[-1, 1]) <= 1e-9  # endpoints one period apart
    # the half period is the Moebius signature: it fails on these odd-N strips
    for N, M, n, phi in ((1, 1, 1, 0.3), (5, 3, 6, 0.0)):
        half = flux_sweep(build_moebius(N, M), params, [phi, phi + N / 2], n)[:, 1]
        assert abs(half[1] - half[0]) > 0.4
    with pytest.raises(ValueError):
        flux_sweep(lat, params, [], 4)
    with pytest.raises(ValueError):
        flux_sweep(lat, params, [np.nan], 4)


def test_flux_sweep_t2_zero_is_m_times_single_wire():
    single = build_moebius(3, 1)
    triple = build_moebius(3, 3)
    params = HoppingParams(t1=1.0, t2=0.0)
    grid = [0.0, 0.4, 1.1]
    # filling one third of the sites fills the same per-ring levels
    one = flux_sweep(build_cylinder(3, 1), params, grid, 2)
    many = flux_sweep(build_cylinder(3, 3), params, grid, 6)
    assert np.allclose(many[:, 1], 3.0 * one[:, 1], atol=1e-8)
    # moebius twist bonds carry -t2 = 0, so the same identity holds there
    one_m = flux_sweep(single, params, grid, 2)
    many_m = flux_sweep(triple, params, grid, 6)
    assert np.allclose(many_m[:, 1], 3.0 * one_m[:, 1], atol=1e-8)


def _lapack_sweep(lat, params, grid, n_electrons):
    return np.array([
        np.linalg.eigvalsh(assemble(lat, replace(params, phi=float(phi))))[
            :n_electrons
        ].sum()
        for phi in grid
    ])


# flux values inside the first period, at its edge, and past one period
BLOCH_GRID = (0.0, 0.37, 1.0, 2.9, -1.3, 7.45)


@pytest.mark.parametrize("build", [build_moebius, build_cylinder])
@pytest.mark.parametrize("N", [1, 2, 3, 6])
@pytest.mark.parametrize("M", [1, 2, 4])
def test_bloch_sweep_matches_lapack_at_every_filling(build, N, M):
    lat = build(N, M)
    params = HoppingParams(t1=1.1, t2=0.7)
    for n_electrons in range(lat.n_sites + 1):
        curve = flux_sweep(lat, params, BLOCH_GRID, n_electrons)
        want = _lapack_sweep(lat, params, BLOCH_GRID, n_electrons)
        assert np.array_equal(curve[:, 0], BLOCH_GRID)
        assert np.allclose(curve[:, 1], want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("build", [build_moebius, build_cylinder])
@pytest.mark.parametrize("N", [1, 2, 3, 6])
@pytest.mark.parametrize("M", [1, 2, 4])
def test_bloch_sweep_with_wire_constant_epsilon(build, N, M):
    lat = build(N, M)
    rng = np.random.default_rng(100 * N + M)
    wire = rng.normal(scale=0.8, size=M)
    params = HoppingParams(t1=-0.9, t2=1.3, epsilon=np.tile(wire, (2 * N, 1)))
    for n_electrons in range(lat.n_sites + 1):
        curve = flux_sweep(lat, params, BLOCH_GRID, n_electrons)
        want = _lapack_sweep(lat, params, BLOCH_GRID, n_electrons)
        assert np.allclose(curve[:, 1], want, rtol=0.0, atol=1e-12)


def test_clean_sweep_never_assembles(monkeypatch):
    # the Bloch path reads only N, M and the topology: it builds no matrix,
    # calls no dense solver and lists no edges; it bisects the two wire
    # chains only where the wires' energies differ.  The dense path lists
    # the edges once and keeps them
    def forbidden(*args, **kwargs):
        raise AssertionError("the Bloch path built or solved a dense matrix")

    bisect, chains = hamiltonian.tridiagonal_eigvals, []
    grid = np.linspace(0.0, 3.0, 7)
    for build in (build_moebius, build_cylinder):
        # clean, one energy on every wire, and a wire profile
        for eps in (None, np.full((6, 2), -0.7), np.tile([0.2, -0.4], (6, 1))):
            params = HoppingParams(t1=1.0, t2=0.5, epsilon=eps)
            lat, want = build(3, 2), flux_sweep(build(3, 2), params, grid, 5)
            chains.clear()
            with monkeypatch.context() as patch:
                for name in ("assemble", "_stack", "hermitian_eigvals"):
                    patch.setattr(hamiltonian, name, forbidden)
                patch.setattr(hamiltonian, "tridiagonal_eigvals",
                              lambda *args: chains.append(args) or bisect(*args))
                curve = flux_sweep(lat, params, grid, 5)
            assert "edges" not in vars(lat)
            assert np.array_equal(curve, want)
            assert np.allclose(curve[:, 1], _lapack_sweep(lat, params, grid, 5), rtol=0.0,
                               atol=1e-12)
            assert len(chains) == (eps is not None and eps[0, 0] != eps[0, 1])
        lat = build(3, 2)
        flux_sweep(lat, HoppingParams(t1=1.0, t2=0.5, epsilon=np.eye(6, 2)), grid, 5)
        assert vars(lat)["edges"] == build(3, 2).edges


@pytest.mark.parametrize("t2", [0.5, -1.3, 2.0])
def test_chain_closed_form_matches_lapack(t2):
    for M in range(1, 30):
        chain = -t2 * (np.eye(M, k=1) + np.eye(M, k=-1))
        # T_0 and T_1 of a Moebius strip: -t2*(-1)**s on the outer wire
        twisted = [chain + np.diag(np.eye(M)[-1] * -sign * t2) for sign in (1, -1)]
        moebius = hamiltonian._chain_levels(build_moebius(1, M), t2, np.zeros(M))
        cylinder = hamiltonian._chain_levels(build_cylinder(1, M), t2, np.zeros(M))
        for levels, t in zip(moebius, twisted):
            np.testing.assert_allclose(np.sort(levels), np.linalg.eigvalsh(t), rtol=0.0, atol=1e-13)
        assert cylinder.shape == (1, M)
        np.testing.assert_allclose(np.sort(cylinder[0]), np.linalg.eigvalsh(chain), rtol=0.0, atol=1e-13)
        # one energy on every wire shifts every level by it
        shifted = hamiltonian._chain_levels(build_moebius(1, M), t2, np.full(M, 0.3))
        assert np.array_equal(shifted, 0.3 + moebius)


@settings(max_examples=60)
@given(
    build=st.sampled_from([build_moebius, build_cylinder]),
    N=st.integers(1, 6),
    M=st.integers(1, 4),
    t1=st.floats(-2.0, 2.0),
    t2=st.floats(-2.0, 2.0),
    eps=st.none() | st.floats(-2.0, 2.0),
    phi=st.floats(-10.0, 10.0),
)
def test_clean_sweep_matches_dense_fill_property(build, N, M, t1, t2, eps, phi):
    lat = build(N, M)
    epsilon = None if eps is None else np.full((2 * N, M), eps)
    params = HoppingParams(t1=t1, t2=t2, phi=phi, epsilon=epsilon)
    h = assemble(lat, params)
    dense = np.linalg.eigvalsh(h)
    fills = [np.cumsum(eigenvalues(h)), np.cumsum(dense)]
    tol = 1e-12 * max(1.0, float(np.abs(dense).sum()))
    # the flux enters through exp(-2j*pi*phi/N) and H(-phi) = conj(H(phi))
    grid = [phi, phi + N, -phi]
    for n_electrons in range(1, lat.n_sites + 1):
        curve = flux_sweep(lat, params, grid, n_electrons)[:, 1]
        for fill in fills:
            assert abs(curve[0] - fill[n_electrons - 1]) <= tol
        assert np.all(np.abs(curve - curve[0]) <= tol)


@settings(max_examples=60)
@given(
    build=st.sampled_from([build_moebius, build_cylinder]),
    N=st.integers(1, 6),
    M=st.integers(1, 3),
    t1=st.floats(-2.0, 2.0),
    t2=st.floats(-2.0, 2.0),
    wires=st.sampled_from(["none", "equal", "chain", "dense"]),
    values=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
    phi=st.floats(-10.0, 10.0),
    filling=st.floats(0.0, 1.0),
)
def test_flux_period_reflection_and_half_period_property(
    build, N, M, t1, t2, wires, values, phi, filling
):
    # E(phi + N) = E(-phi) = E(phi) on both paths.  The site sign (-1)**n flips each ring bond
    # and scales each twist bond by (-1)**N: E(phi + N/2) = E(phi) on cylinders and even N
    lat = build(N, M)
    epsilon = {
        "none": None,
        "equal": np.full((2 * N, M), values[0]),
        "chain": np.tile(np.resize(values, M), (2 * N, 1)),
        "dense": np.resize(values, (2 * N, M)),
    }[wires]
    n_electrons = round(filling * lat.n_sites)
    half = build is build_cylinder or N % 2 == 0
    grid = [phi, phi + N, -phi] + ([phi + N / 2] if half else [])
    curve = flux_sweep(lat, HoppingParams(t1, t2, epsilon=epsilon), grid, n_electrons)[:, 1]
    bound = 2.0 * (abs(t1) + abs(t2)) + (0.0 if epsilon is None else np.abs(epsilon).max())
    assert np.all(np.abs(curve - curve[0]) <= 1e-13 * max(1.0, n_electrons * bound))


def test_wire_varying_epsilon_sweep_takes_dense_path(monkeypatch):
    import moebius_csr.hamiltonian as hamiltonian

    lat = build_moebius(3, 2)
    eps = np.tile([0.2, -0.4], (6, 1))
    eps[4, 1] += 0.3  # varies along wire 2
    params = HoppingParams(t1=1.0, t2=0.5, epsilon=eps)
    grid = [0.0, 0.4, 2.2]
    for n_electrons in range(lat.n_sites + 1):
        curve = flux_sweep(lat, params, grid, n_electrons)
        want = _lapack_sweep(lat, params, grid, n_electrons)
        assert np.allclose(curve[:, 1], want, rtol=0.0, atol=1e-12)
    stacks = []
    real_solver = hamiltonian.hermitian_eigvals

    def recording_solver(h):
        stacks.append(h.copy())
        return real_solver(h)

    monkeypatch.setattr(hamiltonian, "hermitian_eigvals", recording_solver)
    flux_sweep(lat, params, grid, 6)
    matrices = np.concatenate(stacks)
    assert len(matrices) == len(grid)
    for h, phi in zip(matrices, grid):
        want = _loop_assemble(lat, replace(params, phi=float(phi)))
        assert h.tobytes() == want.tobytes()


def test_flux_sweep_rejects_bad_params_on_both_paths():
    lat = build_moebius(2, 2)
    # a filling is an integer count in 0..d
    params = HoppingParams(t1=1.0, t2=1.0)
    for bad in (-1, lat.n_sites + 1, 1.5, 2.0):
        kind = "an integer" if isinstance(bad, float) else "in 0..8"
        with pytest.raises(ValueError, match=f"^n_electrons must be {kind}, got {bad}$"):
            flux_sweep(lat, params, [0.0], bad)
    want = flux_sweep(lat, params, [0.0], 2)
    assert np.array_equal(flux_sweep(lat, params, [0.0], np.int64(2)), want)
    # a flux grid lies along one axis: a 2-D grid failed to broadcast
    for epsilon in (None, np.arange(8.0).reshape(4, 2)):
        params = HoppingParams(t1=1.0, t2=1.0, epsilon=epsilon)
        for bad in (np.zeros((2, 3)), [[0.0], [0.5]], []):
            with pytest.raises(ValueError, match="^flux grid must be 1-D and nonempty"):
                flux_sweep(lat, params, bad, 2)
        # an int past int64 is a real number, as as_real has it, and was refused
        # as an object grid
        want = flux_sweep(lat, params, np.array([0.5, 2.0**70]), 2)
        for good in ([0.5, 2**70], (0.5, 2**70), np.array([0.5, 2**70], dtype=object)):
            assert flux_sweep(lat, params, good, 2).tobytes() == want.tobytes()
    # sorting puts NaN last: a NaN level used to be dropped from the sum
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            hamiltonian._filled_sums(np.array([[bad, 1.0, -1.0]]), 1, True)


def test_flux_sweep_raises_on_overflowing_hopping():
    # -2*t1*cos(...) overflows the band itself; with 5e307 the levels stay
    # finite and their sum overflows, which must not warn on the way
    lat = build_moebius(2, 2)
    with pytest.raises(ValueError, match="t1=1e"):
        flux_sweep(lat, HoppingParams(t1=1e308, t2=0.5), [0.0], 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t1=5e"):
            flux_sweep(lat, HoppingParams(t1=5e307, t2=0.5), [0.0, 0.5], 8)
    # -2*t2*cos(...) overflows the chain levels
    with pytest.raises(ValueError, match="t2=1e"):
        flux_sweep(lat, HoppingParams(t1=1.0, t2=1e308), [0.0], 2)


def test_eigenvalues_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((0, 0)))
    # no entry is read as a number it is not: an array is named by its dtype, a
    # list by its first wrong entry, before NumPy upcasts it
    for bad, got in (
        (np.eye(2, dtype=bool), "dtype bool"),
        ([[True, False], [False, True]], "entry True"),
        ([[True, 0.5], [0.5, 1.0]], "entry True"),
        (np.array([["1", "0"], ["0", "1"]]), "dtype <U1"),
        (np.array([[1.0, 0.0], [0.0, 1.0]], dtype=object), "dtype object"),
        (np.array([[2**80, 0], [0, 1]], dtype=object), "dtype object"),
    ):
        with pytest.raises(ValueError, match=f"^expected a real or complex matrix, got {got}$"):
            eigenvalues(bad)


def test_eigenvalues_rejects_non_finite_input():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            eigenvalues(np.array([[bad, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        eigenvalues(np.array([[1.0, complex(0, np.nan)], [0.0, 1.0]]))


def _per_point_bloch_sweep(lat, params, grid, n_electrons):
    # the Bloch path one flux point at a time: band, levels, then the
    # lowest levels summed by a 1-d NumPy sort and sum
    wire = np.zeros(lat.M) if params.epsilon is None else params.epsilon[0]
    chains = hamiltonian._chain_levels(lat, params.t2, wire)
    q = np.arange(2 * lat.N)
    k = np.pi * q / lat.N
    energies = []
    for phi in np.asarray(grid, dtype=np.float64):
        band = -2.0 * params.t1 * np.cos(k - 2.0 * np.pi * phi / lat.N)
        levels = (band[:, None] + chains[q % len(chains)]).ravel()
        energies.append(float(np.sort(levels)[:n_electrons].sum()))
    return np.array(energies)


@pytest.mark.parametrize("build", [build_moebius, build_cylinder])
def test_grid_fill_equals_per_point_total_energy_bitwise(build, monkeypatch):
    rng = np.random.default_rng(41)
    for N, M in ((1, 1), (1, 3), (2, 2), (3, 4), (6, 4)):
        lat = build(N, M)
        params = HoppingParams(t1=float(rng.uniform(0.5, 1.5)), t2=float(rng.uniform(0.25, 1.25)))
        grid = float(rng.uniform(0.25, 2.0)) * N / 40 * np.arange(41)
        # no on-site energy, and one nonzero energy on every site
        for epsilon in (None, np.full((2 * N, M), float(rng.uniform(-1.5, 1.5)))):
            params = replace(params, epsilon=epsilon)
            for n_electrons in range(lat.n_sites + 1):
                want = _per_point_bloch_sweep(lat, params, grid, n_electrons)
                got = flux_sweep(lat, params, grid, n_electrons)[:, 1]
                assert np.array_equal(got, want), (N, M, epsilon is None, n_electrons)
    # fills of three flux points at a time give the same bits
    monkeypatch.setattr(hamiltonian, "BLOCK_BYTES", 3 * 8 * lat.n_sites)
    want = _per_point_bloch_sweep(lat, params, grid, 20)
    assert np.array_equal(flux_sweep(lat, params, grid, 20)[:, 1], want)


def test_finiteness_checks_run_only_past_their_bound(monkeypatch):
    # (n + 1) * (2|t1| + 2|t2| + max|eps|) < 2**1021 proves every level and
    # filled sum finite and skips their checks; at and past it they run.  On
    # both sides a Bloch sweep gives the reference's bits, and no call warns
    lat, n, edge = build_moebius(2, 2), 3, 2.0**1017  # t1 = t2 = edge: (n + 1) * bound = 2**1021
    grid = np.linspace(0.0, 2.0, 9)
    checked = []
    real_fill = hamiltonian._filled_sums
    monkeypatch.setattr(hamiltonian, "_filled_sums",
                        lambda levels, n, check: checked.append(check) or real_fill(levels, n, check))
    # none, one energy, a wire profile (bisected chains), and one varying along a wire (dense)
    epsilons = (None, np.full((4, 2), 3.0), np.tile([0.0, 1.0], (4, 1)), np.eye(4, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        below = math.nextafter(edge, 0.0)
        for t1, t2, past in ((below, below, False), (edge, edge, True), (-4.0 * edge, edge, True)):
            for epsilon in epsilons:
                checked.clear()
                params = HoppingParams(t1=t1, t2=t2, epsilon=epsilon)
                curve = flux_sweep(lat, params, grid, n)[:, 1]
                assert set(checked) == {past}, (t1, epsilon)
                if epsilon is epsilons[-1]:
                    want = _lapack_sweep(lat, params, grid, n)
                    assert np.allclose(curve, want, rtol=0.0, atol=1e-12 * abs(t1))
                else:
                    assert np.array_equal(curve, _per_point_bloch_sweep(lat, params, grid, n))
        # levels within float range whose filled sum is not
        for epsilon in (None, np.full((4, 2), 1.0)):
            huge = HoppingParams(t1=0.9 * 2.0**1022, t2=2.0**1021, epsilon=epsilon)
            with pytest.raises(ValueError, match="^ground-state energy overflows float range"):
                flux_sweep(lat, huge, grid, lat.n_sites // 2)


def test_bloch_tables_are_read_only_and_cached_safely():
    # per-shape tables are built once and shared by every later sweep: no
    # caller can write into them, a caller writing into its result changes
    # no later sweep, and one shape's tables never serve another
    params, grid = HoppingParams(t1=0.9, t2=0.6), np.linspace(0.0, 3.0, 11)
    lattices = [build(N, 3) for N in (2, 3) for build in (build_moebius, build_cylinder)]
    hamiltonian._bloch_tables.cache_clear()
    first = [flux_sweep(lat, params, grid, 5).tobytes() for lat in lattices]
    for lat in lattices:
        moebius = lat.topology is Topology.MOEBIUS
        for table in hamiltonian._bloch_tables(lat.N, lat.M, moebius):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0.0
        flux_sweep(lat, params, grid, 5)[:] = np.nan
        hamiltonian._chain_levels(lat, params.t2, None)[:] = np.nan
    for order in (lattices, lattices[::-1]):
        assert [flux_sweep(lat, params, grid, 5).tobytes() for lat in lattices] == first
        hamiltonian._bloch_tables.cache_clear()
        got = {lat: flux_sweep(lat, params, grid, 5).tobytes() for lat in order}
        assert [got[lat] for lat in lattices] == first


def test_eigenvalues_of_huge_entries_raise_no_overflow():
    # squares of entries past ~1e154 overflow and of entries below ~1e-154
    # underflow, unless the solver scales the matrix first
    rng = np.random.default_rng(42)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    for size in (1e200, 1e-200):
        wire = size * x.real[0]
        chain = np.diag(wire) - size * (np.eye(6, k=1) + np.eye(6, k=-1))
        twisted = [chain + np.diag(np.eye(6)[-1] * -sign * size) for sign in (1, -1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solved = [(h, eigenvalues(h)) for h in (
                np.array([[0.0, size], [size, min(size, 1.0)]]),
                size * (x.real + x.real.T),
                size * (x + x.conj().T),
            )]
            # the wire chains of a sweep go to the bisection without reduction
            solved += zip(twisted, hamiltonian._chain_levels(build_moebius(1, 6), size, wire))
        for h, got in solved:
            want = np.linalg.eigvalsh(h)
            np.testing.assert_allclose(np.sort(got), want, rtol=0.0, atol=1e-12 * np.abs(want).max())


def test_flux_past_float_range_raises_without_warnings():
    # 2*pi*phi overflows past |phi| ~ 2.86e307: the Bloch path warned, then
    # raised the misnamed "eigenvalues must be finite", the dense path
    # returned an energy computed from a NaN matrix, and assemble returned
    # that matrix
    below = math.nextafter(sys.float_info.max / (2.0 * math.pi), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lat in (build_moebius(2, 2), build_cylinder(2, 2)):
            for epsilon in (None, np.tile([1.0, 3.0], (4, 1)), np.arange(8.0).reshape(4, 2)):
                params = HoppingParams(t1=1.0, t2=0.5, epsilon=epsilon)
                for bad in (1e308, -1e308, 2.87e307, np.nan, np.inf):
                    message = f"^flux phi={re.escape(repr(float(bad)))} must be finite"
                    with pytest.raises(ValueError, match=message):
                        flux_sweep(lat, params, [0.0, bad], 4)
                    with pytest.raises(ValueError, match=message):
                        assemble(lat, replace(params, phi=bad))
                # just inside the bound the energies and the matrices stay finite
                assert np.all(np.isfinite(flux_sweep(lat, params, [below, -below], 4)))
                for phi in (below, -below):
                    h = assemble(lat, replace(params, phi=phi))
                    assert np.all(np.isfinite(h)) and np.array_equal(h, h.conj().T)


# --- a finite answer or a named error over the extreme domain ----------------

# 0, subnormals and magnitudes up to float max, of either sign
_EXTREME = st.one_of(
    st.sampled_from([0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
    st.floats(-10.0, 10.0),
    st.floats(-323.0, 308.0).map(lambda e: 10.0**e),
    st.floats(-323.0, 308.0).map(lambda e: -(10.0**e)),
)


def _finite_or_named(call, *args):
    """``call(*args)`` under warnings-as-errors: its result, every number of
    which is finite, or None after a ValueError that names a float range."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(*args)
        except ValueError as exc:
            assert re.search("float range|overflows", str(exc)), str(exc)
            return None
    values = [getattr(out, f.name) for f in fields(out)] if is_dataclass(out) else out
    assert np.all(np.isfinite(values)), out
    return out


@settings(max_examples=60)
@given(
    build=st.sampled_from([build_moebius, build_cylinder]),
    N=st.integers(1, 3),
    M=st.integers(1, 4),
    t1=_EXTREME,
    t2=_EXTREME,
    delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    wires=st.sampled_from(["none", "equal", "chain", "dense"]),
    values=st.lists(_EXTREME, min_size=1, max_size=6),
    grid=st.lists(_EXTREME, min_size=1, max_size=3),
    filling=st.floats(0.0, 1.0),
    complex_=st.booleans(),
)
# 2*pi*phi past float range: the Bloch path warned, then raised the misnamed
# "eigenvalues must be finite", and the dense path returned an energy
# computed from a NaN matrix
@example(build=build_moebius, N=2, M=2, t1=1.0, t2=0.5, delta=0.5, wires="none",
         values=[0.0], grid=[1e308], filling=0.5, complex_=False)
@example(build=build_moebius, N=2, M=2, t1=1.0, t2=0.5, delta=0.5, wires="dense",
         values=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], grid=[1e308], filling=0.5, complex_=False)
# a level or an entry past float range warned on its way: a doubled ring
# bond (N = 1) of the dense stack, a complex entry whose modulus rounds past
# float max, the unscaling of a bisected chain, the band plus a chain level,
# and a closed-form chain level
@example(build=build_cylinder, N=1, M=2, t1=-1.7976931348623157e308, t2=0.0, delta=0.5,
         wires="dense", values=[1.0, 2.0, 3.0], grid=[0.0], filling=0.5, complex_=False)
@example(build=build_cylinder, N=2, M=1, t1=1.7976931348623157e308, t2=0.0, delta=0.5,
         wires="dense", values=[0.0, 1.0, 2.0], grid=[0.46], filling=0.5, complex_=False)
@example(build=build_cylinder, N=1, M=2, t1=1.0, t2=1e164, delta=0.5, wires="chain",
         values=[-1.7976931348623157e308, 1.0], grid=[0.3], filling=0.5, complex_=False)
@example(build=build_cylinder, N=2, M=2, t1=-1e302, t2=1.0, delta=0.5, wires="chain",
         values=[0.0, 1.7976931348623157e308], grid=[0.3], filling=0.0, complex_=False)
@example(build=build_moebius, N=3, M=1, t1=1.0, t2=1e298, delta=0.5, wires="equal",
         values=[1.7976931348623157e308], grid=[0.3], filling=0.5, complex_=False)
def test_spectral_and_cost_calls_are_finite_or_named_property(
    build, N, M, t1, t2, delta, wires, values, grid, filling, complex_
):
    lat = build(N, M)
    d = lat.n_sites  # at most 24
    n_electrons = round(filling * d)
    # every array below cycles through the values; h is Hermitian
    h = np.zeros((d, d), dtype=np.complex128 if complex_ else np.float64)
    upper = np.triu_indices(d)
    h[upper] = np.resize(values, upper[0].size)
    strict = np.triu_indices(d, 1)
    if complex_:
        h[strict] *= 1j
    h[strict[::-1]] = h[strict].conj()
    _finite_or_named(eigenvalues, h)

    epsilon = {
        "none": None,
        "equal": np.full((2 * N, M), values[0]),
        "chain": np.tile(np.resize(values, M), (2 * N, 1)),
        "dense": np.resize(values, (2 * N, M)),
    }[wires]
    _finite_or_named(flux_sweep, lat, HoppingParams(t1, t2, epsilon=epsilon), grid,
                     n_electrons)

    a = np.resize(np.abs(values) % 1.0, (2 * N, M))
    c = np.resize(np.abs(values[::-1]), (2 * N, M))
    _finite_or_named(total_hcsr, a, c, CsrParams(abs(t1), abs(t2), delta))
