"""Tight-binding Hamiltonian on a strip lattice and its spectrum.

For a lattice with ring length ``2N`` threaded by a dimensionless flux
``phi``, the single-particle Hamiltonian is assembled bond by bond:

* on-site energies ``eps[n, m]`` on the diagonal (zero when omitted),
* each longitudinal bond ``(n, m) -> (n+1, m)`` carries the amplitude
  ``-t1 * exp(-2j*pi*phi/N)`` in the bond direction and the conjugate in
  the reverse direction,
* each transverse bond carries ``-t2``,
* each twist bond carries ``-t2`` in total (twist bonds are stored once
  per physical bond).

The matrix is Hermitian by construction: every stored bond writes an
amplitude and its conjugate transpose.  Since the flux enters only through
``exp(-2j*pi*phi/N)``, the whole spectrum is periodic in ``phi`` with
period ``N``.  One builder fills a stack of flux points from the edge list
at once; :func:`assemble` is its one-point case.

Eigenvalues come from the in-house solver of :mod:`moebius_csr._kernels`
(Householder reduction to real tridiagonal form, then Sturm bisection).

:func:`flux_sweep` avoids the dense matrix whenever the on-site energies
are constant along each wire (``epsilon`` is None or all its rows are
equal).  Every bond, twist bonds included, then commutes with the shift
``n -> n+1`` on all wires at once, so the Hamiltonian splits by Bloch
momentum ``k = pi*q/N``, ``q = 0..2N-1``.  Let ``T_s`` be the ``M x M``
wire chain with ``-t2`` on its off-diagonals, the wire energies on its
diagonal and, on a Moebius strip, ``-t2*(-1)**s`` added to the outer-wire
(``m = M``) entry (a twist bond spans half the ring, ``e^{ikN} = (-1)**q``).
The spectrum at flux ``phi`` is then

    { -2*t1*cos(pi*q/N - 2*pi*phi/N) + lambda_j(T_{q mod 2}) }.

With one energy ``eps`` on every site the chain levels are closed-form
(path-graph spectra): ``eps - 2*t2*cos(pi*l/(2M+1))``, ``l = 1..2M``, on a
Moebius strip, odd ``l`` for ``T_0`` and even ``l`` for ``T_1`` (an
untwisted ladder of width ``2M`` with its transverse parity locked to that
of ``q``), and ``eps - 2*t2*cos(pi*j/(M+1))``, ``j = 1..M``, on a cylinder,
where ``T_0 = T_1``.  Energies that differ between wires bisect the two
tridiagonal chains.  A sweep then costs one band fill over the whole
``(phi, q)`` grid, with cosines and momenta built once per shape, and checks
levels and sums for finiteness only past :func:`flux_sweep`'s Gershgorin
bound.  An ``epsilon`` that varies along a wire takes the dense path.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import hermitian_eigvals, tridiagonal_eigvals
from .lattice import EdgeKind, MoebiusLattice, Topology, as_real, as_real_array, is_int

# most bytes one block of flux_sweep holds: its levels on the Bloch path,
# its matrices on the dense path
BLOCK_BYTES = 1 << 21


@dataclass(frozen=True, eq=False)
class HoppingParams:
    """Hopping amplitudes, flux, and optional on-site energies.

    ``epsilon`` has shape ``(2N, M)`` indexed as ``[n-1, m-1]``; ``None``
    means all on-site energies vanish.
    """

    t1: float
    t2: float
    phi: float = 0.0
    epsilon: np.ndarray | None = None


def _check_flux(phi: float) -> None:
    if not math.isfinite(2.0 * math.pi * phi):  # nan fails too
        raise ValueError(f"flux phi={phi!r} must be finite, with 2*pi*phi in float range")


def _validated_epsilon(
    lattice: MoebiusLattice, params: HoppingParams
) -> np.ndarray | None:
    """Check ``t1``, ``t2``, ``phi`` and ``epsilon``; return ``epsilon`` as float64."""
    for name in ("t1", "t2"):
        value = as_real(name, getattr(params, name))
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    _check_flux(as_real("phi", params.phi))
    if params.epsilon is None:
        return None
    eps = as_real_array("epsilon", params.epsilon)
    if eps.shape != (2 * lattice.N, lattice.M):
        raise ValueError(
            f"epsilon must have shape {(2 * lattice.N, lattice.M)}, "
            f"got {eps.shape}"
        )
    if not np.all(np.isfinite(eps)):
        raise ValueError("epsilon must be finite")
    return eps


def _stack(lattice: MoebiusLattice, params: HoppingParams, eps, phis) -> np.ndarray:
    """Dense Hamiltonians at each flux of ``phis``, shape ``(P, 2NM, 2NM)``.

    ``eps`` is the validated ``epsilon``.  Every bond adds its amplitude,
    then its conjugate, in edge order, so doubled bonds (the N = 1 ring) sum
    as stored.  Each phase is Python complex arithmetic on one point: NumPy's
    complex division differs from it in the last bit.
    """
    d, index = lattice.n_sites, lattice.site_index
    ends = np.array([(index(a), index(b)) for _, a, b in lattice.edges])
    ring = np.array([kind is EdgeKind.LONGITUDINAL for kind, _, _ in lattice.edges])
    phase = np.exp([-2j * np.pi * phi / lattice.N for phi in phis])
    amp = np.where(ring, -params.t1 * phase[:, None], complex(-params.t2))
    h = np.zeros((len(phis), d, d), dtype=np.complex128)
    if eps is not None:
        h[:, range(d), range(d)] = eps.T.ravel()  # wire-major, as site_index
    bonds = np.stack([amp, amp.conj()], axis=-1).reshape(len(phis), -1)
    np.add.at(h, (slice(None), ends.ravel(), ends[:, ::-1].ravel()), bonds)
    return h


def assemble(lattice: MoebiusLattice, params: HoppingParams) -> np.ndarray:
    """Dense complex128 Hamiltonian of shape (2NM, 2NM)."""
    return _stack(lattice, params, _validated_epsilon(lattice, params), [params.phi])[0]


def eigenvalues(h: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending.

    Rejects non-numeric (bool, string, object), non-square, non-finite and
    non-Hermitian input (tolerance ``1e-12`` relative to the largest
    entry).  Input with a nonzero imaginary part is solved as complex
    Hermitian, anything else as real symmetric.
    """
    # a list upcasts a bool before a dtype test sees it, as in as_real_array
    if not isinstance(h, np.ndarray) and any(
            isinstance(x, (bool, np.bool_)) for x in np.asarray(h, dtype=object).flat):
        raise ValueError("expected a real or complex matrix, got dtype bool")
    h = np.asarray(h)
    if h.dtype.kind not in "iufc":
        raise ValueError(f"expected a real or complex matrix, got dtype {h.dtype}")
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix has non-finite entries (NaN or inf)")
    scale = float(np.abs(h).max())
    defect = float(np.abs(h - h.conj().T).max())
    if defect > 1e-12 * max(1.0, scale):
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")

    a = h.astype(np.complex128) if np.any(h.imag) else h.real.astype(np.float64)
    return hermitian_eigvals(a[None])[0]


def _check_filling(n_electrons, n_levels: int) -> None:
    if not is_int(n_electrons):
        raise ValueError(f"n_electrons must be an integer, got {n_electrons!r}")
    if not (0 <= n_electrons <= n_levels):
        raise ValueError(
            f"n_electrons must be in 0..{n_levels}, got {n_electrons}"
        )


def _filled_sums(levels: np.ndarray, n_electrons: int, check: bool) -> np.ndarray:
    """Sum of the lowest ``n_electrons`` levels of each row of ``levels``, sorted in place.

    With ``check``, raises ValueError if any level is NaN or infinite.  A sum that
    overflows comes back as inf or NaN, for :func:`flux_sweep` to name.
    """
    levels.sort(axis=1)
    # sorting puts -inf first and inf, then NaN, last
    if check and levels.size and not np.isfinite(levels[:, [0, -1]]).all():
        raise ValueError("eigenvalues must be finite (got NaN, or inf past float range)")
    return np.add.reduce(levels[:, : int(n_electrons)], axis=1)


@functools.lru_cache(maxsize=32)
def _bloch_tables(N: int, M: int, moebius: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only constants of one shape: the closed form's path-graph cosines,
    one row per chain, and the momenta ``k = pi*q/N`` with ``q = a*rows + s``
    at ``[a, s, 0]``, so that each momentum meets its chain ``T_s``."""
    ends = 2 * M + 1 if moebius else M + 1
    cos = np.cos(np.pi * np.arange(1, ends) / ends)
    cos = np.stack([cos[0::2], cos[1::2]]) if moebius else cos[None, :]
    k = (np.pi * np.arange(2 * N) / N).reshape(-1, len(cos), 1)
    cos.flags.writeable = k.flags.writeable = False
    return cos, k


def _chain_levels(lattice: MoebiusLattice, t2: float, wire: np.ndarray | None) -> np.ndarray:
    """Levels of ``T_0`` and ``T_1`` (module docstring), one row each.

    ``wire`` holds the on-site energy of each wire, or is None for zero on
    every wire.  A cylinder has no twist term, so its single row serves
    every momentum.  Equal wire energies take the closed form; otherwise the
    chains are bisected as the tridiagonal matrices they are.
    """
    moebius = lattice.topology is Topology.MOEBIUS
    if wire is None or np.all(wire == wire[0]):
        cos = _bloch_tables(lattice.N, lattice.M, moebius)[0]
        return (0.0 if wire is None else float(wire[0])) - 2.0 * t2 * cos
    twists = (-t2, t2) if moebius else (0.0,)
    diag = np.tile(wire, (len(twists), 1))
    diag[:, -1] += twists
    return tridiagonal_eigvals(diag, np.full((len(twists), lattice.M - 1), t2))


def flux_sweep(
    lattice: MoebiusLattice,
    params: HoppingParams,
    phis: np.ndarray,
    n_electrons: int,
) -> np.ndarray:
    """Ground-state energy along a flux grid.

    Returns an array of shape ``(len(phis), 2)`` with columns
    ``(phi, total_energy)``.  The grid supplies the flux; ``params.phi``
    is only checked, as every flux is.

    When ``params.epsilon`` is None or equal in every row (constant along
    each wire) the sweep takes the Bloch path of the module docstring: the
    chain levels once for the whole sweep, then one band fill over all flux
    points at once.  Otherwise each block of flux points is built as one
    stack of dense ``2NM x 2NM`` Hamiltonians and solved as one stack.
    The Bloch path builds its cosines and momenta once per shape, and neither
    path checks levels and sums for finiteness where Gershgorin proves them
    finite, ``(n_electrons + 1) * (2|t1| + 2|t2| + max|epsilon|) < 2**1021``.
    Raises ValueError when the grid is empty, has more than one axis or holds
    other than ints and floats, when a flux is not finite or ``2*pi*phi`` leaves
    float range, and when the band ``-2*t1*cos(...)`` or an energy overflows.
    """
    grid = np.atleast_1d(as_real_array("flux grid", phis))
    if grid.ndim > 1 or grid.size == 0:
        raise ValueError(f"flux grid must be 1-D and nonempty, got shape {grid.shape}")
    _check_flux(grid.item(np.abs(grid).argmax()))  # argmax finds a nan first
    eps = _validated_epsilon(lattice, params)
    _check_filling(n_electrons, lattice.n_sites)

    # Every level and entry lies within 2|t1| + 2|t2| + max|eps| (Gershgorin) up to
    # a relative rounding error far below 1 (the dense solver's is d*2**-53), and a
    # sum of n levels within n times that: (n + 1) * bound < 2**1021, 8 times below
    # float max, proves all finite.  Past it, warnings are off and _filled_sums, the
    # dense solver and the last check name a level, an entry or a sum past range.
    bound = 2.0 * (abs(float(params.t1)) + abs(float(params.t2)))
    bound += 0.0 if eps is None else float(np.abs(eps).max())
    proven = (int(n_electrons) + 1) * bound < 2.0**1021
    with contextlib.nullcontext() if proven else np.errstate(over="ignore", invalid="ignore"):
        bloch = eps is None or np.all(eps == eps[0])
        if bloch:
            width = -2.0 * params.t1
            if not math.isfinite(width):
                raise ValueError(f"t1={params.t1!r} overflows the band -2*t1*cos(...)")
            if not math.isfinite(-2.0 * params.t2):
                raise ValueError(f"t2={params.t2!r} overflows the chain levels -2*t2*cos(...)")
            chains = _chain_levels(lattice, float(params.t2), None if eps is None else eps[0])
            k = _bloch_tables(lattice.N, lattice.M, lattice.topology is Topology.MOEBIUS)[1]
            phases = 2.0 * np.pi * grid / lattice.N
        out = np.empty((grid.size, 2), dtype=np.float64)
        out[:, 0] = grid
        point_bytes = 8 * lattice.n_sites if bloch else 16 * lattice.n_sites**2
        step = max(1, BLOCK_BYTES // point_bytes)
        for start in range(0, grid.size, step):
            rows = slice(start, start + step)
            if bloch:
                band = width * np.cos(k - phases[rows].reshape(-1, 1, 1, 1))
                levels = (band + chains).reshape(len(band), -1)
            else:
                levels = hermitian_eigvals(_stack(lattice, params, eps, grid[rows].tolist()))
            out[rows, 1] = _filled_sums(levels, n_electrons, not proven)
    if not proven and not np.all(np.isfinite(out[:, 1])):
        raise ValueError(
            f"ground-state energy overflows float range with t1={params.t1!r}, "
            f"t2={params.t2!r}"
        )
    return out
