"""Twisted-strip lattices, their tight-binding spectra, and the CSR
investment decision of firms arranged on the strip.

Modules:

* :mod:`moebius_csr.lattice` -- strip construction and edge lists
* :mod:`moebius_csr.hamiltonian` -- Hamiltonian assembly and eigenvalues
* :mod:`moebius_csr.csr_cost` -- cost functional over contribution matrices
* :mod:`moebius_csr.decision` -- uniform-contribution optimization
* :mod:`moebius_csr.cli` -- command-line front end
"""

from .csr_cost import CostBreakdown, CsrParams, total_hcsr
from .decision import (
    BetaRegime,
    CsrScenario,
    DecisionReport,
    StationaryKind,
    optimize_constrained,
)
from .hamiltonian import HoppingParams, assemble, eigenvalues, flux_sweep
from .lattice import (
    Edge,
    EdgeKind,
    MoebiusLattice,
    SiteCoord,
    Topology,
    build_cylinder,
    build_moebius,
)

__version__ = "0.1.0"

__all__ = [
    "CostBreakdown",
    "CsrParams",
    "total_hcsr",
    "BetaRegime",
    "CsrScenario",
    "DecisionReport",
    "StationaryKind",
    "optimize_constrained",
    "HoppingParams",
    "assemble",
    "eigenvalues",
    "flux_sweep",
    "Edge",
    "EdgeKind",
    "MoebiusLattice",
    "SiteCoord",
    "Topology",
    "build_cylinder",
    "build_moebius",
    "__version__",
]
