"""Twisted-strip lattices, their tight-binding spectra, and the CSR
investment decision of firms arranged on the strip.

Modules:

* :mod:`moebius_csr.lattice` -- strip construction and edge lists
* :mod:`moebius_csr.hamiltonian` -- Hamiltonian assembly and eigenvalues
* :mod:`moebius_csr.csr_cost` -- cost functional over contribution matrices
* :mod:`moebius_csr.decision` -- uniform-contribution optimization
* :mod:`moebius_csr.cli` -- command-line front end

``import moebius_csr`` loads none of them: each public name is imported from
its module on first access (PEP 562), so a caller loads only what it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # the public names, by the module that defines them
    "csr_cost": ("CostBreakdown", "CsrParams", "total_hcsr"),
    "decision": ("BetaRegime", "CsrScenario", "DecisionReport", "StationaryKind",
                 "optimize_constrained"),
    "hamiltonian": ("HoppingParams", "assemble", "eigenvalues", "flux_sweep"),
    "lattice": ("Edge", "EdgeKind", "MoebiusLattice", "SiteCoord", "Topology",
                "build_cylinder", "build_moebius"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, which the import binds here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value
