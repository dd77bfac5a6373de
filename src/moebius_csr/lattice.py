"""Twisted-strip lattices.

A lattice is a grid of ``2N x M`` sites.  Site ``(n, m)`` sits at position
``n`` (1-based, ``1..2N``) along wire ``m`` (1-based, ``1..M``).  Every wire
closes into a ring: ``n = 2N`` couples back to ``n = 1``.  Neighboring wires
are joined rung-wise at equal ``n``.  The Moebius variant additionally glues
the outermost wire ``m = M`` to itself half a turn away, bonding ``(n, M)``
to ``(n + N, M)``; the cylinder variant omits those bonds and serves as the
untwisted reference.

Edges are listed once per physical bond, in a fixed deterministic order:
all longitudinal bonds (by wire, then position), then all transverse bonds
(same order), then the twist bonds (by position ``n = 1..N``).  For
``N = 1`` a ring has only two sites and the two longitudinal bonds of a
wire connect the same pair; both are kept, so every site still has exactly
two longitudinal bond endpoints.

Every public entry reads each argument of these kinds through one rule here,
which refuses any other value with a ValueError naming the argument: a real
scalar (:func:`as_real`), a count within bounds (:func:`as_count`), a real
array (:func:`as_real_array`) and a choice from a tuple (:func:`as_choice`).
"""

from __future__ import annotations

import enum
import functools
import io
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def as_count(name: str, value, lo, hi) -> int:
    """``value`` as an int in ``lo..hi`` (``hi`` may be ``inf``); ValueError naming
    ``name`` unless it is an int or a NumPy integer, never a bool, in that range."""
    # int tested first skips the slower abstract-class check in the common case
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        bounds = f">= {lo}" if hi == math.inf else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return int(value)


def as_real(name: str, value) -> float:
    """``value`` as a float (``inf`` for an int past float range); ValueError
    naming ``name`` unless it is a real number other than a bool."""
    # float and int listed first skip the slower abstract-class check, as in as_count
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past float range
        return math.inf


def as_real_array(name: str, value) -> np.ndarray:
    """``value`` as a float64 array; ValueError naming ``name`` unless each entry
    is real as :func:`as_real` has it; a non-object ndarray shows it by its dtype."""
    if not isinstance(value, np.ndarray) or value.dtype.kind == "O":
        # a list upcasts a bool, or an int past int64, before a dtype test sees it
        items = np.asarray(value, dtype=object)
        value = np.array([as_real(f"{name} entry", x) for x in items.flat]).reshape(items.shape)
    if value.dtype.kind not in "iuf":  # bool, complex, str
        raise ValueError(f"{name} must hold real numbers, got dtype {value.dtype}")
    return value.astype(np.float64, copy=False)


def as_choice(name: str, value, choices):
    """The entry of ``choices`` equal to ``value`` and of its type (an enum
    member also by its value, a NumPy scalar as its Python one); ValueError
    naming ``name`` otherwise."""
    for choice in choices:  # the common case: the entry itself
        if value is choice:
            return choice
    key = value.item() if isinstance(value, np.generic) else value
    targets = [getattr(choice, "value", choice) for choice in choices]
    for choice, target in zip(choices, targets):
        if type(key) is type(target) and key == target:
            return choice
    raise ValueError(f"{name} must be one of {', '.join(map(repr, targets))}, got {value!r}")


# Each scenario-file key, the CsrScenario field it sets and that field's type;
# a key whose field has a default (``lambda``) may be left out.  Kept with the
# input rules here, as the command line builds its flags from it on every call.
SCENARIO_KEYS = (
    ("N", "N", int), ("M", "M", int), ("a", "a", float), ("k", "k", float),
    ("beta", "beta", float), ("delta", "delta", float), ("p", "p", float),
    ("w", "w", float), ("lambda", "loyalty_exponent", int),
)
LOYALTY_EXPONENTS = (2, 4)


class EdgeKind(enum.Enum):
    """Role of a bond in the strip."""

    LONGITUDINAL = "longitudinal"
    TRANSVERSE = "transverse"
    TWIST = "twist"


class Topology(enum.Enum):
    MOEBIUS = "moebius"
    CYLINDER = "cylinder"


_TOPOLOGIES = tuple(Topology)  # as_choice's entries; iterating the enum class is slow


class SiteCoord(NamedTuple):
    """1-based site label: position ``n`` along the wire, wire index ``m``."""

    n: int
    m: int


class Edge(NamedTuple):
    kind: EdgeKind
    a: SiteCoord
    b: SiteCoord


@dataclass(frozen=True)
class MoebiusLattice:
    """Immutable strip lattice, fixed by its sizes and topology; ``edges``,
    its whole graph, is listed on first use."""

    N: int
    M: int
    topology: Topology

    def __post_init__(self):
        N, M = as_count("N", self.N, 1, math.inf), as_count("M", self.M, 1, math.inf)
        if N * M >= 2**62:  # site indices and momenta run to 2NM, in int64
            raise ValueError(f"N and M too large: 2*N*M must be below 2**63, got N={N}, M={M}")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "topology", as_choice("topology", self.topology, _TOPOLOGIES))

    @functools.cached_property
    def edges(self) -> tuple[Edge, ...]:
        N, M, ring = self.N, self.M, 2 * self.N
        sites = [SiteCoord(n, m) for m in range(1, M + 1) for n in range(1, ring + 1)]
        edges = [Edge(EdgeKind.LONGITUDINAL, a, SiteCoord(a.n % ring + 1, a.m))
                 for a in sites]
        edges += [Edge(EdgeKind.TRANSVERSE, a, SiteCoord(a.n, a.m + 1))
                  for a in sites[:-ring]]
        if self.topology is Topology.MOEBIUS:  # positions 1..N of the last wire
            edges += [Edge(EdgeKind.TWIST, a, SiteCoord(a.n + N, M))
                      for a in sites[-ring:-N]]
        return tuple(edges)

    @property
    def n_sites(self) -> int:
        return 2 * self.N * self.M

    def validate_site(self, site: SiteCoord) -> tuple[int, int]:
        n, m = site
        if not (1 <= n <= 2 * self.N and 1 <= m <= self.M):
            raise ValueError(
                f"site {site!r} outside lattice with 2N={2 * self.N}, M={self.M}"
            )
        return n, m

    def site_index(self, site: SiteCoord) -> int:
        """Row-major 0-based index: wires are blocks of 2N consecutive sites."""
        n, m = self.validate_site(site)
        return (m - 1) * 2 * self.N + (n - 1)

    def to_csv(self) -> str:
        """Edge list as CSV text with header ``kind,n1,m1,n2,m2``."""
        out = io.StringIO()
        out.write("kind,n1,m1,n2,m2\n")
        for kind, a, b in self.edges:
            out.write(f"{kind.value},{a.n},{a.m},{b.n},{b.m}\n")
        return out.getvalue()

    def to_dot(self) -> str:
        """Edge list as a Graphviz ``graph`` with one ``--`` line per bond."""
        out = io.StringIO()
        out.write(f"graph {self.topology.value}_N{self.N}_M{self.M} {{\n")
        out.write("  node [shape=circle];\n")
        for kind, a, b in self.edges:
            out.write(f'  "{a.n},{a.m}" -- "{b.n},{b.m}" [kind="{kind.value}"];\n')
        out.write("}\n")
        return out.getvalue()


def build_moebius(N: int, M: int) -> MoebiusLattice:
    """Strip of M wires with the half-turn glue on the outermost wire."""
    return MoebiusLattice(N, M, Topology.MOEBIUS)


def build_cylinder(N: int, M: int) -> MoebiusLattice:
    """Untwisted reference: same rings and rungs, no half-turn glue."""
    return MoebiusLattice(N, M, Topology.CYLINDER)
