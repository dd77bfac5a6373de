"""Twisted-strip lattices.

A lattice is a grid of ``2N x M`` sites.  Site ``(n, m)`` sits at position
``n`` (1-based, ``1..2N``) along wire ``m`` (1-based, ``1..M``).  Every wire
closes into a ring: ``n = 2N`` couples back to ``n = 1``.  Neighboring wires
are joined rung-wise at equal ``n``.  The Moebius variant additionally glues
the outermost wire ``m = M`` to itself half a turn away, bonding ``(n, M)``
to ``(n + N, M)``; the cylinder variant omits those bonds and serves as the
untwisted reference.

Edges are stored once per physical bond, in a fixed deterministic order:
all longitudinal bonds (by wire, then position), then all transverse bonds
(same order), then the twist bonds (by position ``n = 1..N``).  For
``N = 1`` a ring has only two sites and the two longitudinal bonds of a
wire connect the same pair; both are kept, so every site still has exactly
two longitudinal bond endpoints.
"""

from __future__ import annotations

import enum
import io
import numbers
from dataclasses import dataclass
from typing import NamedTuple


def is_int(value) -> bool:
    """The package's rule for a count (a strip size, a filling): an int or a
    NumPy integer, never a bool."""
    # int listed first skips the slower abstract-class check in the common case
    return not isinstance(value, bool) and isinstance(value, (int, numbers.Integral))


class EdgeKind(enum.Enum):
    """Role of a bond in the strip."""

    LONGITUDINAL = "longitudinal"
    TRANSVERSE = "transverse"
    TWIST = "twist"


class Topology(enum.Enum):
    MOEBIUS = "moebius"
    CYLINDER = "cylinder"


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
    """Immutable strip lattice; ``edges`` is its whole graph."""

    N: int
    M: int
    topology: Topology
    edges: tuple[Edge, ...]

    @property
    def n_sites(self) -> int:
        return 2 * self.N * self.M

    def validate_site(self, site: SiteCoord) -> None:
        n, m = site
        if not (1 <= n <= 2 * self.N and 1 <= m <= self.M):
            raise ValueError(
                f"site {site!r} outside lattice with 2N={2 * self.N}, M={self.M}"
            )

    def site_index(self, site: SiteCoord) -> int:
        """Row-major 0-based index: wires are blocks of 2N consecutive sites."""
        self.validate_site(site)
        return (site.m - 1) * 2 * self.N + (site.n - 1)

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
            out.write(
                f'  "{a.n},{a.m}" -- "{b.n},{b.m}" [kind="{kind.value}"];\n'
            )
        out.write("}\n")
        return out.getvalue()


def _build(N: int, M: int, topology: Topology) -> MoebiusLattice:
    if not (is_int(N) and is_int(M)):
        raise ValueError("N and M must be integers")
    N, M = int(N), int(M)
    if N < 1 or M < 1:
        raise ValueError(f"need N >= 1 and M >= 1, got N={N}, M={M}")

    ring = 2 * N
    edges: list[Edge] = []
    for m in range(1, M + 1):
        for n in range(1, ring + 1):
            n_next = n % ring + 1
            edges.append(
                Edge(EdgeKind.LONGITUDINAL, SiteCoord(n, m), SiteCoord(n_next, m))
            )
    for m in range(1, M):
        for n in range(1, ring + 1):
            edges.append(
                Edge(EdgeKind.TRANSVERSE, SiteCoord(n, m), SiteCoord(n, m + 1))
            )
    if topology is Topology.MOEBIUS:
        for n in range(1, N + 1):
            edges.append(Edge(EdgeKind.TWIST, SiteCoord(n, M), SiteCoord(n + N, M)))
    return MoebiusLattice(N=N, M=M, topology=topology, edges=tuple(edges))


def build_moebius(N: int, M: int) -> MoebiusLattice:
    """Strip of M wires with the half-turn glue on the outermost wire."""
    return _build(N, M, Topology.MOEBIUS)


def build_cylinder(N: int, M: int) -> MoebiusLattice:
    """Untwisted reference: same rings and rungs, no half-turn glue."""
    return _build(N, M, Topology.CYLINDER)
