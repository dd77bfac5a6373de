import re
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from conftest import incidences
from moebius_csr.lattice import (
    Edge,
    EdgeKind,
    MoebiusLattice,
    SiteCoord,
    Topology,
    build_cylinder,
    build_moebius,
)


def two_colorable(lat) -> bool:
    """BFS 2-coloring over the edge list (multi-edges are harmless)."""
    bonds = incidences(lat)
    color = {}
    for start in bonds:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            site = queue.pop()
            for other, _ in bonds[site]:
                if other not in color:
                    color[other] = 1 - color[site]
                    queue.append(other)
                elif color[other] == color[site]:
                    return False
    return True


def test_edge_shapes_exhaustive():
    for N in range(1, 9):
        for M in range(1, 9):
            lat = build_moebius(N, M)
            ring = 2 * N
            for kind, a, b in lat.edges:
                lat.validate_site(a)
                lat.validate_site(b)
                if kind is EdgeKind.LONGITUDINAL:
                    assert b == SiteCoord(a.n % ring + 1, a.m)
                elif kind is EdgeKind.TRANSVERSE:
                    assert b == SiteCoord(a.n, a.m + 1) and a.m <= M - 1
                else:
                    assert a.m == M and b.m == M
                    assert a.n <= N and b.n == a.n + N  # stored once, n <= N


def test_site_index_bijection_and_order():
    for N in range(1, 9):
        for M in range(1, 9):
            lat = build_moebius(N, M)
            sites = [(n, m) for m in range(1, M + 1) for n in range(1, 2 * N + 1)]
            assert [lat.site_index(SiteCoord(*s)) for s in sites] == list(range(lat.n_sites))
            # a plain tuple is a site too
            assert [lat.site_index(s) for s in sites] == list(range(lat.n_sites))


def test_site_index_examples():
    lat = build_moebius(4, 2)
    assert lat.site_index(SiteCoord(1, 1)) == 0
    assert lat.site_index(SiteCoord(8, 2)) == 15
    assert lat.site_index(SiteCoord(3, 2)) == 10


def test_smallest_lattice():
    lat = build_moebius(1, 1)
    assert lat.n_sites == 2
    # the doubled bond of the 2-ring, then the twist
    assert [kind for kind, _, _ in lat.edges] == [
        EdgeKind.LONGITUDINAL, EdgeKind.LONGITUDINAL, EdgeKind.TWIST
    ]
    # the doubled bond shows up as two neighbor entries, plus the twist
    entries = incidences(lat)[SiteCoord(1, 1)]
    assert len(entries) == 3
    assert all(other == SiteCoord(2, 1) for other, _ in entries)


def test_twist_edges_n4_m2():
    lat = build_moebius(4, 2)
    twists = {
        (a, b) for kind, a, b in lat.edges if kind is EdgeKind.TWIST
    }
    assert twists == {
        (SiteCoord(1, 2), SiteCoord(5, 2)),
        (SiteCoord(2, 2), SiteCoord(6, 2)),
        (SiteCoord(3, 2), SiteCoord(7, 2)),
        (SiteCoord(4, 2), SiteCoord(8, 2)),
    }


def test_cylinder_is_moebius_minus_twist():
    moe = build_moebius(4, 2)
    cyl = build_cylinder(4, 2)
    kept = [e for e in moe.edges if e.kind is not EdgeKind.TWIST]
    assert list(cyl.edges) == kept
    assert cyl.topology is Topology.CYLINDER


def test_twist_chord_closes_short_cycle():
    # ring path 1 -> 2 -> ... -> N+1 plus the twist chord (1,1)-(N+1,1)
    # is a cycle of length N+1; it has odd length exactly when N is even,
    # making the single-wire strip non-bipartite, while the cylinder and
    # odd-N strips stay 2-colorable
    for N in range(2, 7):
        lat = build_moebius(N, 1)
        chord = Edge(EdgeKind.TWIST, SiteCoord(1, 1), SiteCoord(N + 1, 1))
        assert chord in lat.edges
        assert two_colorable(lat) == (N % 2 == 1)
        assert two_colorable(build_cylinder(N, 1))


def test_build_rejects_bad_sizes():
    for bad in [(0, 1), (1, 0), (-2, 3)]:
        with pytest.raises(ValueError):
            build_moebius(*bad)
        with pytest.raises(ValueError):
            build_cylinder(*bad)
    for bad, name in [((1.5, 2), "N"), ((True, True), "N"), ((2, False), "M"), (("2", 2), "N")]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            build_moebius(*bad)
    # NumPy integers are sizes, as in CsrScenario, and are stored as int
    lat = build_moebius(np.int64(2), np.int32(2))
    assert lat == build_moebius(2, 2)
    assert type(lat.N) is int and type(lat.M) is int
    assert lat.to_dot().startswith("graph moebius_N2_M2 {")


def test_lattice_is_its_three_numbers():
    assert [f.name for f in fields(MoebiusLattice)] == ["N", "M", "topology"]
    lat = MoebiusLattice(np.int64(3), np.int32(2), "cylinder")
    assert (lat.N, lat.M, lat.topology) == (3, 2, Topology.CYLINDER)
    assert type(lat.N) is int and type(lat.M) is int
    assert lat == build_cylinder(3, 2) and hash(lat) == hash(build_cylinder(3, 2))
    assert lat != build_moebius(3, 2)
    assert repr(lat) == (
        "MoebiusLattice(N=3, M=2, topology=<Topology.CYLINDER: 'cylinder'>)"
    )
    with pytest.raises(FrozenInstanceError):
        lat.N = 4
    # the edge list is built on first use and then kept
    assert "edges" not in vars(lat)
    assert lat.edges is lat.edges and vars(lat)["edges"] == build_cylinder(3, 2).edges
    for bad, message in [
        ((0, 2, Topology.MOEBIUS), "N must be >= 1, got 0"),
        ((2, 2.0, Topology.MOEBIUS), "M must be an integer, got 2.0"),
        ((2, 2, "twisted"), "topology must be one of 'moebius', 'cylinder', got 'twisted'"),
        # np.arange(2N) of a 2**62 strip is empty: its flux sweep summed no level
        # and gave the energy 0.0
        ((2**62, 1, "moebius"), "N and M too large: 2*N*M must be below 2**63, "
                                f"got N={2**62}, M=1"),
        ((2**61, 3, "cylinder"), "N and M too large: 2*N*M must be below 2**63, "
                                 f"got N={2**61}, M=3"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MoebiusLattice(*bad)


def test_site_validation():
    lat = build_moebius(2, 2)
    for bad in [SiteCoord(0, 1), SiteCoord(5, 1), SiteCoord(1, 0), SiteCoord(1, 3)]:
        with pytest.raises(ValueError):
            lat.site_index(bad)
        with pytest.raises(ValueError, match="outside lattice"):
            lat.validate_site(bad)


def test_build_is_deterministic():
    first = build_moebius(3, 3)
    second = build_moebius(3, 3)
    assert first.edges == second.edges
    assert first.to_csv() == second.to_csv()
    assert first.to_dot() == second.to_dot()


def test_csv_golden_n1_m2():
    expected = (
        "kind,n1,m1,n2,m2\n"
        "longitudinal,1,1,2,1\n"
        "longitudinal,2,1,1,1\n"
        "longitudinal,1,2,2,2\n"
        "longitudinal,2,2,1,2\n"
        "transverse,1,1,1,2\n"
        "transverse,2,1,2,2\n"
        "twist,1,2,2,2\n"
    )
    assert build_moebius(1, 2).to_csv() == expected


def test_dot_golden_n1_m1():
    expected = (
        "graph moebius_N1_M1 {\n"
        '  node [shape=circle];\n'
        '  "1,1" -- "2,1" [kind="longitudinal"];\n'
        '  "2,1" -- "1,1" [kind="longitudinal"];\n'
        '  "1,1" -- "2,1" [kind="twist"];\n'
        "}\n"
    )
    assert build_moebius(1, 1).to_dot() == expected
