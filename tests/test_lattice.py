import numpy as np
import pytest

from moebius_csr.lattice import (
    Edge,
    EdgeKind,
    SiteCoord,
    Topology,
    build_cylinder,
    build_moebius,
)


def coordinate_neighbors(lat, site):
    """Independent neighbor oracle, from the coordinates alone: ring
    neighbors n-1 and n+1 (mod 2N), which coincide for N = 1 and so give
    the doubled ring bond twice; rung neighbors m-1 and m+1; on a Moebius
    strip, the twist partner n+N (mod 2N) on wire M."""
    n, m = site
    ring = 2 * lat.N
    found = [
        (SiteCoord((n - 1 + step) % ring + 1, m), EdgeKind.LONGITUDINAL)
        for step in (-1, 1)
    ]
    found += [
        (SiteCoord(n, m + step), EdgeKind.TRANSVERSE)
        for step in (-1, 1)
        if 1 <= m + step <= lat.M
    ]
    if lat.topology is Topology.MOEBIUS and m == lat.M:
        found.append((SiteCoord((n - 1 + lat.N) % ring + 1, m), EdgeKind.TWIST))
    return found


def two_colorable(lat) -> bool:
    """BFS 2-coloring over the edge list (multi-edges are harmless)."""
    color = {}
    for start in map(lat.site_at, range(lat.n_sites)):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            site = queue.pop()
            for other, _ in lat.neighbors(site):
                if other not in color:
                    color[other] = 1 - color[site]
                    queue.append(other)
                elif color[other] == color[site]:
                    return False
    return True


def test_edge_counts_exhaustive():
    for N in range(1, 9):
        for M in range(1, 9):
            moe = build_moebius(N, M)
            cyl = build_cylinder(N, M)
            for lat, twist in ((moe, N), (cyl, 0)):
                counts = lat.edge_counts()
                assert counts[EdgeKind.LONGITUDINAL] == 2 * N * M
                assert counts[EdgeKind.TRANSVERSE] == 2 * N * (M - 1)
                assert counts[EdgeKind.TWIST] == twist
            assert moe.n_sites == 2 * N * M


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


def test_neighbors_match_edge_list_and_are_symmetric():
    order = lambda pair: (pair[0].n, pair[0].m, pair[1].value)
    for N, M in [(1, 1), (1, 3), (2, 2), (3, 1), (4, 3)]:
        for build in (build_moebius, build_cylinder):
            lat = build(N, M)
            for index in range(lat.n_sites):
                site = lat.site_at(index)
                got = lat.neighbors(site)
                expected = coordinate_neighbors(lat, site)
                assert sorted(got, key=order) == sorted(expected, key=order)
                for other, _ in got:
                    assert any(back == site for back, _ in lat.neighbors(other))


def test_longitudinal_degree_always_two():
    for N, M in [(1, 1), (1, 2), (2, 1), (3, 4)]:
        lat = build_moebius(N, M)
        for index in range(lat.n_sites):
            site = lat.site_at(index)
            longi = [
                other
                for other, kind in lat.neighbors(site)
                if kind is EdgeKind.LONGITUDINAL
            ]
            assert len(longi) == 2


def test_site_index_bijection_and_order():
    for N in range(1, 9):
        for M in range(1, 9):
            lat = build_moebius(N, M)
            seen = [
                lat.site_index(SiteCoord(n, m))
                for m in range(1, M + 1)
                for n in range(1, 2 * N + 1)
            ]
            assert seen == list(range(lat.n_sites))
            for index in seen:
                assert lat.site_index(lat.site_at(index)) == index


def test_site_index_examples():
    lat = build_moebius(4, 2)
    assert lat.site_index(SiteCoord(1, 1)) == 0
    assert lat.site_index(SiteCoord(8, 2)) == 15
    assert lat.site_index(SiteCoord(3, 2)) == 10


def test_smallest_lattice():
    lat = build_moebius(1, 1)
    counts = lat.edge_counts()
    assert lat.n_sites == 2
    assert counts[EdgeKind.LONGITUDINAL] == 2  # doubled bond of the 2-ring
    assert counts[EdgeKind.TRANSVERSE] == 0
    assert counts[EdgeKind.TWIST] == 1
    # the doubled bond shows up as two neighbor entries, plus the twist
    entries = lat.neighbors(SiteCoord(1, 1))
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


def test_neighbor_examples_n2_m2():
    lat = build_moebius(2, 2)
    got = {(o, k) for o, k in lat.neighbors(SiteCoord(1, 1))}
    assert got == {
        (SiteCoord(2, 1), EdgeKind.LONGITUDINAL),
        (SiteCoord(4, 1), EdgeKind.LONGITUDINAL),
        (SiteCoord(1, 2), EdgeKind.TRANSVERSE),
    }
    got = {(o, k) for o, k in lat.neighbors(SiteCoord(1, 2))}
    assert got == {
        (SiteCoord(2, 2), EdgeKind.LONGITUDINAL),
        (SiteCoord(4, 2), EdgeKind.LONGITUDINAL),
        (SiteCoord(1, 1), EdgeKind.TRANSVERSE),
        (SiteCoord(3, 2), EdgeKind.TWIST),
    }


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
    for bad in [(1.5, 2), (True, True), (2, False), ("2", 2)]:
        with pytest.raises(ValueError, match="integers"):
            build_moebius(*bad)
    # NumPy integers are sizes, as in CsrScenario, and are stored as int
    lat = build_moebius(np.int64(2), np.int32(2))
    assert lat == build_moebius(2, 2)
    assert type(lat.N) is int and type(lat.M) is int
    assert lat.to_dot().startswith("graph moebius_N2_M2 {")


def test_site_validation():
    lat = build_moebius(2, 2)
    for bad in [SiteCoord(0, 1), SiteCoord(5, 1), SiteCoord(1, 0), SiteCoord(1, 3)]:
        with pytest.raises(ValueError):
            lat.site_index(bad)
        with pytest.raises(ValueError):
            lat.neighbors(bad)
    with pytest.raises(ValueError):
        lat.site_at(lat.n_sites)
    with pytest.raises(ValueError):
        lat.site_at(-1)


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
