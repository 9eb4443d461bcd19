"""Catalog of the named graphs used by the classification pipelines.

The fixed 7- and 9-vertex graphs below are defined by explicit adjacency
lists.  Their advertised properties (order, size, connectivity, minimum
degree, independence number, edge-criticality) are re-derived from scratch
by :func:`self_test` using plain subset scans, independently of the solver
modules; the first catalog access runs it once.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, bits, clique, cycle, from_edges, is_connected, min_degree

H7_EDGES = ((0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 4), (2, 6), (3, 5), (3, 6), (4, 6), (5, 6))

H9_EDGES = (
    (0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5), (2, 3),
    (2, 8), (3, 8), (4, 7), (5, 6), (6, 7), (6, 8), (7, 8),
)

T9_EDGES = (
    (0, 1), (1, 2), (0, 2),                    # triangle
    (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 3),  # hexagon
    (0, 7), (0, 4), (1, 3), (1, 6), (2, 8), (2, 5),  # spokes to antipodal pairs
)

#: name: (graph, vertices, edges, minimum degree, independence number)
_TABLE = {
    "K4": (clique(4), 4, 6, 3, 1),
    "K5": (clique(5), 5, 10, 4, 1),
    "H7": (from_edges(7, H7_EDGES), 7, 11, 3, 2),
    "H9": (from_edges(9, H9_EDGES), 9, 14, 3, 3),
    "T9": (from_edges(9, T9_EDGES), 9, 15, 3, 3),
}


def _brute_alpha(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() <= best:
            continue
        if all(g.adj[v] & mask == 0 for v in bits(mask)):
            best = mask.bit_count()
    return best


def _brute_critical(g: Graph) -> bool:
    a = _brute_alpha(g)
    for u, v in g.edges():
        adj = list(g.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        if _brute_alpha(Graph(g.n, tuple(adj))) == a:
            return False
    return True


def self_test() -> None:
    """Re-derive every advertised catalog property by brute force."""
    for name, (g, n, m, dmin, a) in _TABLE.items():
        if g.n != n or g.edge_count != m:
            raise AssertionError(f"{name}: got {g.n} vertices / {g.edge_count} edges")
        if not is_connected(g):
            raise AssertionError(f"{name}: not connected")
        if min_degree(g) != dmin:
            raise AssertionError(f"{name}: minimum degree {min_degree(g)} != {dmin}")
        if _brute_alpha(g) != a:
            raise AssertionError(f"{name}: independence number {_brute_alpha(g)} != {a}")
        if not _brute_critical(g):
            raise AssertionError(f"{name}: not alpha-critical")


@lru_cache(maxsize=1)
def _verified() -> dict[str, Graph]:
    self_test()
    return {name: row[0] for name, row in _TABLE.items()}


def named_graph(name: str) -> Graph:
    """Fixed catalog graph by name, or a cycle via ``C<n>`` (e.g. ``C7``)."""
    if name.startswith("C") and name[1:].isdigit():
        return cycle(int(name[1:]))
    table = _verified()
    if name not in table:
        raise KeyError(f"unknown catalog graph {name!r}")
    return table[name]

