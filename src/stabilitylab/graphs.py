"""Immutable simple-graph values with one-word adjacency sets.

Vertices are integers ``0..n-1`` and each neighborhood is stored as a
bitmask, so every graph handled by this toolkit must fit in 64 vertices.
All operations are pure: they validate their inputs and return new graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64

Edge = tuple[int, int]

#: Fixed edge order of the 4-clique used to index subdivision counts.
K4_EDGE_ORDER: tuple[Edge, ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"loop at vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; ``adj[v]`` is the neighbor bitmask of ``v``."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.adj):
            if mask & ~full:
                raise ValueError(f"vertex {v} has a neighbor index >= {self.n}")
            if mask >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, mask in enumerate(self.adj):
            for u in bits(mask):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> tuple[Edge, ...]:
        out = []
        for v in range(self.n):
            row = self.adj[v] >> (v + 1) << (v + 1)
            for u in bits(row):
                out.append((v, u))
        return tuple(out)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on ``n`` vertices from an edge list (duplicates collapse)."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        u, v = normalize_edge(u, v)
        if v >= n or u < 0:
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def degrees(g: Graph) -> list[int]:
    return [m.bit_count() for m in g.adj]


def min_degree(g: Graph) -> int:
    return min(degrees(g))


def reachable(adj: Sequence[int], v: int) -> int:
    """Bitmask of the vertices joined to ``v`` by a path, ``v`` included;
    ``adj[u]`` is the neighbor bitmask of ``u``."""
    comp = frontier = 1 << v
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= adj[u]
        frontier = nxt & ~comp
        comp |= nxt
    return comp


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by smallest member."""
    seen = 0
    out = []
    for v in range(g.n):
        if not seen >> v & 1:
            comp = reachable(g.adj, v)
            seen |= comp
            out.append(tuple(bits(comp)))
    return out


def is_connected(g: Graph) -> bool:
    return reachable(g.adj, 0) == (1 << g.n) - 1


def delete_vertices(g: Graph, remove: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the complement of ``remove``.

    Kept vertices are relabeled ``0..n-|remove|-1`` preserving relative order.
    Returns the subgraph together with the relabeling map: entry ``i`` is the
    original identity of new vertex ``i``.
    """
    rm = set(remove)
    for v in rm:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    kept = [v for v in range(g.n) if v not in rm]
    if not kept:
        raise ValueError("cannot delete every vertex")
    pos = {v: i for i, v in enumerate(kept)}
    adj = [0] * len(kept)
    for i, v in enumerate(kept):
        for u in bits(g.adj[v]):
            if u in pos:
                adj[i] |= 1 << pos[u]
    return Graph(len(kept), tuple(adj)), tuple(kept)


def delete_edge(g: Graph, edge: tuple[int, int]) -> Graph:
    """Remove one edge, keeping the vertex set."""
    u, v = normalize_edge(*edge)
    if v >= g.n or not g.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) is not present")
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(g.n, tuple(adj))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; the second operand's vertices are relabeled after the first's."""
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"union would have {n} > {MAX_VERTICES} vertices")
    adj = list(g.adj) + [m << g.n for m in h.adj]
    return Graph(n, tuple(adj))


def add_isolated(g: Graph, count: int) -> Graph:
    """Append ``count`` isolated vertices."""
    if count < 0:
        raise ValueError("isolated vertex count must be >= 0")
    n = g.n + count
    if n > MAX_VERTICES:
        raise ValueError(f"result would have {n} > {MAX_VERTICES} vertices")
    return Graph(n, g.adj + (0,) * count)


def cone(g: Graph) -> Graph:
    """Add one new vertex adjacent to every existing vertex."""
    n = g.n + 1
    if n > MAX_VERTICES:
        raise ValueError(f"result would have {n} > {MAX_VERTICES} vertices")
    apex = g.n
    adj = [m | (1 << apex) for m in g.adj]
    adj.append((1 << g.n) - 1)
    return Graph(n, tuple(adj))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def clique(n: int) -> Graph:
    if n < 1:
        raise ValueError("a clique needs at least 1 vertex")
    return from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def bipartite_with_pm(m: int, extra_edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """Balanced bipartite graph on sides ``0..m-1`` and ``m..2m-1``.

    Always contains the matching ``{(i, m+i)}``; ``extra_edges`` must cross
    the two sides.
    """
    if m < 1:
        raise ValueError("side size must be >= 1")
    if 2 * m > MAX_VERTICES:
        raise ValueError(f"result would have {2 * m} > {MAX_VERTICES} vertices")
    edges = [(i, m + i) for i in range(m)]
    for u, v in extra_edges:
        u, v = normalize_edge(u, v)
        if not (u < m <= v < 2 * m):
            raise ValueError(f"extra edge ({u},{v}) does not cross the two sides")
        edges.append((u, v))
    return from_edges(2 * m, edges)


def even_subdivision_k4(counts: Iterable[int]) -> Graph:
    """Subdivide the 4-clique, placing ``counts[i]`` internal vertices on its i-th edge.

    Edge order is ``K4_EDGE_ORDER``; every count must be even so that each
    branch path keeps an even number of internal vertices.
    """
    counts = tuple(counts)
    if len(counts) != 6:
        raise ValueError("exactly six subdivision counts are required")
    for c in counts:
        if c < 0 or c % 2:
            raise ValueError(f"subdivision count {c} is not an even non-negative integer")
    n = 4 + sum(counts)
    if n > MAX_VERTICES:
        raise ValueError(f"result would have {n} > {MAX_VERTICES} vertices")
    edges = []
    nxt = 4
    for (u, v), c in zip(K4_EDGE_ORDER, counts):
        prev = u
        for _ in range(c):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, v))
    return from_edges(n, edges)
