"""Edge-criticality of the independence number, the recognizers of the
critical families, and defect classification.

A graph is alpha-critical when deleting any single edge raises the
independence number.  One walk yields each edge whose deletion keeps alpha:
:func:`alpha_preserving_edge` is its first, and :func:`critical_reduce`
deletes each, reducing every graph to a spanning alpha-critical kernel with
the same independence number; connected kernels with defect ``n - 2*alpha``
equal to 1, 2 or 3 are odd cycles (:func:`is_odd_cycle`, walked by
:func:`trace_cycle`), even subdivisions of the 4-clique
(:func:`is_even_subdivision_k4`) and the named graphs, which the one matcher
:func:`catalog_match` recognises by degree sequence and
:func:`spanning_embedding`.  :func:`classify_defect` dispatches to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from . import catalog
from .graphs import Graph, bits, degrees, is_connected, min_degree
from .independence import alpha_mask

CLASS_ODD_CYCLE = "odd_cycle"
CLASS_EVEN_SUBDIVISION_K4 = "even_subdivision_k4"
CLASS_OTHER = "other"
#: classification values for the defect-3 family are the catalog names
CLASS_NAMED = ("K5", "H7", "H9", "T9")


def _alpha(g: Graph) -> int:
    return alpha_mask(g.adj, (1 << g.n) - 1)[0]


def _preserving_edges(rows, n: int, a: int) -> Iterator[tuple[int, int]]:
    """Each edge u < v, in ``Graph.edges()`` order, whose removal keeps alpha
    of ``rows`` at ``a``, each row read as the walk reaches it, so a caller may
    delete a yielded edge before the walk goes on.  A set of size a + 1 after
    deleting uv holds u and v, so uv keeps alpha exactly when the vertices
    outside N[u] and N[v] hold no independent set of size a - 1."""
    full = (1 << n) - 1
    for u in range(n):
        for v in bits(rows[u] >> (u + 1) << (u + 1)):
            if alpha_mask(rows, full & ~(rows[u] | rows[v] | 1 << u | 1 << v), a - 1)[0] < a - 1:
                yield u, v


def alpha_preserving_edge(adj: tuple[int, ...], n: int, a: int) -> tuple[int, int] | None:
    """First edge (u < v, in ``Graph.edges()`` order) whose removal keeps the
    independence number ``a`` of the graph, or ``None`` when it is alpha-critical."""
    return next(_preserving_edges(adj, n, a), None)


def is_alpha_critical(g: Graph) -> tuple[bool, tuple[int, int] | None]:
    """True iff every edge removal raises alpha; else returns one preserving edge."""
    edge = alpha_preserving_edge(g.adj, g.n, _alpha(g))
    return edge is None, edge


@dataclass(frozen=True)
class CriticalKernel:
    kernel: Graph
    removed: tuple[tuple[int, int], ...]


def critical_reduce(g: Graph) -> CriticalKernel:
    """Delete, in ``Graph.edges()`` order, every edge whose removal preserves alpha.

    One walk suffices, and gives the kernel and removal log of a scan that
    restarts after each deletion: an edge whose removal raises alpha still
    does so after any alpha-preserving deletion.  Kernels depend on this fixed
    order and are reproducible but not canonical.
    """
    rows = list(g.adj)
    removed = []
    for u, v in _preserving_edges(rows, g.n, _alpha(g)):
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        removed.append((u, v))
    return CriticalKernel(Graph(g.n, tuple(rows)), tuple(removed))


def defect(g: Graph) -> int:
    return g.n - 2 * _alpha(g)


@dataclass(frozen=True)
class DefectClass:
    defect: int
    classification: str


def classify_defect(g: Graph) -> DefectClass:
    """Classify a connected alpha-critical graph by its defect.

    Defect 1 must be an odd cycle; defect 2 an even subdivision of the
    4-clique; defect 3 with minimum degree >= 3 one of the four named graphs.
    Anything else reports ``other``.
    """
    if not is_connected(g):
        raise ValueError("classification requires a connected graph")
    a = _alpha(g)
    if (edge := alpha_preserving_edge(g.adj, g.n, a)) is not None:
        raise ValueError(f"classification requires an alpha-critical graph (edge {edge} is removable)")
    d = g.n - 2 * a
    if d == 1:
        if is_odd_cycle(g):
            return DefectClass(d, CLASS_ODD_CYCLE)
    elif d == 2:
        if is_even_subdivision_k4(g) is not None:
            return DefectClass(d, CLASS_EVEN_SUBDIVISION_K4)
    elif d == 3 and min_degree(g) >= 3:
        name = named_class(g)
        if name is not None:
            return DefectClass(d, name)
    return DefectClass(d, CLASS_OTHER)


def named_class(g: Graph) -> str | None:
    """The name in ``CLASS_NAMED`` whose catalog graph is isomorphic to ``g``, or ``None``."""
    match = catalog_match(g)
    return None if match is None else match[0]


def catalog_match(g: Graph, names: tuple[str, ...] = CLASS_NAMED) -> tuple[str, tuple[int, ...]] | None:
    """The first name in ``names`` whose catalog graph is isomorphic to ``g``,
    with its :func:`spanning_embedding` onto ``g``, or ``None``.  Only a graph
    of ``g``'s order and sorted degree sequence is tried: with equal edge
    counts a spanning embedding is an isomorphism."""
    degs = sorted(degrees(g))
    for name in names:
        target = catalog.named_graph(name)
        if target.n == g.n and sorted(degrees(target)) == degs and (emb := spanning_embedding(g, target)):
            return name, emb
    return None


def spanning_embedding(g: Graph, target: Graph) -> tuple[int, ...] | None:
    """First vertex bijection mapping every target edge onto a host edge.

    Backtracks over target vertices in decreasing-degree order with degree
    compatibility pruning; ``None`` when no embedding exists or sizes differ.
    """
    if g.n != target.n:
        return None
    order = sorted(range(target.n), key=lambda v: (-target.degree(v), v))
    tdeg = degrees(target)
    gdeg = degrees(g)
    emb = [-1] * target.n
    used = [False] * g.n

    def rec(i: int) -> bool:
        if i == target.n:
            return True
        tv = order[i]
        fixed = [emb[u] for u in target.neighbors(tv) if emb[u] >= 0]
        for gv in range(g.n):
            if used[gv] or gdeg[gv] < tdeg[tv]:
                continue
            if all(g.has_edge(gv, f) for f in fixed):
                emb[tv] = gv
                used[gv] = True
                if rec(i + 1):
                    return True
                emb[tv] = -1
                used[gv] = False
        return False

    return tuple(emb) if rec(0) else None


# -- recognizers -------------------------------------------------------------


def trace_cycle(g: Graph, comp: tuple[int, ...]) -> tuple[int, ...] | None:
    """The vertices of ``comp`` in cycle order, from ``comp[0]`` towards its
    smaller neighbor, when ``comp`` is a whole component that is a cycle;
    ``None`` when a vertex of ``comp`` has degree other than 2 or the walk
    closes before visiting all of ``comp``."""
    if any(g.degree(v) != 2 for v in comp):
        return None
    start = comp[0]
    cyc = [start]
    prev, cur = None, start
    while True:
        nbrs = [u for u in g.neighbors(cur) if u != prev]
        nxt = min(nbrs) if len(cyc) == 1 else nbrs[0]
        if nxt == start:
            break
        cyc.append(nxt)
        prev, cur = cur, nxt
    return tuple(cyc) if len(cyc) == len(comp) else None


def is_odd_cycle(g: Graph) -> bool:
    """Whether ``g`` is a single cycle of odd length: 2-regular and connected."""
    return g.n % 2 == 1 and trace_cycle(g, tuple(range(g.n))) is not None


@dataclass(frozen=True)
class SubdivisionStructure:
    terminals: tuple[int, int, int, int]
    paths: tuple[tuple[int, ...], ...]


def is_even_subdivision_k4(g: Graph) -> SubdivisionStructure | None:
    """Topological 4-clique test with even branch interiors.

    Returns the terminals and the six branch paths when the graph is an even
    subdivision of the 4-clique, else ``None``.
    """
    degs = degrees(g)
    terminals = [v for v in range(g.n) if degs[v] == 3]
    if len(terminals) != 4 or any(d not in (2, 3) for d in degs) or not is_connected(g):
        return None
    seen: dict[tuple[int, ...], None] = {}
    for t in terminals:
        for x in g.neighbors(t):
            walk = [t, x]
            prev, cur = t, x
            while degs[cur] == 2:
                nxt = [u for u in g.neighbors(cur) if u != prev][0]
                walk.append(nxt)
                prev, cur = cur, nxt
            if cur == t:
                return None  # branch loops back to its own terminal
            if walk[-1] < walk[0]:
                walk.reverse()
            seen[tuple(walk)] = None
    paths = sorted(seen)
    if len(paths) != 6:
        return None
    ends = sorted((p[0], p[-1]) for p in paths)
    term_sorted = sorted(terminals)
    if ends != list(combinations(term_sorted, 2)):
        return None
    internal = [v for p in paths for v in p[1:-1]]
    if len(internal) != g.n - 4 or len(set(internal)) != len(internal):
        return None
    if any((len(p) - 2) % 2 for p in paths):
        return None
    return SubdivisionStructure(tuple(term_sorted), tuple(paths))
