"""Canonical labeling, isomorphism testing, and automorphism orbits.

The labeling is computed in-house by iterated color refinement plus
individualization with backtracking.  Refinement starts from the degree
ranks (:func:`degree_ranks`), which is exactly the first refinement round
from the unit partition, so starting there changes no color and no key.
Cells of every intermediate partition
are kept in an isomorphism-invariant order (new colors are ranked by sorted
signature), which gives two properties the enumeration module relies on:

* the canonical key is identical for isomorphic graphs and distinct
  otherwise, and
* the vertex placed at the last canonical position always belongs to the
  last cell of the initial equitable partition.

Discovered automorphisms prune the search and accumulate into the orbit
partition that callers use for canonical-augmentation tests.

:func:`shares_orbit` proves vertices to be in one orbit without the search:
it follows one fixed path per vertex (individualize it, then the least
vertex of the first non-singleton cell, down to a discrete leaf).  Two
leaves with the same key and the two vertices at the same position give an
automorphism mapping one vertex to the other.  A False answer proves
nothing, so callers fall back to :func:`canonical_data`.  Inside one cell
of an equitable partition the individualized vertex always lands at the
cell's first position; the position test matters for vertices of
different cells.

:func:`automorphism_generators` skips the search when each non-singleton
cell of the equitable partition is a twin class, N(u) - v = N(v) - u: every
automorphism fixes each cell setwise and swapping twins is one, so the group
is the product of the cells' symmetric groups.  Twinship is an equivalence
(true twins never chain with false), so consecutive members test a cell.

Functions here work on raw adjacency tuples (``adj[v]`` = neighbor bitmask)
so the enumeration hot path avoids object overhead; thin wrappers accept
:class:`~stabilitylab.graphs.Graph` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import InvariantViolation
from .graphs import Graph

Code = tuple[int, ...]


def neighbor_lists(adj: Code) -> list[list[int]]:
    out = []
    for m in adj:
        nb = []
        while m:
            low = m & -m
            nb.append(low.bit_length() - 1)
            m ^= low
        out.append(nb)
    return out


def degree_ranks(adj: Code) -> list[int]:
    """Each vertex's rank among the distinct degrees: the first refinement
    round from the unit partition, so refining from it gives the same colors."""
    degs = [m.bit_count() for m in adj]
    rank = {d: i for i, d in enumerate(sorted(set(degs)))}
    return [rank[d] for d in degs]


def refine_colors(nlists: list[list[int]], colors: list[int]) -> list[int]:
    """Refine vertex colors to the coarsest stable (equitable) partition.

    Color values are compact ranks assigned by sorted signature, so the cell
    order is an isomorphism invariant and refinement only ever splits cells
    in place.  A vertex alone in its cell keeps the signature ``(color, ())``:
    its color alone fixes its rank.
    """
    n = len(nlists)
    ncolors = len(set(colors))
    while True:
        at = colors.__getitem__
        count = colors.count
        sigs = [
            (c, tuple(sorted(map(at, nb))) if count(c) > 1 else ()) for c, nb in zip(colors, nlists)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        k = len(rank)
        if k == ncolors:
            return new
        if k == n:
            return new
        colors, ncolors = new, k


@dataclass(frozen=True)
class CanonicalData:
    key: Code                      # canonical adjacency rows (position space)
    order: tuple[int, ...]         # order[p] = original vertex at position p
    orbit: tuple[int, ...]         # orbit representative (min member) per vertex
    generators: tuple[tuple[int, ...], ...]


def _leaf_key(nlists: list[list[int]], pos: list[int]) -> Code:
    n = len(nlists)
    rows = [0] * n
    for v in range(n):
        r = 0
        for u in nlists[v]:
            r |= 1 << pos[u]
        rows[pos[v]] = r
    return tuple(rows)


def _target_cell(colors: list[int]) -> list[int] | None:
    """The first non-singleton cell of compact ranks, in vertex order; None if discrete."""
    counts = [0] * len(colors)
    for c in colors:
        counts[c] += 1
    for c, k in enumerate(counts):
        if k > 1:
            return [v for v, x in enumerate(colors) if x == c]
    return None


def _individualize(nlists: list[list[int]], colors: list[int], v: int) -> list[int]:
    """Give ``v`` a cell of its own just before the rest of its cell, then refine."""
    child = [2 * c for c in colors]
    child[v] -= 1
    return refine_colors(nlists, child)


def _fixed_leaf(nlists: list[list[int]], colors: list[int], v: int) -> tuple[Code, int]:
    """Leaf key and position of ``v`` at the end of one fixed search path:
    individualize ``v``, then the least vertex of the first non-singleton
    cell, until the partition is discrete."""
    colors = _individualize(nlists, colors, v)
    while (target := _target_cell(colors)) is not None:
        colors = _individualize(nlists, colors, target[0])
    return _leaf_key(nlists, colors), colors[v]


def shares_orbit(
    nlists: list[list[int]], colors: list[int], z: int, others: Iterable[int]
) -> bool:
    """True only if every vertex ``w`` of ``others`` is in the automorphism
    orbit of ``z``; False proves nothing.

    It holds when the fixed leaf of each ``w`` has the key of the fixed leaf
    of ``z`` and puts ``w`` at the position where that leaf puts ``z``: the
    relabeling of one leaf onto the other is then an automorphism mapping
    ``z`` to ``w``.  ``colors`` may be any vertex coloring.
    """
    leaf = _fixed_leaf(nlists, colors, z)
    return all(_fixed_leaf(nlists, colors, w) == leaf for w in others)


def _is_automorphism(adj: Code, nlists: list[list[int]], sigma: tuple[int, ...]) -> bool:
    for v, nb in enumerate(nlists):
        image = 0
        for u in nb:
            image |= 1 << sigma[u]
        if image != adj[sigma[v]]:
            return False
    return True


def _orbit_reps(n: int, gens: Iterable[tuple[int, ...]]) -> list[int]:
    """The least member of each vertex's orbit under the group ``gens`` generate."""
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for g in gens:
        for v in range(n):
            ra, rb = find(v), find(g[v])
            if ra != rb:
                # the smaller root survives, so every root is its set's least member
                root[max(ra, rb)] = min(ra, rb)
    return [find(v) for v in range(n)]


@lru_cache(maxsize=1)
def _equitable(adj: Code) -> tuple[list[list[int]], list[int]]:
    """Neighbour lists and equitable colouring from degree ranks, read-only: kept
    for the last graph, so a search after :func:`automorphism_generators` refines once."""
    nlists = neighbor_lists(adj)
    return nlists, refine_colors(nlists, degree_ranks(adj))


def canonical_data(adj: Code) -> CanonicalData:
    n = len(adj)
    nlists, base = _equitable(adj)
    gens: list[tuple[int, ...]] = []
    first_key: Code | None = None
    first_pos: list[int] = []
    best_key: Code | None = None
    best_pos: list[int] = []

    def record_automorphism(pos1: list[int], pos2: list[int]) -> None:
        inv2 = [0] * n
        for v, p in enumerate(pos2):
            inv2[p] = v
        sigma = tuple(inv2[pos1[v]] for v in range(n))
        if sigma == tuple(range(n)):
            return
        if not _is_automorphism(adj, nlists, sigma):
            raise InvariantViolation("leaf collision produced a non-automorphism")
        gens.append(sigma)

    def search(colors: list[int]) -> None:
        nonlocal first_key, first_pos, best_key, best_pos
        target = _target_cell(colors)
        if target is None:
            key = _leaf_key(nlists, colors)
            if first_key is None:
                first_key, first_pos = key, list(colors)
                best_key, best_pos = key, list(colors)
                return
            if key == first_key:
                record_automorphism(colors, first_pos)
            if key < best_key:
                best_key, best_pos = key, list(colors)
            elif key == best_key and best_key != first_key:
                record_automorphism(colors, best_pos)
            return

        tried: list[int] = []
        known = -1
        for w in target:
            if tried:
                # skip w when known generators preserving the node's
                # (ordered) partition map it onto a vertex already tried;
                # only a leaf below adds one, so rebuild only then
                if known != len(gens):
                    known = len(gens)
                    here = [g for g in gens if all(colors[g[v]] == colors[v] for v in range(n))]
                    reps = _orbit_reps(n, here)
                if any(reps[w] == reps[t] for t in tried):
                    continue
            tried.append(w)
            search(_individualize(nlists, colors, w))

    search(list(base))
    order = [0] * n
    for v, p in enumerate(best_pos):
        order[p] = v
    return CanonicalData(best_key, tuple(order), tuple(_orbit_reps(n, gens)), tuple(gens))


def automorphism_generators(adj: Code) -> tuple[tuple[int, ...], ...]:
    """Generators of the automorphism group: none for a discrete equitable
    partition, the transpositions of consecutive members of each cell when
    every cell is one twin class, else those of :func:`canonical_data`."""
    n = len(adj)
    colors = _equitable(adj)[1]
    last = [-1] * n
    gens = []
    for v, c in enumerate(colors):
        u, last[c] = last[c], v
        if u >= 0:
            if (adj[u] ^ adj[v]) & ~(1 << u | 1 << v):
                return canonical_data(adj).generators
            gens.append(tuple(v if x == u else u if x == v else x for x in range(n)))
    return tuple(gens)


def canonical_key(adj: Code) -> Code:
    return canonical_data(adj).key


@dataclass(frozen=True)
class CanonicalForm:
    """Public canonical form: a relabeled graph plus the labeling that produced it."""

    graph: Graph
    order: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    orbit: tuple[int, ...]


def canonical_form(g: Graph) -> CanonicalForm:
    data = canonical_data(g.adj)
    cg = Graph(g.n, data.key)
    return CanonicalForm(cg, data.order, cg.edges(), data.orbit)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_key(g.adj) == canonical_key(h.adj)
