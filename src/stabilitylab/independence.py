"""Exact independence-number computation: the oracle the rest of the toolkit calls."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph, bits

Code = tuple[int, ...]


def alpha_mask(adj: Code, mask: int) -> tuple[int, int]:
    """Maximum independent set within ``mask``: returns ``(size, witness_mask)``.

    Branch and bound: pick a maximum-degree vertex of the remaining subgraph,
    branch on including it (dropping its closed neighborhood) before excluding
    it, and prune when the remaining vertices cannot beat the incumbent.
    The first maximum found under this fixed order is the witness.

    Two bounds prune, cheapest first: the remaining vertex count, then the
    size of a greedy clique partition of the remaining vertices (an
    independent set takes at most one vertex per clique; Tomita & Seki,
    DMTCS 2003, use the same bound on the clique side).  The partition is
    built only while the incumbent is larger than the current set: it has
    at least one clique, so it cannot prune before that.  Neither bound
    changes the witness.  The branch vertex depends only on the remaining
    vertices, and a bound cuts only subtrees holding no set larger than the
    incumbent, so the incumbent improves at the same leaves in the same order
    as without the bounds.
    """
    best = 0
    best_set = 0

    def bb(avail: int, size: int, chosen: int) -> None:
        nonlocal best, best_set
        if size + avail.bit_count() <= best:
            return
        if not avail:
            best, best_set = size, chosen
            return
        if best > size:
            # greedy clique partition: each clique grows from the least
            # uncovered vertex; stop once it can no longer prune
            slack = best - size
            cover = 0
            rest = avail
            while rest:
                cover += 1
                if cover > slack:
                    break
                low = rest & -rest
                rest ^= low
                grow = rest & adj[low.bit_length() - 1]
                while grow:
                    low = grow & -grow
                    rest ^= low
                    grow &= adj[low.bit_length() - 1]
            else:
                return
        bv = -1
        bd = -1
        rest = avail
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            d = (adj[v] & avail).bit_count()
            if d > bd:
                bd, bv = d, v
        if bd == 0:
            # Everything left is isolated within the subgraph: take it all.
            total = size + avail.bit_count()
            if total > best:
                best, best_set = total, chosen | avail
            return
        v = bv
        bb(avail & ~(adj[v] | (1 << v)), size + 1, chosen | (1 << v))
        bb(avail & ~(1 << v), size, chosen)

    bb(mask, 0, 0)
    return best, best_set


@dataclass(frozen=True)
class AlphaResult:
    alpha: int
    witness: tuple[int, ...]


def alpha(g: Graph) -> AlphaResult:
    size, wit = alpha_mask(g.adj, (1 << g.n) - 1)
    return AlphaResult(size, tuple(bits(wit)))


def independent_sets_of_size(g: Graph, t: int) -> Iterator[tuple[int, ...]]:
    """All independent sets of cardinality ``t``, each once, lexicographically."""
    if not 0 <= t <= g.n:
        raise ValueError(f"target size {t} outside 0..{g.n}")
    adj = g.adj
    n = g.n

    def rec(start: int, chosen: list[int], banned: int) -> Iterator[tuple[int, ...]]:
        if len(chosen) == t:
            yield tuple(chosen)
            return
        # enough vertices must remain to finish the set
        for v in range(start, n - (t - len(chosen)) + 1):
            if banned >> v & 1:
                continue
            chosen.append(v)
            yield from rec(v + 1, chosen, banned | adj[v])
            chosen.pop()

    yield from rec(0, [], 0)


def alpha_after_single_removals(g: Graph) -> dict[int, int]:
    """Map each vertex to the independence number of its vertex-deleted subgraph."""
    if g.n < 2:
        raise ValueError("needs at least 2 vertices")
    full = (1 << g.n) - 1
    return {v: alpha_mask(g.adj, full ^ (1 << v))[0] for v in range(g.n)}
