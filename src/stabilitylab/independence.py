"""Exact independence-number computation: the oracle the rest of the toolkit calls."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph, bits

Code = tuple[int, ...]


def alpha_mask(adj: Code, mask: int, at_least: int | None = None) -> tuple[int, int]:
    """Maximum independent set within ``mask``: returns ``(size, witness_mask)``.

    Branch and bound: pick a maximum-degree vertex of the remaining subgraph,
    branch on including it (dropping its closed neighborhood) before excluding
    it, and prune when the remaining vertices cannot beat the incumbent.
    The first maximum found under this fixed order is the witness.  The
    branches live on an explicit stack; the include branch is pushed last,
    so it is searched, with everything under it, before the exclude branch.

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

    ``at_least=t`` asks a threshold question instead: the incumbent starts
    at ``t - 1``, so both bounds prune from the root.  When neither refutes
    t there, one greedy dive runs before any branching: it takes a vertex of
    least degree among those left (the first of degree <= 1 it meets, since
    some maximum independent set holds such a vertex), drops its closed
    neighbourhood, and repeats until it holds t vertices or too few are left
    to reach t (the min-degree greedy, Halldórsson & Radhakrishnan,
    Algorithmica 18, 1997; exact on paths and cycles).  If it reaches t its
    set is the answer; otherwise the branch and bound returns the first
    independent set of size >= t it reaches.  The size returned is >= t
    exactly when alpha(mask) >= t, and the set, of that size, is then
    independent and inside ``mask``; otherwise the result is ``(t - 1, 0)``.
    """
    if at_least is None:
        best, goal = 0, mask.bit_count() + 1  # a goal no set reaches
    else:
        best, goal = at_least - 1, at_least
    dive = at_least is not None
    best_set = 0
    stack = [(mask, 0, 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        avail, size, chosen = pop()
        if size + avail.bit_count() <= best:
            continue
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
                continue
        if dive:
            # the root's bounds left t open: the min-degree greedy, once
            dive = False
            left, got, taken = avail, 0, 0
            while got < goal <= got + left.bit_count():
                bd = left.bit_count()  # above every degree within ``left``
                rest = left
                while rest:
                    low = rest & -rest
                    v = low.bit_length() - 1
                    rest ^= low
                    d = (adj[v] & left).bit_count()
                    if d < bd:
                        bd, bv = d, v
                        if d <= 1:
                            break
                low = 1 << bv
                left &= ~(adj[bv] | low)
                got += 1
                taken |= low
            if got >= goal:
                return got, taken
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
        if bd <= 0:
            # Nothing or only isolated vertices left: take it all, which
            # beats the incumbent since the count bound did not prune.
            best, best_set = size + avail.bit_count(), chosen | avail
            if best >= goal:
                break
            continue
        low = 1 << bv
        push((avail & ~low, size, chosen))
        push((avail & ~(adj[bv] | low), size + 1, chosen | low))
    return best, best_set


@dataclass(frozen=True)
class AlphaResult:
    alpha: int
    witness: tuple[int, ...]


def alpha(g: Graph) -> AlphaResult:
    size, wit = alpha_mask(g.adj, (1 << g.n) - 1)
    return AlphaResult(size, tuple(bits(wit)))


def independent_masks(adj: Code, mask: int, t: int) -> Iterator[int]:
    """Lazily yield every independent set of size ``t`` within ``mask``, as a
    vertex mask, each once, in the lexicographic order of its sorted vertices.

    Depth first on an explicit stack: each frame holds the chosen set, the
    candidates (vertices above the last chosen one and adjacent to none of
    it) and the count still needed.  A frame branches on its least
    candidate, including it before excluding it, which is the lexicographic
    order; it is dropped when fewer candidates remain than are still needed.
    """
    stack = [(0, mask, t)]
    while stack:
        chosen, cand, need = stack.pop()
        if not need:
            yield chosen
            continue
        if cand.bit_count() < need:
            continue
        low = cand & -cand
        cand ^= low
        stack.append((chosen, cand, need))
        stack.append((chosen | low, cand & ~adj[low.bit_length() - 1], need - 1))


def independent_sets_of_size(g: Graph, t: int) -> Iterator[tuple[int, ...]]:
    """All independent sets of cardinality ``t``, each once, lexicographically:
    :func:`independent_masks` over every vertex, each mask as a tuple."""
    if not 0 <= t <= g.n:
        raise ValueError(f"target size {t} outside 0..{g.n}")
    return (tuple(bits(m)) for m in independent_masks(g.adj, (1 << g.n) - 1, t))


def alpha_after_single_removals(g: Graph) -> dict[int, int]:
    """Map each vertex to the independence number of its vertex-deleted subgraph."""
    if g.n < 2:
        raise ValueError("needs at least 2 vertices")
    full = (1 << g.n) - 1
    return {v: alpha_mask(g.adj, full ^ (1 << v))[0] for v in range(g.n)}
