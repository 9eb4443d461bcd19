"""Stability of the independence number under removal of k vertices.

A graph is (k,l)-stable when deleting any k vertices lowers the independence
number by at most l; it is tight when the independence number also meets the
ceiling ``floor((n-k+1)/2) + l``, the largest value a (k,l)-stable graph can
attain.  Equivalently, no k vertices hit every independent set of size alpha-l.

One scan, :func:`_first_violator`, serves :func:`is_stable` (the witness is
the first violating subset), :func:`stable_fast` and :func:`max_alpha_drop`.
It looks, in lexicographic order of the k-subsets, for a removal that
leaves alpha below a floor, and keeps ``known``: independent sets, every
one of size >= the floor (the full-graph witness, then one set for each
later subset that no known set missed: the set its probe found, or its swap
below).  A subset disjoint from one of them cannot violate, so it is
skipped without an alpha call and the first violator is the one the plain
scan finds.

The skipped subsets are never visited.  The scan walks the (k-1)-prefixes P
in lexicographic order; a known set misses P + {x} exactly when it misses P
and not x, so the last vertices x no known set rules out are those above
max(P) that lie in every known set disjoint from P, one AND of masks.
These candidates are taken in ascending order, and each set that a swap or
a probe adds misses the subset just taken, so P too, and is ANDed into the
candidates left.  So the walk meets the k-subsets in lexicographic order
and leaves out exactly those that a test against every known set would
skip.  It makes the same probes and swaps in the same order as that test,
hence the same ``alpha_mask`` calls, violator and ``known``.

Each probe is a threshold query, ``alpha_mask(adj, rest, floor)``: it
returns an independent set of size >= the floor, most often the set of
its min-degree greedy dive, or else the first one its search reaches,
instead of proving a maximum.  Such a set proves a subset missing it
harmless just as a maximum one does, so the verdicts and witnesses stay
those of the plain scan; only which subsets get probed may change.

Before a probe of a subset S that meets the full-graph witness W =
``known[0]`` in exactly one vertex v, the scan tries a one-vertex swap, the
plateau move of the local search of Andrade, Resende & Werneck (J.
Heuristics 18, 2012): a vertex u outside W and S whose only neighbour in W
is v.  Such u are v's neighbours outside S less the vertices with two or
more neighbours in W, a mask built once per scan.  Then W - v + u is
independent (u sees nothing else of W), as large as W, so at least the
floor, and misses S (v was W's one vertex in S, and u is not in S).  It
joins ``known`` in place of the set the probe would have found, and the
probe is skipped.  A subset is still skipped only when a known independent
set of size >= the floor misses it, so the verdicts and first violators do
not change, and ``known`` grows by at most one set per skipped probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import MAX_VERTICES, Graph, degrees
from .independence import alpha_mask

Code = tuple[int, ...]
_BITS = tuple(1 << v for v in range(MAX_VERTICES))


def _check_params(n: int, k: int, l: int) -> None:
    if type(k) is not int or type(l) is not int:  # bools are rejected too
        raise ValueError("k and l must be integers")
    if not k > l >= 0:
        raise ValueError(f"require k > l >= 0, got k={k}, l={l}")
    if not n > k:
        raise ValueError(f"require n > k, got n={n}, k={k}")


def _bound(n: int, k: int, l: int) -> int:
    return (n - k + 1) // 2 + l


def stability_bound(n: int, k: int, l: int) -> int:
    """Largest independence number a (k,l)-stable graph on n vertices can have."""
    _check_params(n, k, l)
    return _bound(n, k, l)


def _first_violator(
    adj: Code, n: int, k: int, floor: int, known: list[int]
) -> tuple[int, ...] | None:
    """First k-subset whose removal leaves alpha < ``floor``; extends ``known``,
    whose first set must be independent with at least ``floor`` vertices."""
    full = (1 << n) - 1
    top = known[0]
    shared = None  # the vertices with two or more neighbours in ``top``, built at first need
    for pre in combinations(_BITS[: n - 1], k - 1):
        pmask = sum(pre)
        cand = full & -(pre[-1] << 1) if pre else full  # the vertices above max(P)
        for w in known:
            if not w & pmask:
                cand &= w
        while cand:
            low = cand & -cand
            cand ^= low
            smask = pmask | low
            hit = top & smask
            if not hit & (hit - 1):
                if shared is None:
                    seen = shared = 0
                    left = top
                    while left:
                        row = adj[(left & -left).bit_length() - 1]
                        left &= left - 1
                        shared |= seen & row
                        seen |= row
                swap = adj[hit.bit_length() - 1] & ~(shared | smask)
                if swap:
                    known.append(new := top ^ hit | swap & -swap)
                    cand &= new
                    continue
            rest, wit = alpha_mask(adj, full ^ smask, floor)
            if rest < floor:
                return tuple([b.bit_length() - 1 for b in pre]) + (low.bit_length() - 1,)
            known.append(wit)
            cand &= wit
    return None


@dataclass(frozen=True)
class StabilityReport:
    k: int
    l: int
    stable: bool
    witness: tuple[int, ...] | None
    alpha: int
    bound: int
    tight: bool


def is_stable(g: Graph, k: int, l: int) -> StabilityReport:
    """Scan all k-subsets lexicographically; the witness is the first violator."""
    _check_params(g.n, k, l)
    a, wit = alpha_mask(g.adj, (1 << g.n) - 1)
    bound = _bound(g.n, k, l)
    witness = _first_violator(g.adj, g.n, k, a - l, [wit])
    stable = witness is None
    return StabilityReport(k, l, stable, witness, a, bound, stable and a == bound)


def is_tight_stable(g: Graph, k: int, l: int) -> bool:
    """``is_stable(g, k, l).tight``, without the k-subset scan when alpha
    misses the bound."""
    _check_params(g.n, k, l)
    return tight_stable_fast(g.adj, g.n, k, l)


def max_alpha_drop(g: Graph, k: int) -> int:
    """Largest decrease of the independence number over all k-subset removals."""
    _check_params(g.n, k, 0)
    a, wit = alpha_mask(g.adj, (1 << g.n) - 1)
    known = [wit]
    drop = 0
    # floors only fall, so ``known`` stays valid; no k-removal drops alpha by more than min(a, k)
    while drop < min(a, k) and _first_violator(g.adj, g.n, k, a - drop, known):
        drop += 1
    return drop


def min_degree_necessary(g: Graph, k: int) -> tuple[bool, int | None]:
    """Check the necessary condition min degree >= k for (k,0)-stability.

    Removing a vertex's closed neighborhood always lowers the independence
    number, so a vertex of degree < k yields a violating removal set.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    for v, d in enumerate(degrees(g)):
        if d < k:
            return False, v
    return True, None


def stable_fast(adj: Code, n: int, k: int, l: int, a: int, witness_mask: int) -> bool:
    """``is_stable(...).stable`` from a precomputed alpha and its witness
    mask; k > l >= 0 is not checked, and n <= k gives ``False``.  For l = 0
    a minimum degree below k gives ``False`` before the k-subset scan, by
    :func:`min_degree_necessary`."""
    if n <= k or not l and min(map(int.bit_count, adj)) < k:
        return False
    return _first_violator(adj, n, k, a - l, [witness_mask]) is None


def tight_fast(adj: Code, n: int, k: int, l: int, a: int, witness_mask: int) -> bool:
    """``is_stable(...).tight`` from a precomputed alpha and its witness
    mask; k > l >= 0 is not checked, and n <= k gives ``False``."""
    return a == _bound(n, k, l) and stable_fast(adj, n, k, l, a, witness_mask)


def tight_stable_fast(adj: Code, n: int, k: int, l: int) -> bool:
    """``tight_fast`` with alpha computed here; ``False`` unless n > k > l >= 0."""
    return k > l >= 0 and tight_fast(adj, n, k, l, *alpha_mask(adj, (1 << n) - 1))
