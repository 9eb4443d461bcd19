"""Stability of the independence number under removal of k vertices.

A graph is (k,l)-stable when deleting any k vertices lowers the independence
number by at most l; it is tight when the independence number also meets the
ceiling ``floor((n-k+1)/2) + l``, the largest value a (k,l)-stable graph can
attain.  One lexicographic k-subset scan serves :func:`is_stable`, whose
witness is the first violating subset, :func:`max_alpha_drop` and
:func:`stable_fast`, the boolean-only path the enumeration pipelines use.

An equivalent formulation, usable as another fast path: the graph is
(k,l)-stable iff no k vertices form a transversal of the family of
independent sets of size alpha-l (a removal drops alpha below alpha-l
exactly when it hits every such set).  This implementation keeps the subset
scan, which the reports' witness semantics are defined against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, bits, degrees
from .independence import alpha_mask

Code = tuple[int, ...]


def _check_params(n: int, k: int, l: int) -> None:
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (k, l)):
        raise ValueError("k and l must be integers")
    if not k > l >= 0:
        raise ValueError(f"require k > l >= 0, got k={k}, l={l}")
    if not n > k:
        raise ValueError(f"require n > k, got n={n}, k={k}")


def stability_bound(n: int, k: int, l: int) -> int:
    """Largest independence number a (k,l)-stable graph on n vertices can have."""
    _check_params(n, k, l)
    return (n - k + 1) // 2 + l


def _removal_alphas(adj: Code, n: int, k: int):
    """Yield ``(subset, alpha after removing it)`` for every k-subset, lexicographically."""
    full = (1 << n) - 1
    for sub in combinations(range(n), k):
        smask = 0
        for v in sub:
            smask |= 1 << v
        yield sub, alpha_mask(adj, full ^ smask)[0]


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
    a = alpha_mask(g.adj, (1 << g.n) - 1)[0]
    bound = stability_bound(g.n, k, l)
    for sub, rest in _removal_alphas(g.adj, g.n, k):
        if rest < a - l:
            return StabilityReport(k, l, False, sub, a, bound, False)
    return StabilityReport(k, l, True, None, a, bound, a == bound)


def is_tight_stable(g: Graph, k: int, l: int) -> bool:
    report = is_stable(g, k, l)
    return report.stable and report.tight


def max_alpha_drop(g: Graph, k: int) -> int:
    """Largest decrease of the independence number over all k-subset removals."""
    if not 1 <= k < g.n:
        raise ValueError(f"require 1 <= k < n, got k={k}, n={g.n}")
    a = alpha_mask(g.adj, (1 << g.n) - 1)[0]
    worst = 0
    for _, rest in _removal_alphas(g.adj, g.n, k):
        worst = max(worst, a - rest)
        if worst == min(a, k):
            break
    return worst


def min_degree_necessary(g: Graph, k: int) -> tuple[bool, int | None]:
    """Check the necessary condition min degree >= k for (k,0)-stability.

    Removing a vertex's closed neighborhood always lowers the independence
    number, so a vertex of degree < k yields a violating removal set.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    for v, d in enumerate(degrees(g)):
        if d < k:
            return False, v
    return True, None


# -- boolean-only fast path -------------------------------------------------
#
# Equivalent to is_stable(...).stable: a failing k-subset exists iff one is
# found by the staged scan below.  A single vertex can force a drop only if
# it lies in every maximum independent set, hence in the witness, which cuts
# the size-1 stage to at most alpha probes.

def stable_fast(adj: Code, n: int, k: int, l: int, a: int, witness_mask: int) -> bool:
    full = (1 << n) - 1
    if l == 0:
        for v in bits(witness_mask):
            if alpha_mask(adj, full ^ (1 << v))[0] < a:
                return False
    if k == 1:
        return True  # the parameter domain forces l = 0, so singles were checked
    return all(rest >= a - l for _, rest in _removal_alphas(adj, n, k))


def tight_stable_fast(adj: Code, n: int, k: int, l: int) -> bool:
    if not (n > k > l >= 0):
        return False
    a, wit = alpha_mask(adj, (1 << n) - 1)
    if a != (n - k + 1) // 2 + l:
        return False
    return stable_fast(adj, n, k, l, a, wit)
