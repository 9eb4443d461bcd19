"""Constructive certificates for the structural results, and their validator.

Each builder follows one constructive argument: saturating matchings,
minimal Hall violators and L21's check (on the bipartite double cover) come
from one augmenting-path search on adjacency masks.  Both tight (1,0)
certificates read the cycle cover that search finds on the double cover:
an independent set takes at most floor(L/2) vertices of a cycle of length
L, so alpha = floor(n/2) leaves exactly n mod 2 odd cycles, and alternate
vertices of the even cycles pair up beside the odd one.  The spanning
decompositions come from a greedy critical kernel whose components the
recognizers of :mod:`~stabilitylab.critical` identify.  Every certificate
passes the independent :func:`validate_decomposition` before it leaves this
module; the validator shares no code with the recognizers.  ``is_odd_cycle``,
``is_even_subdivision_k4`` and ``spanning_embedding`` stay importable here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import catalog
from .critical import CLASS_NAMED, catalog_match, critical_reduce, is_even_subdivision_k4, trace_cycle
from .critical import is_odd_cycle, spanning_embedding  # re-exported beside is_even_subdivision_k4
from .errors import InvariantViolation
from .graphs import Graph, bits, components, normalize_edge
from .stability import is_tight_stable

Matching = tuple[tuple[int, int], ...]

KIND_PERFECT_MATCHING = "perfect_matching"
KIND_ODD_CYCLE_PLUS_MATCHING = "odd_cycle_plus_matching"
KIND_TWO_ODD_CYCLES = "two_odd_cycles"
KIND_EVEN_SUBDIVISION_K4 = "even_subdivision_k4"
KIND_NAMED_SPANNING = "named_spanning"

_KINDS = (
    KIND_PERFECT_MATCHING,
    KIND_ODD_CYCLE_PLUS_MATCHING,
    KIND_TWO_ODD_CYCLES,
    KIND_EVEN_SUBDIVISION_K4,
    KIND_NAMED_SPANNING,
)


@dataclass(frozen=True)
class Decomposition:
    """Certified spanning structure over a host graph."""

    kind: str
    cycles: tuple[tuple[int, ...], ...] = ()
    matching: Matching = ()
    embedding: tuple[int, ...] | None = None
    name: str | None = None
    branch_paths: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class HallCertificate:
    """Either a matching saturating the queried side, or an inclusion-minimal
    witness violating the neighborhood condition (|N(violator)| < |violator|
    while every proper subset meets it)."""

    matching: Matching | None
    violator: tuple[int, ...] | None


# -- validators --------------------------------------------------------------


def _check_cycle(g: Graph, cyc: tuple[int, ...]) -> None:
    if len(cyc) < 3 or len(cyc) % 2 == 0:
        raise ValueError(f"cycle {cyc} does not have odd length >= 3")
    if len(set(cyc)) != len(cyc):
        raise ValueError(f"cycle {cyc} repeats a vertex")
    for i, v in enumerate(cyc):
        u = cyc[(i + 1) % len(cyc)]
        if not g.has_edge(v, u):
            raise ValueError(f"cycle step ({v},{u}) is not an edge of the host")


def _check_matching(g: Graph, matching: Matching) -> list[int]:
    used: list[int] = []
    for u, v in matching:
        if not g.has_edge(u, v):
            raise ValueError(f"matching edge ({u},{v}) is not in the host")
        used.extend((u, v))
    if len(set(used)) != len(used):
        raise ValueError("matching edges share a vertex")
    return used


def validate_decomposition(g: Graph, d: Decomposition) -> None:
    """Independently check that a certificate is a valid spanning structure."""
    if d.kind not in _KINDS:
        raise ValueError(f"unknown decomposition kind {d.kind!r}")
    covered: list[int] = []
    if d.kind == KIND_PERFECT_MATCHING:
        if d.cycles or d.branch_paths or d.embedding is not None:
            raise ValueError("perfect matching certificate carries extra parts")
        covered = _check_matching(g, d.matching)
    elif d.kind == KIND_ODD_CYCLE_PLUS_MATCHING:
        if len(d.cycles) != 1:
            raise ValueError("expected exactly one cycle")
        _check_cycle(g, d.cycles[0])
        covered = list(d.cycles[0]) + _check_matching(g, d.matching)
    elif d.kind == KIND_TWO_ODD_CYCLES:
        if len(d.cycles) != 2 or d.matching:
            raise ValueError("expected exactly two cycles and no matching")
        for cyc in d.cycles:
            _check_cycle(g, cyc)
            covered.extend(cyc)
    elif d.kind == KIND_EVEN_SUBDIVISION_K4:
        covered = _check_subdivision_paths(g, d.branch_paths)
    else:  # named spanning
        if d.name is None or d.embedding is None:
            raise ValueError("named spanning certificate needs a name and an embedding")
        target = catalog.named_graph(d.name)
        if target.n != g.n:
            raise ValueError("embedding target size differs from host size")
        if sorted(d.embedding) != list(range(g.n)):
            raise ValueError("embedding is not a bijection")
        for u, v in target.edges():
            if not g.has_edge(d.embedding[u], d.embedding[v]):
                raise ValueError(f"target edge ({u},{v}) has no image in the host")
        covered = list(range(g.n))
    if len(set(covered)) != len(covered):
        raise ValueError("certificate parts overlap")
    if set(covered) != set(range(g.n)):
        raise ValueError("certificate does not span the host")


def _check_subdivision_paths(g: Graph, paths: tuple[tuple[int, ...], ...]) -> list[int]:
    if len(paths) != 6:
        raise ValueError("a subdivided 4-clique has exactly six branch paths")
    ends = []
    internal: list[int] = []
    for p in paths:
        if len(p) < 2:
            raise ValueError("branch path too short")
        if len(p) % 2:
            raise ValueError(f"branch path {p} has an odd number of internal vertices")
        for a, b in zip(p, p[1:]):
            if not g.has_edge(a, b):
                raise ValueError(f"branch step ({a},{b}) is not an edge of the host")
        ends.append((min(p[0], p[-1]), max(p[0], p[-1])))
        internal.extend(p[1:-1])
    terminals = sorted({v for e in ends for v in e})
    if len(terminals) != 4:
        raise ValueError("branch endpoints do not span four terminals")
    if sorted(ends) != list(combinations(terminals, 2)):
        raise ValueError("branch endpoints do not form a 4-clique pattern")
    if len(set(internal)) != len(internal) or set(internal) & set(terminals):
        raise ValueError("branch interiors overlap")
    return terminals + internal


# -- matchings ---------------------------------------------------------------


def augment_matching(adj: tuple[int, ...], left: int) -> tuple[list[int], int]:
    """Match the vertex set ``left`` into its neighbourhood by augmenting
    paths (Kuhn's algorithm) on the adjacency masks ``adj``.

    The right side is a separate copy of V: an independent ``left`` meets
    only V - left, and ``left`` = V searches the bipartite double cover,
    matched perfectly iff disjoint edges and cycles span G.  Left vertices
    go in ascending order, each with a fresh visited set, and each search
    tries unvisited neighbours in ascending order, depth first on an
    explicit stack.  Returns ``(mate, blocked)``: ``mate[b]`` is the left
    vertex matched to right ``b``, or -1.  ``blocked`` is 0 when every left
    vertex is matched, else the first left vertex the search could not
    match and the mates of the vertices its search visited, a set with
    fewer neighbours than members.
    """
    mate = [-1] * len(adj)
    rest = left
    while rest:
        low = rest & -rest
        rest ^= low
        a = low.bit_length() - 1
        b_bit = adj[a] & -adj[a]
        b = b_bit.bit_length() - 1
        if b_bit and mate[b] < 0:  # the first neighbour is free: a one-edge path
            mate[b] = a
            continue
        path = [a]  # left vertices of the alternating path
        via: list[int] = []  # the right vertex each path vertex is trying
        visited = 0
        while path:
            cand = adj[path[-1]] & ~visited
            if not cand:
                path.pop()
                if via:
                    via.pop()
                continue
            b_bit = cand & -cand
            visited |= b_bit
            b = b_bit.bit_length() - 1
            via.append(b)
            if mate[b] >= 0:
                path.append(mate[b])
                continue
            for a, b in zip(path, via):
                mate[b] = a
            break
        else:
            blocked = low
            for b in bits(visited):
                blocked |= 1 << mate[b]
            return mate, blocked
    return mate, 0


def hall_matching(g: Graph, a_set) -> HallCertificate:
    """Match an independent set into the rest of the graph.

    Returns the saturating matching :func:`augment_matching` finds when the
    neighborhood condition holds, otherwise the set it reports blocked,
    which is already an inclusion-minimal violator.  The blocked set is the
    failed vertex and the mates of the right vertices its search visited,
    and its neighbourhood is exactly that visited set, one smaller.  A
    proper subset S meets the condition: the mates of its members other
    than the failed vertex are distinct neighbours, and if S holds the
    failed vertex, the search path to a member left out leaves S through a
    visited vertex that neighbours S and is mated outside it.
    """
    left = 0
    for v in sorted(set(a_set)):
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
        left |= 1 << v
    for u in bits(left):
        hit = g.adj[u] & left
        if hit:  # the first u with a neighbour in the set has no lower one
            raise ValueError(f"set is not independent: edge ({u},{(hit & -hit).bit_length() - 1})")
    mate, blocked = augment_matching(g.adj, left)
    if not blocked:
        return HallCertificate(_matching_edges(mate), None)
    union = 0
    for v in bits(blocked):
        union |= g.adj[v]
    if union.bit_count() >= blocked.bit_count():
        raise InvariantViolation("failed augmentation did not produce a violator")
    return HallCertificate(None, tuple(bits(blocked)))


def _matching_edges(mate: list[int]) -> Matching:
    """The matched pairs of :func:`augment_matching`'s ``mate`` list as sorted edges."""
    return tuple(sorted(normalize_edge(a, b) for b, a in enumerate(mate) if a >= 0))


def _cycle_cover(adj: tuple[int, ...]) -> list[list[int]] | None:
    """The cycle cover that one :func:`augment_matching` search on the
    bipartite double cover finds (the search L21's check makes), or ``None``
    when it is blocked.  The mates are a permutation sending each vertex to
    a neighbour; each of its cycles, walked from its least vertex, is an
    edge (length 2) or a cycle of the graph."""
    mate, blocked = augment_matching(adj, (1 << len(adj)) - 1)
    if blocked:
        return None
    cycles: list[list[int]] = []
    seen = 0
    for first in range(len(adj)):
        v, cyc = first, []
        while not seen >> v & 1:
            seen |= 1 << v
            cyc.append(v)
            v = mate[v]
        if cyc:
            cycles.append(cyc)
    return cycles


def _tight10_cover(g: Graph) -> tuple[tuple[int, ...], Matching]:
    """The odd cycle (empty for even n) and the matching of a tight
    (1,0)-stable graph's cycle cover, alternate vertices of every even cycle
    paired.

    The search is never blocked: every maximum independent set saturates
    into its complement (L21), so |N(X)| >= |X| for every vertex set X.  An
    independent set takes at most floor(L/2) vertices of a cycle of length
    L, so alpha = floor(n/2) leaves exactly n mod 2 odd cycles.
    """
    if not is_tight_stable(g, 1, 0):
        raise ValueError("input is not tight (1,0)-stable")
    cycles = _cycle_cover(g.adj)
    if cycles is None:
        raise InvariantViolation("a (1,0)-stable graph must have a spanning cycle cover")
    odd = [tuple(c) for c in cycles if len(c) % 2]
    if len(odd) != g.n % 2:
        raise InvariantViolation("cycle cover has an odd-cycle count other than n mod 2")
    even = (c for c in cycles if len(c) % 2 == 0)
    pairs = sorted(normalize_edge(a, b) for c in even for a, b in zip(c[::2], c[1::2]))
    return (odd[0] if odd else ()), tuple(pairs)


def perfect_matching_tight10(g: Graph) -> Matching:
    """Perfect matching of an even tight (1,0)-stable graph, read off its cycle cover."""
    if g.n % 2:
        raise ValueError("needs an even vertex count")
    return _tight10_cover(g)[1]


# -- odd cycle + matching ----------------------------------------------------


def odd_cycle_matching_decomposition(g: Graph) -> Decomposition:
    """Spanning odd cycle plus matching for an odd tight (1,0)-stable graph,
    read off its cycle cover; the matcher's fixed search order makes the
    output reproducible."""
    if g.n % 2 == 0:
        raise ValueError("needs an odd vertex count")
    cyc, matching = _tight10_cover(g)
    d = Decomposition(kind=KIND_ODD_CYCLE_PLUS_MATCHING, cycles=(cyc,), matching=matching)
    validate_decomposition(g, d)
    return d


# -- spanning decompositions -------------------------------------------------


def two_cycles_or_subdivision_decomposition(g: Graph) -> Decomposition:
    """Spanning certificate for an even tight (2,0)-stable graph.

    Reduces to the critical kernel; one component means an even subdivision
    of the 4-clique, two components mean two odd cycles.
    """
    if g.n % 2:
        raise ValueError("needs an even vertex count")
    if not is_tight_stable(g, 2, 0):
        raise ValueError("input is not tight (2,0)-stable")
    kernel = critical_reduce(g).kernel
    comps = components(kernel)
    if len(comps) > 2:
        raise InvariantViolation("critical kernel has more than two components")
    if len(comps) == 1:
        s = is_even_subdivision_k4(kernel)
        if s is None:
            raise InvariantViolation("connected kernel is not an even subdivision of the 4-clique")
        d = Decomposition(kind=KIND_EVEN_SUBDIVISION_K4, branch_paths=s.paths)
    else:
        cycles = []
        for comp in comps:
            cyc = trace_cycle(kernel, comp)
            if cyc is None or len(cyc) % 2 == 0:
                raise InvariantViolation("kernel component is not an odd cycle")
            cycles.append(cyc)
        d = Decomposition(kind=KIND_TWO_ODD_CYCLES, cycles=tuple(cycles))
    validate_decomposition(g, d)
    return d


def five_graph_decomposition(g: Graph) -> Decomposition:
    """Spanning named-graph certificate for a tight (3,0)-stable graph: the catalog match of its kernel."""
    if not is_tight_stable(g, 3, 0):
        raise ValueError("input is not tight (3,0)-stable")
    match = catalog_match(critical_reduce(g).kernel, ("K4", *CLASS_NAMED))
    if match is None:
        raise InvariantViolation("kernel matches none of the named graphs K4, K5, H7, H9, T9")
    d = Decomposition(kind=KIND_NAMED_SPANNING, name=match[0], embedding=match[1])
    validate_decomposition(g, d)
    return d


def spanning_certificate(g: Graph, k: int) -> Decomposition:
    """Validated spanning certificate of a tight (k,0)-stable graph, k in {1, 2, 3}.

    Picks the builder by k and parity: a perfect matching or an odd cycle
    plus matching for k=1, two odd cycles or an even subdivision of the
    4-clique for even n and k=2 (odd n is a single odd cycle), and a named
    spanning graph for k=3.
    """
    if type(k) is not int or not 1 <= k <= 3:
        raise ValueError(f"spanning certificates exist for k in 1..3, got k={k!r}")
    if k == 1 and g.n % 2 == 0:
        d = Decomposition(kind=KIND_PERFECT_MATCHING, matching=perfect_matching_tight10(g))
    elif k == 1:
        return odd_cycle_matching_decomposition(g)
    elif k == 2 and g.n % 2 == 0:
        return two_cycles_or_subdivision_decomposition(g)
    elif k == 2:
        if not is_tight_stable(g, 2, 0):
            raise ValueError("input is not tight (2,0)-stable")
        cyc = trace_cycle(g, tuple(range(g.n)))
        if cyc is None:
            raise InvariantViolation("odd tight (2,0)-stable graph is not an odd cycle")
        d = Decomposition(kind=KIND_ODD_CYCLE_PLUS_MATCHING, cycles=(cyc,))
    else:
        return five_graph_decomposition(g)
    validate_decomposition(g, d)
    return d
