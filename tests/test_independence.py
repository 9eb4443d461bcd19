import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from helpers import graphs_st, naive_alpha, naive_independent_sets, plain_alpha_mask, random_graph
from stabilitylab import catalog
from stabilitylab.enumeration import enumerate_canonical
from stabilitylab.graphs import (
    bits,
    clique,
    cycle,
    disjoint_union,
    even_subdivision_k4,
    from_edges,
    path,
)
from stabilitylab.independence import (
    alpha,
    alpha_after_single_removals,
    alpha_mask,
    independent_sets_of_size,
)


def _is_independent(g, vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return all(g.adj[v] & m == 0 for v in vertices)


def test_alpha_examples():
    assert alpha(cycle(7)).alpha == 3
    assert alpha(clique(5)).alpha == 1
    assert alpha(catalog.named_graph("H7")).alpha == 2
    assert alpha(catalog.named_graph("T9")).alpha == 3
    assert alpha(catalog.named_graph("H9")).alpha == 3


def test_alpha_witness_is_valid_and_deterministic():
    g = cycle(9)
    res1 = alpha(g)
    res2 = alpha(g)
    assert res1 == res2
    assert len(res1.witness) == res1.alpha
    assert _is_independent(g, res1.witness)


def test_independent_sets_examples():
    assert list(independent_sets_of_size(cycle(5), 2)) == [
        (0, 2), (0, 3), (1, 3), (1, 4), (2, 4)
    ]
    assert list(independent_sets_of_size(clique(4), 1)) == [(0,), (1,), (2,), (3,)]
    assert list(independent_sets_of_size(cycle(7), 4)) == []
    assert list(independent_sets_of_size(path(3), 0)) == [()]
    with pytest.raises(ValueError):
        list(independent_sets_of_size(path(3), 4))


@given(graphs_st(max_n=7), st.integers(0, 7))
def test_independent_sets_complete_and_ordered(g, t):
    if t > g.n:
        t = g.n
    got = list(independent_sets_of_size(g, t))
    assert got == naive_independent_sets(g, t)
    assert got == sorted(got)


def test_independent_sets_are_lazy():
    # 20 of 40 isolated vertices: C(40, 20) sets, the first one at once
    sets = independent_sets_of_size(from_edges(40, []), 20)
    assert next(sets) == tuple(range(20))
    assert next(sets) == (*range(19), 20)


def test_alpha_after_single_removals_examples():
    assert alpha_after_single_removals(cycle(5)) == {v: 2 for v in range(5)}
    assert alpha_after_single_removals(path(3)) == {0: 1, 1: 2, 2: 1}
    assert alpha_after_single_removals(clique(4)) == {v: 1 for v in range(4)}
    with pytest.raises(ValueError):
        alpha_after_single_removals(from_edges(1, []))


@given(graphs_st(max_n=7))
def test_alpha_matches_naive_oracle(g):
    assert alpha(g).alpha == naive_alpha(g)


@given(graphs_st(min_n=2, max_n=8), st.data())
def test_removal_monotonicity(g, data):
    remove = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n - 1))
    full = (1 << g.n) - 1
    smask = 0
    for v in remove:
        smask |= 1 << v
    a = alpha_mask(g.adj, full)[0]
    sub = alpha_mask(g.adj, full ^ smask)[0]
    assert a - len(remove) <= sub <= a


@given(graphs_st(min_n=2, max_n=8))
def test_single_vertex_removal_dichotomy(g):
    a = alpha(g).alpha
    for value in alpha_after_single_removals(g).values():
        assert value in (a - 1, a)


@given(graphs_st(min_n=2, max_n=8))
def test_edge_removal_dichotomy(g):
    from stabilitylab.graphs import delete_edge

    a = alpha(g).alpha
    for e in g.edges():
        assert alpha(delete_edge(g, e)).alpha in (a, a + 1)


@given(graphs_st(max_n=5), graphs_st(max_n=5))
def test_additivity_over_components(g, h):
    assert alpha(disjoint_union(g, h)).alpha == alpha(g).alpha + alpha(h).alpha


def test_single_vertex_graph():
    assert alpha(from_edges(1, [])).alpha == 1


def test_oracle_equivalence_full_stream_n8():
    from stabilitylab.enumeration import enumerate_canonical

    for g in enumerate_canonical(8):
        assert alpha_mask(g.adj, (1 << 8) - 1)[0] == naive_alpha(g)


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_witness_matches_plain_kernel():
    """The clique-cover bound keeps ``(size, witness)`` of the kernel without
    it: every class up to 7 vertices with the full mask and each single
    vertex deleted, seeded G(n, p) graphs up to 40 vertices with random
    masks, and relabeled cycles, pairs of cycles and even subdivisions of K4."""
    from stabilitylab.enumeration import enumerate_canonical

    cases = []
    for n in range(1, 8):
        full = (1 << n) - 1
        for g in enumerate_canonical(n):
            cases += [(g.adj, full)] + [(g.adj, full ^ 1 << v) for v in range(n)]
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(8, 40)
        g = random_graph(rng, n, rng.choice((0.1, 0.15, 0.2, 0.3, 0.5)))
        cases.append((g.adj, rng.getrandbits(n) | rng.getrandbits(n)))
        cases.append((g.adj, (1 << n) - 1))
    structured = [cycle(n) for n in range(3, 32)]
    structured += [disjoint_union(cycle(a), cycle(b)) for a in (3, 4, 5, 7) for b in (5, 8, 9, 11)]
    for _ in range(12):
        structured.append(even_subdivision_k4([2 * rng.randrange(4) for _ in range(6)]))
    for g in structured:
        h = _relabeled(g, rng)
        full = (1 << h.n) - 1
        cases += [(h.adj, full), (h.adj, full ^ 1 << rng.randrange(h.n))]
    for adj, mask in cases:
        assert alpha_mask(adj, mask) == plain_alpha_mask(adj, mask), (adj, mask)


def _class_masks(n, k=1):
    """Every class on ``n`` vertices with every set of at most ``k`` vertices deleted."""
    full = (1 << n) - 1
    for g in enumerate_canonical(n):
        for r in range(min(k, n) + 1):
            for sub in combinations(range(n), r):
                yield n, g.adj, full ^ sum(1 << v for v in sub)


def _seeded_masks():
    """The seeded G(n, p) graphs and relabeled structured graphs of
    ``test_witness_matches_plain_kernel``, with the same masks."""
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(8, 40)
        g = random_graph(rng, n, rng.choice((0.1, 0.15, 0.2, 0.3, 0.5)))
        yield n, g.adj, rng.getrandbits(n) | rng.getrandbits(n)
        yield n, g.adj, (1 << n) - 1
    structured = [cycle(n) for n in range(3, 32)]
    structured += [disjoint_union(cycle(a), cycle(b)) for a in (3, 4, 5, 7) for b in (5, 8, 9, 11)]
    for _ in range(12):
        structured.append(even_subdivision_k4([2 * rng.randrange(4) for _ in range(6)]))
    for g in structured:
        h = _relabeled(g, rng)
        full = (1 << h.n) - 1
        yield h.n, h.adj, full
        yield h.n, h.adj, full ^ 1 << rng.randrange(h.n)


def _assert_threshold_decides(cases):
    # alpha_mask(adj, mask, t) answers alpha(mask) >= t for every t in 0..n+1,
    # with an independent set of ``size`` >= t vertices inside mask when it holds
    for n, adj, mask in cases:
        a = plain_alpha_mask(adj, mask)[0]
        for t in range(n + 2):
            size, found = alpha_mask(adj, mask, t)
            assert (size >= t) == (a >= t), (adj, mask, t)
            if size >= t:
                assert found & ~mask == 0 and found.bit_count() == size, (adj, mask, t)
                assert all(adj[v] & found == 0 for v in bits(found)), (adj, mask, t)


def test_threshold_matches_plain_kernel():
    # up to 6 vertices, every mask the stability scan probes for k <= 3
    for n in range(1, 7):
        _assert_threshold_decides(_class_masks(n, 3))
    _assert_threshold_decides(_class_masks(7))
    _assert_threshold_decides(_seeded_masks())


def test_threshold_returns_the_greedy_set():
    # on P8 the min-degree greedy dive reaches t = 4 with the even vertices,
    # where the search alone takes the odd ones; full mode keeps the search's
    # witness
    adj = path(8).adj
    assert alpha_mask(adj, 0xFF, 4) == (4, 0b01010101)
    assert alpha_mask(adj, 0xFF) == plain_alpha_mask(adj, 0xFF) == (4, 0b10101010)


@pytest.mark.extended
def test_threshold_matches_plain_kernel_every_class_n8():
    _assert_threshold_decides(_class_masks(8))
