import random

import pytest
from hypothesis import given

from helpers import (
    edge_deletion_preserving_edge,
    graphs_st,
    naive_alpha,
    plain_alpha_mask,
    random_graph,
    relabeled,
)
from stabilitylab import catalog, enumeration
from stabilitylab.canonical import canonical_key
from stabilitylab.critical import (
    CriticalKernel,
    alpha_preserving_edge,
    catalog_match,
    classify_defect,
    critical_reduce,
    defect,
    is_alpha_critical,
    named_class,
)
from stabilitylab.enumeration import enumerate_canonical
from stabilitylab.graphs import (
    add_isolated,
    clique,
    cycle,
    delete_edge,
    disjoint_union,
    even_subdivision_k4,
    from_edges,
    is_connected,
)
from stabilitylab.independence import alpha, alpha_mask
from stabilitylab.stability import is_stable


def test_is_alpha_critical_examples():
    assert is_alpha_critical(cycle(5)) == (True, None)
    crit, edge = is_alpha_critical(cycle(6))
    assert not crit and edge is not None
    assert alpha(delete_edge(cycle(6), edge)).alpha == alpha(cycle(6)).alpha
    assert is_alpha_critical(catalog.named_graph("H9"))[0]


def test_critical_reduce_chorded_cycle():
    g = from_edges(5, list(cycle(5).edges()) + [(0, 2)])
    ck = critical_reduce(g)
    assert ck.removed == ((0, 2),)
    assert set(ck.kernel.edges()) == set(cycle(5).edges())


def test_critical_reduce_already_critical():
    assert critical_reduce(cycle(7)).removed == ()
    assert critical_reduce(clique(5)).removed == ()


@given(graphs_st(max_n=7))
def test_critical_reduce_postconditions(g):
    ck = critical_reduce(g)
    assert ck.kernel.n == g.n
    assert naive_alpha(ck.kernel) == naive_alpha(g)
    assert is_alpha_critical(ck.kernel)[0]
    assert set(ck.kernel.edges()) | set(ck.removed) == set(g.edges())
    assert set(ck.kernel.edges()) & set(ck.removed) == set()
    # idempotence
    assert critical_reduce(ck.kernel).removed == ()


def test_defect_examples():
    assert defect(cycle(7)) == 1
    assert defect(even_subdivision_k4((2, 0, 0, 0, 0, 0))) == 2
    assert defect(catalog.named_graph("T9")) == 3


def test_classify_defect_examples():
    assert classify_defect(clique(4)).classification == "even_subdivision_k4"
    assert classify_defect(clique(5)).classification == "K5"
    assert classify_defect(cycle(9)).classification == "odd_cycle"
    assert classify_defect(catalog.named_graph("H7")).classification == "H7"
    assert classify_defect(clique(2)).classification == "other"  # defect 0


def test_named_class_finds_each_catalog_graph_relabeled():
    for name in ("K5", "H7", "H9", "T9"):
        g = catalog.named_graph(name)
        flipped = from_edges(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()])
        assert named_class(flipped) == name
    assert named_class(catalog.named_graph("K4")) is None
    assert named_class(cycle(9)) is None


def test_classify_defect_requires_hypotheses():
    with pytest.raises(ValueError):
        classify_defect(disjoint_union(cycle(3), cycle(3)))
    with pytest.raises(ValueError):
        classify_defect(cycle(6))


def test_kernel_inherits_stability():
    # spanning alpha-preserving subgraphs of a (2,0)-stable graph stay stable
    for n in (5, 6):
        for g in enumerate_canonical(n):
            if not is_stable(g, 2, 0).stable:
                continue
            kernel = critical_reduce(g).kernel
            assert is_stable(kernel, 2, 0).stable


def test_defect_one_connected_critical_graphs_are_odd_cycles():
    for n in range(3, 8):
        for g in enumerate_canonical(n):
            if defect(g) != 1:
                continue
            if not is_alpha_critical(g)[0]:
                continue
            if not is_connected(g):
                continue
            assert classify_defect(g).classification == "odd_cycle"


def test_critical_test_matches_edge_deletion_oracle():
    # every class with n <= 7 (1,252), seeded G(n, p) graphs and relabeled
    # cycles, pairs of odd cycles and even subdivisions of K4, against
    # deleting each edge and recomputing alpha; the reduction's one edge walk
    # must give the kernel and removal log of the loop that restarts the
    # oracle's scan after every deletion
    rng = random.Random(1313)
    cases = [g for n in range(1, 8) for g in enumerate_canonical(n)]
    assert len(cases) == 1252
    cases += [random_graph(rng, rng.randint(9, 16), rng.uniform(0.2, 0.5)) for _ in range(200)]
    cases += [relabeled(cycle(n), rng) for n in range(9, 17)]
    cases += [relabeled(disjoint_union(cycle(a), cycle(b)), rng) for a in (3, 5, 7) for b in (5, 7, 9)]
    for _ in range(12):
        cases.append(relabeled(even_subdivision_k4([2 * rng.randrange(3) for _ in range(6)]), rng))
    for g in cases:
        a = plain_alpha_mask(g.adj, (1 << g.n) - 1)[0]
        assert alpha_preserving_edge(g.adj, g.n, a) == edge_deletion_preserving_edge(g.adj, g.n, a)
        current, removed = g, []
        while (edge := edge_deletion_preserving_edge(current.adj, g.n, a)) is not None:
            current = delete_edge(current, edge)
            removed.append(edge)
        assert critical_reduce(g) == CriticalKernel(current, tuple(removed))


def test_hajnal_pretest_keeps_the_alpha_critical_flag():
    # the alpha_critical flag rejects on Hajnal's degree bound before the edge
    # walk; on every class with n <= 8 it must equal the walk's verdict
    flag = enumeration._flag_evaluator("alpha_critical")
    pretested = 0
    for n in range(1, 9):
        for g in enumerate_canonical(n):
            a = alpha_mask(g.adj, (1 << n) - 1)[0]
            assert flag(g.adj, n, a, None) == (alpha_preserving_edge(g.adj, n, a) is None)
            pretested += not enumeration._within_hajnal_bound(g.adj, n, a)
    assert pretested > 5_828  # AND's n = 8 candidates over the bound alone
    # alpha-critical graphs over the bound without its isolated-vertex term:
    # C5 + K1 has degree 2 against 6 - 6 + 1, C7 + 2K1 degree 2 against 9 - 10 + 1
    for g in (add_isolated(cycle(5), 1), add_isolated(cycle(7), 2)):
        a = alpha(g).alpha
        assert max(row.bit_count() for row in g.adj) > g.n - 2 * a + 1
        assert flag(g.adj, g.n, a, None) is True


def _assert_matcher_agrees(g, name):
    target = catalog.named_graph(name)
    match = catalog_match(g, (name,))
    assert (match is not None) == (canonical_key(g.adj) == canonical_key(target.adj))
    if match is not None:
        assert match[0] == name
        assert sorted(match[1]) == list(range(g.n))
        assert all(g.has_edge(match[1][u], match[1][v]) for u, v in target.edges())


def test_catalog_match_agrees_with_canonical_key():
    # every class of order 4, 5 and 7 against the catalog graph of that order
    for name in ("K4", "K5", "H7"):
        for g in enumerate_canonical(catalog.named_graph(name).n):
            _assert_matcher_agrees(g, name)


@pytest.mark.extended
def test_catalog_match_agrees_with_canonical_key_at_nine():
    # every 9-vertex class with the edge count of H9 (14) or T9 (15) against both
    checked = 0
    for g in enumerate_canonical(9):
        if g.edge_count in (14, 15):
            checked += 1
            for name in ("H9", "T9"):
                _assert_matcher_agrees(g, name)
    assert checked > 0
