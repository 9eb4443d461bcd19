import tracemalloc

import pytest
from hypothesis import given, strategies as st

from helpers import graphs_st
from stabilitylab import catalog
from stabilitylab.canonical import is_isomorphic
from stabilitylab.graphs import (
    Graph,
    add_isolated,
    bipartite_with_pm,
    clique,
    components,
    cone,
    cycle,
    degrees,
    delete_edge,
    delete_vertices,
    disjoint_union,
    even_subdivision_k4,
    from_edges,
    is_connected,
    min_degree,
    path,
)


def test_from_edges_path_and_clique():
    p3 = from_edges(3, [(0, 1), (1, 2)])
    assert p3.edges() == ((0, 1), (1, 2))
    k4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert k4.edge_count == 6
    h7 = from_edges(7, catalog.H7_EDGES)
    assert h7.edge_count == 11


def test_from_edges_collapses_duplicates():
    g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


@pytest.mark.parametrize(
    "n,edges",
    [
        (3, [(0, 3)]),
        (3, [(1, 1)]),
        (0, []),
        (65, []),
    ],
)
def test_from_edges_rejects_bad_input(n, edges):
    with pytest.raises(ValueError):
        from_edges(n, edges)


def test_graph_invariant_enforcement():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # loops
    with pytest.raises(ValueError):
        Graph(1, (0b10,))  # neighbor out of range


def test_delete_vertices_examples():
    sub, kept = delete_vertices(cycle(5), [0])
    assert is_isomorphic(sub, path(4))
    assert kept == (1, 2, 3, 4)
    sub, _ = delete_vertices(clique(4), [2])
    assert is_isomorphic(sub, clique(3))
    h7 = catalog.named_graph("H7")
    sub, _ = delete_vertices(h7, [6])
    assert sub.n == 6 and sub.edge_count == 7


def test_delete_vertices_errors():
    with pytest.raises(ValueError):
        delete_vertices(cycle(3), [0, 1, 2])
    with pytest.raises(ValueError):
        delete_vertices(cycle(3), [5])


@given(graphs_st(min_n=2, max_n=8), st.data())
def test_delete_vertices_relabel_map(g, data):
    remove = data.draw(
        st.sets(st.integers(0, g.n - 1), min_size=0, max_size=g.n - 1)
    )
    sub, kept = delete_vertices(g, remove)
    assert sub.n == g.n - len(remove)
    for i in range(sub.n):
        for j in range(sub.n):
            if i != j:
                assert sub.has_edge(i, j) == g.has_edge(kept[i], kept[j])


def test_delete_edge():
    assert is_isomorphic(delete_edge(cycle(5), (0, 1)), path(5))
    assert delete_edge(clique(4), (1, 2)).edge_count == 5
    h9 = catalog.named_graph("H9")
    assert delete_edge(h9, (6, 8)).edge_count == 13
    with pytest.raises(ValueError):
        delete_edge(cycle(5), (0, 2))


def test_degree_and_component_queries():
    assert min_degree(catalog.named_graph("H7")) == 3
    two = disjoint_union(cycle(3), cycle(5))
    comps = components(two)
    assert sorted(len(c) for c in comps) == [3, 5]
    assert not is_connected(two)
    assert is_connected(clique(5))
    assert degrees(cycle(7)) == [2] * 7


def test_union_isolated_cone():
    two = disjoint_union(cycle(3), cycle(5))
    assert two.n == 8 and two.edge_count == 8
    lifted = add_isolated(clique(3), 1)
    assert lifted.n == 4 and lifted.edge_count == 3
    wheel = cone(cycle(4))
    assert wheel.n == 5 and wheel.degree(4) == 4
    with pytest.raises(ValueError):
        disjoint_union(clique(40), clique(30))


def test_cycle_and_clique_basics():
    c7 = cycle(7)
    assert c7.n == 7 and c7.edge_count == 7 and degrees(c7) == [2] * 7
    with pytest.raises(ValueError):
        cycle(2)
    assert clique(1).edge_count == 0


@pytest.mark.parametrize("build, n", [(clique, 1000), (cycle, 10**5), (path, 10**5)])
def test_oversized_family_fails_before_building_its_edges(build, n):
    # the vertex count is refused before a single edge is made
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="outside 1..64"):
            build(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bipartite_with_pm():
    g = bipartite_with_pm(3)
    assert g.n == 6 and g.edge_count == 3
    assert all(g.has_edge(i, 3 + i) for i in range(3))
    g = bipartite_with_pm(3, [(0, 4), (1, 5)])
    assert g.edge_count == 5
    with pytest.raises(ValueError):
        bipartite_with_pm(3, [(0, 1)])  # same side


def test_even_subdivision_k4_examples():
    assert is_isomorphic(even_subdivision_k4((0,) * 6), clique(4))
    g = even_subdivision_k4((2, 0, 0, 0, 0, 0))
    # one operation adds two vertices and turns one edge into three
    assert g.n == 6 and g.edge_count == 8
    assert sorted(degrees(g)) == [2, 2, 3, 3, 3, 3]
    with pytest.raises(ValueError):
        even_subdivision_k4((1, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        even_subdivision_k4((2, 2))


@given(st.lists(st.sampled_from([0, 2, 4]), min_size=6, max_size=6))
def test_even_subdivision_size_and_degrees(counts):
    g = even_subdivision_k4(counts)
    assert g.n == 4 + sum(counts)
    degs = sorted(degrees(g))
    assert degs[-4:] == [3, 3, 3, 3]
    assert all(d == 2 for d in degs[:-4])


@given(graphs_st(max_n=9))
def test_generated_graphs_always_validate(g):
    Graph(g.n, g.adj)  # the constructor re-runs the structural validation
    assert all(not g.has_edge(v, v) for v in range(g.n))
