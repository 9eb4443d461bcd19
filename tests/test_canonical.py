import random
from collections import Counter

import pytest
from hypothesis import given

from helpers import (
    brute_orbits,
    graphs_st,
    labeled_codes,
    random_graph,
    reference_refine_colors,
    reference_subset_reps,
    reference_target_cell,
)
from stabilitylab import canonical, catalog
from stabilitylab.canonical import (
    _fixed_leaf,
    _orbit_reps,
    _target_cell,
    automorphism_generators,
    canonical_data,
    canonical_form,
    canonical_key,
    degree_ranks,
    is_isomorphic,
    neighbor_lists,
    refine_colors,
    shares_orbit,
)
from stabilitylab.enumeration import _frontier, _mask_gate, _subset_reps
from stabilitylab.graphs import Graph, bits, clique, cycle, from_edges, path


def _relabel(g, perm):
    adj = [0] * g.n
    for v in range(g.n):
        for u in bits(g.adj[v]):
            adj[perm[v]] |= 1 << perm[u]
    return Graph(g.n, tuple(adj))


def test_thousand_random_relabelings_agree():
    rng = random.Random(1723)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        key = canonical_key(g.adj)
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(_relabel(g, perm).adj) == key
            checked += 1


def test_examples():
    c5 = cycle(5)
    shuffled = from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 0), (0, 1)])
    assert is_isomorphic(c5, shuffled)
    assert not is_isomorphic(path(4), from_edges(4, [(0, 1), (0, 2), (0, 3)]))
    assert not is_isomorphic(catalog.named_graph("H9"), catalog.named_graph("T9"))


def test_canonical_form_is_a_relabeling():
    g = catalog.named_graph("H7")
    cf = canonical_form(g)
    assert sorted(cf.order) == list(range(7))
    assert cf.graph.edge_count == g.edge_count
    assert is_isomorphic(cf.graph, g)
    assert canonical_key(cf.graph.adj) == canonical_key(g.adj)


def test_orbits_match_brute_force_small():
    rng = random.Random(99)
    graphs = [g for n in range(1, 6) for g in _all_small(n)]
    graphs += [random_graph(rng, 6, 0.5) for _ in range(40)]
    graphs += [random_graph(rng, 7, 0.3) for _ in range(20)]
    for g in graphs:
        assert canonical_form(g).orbit == brute_orbits(g)


def _all_small(n):
    from stabilitylab.enumeration import enumerate_canonical

    return list(enumerate_canonical(n))


def _petersen():
    return from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )


def test_orbit_structure_of_named_graphs():
    assert len(set(canonical_form(clique(4)).orbit)) == 1
    assert len(set(canonical_form(cycle(9)).orbit)) == 1
    p4 = path(4)
    orb = canonical_form(p4).orbit
    assert orb[0] == orb[3] and orb[1] == orb[2] and orb[0] != orb[1]
    assert len(set(canonical_form(_petersen()).orbit)) == 1


def test_generators_are_automorphisms():
    for g in (clique(5), cycle(8), catalog.named_graph("T9")):
        data = canonical_data(g.adj)
        for sigma in data.generators:
            for v in range(g.n):
                image = 0
                for u in bits(g.adj[v]):
                    image |= 1 << sigma[u]
                assert image == g.adj[sigma[v]]


@given(graphs_st(max_n=8))
def test_key_invariant_under_reversal_relabeling(g):
    perm = list(reversed(range(g.n)))
    assert canonical_key(g.adj) == canonical_key(_relabel(g, perm).adj)


def test_refinement_from_degree_ranks_matches_unit_start():
    rng = random.Random(2014)
    codes = [code for n in range(1, 7) for code in labeled_codes(n)]
    codes += [random_graph(rng, rng.randint(7, 20), rng.random()).adj for _ in range(500)]
    for adj in codes:
        nl = neighbor_lists(adj)
        assert refine_colors(nl, degree_ranks(adj)) == refine_colors(nl, [0] * len(adj))


def test_refinement_matches_reference_on_every_class_below_eight():
    # from the degree ranks, from the unit partition, and after each
    # individualization down every vertex's fixed search path
    compared = 0
    for n in range(1, 8):
        for g in _all_small(n):
            nl = neighbor_lists(g.adj)
            for start in (degree_ranks(g.adj), [0] * n):
                assert refine_colors(nl, start) == reference_refine_colors(nl, start)
            base = refine_colors(nl, degree_ranks(g.adj))
            for v in range(n):
                colors, w = base, v
                while w is not None:
                    child = [2 * c for c in colors]
                    child[w] -= 1
                    colors = refine_colors(nl, child)
                    assert colors == reference_refine_colors(nl, child), (g.adj, child)
                    compared += 1
                    shared = [c for c in sorted(set(colors)) if colors.count(c) > 1]
                    w = colors.index(shared[0]) if shared else None
    assert compared > 10000


def test_shares_orbit_proves_only_true_orbits():
    # a True answer is a proof for every listed vertex, whichever cells the
    # vertices come from; vertex-transitive graphs are proved one orbit
    rng = random.Random(31)
    graphs = [g for n in range(1, 7) for g in _all_small(n)]
    graphs += [random_graph(rng, 7, 0.4) for _ in range(15)]
    proved = 0
    for g in graphs:
        orbits = brute_orbits(g)
        nl = neighbor_lists(g.adj)
        colors = refine_colors(nl, degree_ranks(g.adj))
        for z in range(g.n):
            others = [w for w in range(g.n) if w != z]
            for group in [[w] for w in others] + [others]:
                if shares_orbit(nl, colors, z, group):
                    assert all(orbits[w] == orbits[z] for w in group), (g.adj, z, group)
                    proved += 1
    assert proved > 1000
    for g in (cycle(9), clique(5), _petersen()):
        nl = neighbor_lists(g.adj)
        assert shares_orbit(nl, refine_colors(nl, degree_ranks(g.adj)), 0, range(1, g.n))


def test_target_cell_matches_reference_on_every_reached_coloring(monkeypatch):
    # every coloring the search and the fixed leaf paths hand to the cell
    # finder, over every class with n <= 7
    reached = []
    monkeypatch.setattr(
        canonical, "_target_cell", lambda colors: reached.append(list(colors)) or _target_cell(colors)
    )
    for n in range(1, 8):
        for adj in _frontier(n):
            nl = neighbor_lists(adj)
            base = refine_colors(nl, degree_ranks(adj))
            for v in range(n):
                _fixed_leaf(nl, base, v)
            canonical_data(adj)
    assert len(reached) > 25000
    for colors in reached:
        assert _target_cell(colors) == reference_target_cell(colors), colors


#: (discrete, twin-cell, search) classes per level: a discrete equitable
#: partition, every non-singleton cell a twin class, or neither, which
#: ``automorphism_generators`` hands to ``canonical_data``
GROUP_SOURCES = {
    1: (1, 0, 0),
    2: (0, 2, 0),
    3: (0, 4, 0),
    4: (0, 8, 3),
    5: (0, 24, 10),
    6: (8, 88, 60),
    7: (152, 536, 356),
    8: (3696, 5580, 3070),
}


def _group_sources(codes, monkeypatch):
    """``(adj, generators, source)`` for each code, the source 2 when
    ``automorphism_generators`` called ``canonical_data``, else 0 for a
    discrete equitable partition and 1 for twin cells."""
    searched = []
    out = []
    with monkeypatch.context() as patch:
        patch.setattr(canonical, "canonical_data", lambda adj: searched.append(adj) or canonical_data(adj))
        for adj in codes:
            before = len(searched)
            gens = automorphism_generators(adj)
            if len(searched) > before:
                source = 2
            else:
                colors = refine_colors(neighbor_lists(adj), degree_ranks(adj))
                source = int(len(set(colors)) < len(adj))
            out.append((adj, gens, source))
    return out


def _split(sources):
    count = Counter(source for *_, source in sources)
    return count[0], count[1], count[2]


def test_twin_groups_below_nine(monkeypatch):
    # the group read off twin cells is the group: its generators are
    # automorphisms with canonical_data's orbits, and the attachment subsets
    # _subset_reps walks under it are those canonical_data's generators give
    for n in range(1, 9):
        sources = _group_sources(_frontier(n), monkeypatch)
        assert _split(sources) == GROUP_SOURCES[n]
        for adj, gens, _ in sources:
            for sigma in gens:
                assert sorted(sigma) == list(range(n))
                assert all(
                    sum(1 << sigma[u] for u in bits(adj[v])) == adj[sigma[v]] for v in range(n)
                ), (adj, sigma)
            assert tuple(_orbit_reps(n, gens)) == canonical_data(adj).orbit, adj
            for keep in (lambda s: 1, _mask_gate(adj, neighbor_lists(adj))):
                assert _subset_reps(adj, keep) == reference_subset_reps(adj, keep), adj


@pytest.mark.extended
def test_twin_groups_at_nine(monkeypatch):
    # the parents of a level-10 pass: the split, and every twin-cell
    # class's orbits against canonical_data's
    sources = _group_sources(_frontier(9), monkeypatch)
    assert _split(sources) == (135004, 103024, 36640)
    for adj, gens, source in sources:
        if source == 1:
            assert tuple(_orbit_reps(9, gens)) == canonical_data(adj).orbit, adj
