import random

import pytest

from helpers import random_graph
from stabilitylab import catalog
from stabilitylab.graphs import (
    bipartite_with_pm,
    clique,
    cone,
    cycle,
    degrees,
    disjoint_union,
    even_subdivision_k4,
    from_edges,
    path,
)
from stabilitylab.structure import (
    Decomposition,
    KIND_ODD_CYCLE_PLUS_MATCHING,
    KIND_PERFECT_MATCHING,
    KIND_TWO_ODD_CYCLES,
    five_graph_decomposition,
    hall_matching,
    is_even_subdivision_k4,
    is_odd_cycle,
    odd_cycle_matching_decomposition,
    perfect_matching_tight10,
    spanning_certificate,
    spanning_embedding,
    two_cycles_or_subdivision_decomposition,
    validate_decomposition,
)


def test_hall_matching_saturates():
    cert = hall_matching(cycle(4), [0, 2])
    assert cert.violator is None
    assert len(cert.matching) == 2
    used = {v for e in cert.matching for v in e}
    assert {0, 2} <= used


def test_hall_matching_violator():
    cert = hall_matching(path(3), [0, 2])
    assert cert.matching is None
    assert cert.violator == (0, 2)  # both endpoints share the single middle vertex


@pytest.mark.parametrize("n", [31, 33])
def test_hall_violator_is_the_whole_blocked_set(n):
    # the even vertices of a path on an odd count are one vertex more than
    # their neighbours, and no proper subset of them is: 16 and 17 vertices
    evens = tuple(range(0, n, 2))
    cert = hall_matching(path(n), evens)
    assert cert.matching is None
    assert cert.violator == evens and len(evens) == (n + 1) // 2


def test_hall_matching_requires_independent_set():
    with pytest.raises(ValueError):
        hall_matching(cycle(4), [0, 1])


def test_hall_matching_on_tight_fixture():
    g = disjoint_union(cycle(6), bipartite_with_pm(2))
    from stabilitylab.independence import alpha, independent_sets_of_size

    a = alpha(g).alpha
    wit = next(independent_sets_of_size(g, a))
    cert = hall_matching(g, wit)
    assert cert.matching is not None and len(cert.matching) == a


def test_perfect_matching_examples():
    m = perfect_matching_tight10(cycle(6))
    assert len(m) == 3 and len({v for e in m for v in e}) == 6

    pm_only = bipartite_with_pm(3)
    assert set(perfect_matching_tight10(pm_only)) == {(0, 3), (1, 4), (2, 5)}

    rng = random.Random(7)
    extras = [(i, 4 + j) for i in range(4) for j in range(4) if i != j]
    g = bipartite_with_pm(4, rng.sample(extras, 5))
    m = perfect_matching_tight10(g)
    assert len(m) == 4


def test_perfect_matching_rejects_unstable_input():
    chorded = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    with pytest.raises(ValueError):
        perfect_matching_tight10(chorded)
    with pytest.raises(ValueError):
        perfect_matching_tight10(cycle(7))  # odd order


def test_odd_cycle_decomposition_degenerate_cases():
    d = odd_cycle_matching_decomposition(cycle(7))
    assert d.kind == KIND_ODD_CYCLE_PLUS_MATCHING
    assert len(d.cycles[0]) == 7 and d.matching == ()

    d = odd_cycle_matching_decomposition(cycle(3))
    assert len(d.cycles[0]) == 3 and d.matching == ()


def test_odd_cycle_decomposition_cone():
    # the cover is one 7-cycle: from 0 up to the apex 6, down to 1 and round the rim
    d = odd_cycle_matching_decomposition(cone(cycle(6)))
    assert d == Decomposition(KIND_ODD_CYCLE_PLUS_MATCHING, cycles=((0, 6, 1, 2, 3, 4, 5),))
    validate_decomposition(cone(cycle(6)), d)


def test_is_odd_cycle():
    assert is_odd_cycle(cycle(9))
    assert not is_odd_cycle(cycle(8))
    assert not is_odd_cycle(from_edges(5, list(cycle(5).edges()) + [(0, 2)]))


def test_subdivision_recognizer_examples():
    assert is_even_subdivision_k4(clique(4)) is not None
    assert is_even_subdivision_k4(even_subdivision_k4((2, 2, 0, 0, 0, 0))) is not None
    assert is_even_subdivision_k4(cycle(8)) is None
    # one internal vertex on one edge: odd interior count
    odd_sub = from_edges(5, [(0, 4), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert is_even_subdivision_k4(odd_sub) is None


def test_subdivision_generator_recognizer_roundtrip():
    from itertools import product

    for counts in product((0, 2, 4), repeat=6):
        if sum(counts) > 8:
            continue
        s = is_even_subdivision_k4(even_subdivision_k4(counts))
        assert s is not None
        assert sorted((len(p) - 2) for p in s.paths) == sorted(counts)


def test_subdivision_recognizer_rejects_500_seeded_negatives():
    rng = random.Random(4242)
    rejected = 0
    while rejected < 500:
        if rng.random() < 0.5:
            g = random_graph(rng, rng.randint(5, 10), 0.5)
            if max(degrees(g)) < 4:
                continue
        else:
            counts = [rng.choice((0, 1, 2, 3)) for _ in range(6)]
            if all(c % 2 == 0 for c in counts):
                counts[rng.randrange(6)] += 1
            edges = []
            nxt = 4
            from stabilitylab.graphs import K4_EDGE_ORDER

            for (u, v), c in zip(K4_EDGE_ORDER, counts):
                prev = u
                for _ in range(c):
                    edges.append((prev, nxt))
                    prev = nxt
                    nxt += 1
                edges.append((prev, v))
            g = from_edges(4 + sum(counts), edges)
        assert is_even_subdivision_k4(g) is None
        rejected += 1


def test_two_cycles_or_subdivision():
    g = disjoint_union(cycle(3), cycle(5))
    d = two_cycles_or_subdivision_decomposition(g)
    assert d.kind == KIND_TWO_ODD_CYCLES
    assert sorted(len(c) for c in d.cycles) == [3, 5]

    g = even_subdivision_k4((2, 0, 2, 0, 0, 0))
    d = two_cycles_or_subdivision_decomposition(g)
    assert d.kind == "even_subdivision_k4"

    d = two_cycles_or_subdivision_decomposition(clique(4))
    assert d.kind == "even_subdivision_k4"

    with pytest.raises(ValueError):
        two_cycles_or_subdivision_decomposition(cycle(6))  # not tight (2,0)


def test_spanning_certificate_dispatch():
    # one entry point picks the builder by k and parity and validates the result
    assert spanning_certificate(cycle(6), 1).kind == KIND_PERFECT_MATCHING
    assert spanning_certificate(cycle(7), 1).kind == KIND_ODD_CYCLE_PLUS_MATCHING
    assert spanning_certificate(disjoint_union(cycle(3), cycle(5)), 2).kind == KIND_TWO_ODD_CYCLES
    d = spanning_certificate(cycle(9), 2)
    assert d.kind == KIND_ODD_CYCLE_PLUS_MATCHING and d.cycles == ((0, 1, 2, 3, 4, 5, 6, 7, 8),)
    assert spanning_certificate(catalog.named_graph("H7"), 3).name == "H7"
    with pytest.raises(ValueError):
        spanning_certificate(cycle(7), 3)  # not tight (3,0)
    with pytest.raises(ValueError):
        spanning_certificate(cycle(9), 4)


@pytest.mark.parametrize("k", [True, False, 1.0, "1", None])
def test_spanning_certificate_rejects_k_that_is_not_an_int(k):
    # True == 1, but a bool is no k, as in the stability checks and FilterSpec
    with pytest.raises(ValueError, match="k in 1..3"):
        spanning_certificate(cycle(6), k)


def test_spanning_embedding():
    emb = spanning_embedding(clique(5), cycle(5))
    assert emb is not None
    assert spanning_embedding(cycle(9), catalog.named_graph("H9")) is None
    h7 = catalog.named_graph("H7")
    host = from_edges(7, list(h7.edges()) + [(0, 3)])
    emb = spanning_embedding(host, h7)
    assert emb is not None
    for u, v in h7.edges():
        assert host.has_edge(emb[u], emb[v])
    assert spanning_embedding(clique(4), clique(5)) is None


def test_five_graph_decomposition():
    d = five_graph_decomposition(clique(4))
    assert d.kind == "named_spanning" and d.name == "K4"
    d = five_graph_decomposition(clique(5))
    assert d.name == "K5"
    d = five_graph_decomposition(catalog.named_graph("H9"))
    assert d.name == "H9"
    with pytest.raises(ValueError):
        five_graph_decomposition(cycle(9))  # alpha exceeds the tight value


def test_only_the_four_clique_leaves_odd_cycles_everywhere():
    # exhaustive equivalence at n <= 8: every vertex deletion is an odd cycle
    # iff the graph is the 4-clique
    from stabilitylab.enumeration import enumerate_canonical
    from stabilitylab.graphs import delete_vertices

    k4 = clique(4)
    for n in range(2, 9):
        for g in enumerate_canonical(n):
            prop = all(
                is_odd_cycle(delete_vertices(g, [v])[0]) for v in range(g.n)
            )
            assert prop == (g.n == 4 and is_isomorphic_k4(g, k4))


def is_isomorphic_k4(g, k4):
    from stabilitylab.canonical import is_isomorphic

    return is_isomorphic(g, k4)


def test_validator_rejects_bad_certificates():
    g = cycle(6)
    with pytest.raises(ValueError):
        validate_decomposition(
            g, Decomposition(kind=KIND_TWO_ODD_CYCLES, cycles=((0, 1, 2), (3, 4)))
        )
    with pytest.raises(ValueError):  # not spanning
        validate_decomposition(
            g, Decomposition(kind=KIND_PERFECT_MATCHING, matching=((0, 1),))
        )
    with pytest.raises(ValueError):  # overlap
        validate_decomposition(
            cycle(5),
            Decomposition(
                kind=KIND_ODD_CYCLE_PLUS_MATCHING,
                cycles=((0, 1, 2, 3, 4),),
                matching=((0, 1),),
            ),
        )
    with pytest.raises(ValueError):  # even cycle smuggled in
        validate_decomposition(
            cycle(4),
            Decomposition(kind=KIND_ODD_CYCLE_PLUS_MATCHING, cycles=((0, 1, 2, 3),)),
        )
    with pytest.raises(ValueError):  # missing host edge
        validate_decomposition(
            path(3),
            Decomposition(kind=KIND_ODD_CYCLE_PLUS_MATCHING, cycles=((0, 1, 2),)),
        )
