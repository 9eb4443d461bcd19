"""Lemma L21 on bitmasks: every maximum independent set of a (1,0)-stable
graph saturates into its complement.

The mask enumerator, the augmenting-path matcher and ``_l21_check`` are
compared against brute force over every class with n <= 8: the maximum
independent sets come from ``itertools.combinations`` and Hall's condition
is checked subset by subset, with no code shared with the fast paths.  The
check is one matching search on the bipartite double cover; the matcher
run that way is compared with a backtracking search for a permutation
along edges at n <= 7, and the check with the set-by-set reference on
every class of level 9 (``-m extended``).  The cycle cover the tight (1,0)
certificates read off that search is checked for the parity lemma on every
class with n <= 8 and alpha = floor(n/2) that has a cover, stable or not.
"""

from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest

from helpers import (
    has_cycle_cover,
    naive_hall,
    naive_maximum_independent_sets,
    reference_hall_matching,
    reference_l21_check,
)
from stabilitylab import enumeration
from stabilitylab.enumeration import _frontier, _l21_check, enumerate_canonical, verify_theorem
from stabilitylab.graph6 import write_graph6
from stabilitylab.graphs import bits, from_edges, path
from stabilitylab.independence import alpha_mask, independent_masks
from stabilitylab.structure import _cycle_cover, augment_matching, hall_matching


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


@pytest.fixture(scope="module")
def oracle():
    """Every class with n <= 8, its maximum independent sets and, for each
    set, whether Hall's condition holds."""
    out = []
    for n in range(1, 9):
        for g in enumerate_canonical(n):
            sets = naive_maximum_independent_sets(g)
            out.append((g, sets, [naive_hall(g, s) for s in sets]))
    return out


def test_l21_check_equals_brute_force(oracle):
    # the check takes only the code and n
    for g, _, hall in oracle:
        assert _l21_check(g.adj, g.n) == all(hall), write_graph6(g)


def test_per_set_reference_equals_brute_force(oracle):
    for g, sets, hall in oracle:
        assert reference_l21_check(g.adj, g.n, len(sets[0])) == all(hall), write_graph6(g)


@pytest.mark.extended
def test_l21_check_equals_per_set_reference_at_nine():
    # every class of level 9, (1,0)-stable or not, by both checks
    failing = 0
    for code in _frontier(9):
        ok = _l21_check(code, 9)
        assert ok == reference_l21_check(code, 9, alpha_mask(code, (1 << 9) - 1)[0]), code
        failing += not ok
    assert failing == 36842


def test_double_cover_matching_equals_cycle_cover_search():
    # with every vertex on the left, augment_matching decides whether a
    # permutation sends each vertex to a neighbour; on success its mates are
    # such a permutation, and a failed search blocks a set with fewer
    # neighbours than members
    failing = 0
    for n in range(1, 8):
        for g in enumerate_canonical(n):
            mate, blocked = augment_matching(g.adj, (1 << n) - 1)
            assert (not blocked) == has_cycle_cover(g.adj, n), write_graph6(g)
            if not blocked:
                assert sorted(mate) == list(range(n))
                assert all(g.adj[b] >> a & 1 for b, a in enumerate(mate))
                continue
            union = 0
            for v in bits(blocked):
                union |= g.adj[v]
            assert union.bit_count() < blocked.bit_count(), write_graph6(g)
            failing += 1
    # the classes where L21's per-set check fails (test_both_outcomes_occur)
    assert failing == 487


def test_cycle_cover_has_n_mod_2_odd_cycles_at_half_alpha(oracle):
    # an independent set takes at most floor(L/2) vertices of a cycle of
    # length L, so alpha = floor(n/2) leaves room for n mod 2 odd cycles
    checked = 0
    for g, sets, _ in oracle:
        if len(sets[0]) != g.n // 2 or not has_cycle_cover(g.adj, g.n):
            continue
        cycles = _cycle_cover(g.adj)
        assert sorted(v for c in cycles for v in c) == list(range(g.n)), write_graph6(g)
        for c in cycles:
            assert len(c) >= 2 and min(c) == c[0], write_graph6(g)
            assert all(g.has_edge(u, c[(i + 1) % len(c)]) for i, u in enumerate(c)), write_graph6(g)
        assert sum(len(c) % 2 for c in cycles) == g.n % 2, write_graph6(g)
        checked += 1
    assert checked == 4734


def test_hall_yes_no_equals_brute_force_on_every_maximum_set(oracle):
    for g, sets, hall in oracle:
        full = (1 << g.n) - 1
        masks = list(independent_masks(g.adj, full, len(sets[0])))
        assert [tuple(bits(m)) for m in masks] == sets, write_graph6(g)
        assert [not augment_matching(g.adj, m)[1] for m in masks] == hall, write_graph6(g)


def test_both_outcomes_occur(oracle):
    failing = [g.n for g, _, hall in oracle if not all(hall)]
    assert sum(n <= 7 for n in failing) == 487
    assert len(failing) == 2401


def test_hall_matching_equals_the_recursive_reference(oracle):
    compared = 0
    for g, sets, _ in oracle:
        if g.n > 7:
            continue
        for s in sets:
            assert hall_matching(g, s) == reference_hall_matching(g, s), (write_graph6(g), s)
            compared += 1
    assert compared > 1000


def test_blocked_set_violates_hall(oracle):
    # the blocked set is an inclusion-minimal violator: its neighbourhood is
    # smaller than itself, and Hall's condition holds, subset by subset, on
    # each set one vertex smaller
    sizes = Counter()
    for g, sets, hall in oracle:
        for s, ok in zip(sets, hall):
            blocked = augment_matching(g.adj, _mask(s))[1]
            if ok:
                continue
            assert blocked and blocked & ~_mask(s) == 0
            union = 0
            for v in bits(blocked):
                union |= g.adj[v]
            assert union.bit_count() < blocked.bit_count()
            z = tuple(bits(blocked))
            for smaller in combinations(z, len(z) - 1):
                assert naive_hall(g, smaller), (write_graph6(g), z, smaller)
            sizes[len(z)] += 1
    assert sum(sizes.values()) == 5904 and sorted(sizes) == [1, 2, 3, 4]


def test_refuting_matches_are_reported(monkeypatch):
    # the check refutes P3 and the star K1,3; a check that refutes every
    # match, run in the scan, reports each match as a counterexample
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    for g in (path(3), star):
        assert not _l21_check(g.adj, g.n)
    real = verify_theorem("L21", n_values=(3, 4))
    refute = replace(enumeration._PIPELINES["L21"], check=lambda code, n: False)
    monkeypatch.setitem(enumeration._PIPELINES, "L21", refute)
    rep = verify_theorem("L21", n_values=(3, 4))
    assert (real.verdict, real.counterexamples) == ("verified", [])
    assert rep.verdict == "refuted"
    assert rep.matches == real.matches and len(rep.matches) == 5
    assert rep.counterexamples == rep.matches
