"""Lemma L21 on bitmasks: every maximum independent set of a (1,0)-stable
graph saturates into its complement.

The mask enumerator, the augmenting-path matcher and ``_l21_check`` are
compared against brute force over every class with n <= 8: the maximum
independent sets come from ``itertools.combinations`` and Hall's condition
is checked subset by subset, with no code shared with the fast paths.
"""

import pytest

from helpers import (
    naive_hall,
    naive_maximum_independent_sets,
    reference_hall_matching,
)
from stabilitylab import enumeration
from stabilitylab.enumeration import _l21_check, enumerate_canonical, verify_theorem
from stabilitylab.graph6 import write_graph6
from stabilitylab.graphs import bits, from_edges, path
from stabilitylab.independence import independent_masks
from stabilitylab.structure import augment_matching, hall_matching


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
    for g, _, hall in oracle:
        assert _l21_check(g) == all(hall), write_graph6(g)


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


def test_refuting_matches_are_reported(monkeypatch):
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    stubs = {3: path(3), 4: star}
    monkeypatch.setattr(
        enumeration,
        "_filtered_scan",
        lambda n, spec, prune=False, jobs=1: (1, [stubs[n].adj]),
    )
    rep = verify_theorem("L21", n_values=(3, 4))
    assert rep.verdict == "refuted"
    assert rep.counterexamples == sorted(write_graph6(g) for g in stubs.values())
    assert rep.matches == rep.counterexamples
