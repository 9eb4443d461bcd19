import random
from functools import partial
from itertools import combinations

import pytest

from helpers import (
    naive_alpha,
    naive_removal_alphas,
    plain_removal_alphas,
    random_graph,
    reference_first_violator,
    relabeled,
)
from stabilitylab import stability
from stabilitylab.catalog import _brute_critical
from stabilitylab.critical import alpha_preserving_edge, is_alpha_critical
from stabilitylab.enumeration import enumerate_canonical
from stabilitylab.graphs import (
    add_isolated,
    bipartite_with_pm,
    clique,
    cone,
    cycle,
    delete_edge,
    disjoint_union,
    even_subdivision_k4,
    path,
)
from stabilitylab.independence import alpha_mask
from stabilitylab.stability import (
    is_stable,
    is_tight_stable,
    max_alpha_drop,
    min_degree_necessary,
    stability_bound,
    stable_fast,
)


def test_bound_examples():
    assert stability_bound(9, 3, 0) == 3
    assert stability_bound(4, 3, 0) == 1
    for n in range(2, 12):
        assert stability_bound(n, 1, 0) == n // 2


@pytest.mark.parametrize("n,k,l", [(5, 0, 0), (5, 2, 2), (5, 1, 2), (3, 3, 0), (2, 3, 1)])
def test_bound_parameter_domain(n, k, l):
    with pytest.raises(ValueError):
        stability_bound(n, k, l)


def test_is_stable_examples():
    rep = is_stable(cycle(7), 2, 0)
    assert rep.stable and rep.tight and rep.witness is None

    rep = is_stable(path(3), 1, 0)
    assert not rep.stable and rep.witness == (0,)

    rep = is_stable(clique(4), 3, 0)
    assert rep.stable and rep.tight

    rep = is_stable(disjoint_union(cycle(3), cycle(5)), 2, 0)
    assert rep.stable and rep.tight


def test_witness_is_first_failing_subset():
    rep = is_stable(cycle(9), 3, 0)
    assert not rep.stable and rep.witness == (0, 1, 2)


def test_is_tight_examples():
    assert is_tight_stable(cycle(9), 2, 0)
    assert is_tight_stable(cycle(6), 1, 0)
    assert is_tight_stable(even_subdivision_k4((2, 2, 0, 0, 0, 0)), 2, 0)
    assert not is_tight_stable(cycle(8), 2, 0)


def test_min_degree_necessary():
    assert min_degree_necessary(cycle(7), 2) == (True, None)
    ok, v = min_degree_necessary(cycle(7), 3)
    assert not ok and v == 0
    from stabilitylab import catalog

    assert min_degree_necessary(catalog.named_graph("H7"), 3) == (True, None)


def test_max_alpha_drop():
    assert max_alpha_drop(cycle(7), 2) == 0
    assert max_alpha_drop(path(3), 1) == 1


def _all_params(n):
    return [(k, l) for k in (1, 2, 3) for l in range(k) if n > k]


def test_fast_path_agrees_with_reference_scan():
    for n in range(2, 7):
        for g in enumerate_canonical(n):
            full = (1 << g.n) - 1
            a, wit = alpha_mask(g.adj, full)
            for k, l in _all_params(n):
                assert (
                    stable_fast(g.adj, g.n, k, l, a, wit)
                    == is_stable(g, k, l).stable
                )


def test_folded_kernels_match_independent_oracles():
    # every class with n <= 7, k <= 3, l < k against scans built on naive_alpha
    # and the catalog's brute-force criticality test, not on alpha_mask
    for n in range(1, 8):
        for g in enumerate_canonical(n):
            a, wit = alpha_mask(g.adj, (1 << n) - 1)
            assert a == naive_alpha(g)
            for k in range(1, min(3, n - 1) + 1):
                scan = naive_removal_alphas(g, k)
                assert max_alpha_drop(g, k) == max(a - rest for _, rest in scan)
                for l in range(k):
                    first = next((sub for sub, rest in scan if rest < a - l), None)
                    rep = is_stable(g, k, l)
                    assert (rep.stable, rep.witness) == (first is None, first)
                    assert stable_fast(g.adj, n, k, l, a, wit) == (first is None)
                    assert is_tight_stable(g, k, l) == rep.tight
            edge = alpha_preserving_edge(g.adj, n, a)
            first_edge = next(
                (e for e in g.edges() if naive_alpha(delete_edge(g, e)) == a), None
            )
            assert edge == first_edge
            assert is_alpha_critical(g) == (_brute_critical(g), edge)


def test_is_tight_stable_skips_the_scan_when_alpha_misses_the_bound(monkeypatch):
    # C8 at (2,0): alpha is 4 and the bound is 3, so one alpha call decides
    calls = []

    def counting_alpha(adj, mask, at_least=None):
        calls.append(mask)
        return alpha_mask(adj, mask, at_least)

    monkeypatch.setattr(stability, "alpha_mask", counting_alpha)
    assert not is_tight_stable(cycle(8), 2, 0)
    assert calls == [(1 << 8) - 1]


def _assert_matches_plain_scan(g):
    # verdict, first witness, tightness and largest drop of the witness-cached
    # scan against every k-subset probed by alpha_mask, nothing skipped
    a, wit = alpha_mask(g.adj, (1 << g.n) - 1)
    for k in range(1, min(3, g.n - 1) + 1):
        scan = list(plain_removal_alphas(g.adj, g.n, k))
        assert max_alpha_drop(g, k) == max(a - rest for _, rest in scan)
        for l in range(k):
            first = next((sub for sub, rest in scan if rest < a - l), None)
            rep = is_stable(g, k, l)
            assert (rep.stable, rep.witness) == (first is None, first)
            assert rep.tight == (first is None and a == stability_bound(g.n, k, l))
            assert stable_fast(g.adj, g.n, k, l, a, wit) == (first is None)


def _seeded_scan_cases():
    rng = random.Random(4242)
    cases = [random_graph(rng, rng.randint(9, 16), rng.uniform(0.2, 0.5)) for _ in range(200)]
    cases += [relabeled(cycle(n), rng) for n in range(4, 17)]
    cases += [
        relabeled(disjoint_union(cycle(a), cycle(b)), rng)
        for a in range(3, 9)
        for b in range(a, 9)
    ]
    return cases


def test_cached_scan_matches_plain_scan():
    for g in _seeded_scan_cases():
        _assert_matches_plain_scan(g)


def _assert_same_probe_sequence(g, monkeypatch):
    # the prefix scan against the subset-by-subset reference: the same
    # alpha_mask calls (mask, floor) in the same order, the same violator and
    # the same ``known`` list for every k <= 3 and l < k, and the same calls
    # and drop from max_alpha_drop; returns the number of calls compared
    calls = []

    def recording_alpha(adj, mask, at_least=None):
        calls.append((mask, at_least))
        return alpha_mask(adj, mask, at_least)

    def traced(run, *args):
        calls.clear()
        return run(*args), calls[:]

    a, wit = alpha_mask(g.adj, (1 << g.n) - 1)
    reference = partial(reference_first_violator, alpha=recording_alpha)
    compared = 0
    with monkeypatch.context() as m:
        m.setattr(stability, "alpha_mask", recording_alpha)
        for k in range(1, min(3, g.n - 1) + 1):
            for l in range(k):
                known, ref_known = [wit], [wit]
                got = traced(stability._first_violator, g.adj, g.n, k, a - l, known)
                want = traced(reference, g.adj, g.n, k, a - l, ref_known)
                assert (got, known) == (want, ref_known)
                compared += len(got[1])
            got = traced(max_alpha_drop, g, k)
            with monkeypatch.context() as m2:
                m2.setattr(stability, "_first_violator", reference)
                want = traced(max_alpha_drop, g, k)
            assert got == want
            compared += len(got[1])
    return compared


def test_scan_probe_sequence_matches_reference(monkeypatch):
    compared = 0
    for n in range(1, 8):
        for g in enumerate_canonical(n):
            compared += _assert_same_probe_sequence(g, monkeypatch)
    for g in _seeded_scan_cases():
        compared += _assert_same_probe_sequence(g, monkeypatch)
    assert compared > 10_000


def test_cached_scan_skips_subsets_missing_a_known_set(monkeypatch):
    # the plain scan makes 1 + C(n, 2) alpha calls here (466 on C31); the
    # cache of witnesses leaves at most one per vertex
    from stabilitylab import stability

    calls = []

    def counting_alpha(adj, mask, at_least=None):
        calls.append(mask)
        return alpha_mask(adj, mask, at_least)

    monkeypatch.setattr(stability, "alpha_mask", counting_alpha)
    for g in (cycle(31), disjoint_union(cycle(15), cycle(15))):
        for probe in (lambda: is_stable(g, 2, 0).stable, lambda: max_alpha_drop(g, 2) == 0):
            calls.clear()
            assert probe()
            assert len(calls) <= g.n


def test_every_known_set_is_independent_and_misses_its_subset(monkeypatch):
    # replay the skip rule over every class with n <= 7, k <= 3 and l < k:
    # each subset that no earlier set misses is the violator or gets the
    # next set added to ``known``, which is independent, has at least
    # ``floor`` vertices and misses it; some sets come from the swap, with
    # no alpha call
    probes = []

    def counting_alpha(adj, mask, at_least=None):
        probes.append(mask)
        return alpha_mask(adj, mask, at_least)

    monkeypatch.setattr(stability, "alpha_mask", counting_alpha)
    swaps = 0
    for n in range(2, 8):
        for g in enumerate_canonical(n):
            a, wit = alpha_mask(g.adj, (1 << n) - 1)
            for k in range(1, min(3, n - 1) + 1):
                for l in range(k):
                    floor = a - l
                    known = [wit]
                    probes.clear()
                    violator = stability._first_violator(g.adj, n, k, floor, known)
                    added = iter(known[1:])
                    replay = [wit]
                    for sub in combinations(range(n), k):
                        smask = sum(1 << v for v in sub)
                        if any(not w & smask for w in replay):
                            continue
                        if sub == violator:
                            break
                        w = next(added)
                        assert not any(g.adj[v] & w for v in range(n) if w >> v & 1)
                        assert w.bit_count() >= floor and not w & smask
                        replay.append(w)
                    else:
                        assert violator is None
                    assert replay == known
                    swaps += len(known) - 1 - len(probes) + (violator is not None)
    assert swaps > 0


@pytest.mark.extended
def test_cached_scan_matches_plain_scan_every_class_n8():
    for g in enumerate_canonical(8):
        _assert_matches_plain_scan(g)


@pytest.mark.extended
def test_scan_probe_sequence_matches_reference_every_class_n8(monkeypatch):
    for g in enumerate_canonical(8):
        _assert_same_probe_sequence(g, monkeypatch)


def test_monotonicity_over_stream():
    # stability survives lowering k and raising l
    for n in range(4, 7):
        for g in enumerate_canonical(n):
            verdict = {
                (k, l): is_stable(g, k, l).stable for k, l in _all_params(n)
            }
            for (k, l), ok in verdict.items():
                if not ok:
                    continue
                for k2 in range(l + 1, k):
                    assert verdict[(k2, min(l, k2 - 1))]
                for l2 in range(l, k):
                    assert verdict[(k, l2)]


def test_isolated_vertex_lift():
    # a tight (k-1,l-1)-stable graph plus one isolated vertex is tight (k,l)
    fixtures = [
        (clique(3), 2, 0),
        (clique(4), 3, 0),
        (bipartite_with_pm(3), 1, 0),
        (cycle(7), 2, 0),
    ]
    for g, k, l in fixtures:
        assert is_tight_stable(g, k, l)
        assert is_tight_stable(add_isolated(g, 1), k + 1, l + 1)


def test_cone_lift():
    for base in (bipartite_with_pm(2), bipartite_with_pm(3, [(0, 4)]), cycle(6)):
        assert is_tight_stable(base, 1, 0)
        assert base.n % 2 == 0
        assert is_tight_stable(cone(base), 1, 0)


def test_hereditary_tightness_of_the_nine_cycle():
    from stabilitylab.graphs import delete_vertices

    g = cycle(9)
    assert is_tight_stable(g, 2, 0)
    for v in range(9):
        sub, _ = delete_vertices(g, [v])
        assert is_tight_stable(sub, 1, 0)


def test_rejects_undefined_parameter_domain():
    with pytest.raises(ValueError):
        is_stable(cycle(5), 5, 0)  # n <= k is rejected, not guessed
    with pytest.raises(ValueError):
        is_stable(cycle(5), 0, 0)
    with pytest.raises(ValueError):
        is_stable(cycle(5), True, False)  # bool is not an integer parameter
    for k in (True, 1.5, 0, 5):  # max_alpha_drop needs an integer 1 <= k < n
        with pytest.raises(ValueError):
            max_alpha_drop(cycle(5), k)
    for k in (True, 2.5, 0):
        with pytest.raises(ValueError):
            min_degree_necessary(cycle(5), k)
