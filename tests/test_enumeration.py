import hashlib
import itertools
import json
import multiprocessing
import multiprocessing.pool
import os
import pathlib
import random
import re
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    labeled_codes,
    random_graph,
    reference_canonical_children,
    reference_round_three,
    reference_scan_chunk,
)
from stabilitylab import enumeration, stability, structure
from stabilitylab.canonical import canonical_data, canonical_key, is_isomorphic, neighbor_lists
from stabilitylab.catalog import named_graph
from stabilitylab.enumeration import (
    _ACCEPT,
    _REJECT,
    _TIE,
    THEOREM_IDS,
    FilterSpec,
    _canonical_children,
    _child_code,
    _degree_weights,
    _filtered_scan,
    _frontier,
    _image_table,
    _mask_gate,
    _scan_chunk,
    _subset_reps,
    _subset_sums,
    _tie_accepts,
    atlas_read,
    atlas_record,
    atlas_write,
    default_sizes,
    enumerate_canonical,
    extend_level,
    filtered_records,
    verify_theorem,
)
from stabilitylab.errors import InvariantViolation
from stabilitylab.graph6 import parse_graph6, write_graph6
from stabilitylab.graphs import Graph, clique, cycle, from_edges
from stabilitylab.independence import alpha_mask
from stabilitylab.stability import is_stable, stability_bound, stable_fast

KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_counts_match_labeled_oracle():
    for n in range(1, 7):
        oracle = len({canonical_key(code) for code in labeled_codes(n)})
        stream = list(enumerate_canonical(n))
        assert len(stream) == oracle == KNOWN_COUNTS[n]


def test_counts_no_duplicates_n7():
    keys = [canonical_key(g.adj) for g in enumerate_canonical(7)]
    assert len(keys) == KNOWN_COUNTS[7]
    assert len(set(keys)) == KNOWN_COUNTS[7]


def test_gated_children_match_ungated_reference():
    # the degree gate on attachment subsets and the early accept keep the
    # same children in the same order as gating each built child
    for size in range(1, 7):
        for parent in _frontier(size):
            assert list(_canonical_children(parent)) == reference_canonical_children(
                parent, size + 1
            )


def _degree_gated_reps(parent):
    """Every orbit representative that gives the new vertex the largest
    degree, none dropped by the mask gate."""
    return [s for s, _ in _subset_reps(parent, lambda s: 1)]


def _parent_gate(parent):
    """The gate's decision on an attachment mask of ``parent``, as
    ``_canonical_children`` takes it: the mask gate, then the built child
    for a tie."""
    lists = neighbor_lists(parent)
    verdict = _mask_gate(parent, lists)

    def decide(s):
        found = verdict(s)
        return found == _ACCEPT or found == _TIE and _tie_accepts(_child_code(parent, s), lists, s)

    return decide


def _full_labeling_gate(code, n):
    """The plain canonical-augmentation test: the new vertex shares an
    automorphism orbit with the canonical deletion vertex."""
    data = canonical_data(code)
    return data.orbit[data.order[n - 1]] == data.orbit[n - 1]


def _cycle_like(rng, m):
    """A graph on ``m`` vertices whose equal degrees leave many ties:
    a cycle, a circulant, a union of cycles, a prism or a cycle with chords."""
    ring = [(v, (v + 1) % m) for v in range(m)]
    kind = rng.randrange(5)
    if kind == 1:
        step = rng.randint(2, m // 2)
        ring += [(v, (v + step) % m) for v in range(m)]
    elif kind == 2:
        cut = rng.randint(3, m - 3)
        ring = [(v, (v + 1) % cut) for v in range(cut)]
        ring += [(cut + v, cut + (v + 1) % (m - cut)) for v in range(m - cut)]
    elif kind == 3 and m % 2 == 0:
        h = m // 2
        ring = [(v, (v + 1) % h) for v in range(h)] + [(h + v, h + (v + 1) % h) for v in range(h)]
        ring += [(v, h + v) for v in range(h)]
    elif kind == 4:
        for _ in range(rng.randint(1, 2)):
            u, v = rng.sample(range(m), 2)
            ring.append((u, v))
    edges = {(min(u, v), max(u, v)) for u, v in ring if u != v}
    perm = list(range(m))
    rng.shuffle(perm)
    return from_edges(m, [(perm[u], perm[v]) for u, v in edges]).adj


def _random_gate_candidates(seed, count):
    """Seeded (parent, [subset]) pairs for children on 10..13 vertices whose
    new vertex has the largest degree, half of them on cycle-like parents."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(9, 12)
        if rng.random() < 0.5:
            parent = _cycle_like(rng, m)
        else:
            parent = random_graph(rng, m, rng.choice([0.2, 0.35, 0.5, 0.8])).adj
        degs = [row.bit_count() for row in parent]
        top = max(degs)
        hubs = sum(1 << v for v, d in enumerate(degs) if d == top)
        size = rng.randint(top, min(m, top + 2))
        subset = sum(1 << v for v in rng.sample(range(m), size))
        if size >= top + (subset & hubs != 0):
            out.append((parent, [subset]))
    return out


def _gate_candidates():
    """(parent, degree-gated masks) for every parent on 1-7 vertices, then
    the seeded larger candidates."""
    candidates = [
        (parent, _degree_gated_reps(parent)) for m in range(1, 8) for parent in _frontier(m)
    ]
    return candidates + _random_gate_candidates(6, 2400)


def _round_two(code, n):
    """The gate's second round on a built child, found by sorting:
    ``(beaten, twins, apart)``, where ``beaten`` says that a vertex of the
    new vertex z's degree has a larger sorted list of neighbour degrees, and
    the vertices whose list equals z's are split into twins of z and the
    rest.  Round three runs when z is not beaten and ``apart`` is not empty."""
    z = n - 1
    degs = [row.bit_count() for row in code]

    def sig(v):
        return sorted(degs[u] for u in range(n) if code[v] >> u & 1)

    top = [v for v in range(z) if degs[v] == degs[z]]
    tied = [v for v in top if sig(v) == sig(z)]
    twins = [v for v in tied if not (code[v] ^ code[z]) & ~(1 << v | 1 << z)]
    return any(sig(v) > sig(z) for v in top), twins, [v for v in tied if v not in twins]


def _gate_branch(code, n, got, seen):
    """The step of the gate that decided ``code``, given the functions of
    the built-child steps it called (``seen``)."""
    if "refine_colors" not in seen:
        beaten, twins, apart = _round_two(code, n)
        if not beaten and apart:
            return "round-3 " + ("accept" if got else "reject")
        if got and twins:
            # z adjacent to a tied twin, or to none of them
            near = any(code[n - 1] >> w & 1 for w in twins)
            return "twin accept, adjacent" if near else "twin accept, apart"
        degs = [row.bit_count() for row in code]
        ties = degs.count(degs[n - 1]) > 1
        return ("round-2 " if ties else "top-degree ") + ("accept" if got else "reject")
    if "canonical_data" in seen:
        return "fallback"
    if seen.get("shares_orbit"):
        return "one-orbit accept"
    return "refined " + ("accept" if got else "reject")


def test_gate_matches_full_labeling(monkeypatch):
    # every degree-gated candidate on levels 1-7, the masks the mask gate
    # drops before the orbit walk included, and seeded larger ones: the
    # parent-side gate decides exactly as the full labeling
    candidates = _gate_candidates()
    seen = {}

    def spy(name, fn):
        def wrapper(*args):
            result = fn(*args)
            seen[name] = result
            return result

        monkeypatch.setattr(enumeration, name, wrapper)

    for name in ("refine_colors", "shares_orbit", "canonical_data"):
        spy(name, getattr(enumeration, name))
    branches = Counter()
    for parent, subsets in candidates:
        decide = _parent_gate(parent)
        n = len(parent) + 1
        for subset in subsets:
            seen.clear()
            got = decide(subset)
            code = _child_code(parent, subset)
            assert got == _full_labeling_gate(code, n), code
            branches[_gate_branch(code, n, got, seen)] += 1
    for branch in (
        "round-2 accept",
        "round-2 reject",
        "round-3 accept",
        "round-3 reject",
        "twin accept, adjacent",
        "twin accept, apart",
        "refined reject",
        "refined accept",
        "one-orbit accept",
        "fallback",
    ):
        assert branches[branch] > 0, branches


@pytest.mark.extended
def test_gate_exhaustive_level_eight():
    # every degree-gated candidate of every level-8 parent, the masks the
    # mask gate drops included: the parent-side gate decides as the full
    # labeling, and what it accepts is level 9.  The mask gate's verdicts
    # split by the round that gave them: 51,171 masks reach round three
    candidates = accepted = 0
    split = Counter()
    for parent in _frontier(8):
        decide = _parent_gate(parent)
        verdict = _mask_gate(parent, neighbor_lists(parent))
        for subset in _degree_gated_reps(parent):
            got = decide(subset)
            code = _child_code(parent, subset)
            assert got == _full_labeling_gate(code, 9), code
            candidates += 1
            accepted += got
            beaten, _, apart = _round_two(code, 9)
            split[3 if apart and not beaten else 2, verdict(subset)] += 1
    assert (candidates, accepted) == (435646, 274668)
    assert split == {
        (2, _ACCEPT): 245202,
        (2, _REJECT): 139273,
        (3, _ACCEPT): 16746,
        (3, _REJECT): 19088,
        (3, _TIE): 15337,
    }


def test_mask_gate_matches_reference_round_three():
    # every degree-gated mask of every parent with n <= 7, and seeded larger
    # ones: the verdict read off the parent's tables is the one the built
    # child gives after one more round from its sorted round-two colours
    verdicts = Counter()
    for parent, subsets in _gate_candidates():
        verdict = _mask_gate(parent, neighbor_lists(parent))
        for subset in subsets:
            found = verdict(subset)
            assert found == reference_round_three(parent, subset), (parent, subset)
            verdicts[found] += 1
    assert min(verdicts[v] for v in (_REJECT, _ACCEPT, _TIE)) > 0, verdicts


def test_mask_gate_is_constant_on_orbits():
    # _subset_reps drops a mask before its orbit is closed, which keeps the
    # least mask of every surviving orbit only if no automorphism changes
    # the verdict
    for m in range(1, 8):
        for parent in _frontier(m):
            verdict = _mask_gate(parent, neighbor_lists(parent))
            verdicts = [verdict(s) for s in range(1 << m)]
            for g in canonical_data(parent).generators:
                image = _image_table(g)
                assert all(verdicts[image[s]] == v for s, v in enumerate(verdicts)), (parent, g)


@pytest.mark.parametrize("n", [5, 1])
def test_extend_level_rejects_parents_of_another_size(n):
    message = f"^children on {n} vertices need parents on {n - 1}, got 1$"
    with pytest.raises(ValueError, match=message):
        extend_level([(0,)], n)


#: sha256 of the canonical children of every 400th level-9 class (from the
#: first), one code per line as in ``test_golden.LEVEL_9``
LEVEL_10_SLICE = (30109, "20b203273f129f1bf3b02d31edaeda4c1ae3ea4ab9d5ece2646b7f26945989ed")


def test_level_ten_slice_codes_unchanged():
    children = extend_level(_frontier(9)[::400], 10)
    text = "\n".join(" ".join(map(str, code)) for code in children)
    assert (len(children), hashlib.sha256(text.encode()).hexdigest()) == LEVEL_10_SLICE


@given(st.integers(0, 10).flatmap(lambda n: st.permutations(range(n))))
def test_image_table_matches_bit_loop(sigma):
    table = _image_table(tuple(sigma))
    assert len(table) == 1 << len(sigma)
    for s, image in enumerate(table):
        assert image == sum(1 << sigma[v] for v in range(len(sigma)) if s >> v & 1)


@given(st.data())
def test_weight_order_is_reverse_sorted_list_order(data):
    # two lists of neighbour degrees of one length, as the vertices of one
    # degree in a graph on n vertices have: a larger weight is exactly a
    # smaller ascending list
    n = data.draw(st.integers(1, 13))
    size = data.draw(st.integers(0, n - 1))
    lists = [
        sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)))
        for _ in range(2)
    ]
    a, b = (_subset_sums([_degree_weights(n)[d] for d in degs])[(1 << size) - 1] for degs in lists)
    assert (a > b, a == b) == (lists[0] < lists[1], lists[0] == lists[1])


def test_weight_order_on_every_list_pair_below_seven():
    for n in range(1, 7):
        weights = _degree_weights(n)
        for size in range(n):
            lists = list(itertools.combinations_with_replacement(range(n), size))
            weight = {degs: _subset_sums([weights[d] for d in degs])[-1] for degs in lists}
            assert sorted(lists, key=lambda degs: -weight[degs]) == sorted(lists)
            assert len(set(weight.values())) == len(lists)


def test_class_count_mismatch_raises(monkeypatch):
    children = enumeration._canonical_children
    monkeypatch.setattr(enumeration, "_FRONTIERS", {(1, 0): enumeration._FRONTIERS[1, 0]})
    monkeypatch.setattr(enumeration, "_canonical_children", lambda parent: list(children(parent))[1:])
    with pytest.raises(InvariantViolation, match="level 2 has 1 classes, expected 2"):
        _frontier(4)
    assert set(enumeration._FRONTIERS) == {(1, 0)}


def test_cached_level_is_the_cached_tuple():
    level = _frontier(7)
    assert isinstance(level, tuple) and len(level) == KNOWN_COUNTS[7]
    assert level is _frontier(7)
    for n in (0, 10):
        with pytest.raises(ValueError, match=f"levels 1..9 are cached, not {n}"):
            _frontier(n)


def test_enumerate_range_check():
    with pytest.raises(ValueError):
        list(enumerate_canonical(0))
    with pytest.raises(ValueError):
        list(enumerate_canonical(11))


@pytest.mark.parametrize(
    "n,kl,expected",
    [(5, (2, 0), "C5"), (7, (2, 0), "C7"), (4, (3, 0), "K4")],
)
def test_filtered_singletons(n, kl, expected):
    recs = filtered_records(n, FilterSpec(tight=kl))[1]
    assert len(recs) == 1
    g = parse_graph6(recs[0].g6)
    target = cycle(n) if expected.startswith("C") else clique(4)
    assert is_isomorphic(g, target)


@pytest.mark.parametrize(
    "kind,kl",
    [
        ("stable", (1, 1)),
        ("tight", (0, 0)),
        ("tight", (2, -1)),
        ("stable", (2, 3)),
        ("tight", (2.0, 0)),
        ("stable", (True, 0)),
        ("tight", ("2", 0)),
        ("stable", (2, 0, 0)),
    ],
    ids=["l=k", "k=0", "l<0", "l>k", "float", "bool", "str", "three"],
)
def test_filter_spec_rejects_malformed_stability_parameters(kind, kl):
    with pytest.raises(ValueError, match=f"^{kind} needs integers k > l >= 0"):
        FilterSpec(**{kind: kl})


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("min_degree", -1, "min_degree needs an integer >= 0"),
        ("min_degree", True, "min_degree needs an integer >= 0"),
        ("alpha", 0, "alpha needs an integer >= 1"),
        ("alpha", -2, "alpha needs an integer >= 1"),
        ("alpha", 2.0, "alpha needs an integer >= 1"),
        ("defect", True, "defect needs an integer"),
        ("defect", "1", "defect needs an integer"),
        ("connected", 1, "connected needs a bool"),
        ("alpha_critical", "no", "alpha_critical needs a bool"),
    ],
)
def test_filter_spec_rejects_malformed_fields(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}, got "):
        FilterSpec(**{field: value})


def test_filter_spec_accepts_boundary_values():
    spec = FilterSpec(min_degree=0, connected=False, alpha=1, defect=-3, alpha_critical=False)
    assert spec.to_dict()["defect"] == -3


def test_filter_larger_k_than_n_matches_nothing():
    # n <= k is a per-graph non-match, not an error
    assert filtered_records(4, FilterSpec(tight=(5, 0))) == (11, [])
    assert filtered_records(3, FilterSpec(stable=(3, 1))) == (4, [])


def _chunk(key, n, spec=FilterSpec(), theorem_id=None, start=0, stop=None):
    """The scan chunk over entries ``start:stop`` of frontier ``key`` at ``n``."""
    stop = len(_frontier(*key)) if stop is None else stop
    return _scan_chunk((key, start, stop, n, spec, theorem_id))


def _assert_alpha_entry(code, packed):
    """``packed``, read as ``witness | alpha << n``, holds alpha_mask's alpha
    of ``code`` and an independent witness of that size."""
    n = len(code)
    a, wit = packed >> n, packed & ((1 << n) - 1)
    assert a == alpha_mask(code, (1 << n) - 1)[0] == wit.bit_count(), code
    assert not any(code[v] & wit for v in range(n) if wit >> v & 1), code


@pytest.mark.parametrize("kind", ["stable", "tight"])
def test_k0_filters_reject_low_degree_before_alpha(monkeypatch, kind):
    """No (k,0) verdict calls ``alpha_mask`` in ``stability`` for a graph of
    minimum degree below k, whether ``stable_fast`` decides a frontier child
    or ``_within`` a class of a cached level from unset drop tables, and no
    class up to 7 vertices changes its verdict against ``is_stable``'s plain
    scan."""
    _frontier(8)
    children = {n: extend_level(_frontier(n - 1), n) for n in range(2, 8)}
    verdicts = {
        (k, code): getattr(is_stable(Graph(n, code), k, 0), kind)
        for k in (1, 2, 3)
        for n in range(k + 1, 8)
        for code in children[n]
    }
    _fresh_drops(monkeypatch)
    probed, reached = [], []

    def counting_alpha(adj, *args):
        probed.append(adj)
        return alpha_mask(adj, *args)

    def counting_scan(code, n, k, *args):
        reached.append((code, k))
        return stable_fast(code, n, k, *args)

    monkeypatch.setattr(stability, "alpha_mask", counting_alpha)
    monkeypatch.setattr(enumeration, "stable_fast", counting_scan)
    for k in (1, 2, 3):
        for min_degree in (None, k - 1, k + 1):
            spec = FilterSpec(min_degree=min_degree, **{kind: (k, 0)})
            for n in range(2, 8):
                want = [
                    code
                    for code in children[n]
                    if n > k
                    and verdicts[k, code]
                    and (min_degree is None or min(map(int.bit_count, code)) >= min_degree)
                ]
                probed.clear()
                assert _chunk((n - 1, 0), n, spec)[1] == want
                assert _filtered_scan(n, spec)[1] == want
                assert all(min(map(int.bit_count, adj)) >= k for adj in probed)
    # graphs below the floor do reach the verdict, which rejects them itself
    assert any(min(map(int.bit_count, code)) < floor for code, floor in reached)


def _fresh_drops(monkeypatch):
    """Cache levels 1..8 again with their codes, alphas and parents and new
    drop tables, every entry unset."""
    levels = {(1, 0): enumeration._FRONTIERS[1, 0]}
    for n in range(2, 9):
        level, alphas, parents, _ = enumeration._FRONTIERS[n, 0]
        levels[n, 0] = level, alphas, parents, [bytearray(len(level)) for _ in range(1, n)]
    monkeypatch.setattr(enumeration, "_FRONTIERS", levels)


@pytest.mark.parametrize("theorem_id", ["T1a", "T1d", "T2", "AND", "SUR"])
def test_alpha_entry_tests_run_before_degree_and_edge_tests(monkeypatch, theorem_id):
    # from unset drop tables, a scan of n = 6..8 under the pipeline's filter
    # reads no class's degrees, walks no class's edges and asks no class's
    # (k,l) verdict unless its alpha meets the tight bound and the required
    # defect: the tests that read the alpha entry alone run first
    spec = enumeration._PIPELINES[theorem_id].spec
    _frontier(8)
    _fresh_drops(monkeypatch)
    read = []

    def spy(real):
        return lambda code, *rest: read.append(code) or real(code, *rest)

    for name in ("_min_degree", "_code_connected"):
        monkeypatch.setattr(enumeration, name, spy(getattr(enumeration, name)))
    real_within = enumeration._within

    def spy_within(m, i, k, l, journal=None):
        read.append(_frontier(m)[i])
        return real_within(m, i, k, l, journal)

    monkeypatch.setattr(enumeration, "_within", spy_within)
    total = 0
    for n in range(6, 9):
        read.clear()
        _filtered_scan(n, spec)
        for code in read:
            if len(code) < n:  # a parent's verdict, which _within recurses into
                continue
            a = alpha_mask(code, (1 << n) - 1)[0]
            assert spec.tight is None or a == stability_bound(n, *spec.tight), code
            assert spec.defect is None or n - 2 * a == spec.defect, code
            total += 1
    assert total  # the spies see the classes that pass


#: a grid of filters for the selection: stable and tight (k,l) with k <= 3,
#: each alpha-entry test (with n - defect odd at half the sizes), the degree
#: and edge tests and the pipelines' filters.  The specs that set both (k,l)
#: kinds come after stable (1,0), so that their second (k,l) has set
#: entries where their first has none yet
_SELECTION_SPECS = [
    FilterSpec(stable=(1, 0)),
    FilterSpec(stable=(2, 1), tight=(1, 0)),
    FilterSpec(stable=(3, 0), tight=(1, 0), min_degree=1),
    *(FilterSpec(**{kind: (k, l)}) for kind in ("stable", "tight") for k in (1, 2, 3) for l in range(k)),
    FilterSpec(alpha=3),
    FilterSpec(defect=2),
    FilterSpec(alpha=2, defect=2),
    FilterSpec(tight=(2, 0), alpha=3),
    FilterSpec(min_degree=2),
    FilterSpec(connected=True),
    FilterSpec(connected=False, min_degree=1),
    FilterSpec(alpha_critical=True),
    FilterSpec(alpha_critical=False, defect=1),
    *{pipeline.spec: None for pipeline in enumeration._PIPELINES.values()},
]


def test_selected_chunks_equal_the_plain_chunk(monkeypatch):
    # for every cached n <= 8, in two chunks, the chunk that selects its
    # classes from the alpha and drop arrays returns the plain chunk's
    # results and journal and leaves the same drop tables, first from unset
    # tables and then from the tables the first round filled
    _frontier(8)
    _fresh_drops(monkeypatch)
    tables = [table for m in range(2, 9) for table in enumeration._FRONTIERS[m, 0][3]]
    for _ in range(2):
        for spec in _SELECTION_SPECS:
            for n in range(1, 9):
                size = len(_frontier(n))
                for start, stop in ((0, size // 3), (size // 3, size)):
                    args = ((n, 0), start, stop, n, spec, None)
                    before = [bytes(table) for table in tables]
                    want = reference_scan_chunk(args, array("I")), [bytes(table) for table in tables]
                    for table, saved in zip(tables, before):
                        table[:] = saved
                    got = _scan_chunk(args, array("I")), [bytes(table) for table in tables]
                    assert got == want, (spec, n, start)


def test_warm_tight_scan_reads_no_degree(monkeypatch):
    # once a tight (2,0) scan of level 8 has filled the drop tables, a
    # second one reads every verdict of a class on the bound from its entry
    # and no class's degrees: no degree floor runs in front of a table read
    spec = FilterSpec(tight=(2, 0))
    _frontier(8)
    _fresh_drops(monkeypatch)
    first = _filtered_scan(8, spec)
    calls = []
    real = enumeration._min_degree
    monkeypatch.setattr(enumeration, "_min_degree", lambda code: calls.append(code) or real(code))
    assert _filtered_scan(8, spec) == first
    assert calls == []


def _alpha_tables() -> dict:
    return {n: bytes(enumeration._FRONTIERS[n, 0][1]) for n in range(1, 9)}


#: the first theorem of each distinct pipeline filter
_SPEC_OWNERS: dict = {}
for _tid, _pipeline in enumeration._PIPELINES.items():
    _SPEC_OWNERS.setdefault(_pipeline.spec, _tid)


@pytest.mark.parametrize("theorem_id", list(_SPEC_OWNERS.values()))
def test_alpha_table_holds_alpha_mask_for_every_worker_count(monkeypatch, theorem_id):
    # from unset drop tables, scans with jobs=1 and jobs=2 (two CPUs, so
    # that it pools) find the same matches and leave every alpha table of
    # levels 1-8, which test_inherited_alpha_equals_alpha_mask checks
    # against alpha_mask, byte for byte as it was
    spec = enumeration._PIPELINES[theorem_id].spec
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    _frontier(8)
    before = _alpha_tables()
    expected = {}
    for jobs in (1, 2):
        _fresh_drops(monkeypatch)
        for n in range(1, 9):
            expected.setdefault(n, _filtered_scan(n, spec))
            assert _filtered_scan(n, spec, jobs=jobs) == expected[n]
        assert _alpha_tables() == before


def test_second_scan_reads_alpha_from_the_table(monkeypatch):
    # with levels 1-8 built, a cold tight (2,0) and stable (1,0) scan of
    # level 8, from unset drop tables, calls no alpha_mask; a scan of the
    # children of level-8 parents makes only threshold queries, one for each
    # child whose attachment set meets its parent's witness; the cached
    # table takes two bytes per class
    level = _frontier(8)
    alphas = enumeration._FRONTIERS[8, 0][1]
    assert (alphas.itemsize, len(alphas)) == (2, len(level))
    _fresh_drops(monkeypatch)
    calls = _count_alpha(monkeypatch)
    for spec in (FilterSpec(tight=(2, 0)), FilterSpec(stable=(1, 0))):
        _filtered_scan(8, spec)
    assert calls == []
    scanned = _chunk((8, 0), 9, FilterSpec(stable=(1, 0)), start=6000, stop=6400)[0]
    children = [(p, c) for p in range(6000, 6400) for c in extend_level([level[p]], 9)]
    assert scanned == len(children)
    assert calls == [(level[p], alphas[p] >> 8) for p, c in children if alphas[p] & c[-1] & 255]
    assert calls and len(calls) < len(children)


def _stable_fast_verdicts() -> dict:
    """``stable_fast`` of class i of level n, as ``{(n, i, k, l): verdict}``,
    for every k > l >= 0 with n > k and n <= 8, k at most 4 at n = 8."""
    verdicts = {}
    for n in range(2, 9):
        for i, code in enumerate(_frontier(n)):
            a, wit = alpha_mask(code, (1 << n) - 1)
            for k in range(1, min(n, 5)) if n == 8 else range(1, n):
                for l in range(k):
                    verdicts[n, i, k, l] = stable_fast(code, n, k, l, a, wit)
    return verdicts


def _assert_entries_bracket_drops(verdicts: dict) -> None:
    """Every set drop entry of levels 2..8 holds lo <= drop_k <= hi, drop_k
    being the least l that ``verdicts`` finds stable, else k."""
    for n in range(2, 9):
        for k, drops in enumerate(enumeration._FRONTIERS[n, 0][3], 1):
            for i, entry in enumerate(drops):
                if entry:
                    drop = next((l for l in range(k) if verdicts[n, i, k, l]), k)
                    assert entry & 15 <= drop <= 15 - (entry >> 4), (n, i, k, entry)


def test_derived_verdicts_equal_stable_fast(monkeypatch):
    # from unset drop tables, then from the tables that run filled, the
    # verdicts read or derived from the canonical parents equal stable_fast
    _fresh_drops(monkeypatch)
    verdicts = _stable_fast_verdicts()
    for _ in range(2):
        assert {key: enumeration._within(*key) for key in verdicts} == verdicts
        _assert_entries_bracket_drops(verdicts)


def test_second_derived_scan_makes_no_scan(monkeypatch):
    # the first stable (1,0) scan of level 8 scans fewer classes than it
    # reads the verdict of; a second one reads every verdict from the table
    _fresh_drops(monkeypatch)
    calls = []

    def counting_scan(*args):
        calls.append(args)
        return stable_fast(*args)

    monkeypatch.setattr(enumeration, "stable_fast", counting_scan)
    first = _filtered_scan(8, FilterSpec(stable=(1, 0)))
    assert 0 < len(calls) < first[0]
    calls.clear()
    assert _filtered_scan(8, FilterSpec(stable=(1, 0))) == first
    assert calls == []


def test_second_scan_after_a_pooled_scan_makes_no_scan(monkeypatch):
    # the first stable (1,0) scan of level 8 runs in two forked workers,
    # which return every drop entry they narrow: merged here, they let a
    # second scan, in this process, read every verdict from the table; the
    # entries merged from pooled scans bracket drop_k (see
    # test_derived_scans_are_the_same_for_every_worker_count)
    monkeypatch.setattr(enumeration, "Pool", multiprocessing.get_context("fork").Pool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    _fresh_drops(monkeypatch)
    calls = []

    def counting_scan(*args):
        calls.append(args)
        return stable_fast(*args)

    monkeypatch.setattr(enumeration, "stable_fast", counting_scan)
    first = _filtered_scan(8, FilterSpec(stable=(1, 0)), jobs=2)
    assert calls == []  # the workers scanned
    assert _filtered_scan(8, FilterSpec(stable=(1, 0))) == first
    assert calls == []


class _RecordingPool(multiprocessing.pool.Pool):
    """A real pool that records its workers as the scan leaves its block."""

    workers: list = []

    def __exit__(self, *exc):
        _RecordingPool.workers.append(list(self._pool))
        return super().__exit__(*exc)


def test_pooled_workers_exit_on_their_own(monkeypatch):
    # a scan closes and joins its pool before it leaves the block, so no
    # worker still waiting for its end sentinel is terminated (exit code
    # -SIGTERM): every worker of every pooled scan exits with code 0
    monkeypatch.setattr(enumeration, "Pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "workers", [])
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    for _ in range(8):
        _filtered_scan(7, FilterSpec(stable=(2, 1)), jobs=2)
    codes = [[worker.exitcode for worker in pool] for pool in _RecordingPool.workers]
    assert codes == [[0, 0]] * 8


def test_derived_scans_are_the_same_for_every_worker_count(monkeypatch):
    # from unset tables, jobs=1 and jobs=2 (two CPUs, so that it pools) find
    # the matches of a scan over the children of level n-1, which decides
    # every verdict directly; the entries either run sets bracket drop_k
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    specs = [FilterSpec(stable=kl) for kl in ((1, 0), (2, 1), (3, 1))]
    specs += [FilterSpec(tight=kl) for kl in ((2, 0), (2, 1), (3, 1))]
    verdicts = _stable_fast_verdicts()
    direct = {
        (spec, n): _chunk((n - 1, 0), n, spec)[1] for spec in specs for n in range(2, 9)
    }
    for jobs in (1, 2):
        _fresh_drops(monkeypatch)
        for (spec, n), matches in direct.items():
            assert _filtered_scan(n, spec, jobs=jobs)[1] == matches, (spec, n)
        _assert_entries_bracket_drops(verdicts)


def test_table_entries_decode_to_alpha_mask(monkeypatch):
    # the tests of a chunk over every class n <= 8 see the (alpha, witness)
    # its table entry holds, alpha_mask's alpha and an independent witness
    # of that size, and no alpha is computed
    _frontier(8)
    seen = []
    monkeypatch.setattr(
        enumeration, "_spec_tests", lambda spec, n: [(lambda *found: seen.append(found), None)]
    )

    def no_alpha(*args):
        raise AssertionError("alpha computed although the table holds it")

    monkeypatch.setattr(enumeration, "alpha_mask", no_alpha)
    for n in range(1, 9):
        seen.clear()
        level, alphas = enumeration._FRONTIERS[n, 0][:2]
        assert _chunk((n, 0), n) == (len(level), list(level), list(alphas), [], None)
        assert [(code, a << n | wit) for code, _, a, wit in seen] == list(zip(level, alphas))
        for code, _, a, wit in seen:
            _assert_alpha_entry(code, wit | a << n)


def test_in_process_chunk_keeps_no_journal(monkeypatch):
    # installing frontiers, as each pool worker does when it starts, leaves
    # a chunk run in this process without a journal: from unset drop tables
    # it returns None in the journal's place, and the scan results and drop
    # tables of a run that installed nothing
    spec = FilterSpec(stable=(2, 1))
    _frontier(8)
    runs = []
    for install in (False, True):
        _fresh_drops(monkeypatch)
        if install:
            enumeration._install({})
        chunk = _chunk((7, 0), 7, spec)
        assert chunk[4] is None
        runs.append((chunk, [bytes(t) for t in enumeration._FRONTIERS[7, 0][3]]))
    assert runs[0] == runs[1] and runs[0][0][1]


def test_inherited_alpha_equals_alpha_mask():
    # every alpha entry of levels 1-8, and of every child of every 400th
    # level-9 class as a scan reads it, holds alpha_mask's alpha and an
    # independent witness of that size
    for n in range(1, 9):
        for code, packed in zip(_frontier(n), enumeration._FRONTIERS[n, 0][1]):
            _assert_alpha_entry(code, packed)
    level9 = _frontier(9)
    total = 0
    for p in range(0, len(level9), 400):
        for _, code, packed in enumeration._items((9, 0), p, p + 1, 10):
            _assert_alpha_entry(code, packed)
            total += 1
    assert total == LEVEL_10_SLICE[0]


def test_prune_soundness_small():
    rows = ((6, 2), (7, 2), (8, 2), (7, 3), (8, 3), (5, 1), (8, 1), (7, 4), (8, 4))
    for n, k in rows + ((2, 2), (3, 3), (4, 6)):  # the last three have n <= k
        spec = FilterSpec(tight=(k, 0))
        plain = _filtered_scan(n, spec, prune=False)[1]
        pruned = _filtered_scan(n, spec, prune=True)[1]
        assert plain == pruned


def test_pruned_scan_at_one_vertex_scans_level_one():
    spec = FilterSpec(tight=(1, 0))
    assert _filtered_scan(1, spec, prune=True) == _filtered_scan(1, spec) == (1, [], [], [])
    rep = verify_theorem("COR", n_values=(1,))
    assert (rep.graphs_scanned, rep.verdict) == (1, "verified")


@pytest.fixture
def drop_chains(monkeypatch):
    """Give the test a memo holding the cached levels and no tight (k,0)
    frontier; the returned function drops the frontiers built since, so that
    the next pruned scan builds its chain again."""
    frontiers = {key: value for key, value in enumeration._FRONTIERS.items() if not key[1]}
    monkeypatch.setattr(enumeration, "_FRONTIERS", frontiers)

    def drop():
        for key in [key for key in frontiers if key[1]]:
            del frontiers[key]

    return drop


#: T(k, n) for n <= 8 and 1 <= k <= 5, the sizes with a class; 0 elsewhere
_CENSUS = {
    1: {2: 1, 3: 1, 4: 3, 5: 9, 6: 13, 7: 170, 8: 110},
    2: {3: 1, 4: 1, 5: 1, 6: 15, 7: 1, 8: 75},
    3: {4: 1, 5: 1, 7: 9},
    4: {5: 1, 6: 1, 8: 3},
    5: {6: 1, 7: 1},
}


def test_frontiers_equal_filtered_levels(drop_chains):
    # each T(k, n) the chain builds is the tight (k,0) filter of level n,
    # and is the tuple the memo keeps
    for k, row in _CENSUS.items():
        for n in range(1, 9):
            frontier = _frontier(n, k)
            assert frontier == tuple(_filtered_scan(n, FilterSpec(tight=(k, 0)))[1])
            assert len(frontier) == row.get(n, 0) and frontier is _frontier(n, k)


def test_second_pruned_scan_expands_only_its_last_step(monkeypatch, drop_chains):
    # with levels 1-8 cached, the first pruned T(3,9) scan reads level 7 for
    # T(1,7), expands its 170 classes for T(2,8) and the 75 of T(2,8) for
    # its last step; a second scan reads the memo and expands only the 75
    _frontier(8)
    expanded = []
    children = enumeration._canonical_children

    def counting_children(parent):
        expanded.append(parent)
        return children(parent)

    monkeypatch.setattr(enumeration, "_canonical_children", counting_children)
    spec = FilterSpec(tight=(3, 0))
    first = _filtered_scan(9, spec, prune=True)
    assert len(expanded) == 245 and expanded[170:] == list(_frontier(8, 2))
    expanded.clear()
    assert _filtered_scan(9, spec, prune=True) == first
    assert expanded == list(_frontier(8, 2)) and len(first[1]) == 3


def test_failed_frontier_build_keeps_no_entry(monkeypatch, drop_chains):
    # the chunk that raises is in the T(1,5) step of the T(2,6) build:
    # neither frontier is kept
    _frontier(5)
    monkeypatch.setattr(enumeration, "_spec_tests", _failing_tests)
    with pytest.raises(InvariantViolation, match="chunk failed"):
        _frontier(6, 2)
    assert not any(k for _, k in enumeration._FRONTIERS)


def test_pruned_scan_is_the_same_for_every_worker_count(drop_chains):
    # the n=7 step reads all of level 7 and the n=8 step augments the 170
    # classes of T(1,7); each worker count builds the chain afresh, and with
    # two CPUs jobs=2 pools both steps
    frontier = _filtered_scan(7, FilterSpec(tight=(1, 0)), prune=True)[1]
    assert len(frontier) == 170
    spec = FilterSpec(tight=(2, 0))
    serial = _filtered_scan(8, spec, prune=True, jobs=1)
    drop_chains()
    assert serial == _filtered_scan(8, spec, prune=True, jobs=2)
    assert serial[1] == _filtered_scan(8, spec)[1] and len(serial[1]) == 75


def test_prune_requires_tight_filter():
    with pytest.raises(ValueError):
        _filtered_scan(6, FilterSpec(stable=(2, 0)), prune=True)
    with pytest.raises(ValueError):
        _filtered_scan(6, FilterSpec(tight=(2, 1)), prune=True)


def test_parallel_determinism():
    spec = FilterSpec(tight=(1, 0))
    seq = [r.g6 for r in filtered_records(7, spec, jobs=1)[1]]
    par = [r.g6 for r in filtered_records(7, spec, jobs=2)[1]]
    assert seq == par and seq == sorted(seq)


def test_pooled_scan_agrees_with_filtered_level(monkeypatch, drop_chains):
    # the augmenting scan (used at n=10 and by the prune for k > 1) through
    # the worker pool gives the same matches, alphas and failed matches as
    # filtering the cached level: the pruned tight (2,0) scan at n=8 reads
    # the children of the 170 classes of T(1,7), under T1d's check; two
    # CPUs, so that jobs=2 pools on any machine
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    spec = FilterSpec(tight=(2, 0))
    level = _filtered_scan(8, spec, theorem_id="T1d")
    for jobs in (1, 2):
        drop_chains()
        scanned, *rest = _filtered_scan(8, spec, True, jobs, "T1d")
        parents = _frontier(7, 1)
        assert rest == list(level[1:]) and len(rest[0]) == 75
        assert (len(parents), scanned) == (170, len(extend_level(parents, 8)))


class _InProcessPool:
    """Stands in for ``enumeration.Pool``: records each requested pool size
    with the number of tasks it got, checks that each worker would start
    with exactly the frontiers its scan reads (the scan's own and, for a
    cached level, every level below), that no pool is larger than its item
    count, that the tasks' spans cover their frontier's entries in order and
    that no task carries codes or a table, and runs the tasks in this
    process."""

    def __init__(self):
        self.pools = []

    def __call__(self, size, initializer, initargs):
        assert initializer is enumeration._install and len(initargs) == 1
        self.memo = initargs[0]
        initializer(*initargs)
        self.pools.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def close(self):
        pass

    def join(self):
        pass

    def imap(self, fn, tasks):
        ((key, n),) = {(task[0], task[3]) for task in tasks}
        reads = [(m, 0) for m in range(1, n + 1)] if key[0] == n else [key]
        assert sorted(self.memo) == sorted(reads)
        assert all(self.memo[r] is enumeration._FRONTIERS[r] for r in reads)
        spans = [range(start, stop) for _, start, stop, *_ in tasks]
        assert [i for span in spans for i in span] == list(range(len(_frontier(*key))))
        assert self.pools[-1] <= len(_frontier(*key))
        assert not any(isinstance(f, (array, memoryview, list)) for task in tasks for f in task)
        self.pools[-1] = (self.pools[-1], len(tasks))
        return map(fn, tasks)


@pytest.mark.parametrize("jobs,cpus,workers", [(100000, 3, 3), (2, 8, 2), (5, None, None)])
def test_pool_starts_at_most_one_worker_per_cpu(monkeypatch, jobs, cpus, workers):
    # the pool size is capped by the CPU count (1 when unknown, which runs
    # in-process), there are four chunks per started worker, and the report
    # is the jobs=1 report
    pool = _InProcessPool()
    monkeypatch.setattr(enumeration, "Pool", pool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: cpus)
    serial = verify_theorem("L21", n_values=(7,))
    assert verify_theorem("L21", n_values=(7,), jobs=jobs) == serial
    assert pool.pools == ([(workers, 4 * workers)] if workers else [])


@pytest.mark.parametrize(
    "n,spec,prune,pools",
    [
        (5, FilterSpec(stable=(1, 0)), False, [(2, 7)]),
        (6, FilterSpec(tight=(3, 0)), True, [(2, 6), (2, 3)]),
    ],
    ids=["cached-level-5", "one-parent-frontier"],
)
def test_small_scans_pool_when_jobs_ask(monkeypatch, drop_chains, n, spec, prune, pools):
    # with two workers every scan that has two items pools, however few: the
    # 34 codes of level 5 in seven chunks of five; the pruned T(3,6) chain,
    # built afresh, pools its steps over the 11 classes of cached level 4 in
    # six chunks and over the three classes of T(1,4), and runs its last
    # step in-process, since its frontier T(2,5) is the one class C5
    pool = _InProcessPool()
    monkeypatch.setattr(enumeration, "Pool", pool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    serial = _filtered_scan(n, spec, prune)
    assert pool.pools == []
    drop_chains()
    assert _filtered_scan(n, spec, prune, jobs=2) == serial
    assert pool.pools == pools


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_pooled_scans_are_the_same_under_every_start_method(method):
    # one fresh interpreter per start method runs pool_start_methods.py:
    # from unset drop tables, four pooled workloads equal the in-process
    # ones and leave the same drop tables of levels 2-8, so a chunk reads
    # only the memo its worker starts with and returns every entry it
    # narrows, its parents' included
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    here = pathlib.Path(__file__).parent
    paths = [str(pathlib.Path(enumeration.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, str(here / "pool_start_methods.py"), method],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"{method}: 4 workloads"), done.stdout


def _failing_tests(spec, n):
    def fail(code, n, a, wit):
        raise InvariantViolation("chunk failed")

    return [(fail, True)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_failure_names_its_chunk(monkeypatch, jobs):
    # a chunk's exception keeps its type and gives n and the graph6 of the
    # first and last item of the chunk that raised; two CPUs, so that jobs=2
    # starts two workers on any machine, forked, so that they see the stub
    monkeypatch.setattr(enumeration, "Pool", multiprocessing.get_context("fork").Pool)
    monkeypatch.setattr(enumeration, "_spec_tests", _failing_tests)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    items = _frontier(7)
    step = (len(items) + 4 * jobs - 1) // (4 * jobs) if jobs > 1 else len(items)
    bounds = {
        (write_graph6(Graph(7, c[0])), write_graph6(Graph(7, c[-1])))
        for c in (items[i : i + step] for i in range(0, len(items), step))
    }
    with pytest.raises(InvariantViolation) as info:
        _filtered_scan(7, FilterSpec(tight=(1, 0)), jobs=jobs)
    match = re.fullmatch(r"n=7, chunk (\S+) to (\S+): chunk failed", str(info.value))
    assert match and match.groups() in bounds


@pytest.mark.parametrize("theorem_id,n", [("L21", 7), ("T1b", 7)])
def test_one_failed_check_is_the_only_counterexample(monkeypatch, theorem_id, n):
    # the checks run in the scan chunks, in the workers for jobs=2 (two
    # CPUs, forked, so that they see the stubbed check), on each match's
    # code and n: a check that rejects exactly one match reports that match
    # as the only counterexample, the same for both
    monkeypatch.setattr(enumeration, "Pool", multiprocessing.get_context("fork").Pool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    real = verify_theorem(theorem_id, n_values=(n,))
    target = real.matches[len(real.matches) // 2]
    pipeline = enumeration._PIPELINES[theorem_id]
    code_of_target = parse_graph6(target).adj

    def check(code, n):
        return code != code_of_target and pipeline.check(code, n)

    monkeypatch.setitem(enumeration._PIPELINES, theorem_id, replace(pipeline, check=check))
    serial, pooled = (verify_theorem(theorem_id, n_values=(n,), jobs=jobs) for jobs in (1, 2))
    assert serial == pooled
    assert (serial.verdict, serial.counterexamples) == ("refuted", [target])
    assert serial.matches == real.matches and real.verdict == "verified"


def _spy_checks(monkeypatch) -> list:
    """Swap each pipeline's check for a wrapper that records the code of
    each call, a new object whose verdicts start unknown."""
    calls = []
    for theorem_id, pipeline in enumeration._PIPELINES.items():

        def spy(code, n, check=pipeline.check):
            calls.append(code)
            return check(code, n)

        monkeypatch.setitem(enumeration._PIPELINES, theorem_id, replace(pipeline, check=spy))
    return calls


def test_cached_checks_run_once_per_class(monkeypatch):
    # on a cached level the first call of each pipeline at each default size
    # up to 8 runs the check once on each match and a second call runs none
    # and reports the same; COR's pruned scans read frontier children, so
    # both of its calls run the check on every match
    calls = _spy_checks(monkeypatch)
    sizes = {t: [n for n in default_sizes(t) if n <= 8] for t in THEOREM_IDS}
    sizes["COR"] = [4, 5, 6]
    for theorem_id, ns in sizes.items():
        for n in ns:
            cold = verify_theorem(theorem_id, n_values=(n,))
            runs = Counter(write_graph6(Graph(n, code)) for code in calls)
            assert runs == Counter(cold.matches) and set(runs.values()) <= {1}, (theorem_id, n)
            calls.clear()
            assert verify_theorem(theorem_id, n_values=(n,)) == cold, (theorem_id, n)
            assert len(calls) == (len(cold.matches) if theorem_id == "COR" else 0), (theorem_id, n)
            calls.clear()


@pytest.mark.parametrize("theorem_id,n", [("L21", 7), ("T1b", 7), ("SUR", 7)])
def test_pooled_checks_merge_their_verdicts(monkeypatch, theorem_id, n):
    # a pooled call (two CPUs, forked) runs the check in the workers, which
    # return its verdicts; merged here, they leave the table a call in this
    # process leaves, and a second call, in this process, runs no check
    monkeypatch.setattr(enumeration, "Pool", multiprocessing.get_context("fork").Pool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    calls = _spy_checks(monkeypatch)
    serial = verify_theorem(theorem_id, n_values=(n,))
    check = enumeration._PIPELINES[theorem_id].check
    table = bytes(enumeration._VERDICTS[check, n])
    assert table.count(0) == len(table) - len(serial.matches) and len(calls) == len(serial.matches)
    calls = _spy_checks(monkeypatch)  # new checks: their verdicts start unknown
    assert verify_theorem(theorem_id, n_values=(n,), jobs=2) == serial
    assert calls == []  # the workers ran every check
    assert bytes(enumeration._VERDICTS[enumeration._PIPELINES[theorem_id].check, n]) == table
    assert verify_theorem(theorem_id, n_values=(n,)) == serial
    assert calls == []


@pytest.mark.parametrize("jobs", [(1, 1), (2, 1), (1, 2)], ids=["serial", "pooled-first", "serial-first"])
def test_remembered_failure_is_the_only_counterexample(monkeypatch, jobs):
    # a check that rejects exactly one match reports it as the only
    # counterexample on a first call and on a second, which reads the
    # verdicts the first left, in this process or merged from the workers
    monkeypatch.setattr(enumeration, "Pool", multiprocessing.get_context("fork").Pool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    real = verify_theorem("L21", n_values=(7,))
    target = real.matches[len(real.matches) // 3]
    pipeline = enumeration._PIPELINES["L21"]
    code_of_target = parse_graph6(target).adj

    def check(code, n):
        return code != code_of_target and pipeline.check(code, n)

    monkeypatch.setitem(enumeration._PIPELINES, "L21", replace(pipeline, check=check))
    for j in jobs:
        rep = verify_theorem("L21", n_values=(7,), jobs=j)
        assert (rep.verdict, rep.counterexamples, rep.matches) == ("refuted", [target], real.matches)
    assert enumeration._VERDICTS[check, 7].count(2) == 1


def _count_alpha(monkeypatch) -> list:
    """Record ``(adj, at_least)`` of each ``alpha_mask`` call made from ``enumeration``."""
    calls = []

    def counting_alpha(adj, mask, at_least=None):
        calls.append((adj, at_least))
        return alpha_mask(adj, mask, at_least)

    monkeypatch.setattr(enumeration, "alpha_mask", counting_alpha)
    return calls


def test_warm_l21_pass_computes_no_alpha(monkeypatch):
    # once level 8 is built with its alpha table, the first and a warm L21
    # scan read every alpha from it and the check takes the scan's alpha
    _frontier(8)
    calls = _count_alpha(monkeypatch)
    for _ in range(2):
        rep = verify_theorem("L21", n_values=(8,))
        assert (len(rep.matches), rep.verdict) == (3641, "verified")
    assert calls == []


def test_records_take_alpha_from_the_scan(monkeypatch):
    # a warm filtered_records computes no alpha, and its records are those
    # atlas_record builds from each match
    spec = FilterSpec(stable=(1, 0))
    provenance = filtered_records(7, spec)[1][0].provenance
    rebuilt = [atlas_record(Graph(7, code), spec, provenance) for code in _filtered_scan(7, spec)[1]]
    calls = _count_alpha(monkeypatch)
    records = filtered_records(7, spec)[1]
    assert calls == []
    assert records == sorted(rebuilt, key=lambda r: r.g6) and len(records) == 271


def test_level_ten_streams_the_children_of_level_nine():
    # enumerate_canonical(10) and a scan chunk at n=10 read the canonical
    # children of the level-9 parents in order
    level9 = _frontier(9)
    stream = list(itertools.islice(enumerate_canonical(10), 2000))
    children: list = []
    for parent in level9:
        if len(children) >= 2000:
            break
        children += extend_level([parent], 10)
    assert stream == [Graph(10, c) for c in children[:2000]]
    assert _chunk((9, 0), 10, stop=40)[0] == len(extend_level(level9[:40], 10))


def test_atlas_roundtrip(tmp_path):
    recs = filtered_records(6, FilterSpec(stable=(1, 0)))[1]
    p = tmp_path / "atlas6.jsonl"
    atlas_write(recs, p)
    first = p.read_bytes()
    back = atlas_read(p)
    assert [r.g6 for r in back] == [r.g6 for r in recs]
    atlas_write(back, p)
    assert p.read_bytes() == first


def test_atlas_rejects_tampered_alpha(tmp_path):
    recs = filtered_records(5, FilterSpec(tight=(2, 0)))[1]
    p = tmp_path / "atlas.jsonl"
    atlas_write(recs, p)
    lines = p.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["alpha"] += 1
    p.write_text("\n".join([json.dumps(obj)] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match=":1:"):
        atlas_read(p)


def test_atlas_rejects_tampered_flag(tmp_path):
    recs = filtered_records(5, FilterSpec(tight=(2, 0)))[1]
    p = tmp_path / "atlas.jsonl"
    atlas_write(recs, p)
    obj = json.loads(p.read_text().splitlines()[0])
    obj["flags"]["min_degree"] = 7
    p.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValueError, match="min_degree"):
        atlas_read(p)


@pytest.mark.parametrize(
    "flags",
    [
        {"stable_x_0": True},
        {"stable_1": True},
        [["connected", True]],
        "connected",
        {"classification": "odd_cycle"},
        {"stable_0_0": True},
        {"tight_1_3": False},
        {"stable_-1_0": False},
        {"stable_01_0": True},
    ],
    ids=[
        "stable_x_0",
        "stable_1",
        "flags-list",
        "flags-string",
        "classification",
        "k=0",
        "l>k",
        "k<0",
        "leading-zero",
    ],
)
def test_atlas_rejects_malformed_flags_with_line(tmp_path, flags):
    recs = filtered_records(5, FilterSpec(tight=(2, 0)))[1]
    p = tmp_path / "atlas.jsonl"
    atlas_write(recs, p)
    obj = json.loads(p.read_text().splitlines()[0])
    obj["flags"] = flags
    p.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}:1: malformed atlas record")):
        atlas_read(p)


@pytest.mark.parametrize(
    "field,value",
    [
        ("n", 2.0),
        ("alpha", 1.0),
        ("alpha", True),
        ("connected", 1),
        ("min_degree", True),
        ("min_degree", 1.0),
        ("tight_1_0", 1),
    ],
)
def test_atlas_rejects_values_of_another_type_with_line(tmp_path, field, value):
    # the record of K2 stores n=2, alpha=1, connected=true, min_degree=1 and
    # tight_1_0=true; an equal value of another type fails like a wrong value
    recs = filtered_records(2, FilterSpec(tight=(1, 0)))[1]
    p = tmp_path / "atlas.jsonl"
    atlas_write(recs, p)
    obj = json.loads(p.read_text().splitlines()[0])
    (obj if field in obj else obj["flags"])[field] = value
    p.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}:1: ")):
        atlas_read(p)


@pytest.mark.parametrize("g6", [5, None, "~~", "D?"], ids=["int", "null", "long-form", "short-body"])
def test_atlas_rejects_bad_g6_with_line(tmp_path, g6):
    recs = filtered_records(5, FilterSpec(tight=(2, 0)))[1]
    p = tmp_path / "atlas.jsonl"
    atlas_write(recs, p)
    obj = json.loads(p.read_text().splitlines()[0])
    obj["g6"] = g6
    p.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}:1: malformed atlas record")):
        atlas_read(p)


def test_atlas_empty(tmp_path):
    p = tmp_path / "empty.jsonl"
    atlas_write([], p)
    assert p.read_text() == ""
    assert atlas_read(p) == []


def test_full_atlas_count_n6(tmp_path):
    recs = filtered_records(6, FilterSpec())[1]
    assert len(recs) == 156
    p = tmp_path / "all6.jsonl"
    atlas_write(recs, p)
    assert len(atlas_read(p)) == 156


def test_verify_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        verify_theorem("T9X")
    with pytest.raises(ValueError):
        verify_theorem("COR", k=4)
    with pytest.raises(ValueError):
        verify_theorem("T1c", n_values=(4,))  # wrong parity


@pytest.mark.parametrize(
    "theorem_id,sizes,message",
    [
        ("T1c", (5, 4), "T1c applies to odd sizes"),
        ("T1a", (2, 7), "T1a applies to even sizes"),
        ("T1a", (2, 11), "vertex count 11 outside 1..10"),
        ("T1c", (5, 5), "size 5 is given twice"),
        ("T1c", (), "no sizes given for T1c"),
        ("T1c", (5.0,), "vertex count 5.0 outside 1..10"),
        ("T1c", (True,), "vertex count True outside 1..10"),
    ],
)
def test_verify_checks_every_size_before_scanning(monkeypatch, theorem_id, sizes, message):
    def fail(*args, **kwargs):
        raise AssertionError("scanned before every size was checked")

    monkeypatch.setattr(enumeration, "_filtered_scan", fail)
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_theorem(theorem_id, n_values=sizes)


@pytest.mark.parametrize("theorem_id", ["T1a", "T1d", "T2", "L21", "AND"])
def test_verify_takes_size_ten_and_rejects_eleven(monkeypatch, theorem_id):
    # size 10 passes the one size check of every pipeline whose parity
    # allows it; the scan is stubbed out, so nothing is generated
    scanned = []

    def stub(n, spec, prune=False, jobs=1, theorem_id=None):
        scanned.append(n)
        return 0, [], [], []

    monkeypatch.setattr(enumeration, "_filtered_scan", stub)
    rep = verify_theorem(theorem_id, n_values=(10,))
    assert (scanned, rep.verdict, rep.parameter_range["n_values"]) == ([10], "verified", [10])
    with pytest.raises(ValueError, match="^vertex count 11 outside 1..10$"):
        verify_theorem(theorem_id, n_values=(11,))
    assert scanned == [10]


@pytest.mark.parametrize("theorem_id", [t for t in THEOREM_IDS if t != "COR"])
def test_verify_rejects_k_outside_cor(monkeypatch, theorem_id):
    def fail(*args, **kwargs):
        raise AssertionError("scanned although k was given")

    monkeypatch.setattr(enumeration, "_filtered_scan", fail)
    with pytest.raises(ValueError, match=f"^k applies only to COR, not to {theorem_id}$"):
        verify_theorem(theorem_id, k=3)


#: the sizes each pipeline scans by default
EXPECTED_DEFAULT_SIZES = {
    "T1a": (2, 4, 6, 8),
    "T1b": (3, 5, 7, 9),
    "T1c": (5, 7, 9),
    "T1d": (4, 6, 8),
    "T2": (4, 5, 6, 7, 8, 9),
    "COR": (10,),
    "L21": (2, 3, 4, 5, 6, 7, 8),
    "AND": (4, 6, 8),
    "SUR": (5, 7, 9),
}


def test_theorem_ids_keep_their_order():
    assert THEOREM_IDS == tuple(EXPECTED_DEFAULT_SIZES)


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_default_sizes_respect_parity_and_size_check(theorem_id):
    sizes = default_sizes(theorem_id)
    assert sizes == EXPECTED_DEFAULT_SIZES[theorem_id]
    parity = enumeration._PIPELINES[theorem_id].parity
    for n in sizes:
        enumeration._check_size(n)
        assert parity in (None, n % 2)


def test_sur_expects_the_named_graphs_by_order():
    required = enumeration._PIPELINES["SUR"].required
    by_order = [tuple(name for name in required if named_graph(name).n == n) for n in range(4, 11)]
    assert by_order == [(), ("K5",), (), ("H7",), (), ("H9", "T9"), ()]


def test_verify_reports_are_consistent():
    rep = verify_theorem("T1c", n_values=(5,))
    assert rep.verdict == "verified"
    assert rep.matches == sorted(rep.matches)
    assert rep.counterexamples == []
    assert rep.graphs_scanned == 34
    d = rep.to_dict()
    assert set(d) == {
        "theorem_id",
        "parameter_range",
        "graphs_scanned",
        "matches",
        "counterexamples",
        "verdict",
    }


def test_verify_negative_path():
    # the size bound fails at n = k+1 = 4 where the 4-clique is tight (3,0)
    rep = verify_theorem("COR", n_values=(4,))
    assert rep.verdict == "refuted"
    assert rep.counterexamples == rep.matches
    assert len(rep.matches) == 1


@pytest.mark.parametrize("error", [ValueError, InvariantViolation])
def test_t1a_certificate_failure_is_a_counterexample(monkeypatch, error):
    # a perfect matching that cannot be built refutes T1a like T1b, T1d and T2;
    # the stub changes what T1a's check decides, so no verdict is remembered
    def fail(g):
        raise error("no perfect matching")

    monkeypatch.setattr(enumeration, "_VERDICTS", {})
    monkeypatch.setattr(structure, "perfect_matching_tight10", fail)
    rep = verify_theorem("T1a", n_values=(4,))
    assert rep.verdict == "refuted"
    assert rep.counterexamples == rep.matches and rep.matches
