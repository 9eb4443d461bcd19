"""Opt-in exhaustive runs beyond the default sizes: pytest -m extended.

The default acceptance suite proves the size-10 emptiness result through the
hereditary prune; this module repeats it over the full unpruned stream of
~1.2e7 classes, and runs T1d at n = 10 through the prune, which augments the
8,345 classes of T(1,9) into 844,279 children, and checks L21 at n = 9, one
size beyond its default range, with one matching search on the bipartite
double cover for each of the 84,571 (1,0)-stable classes of level 9, and
builds and validates the odd cycle plus matching of each of the 8,345 tight
(1,0)-stable classes of level 9 and of three relabelings of each, and
checks each memoized tight (k,0) frontier T(k, 9), k <= 4, against the
tight filter of all of level 9, and the alpha and witness each level-9
class takes from its canonical parent against ``alpha_mask``.  The worker
count comes from STABILITYLAB_JOBS (default 1); with 2 workers on a 2-vCPU
x86-64 VM the unpruned scan took 90 to 111 seconds, T1d 15 seconds and
the frontiers at n = 9 2.5 seconds after L21 at n = 9 had run; with 1
worker L21 at n = 9 took 7.5 to 9.0 seconds over five runs, building level
9 included (Python 3.11.7).
"""

import os
import random
import time

import pytest

from stabilitylab import enumeration
from stabilitylab.enumeration import (
    FilterSpec,
    _filtered_scan,
    _frontier,
    _scan_chunk,
    filtered_records,
    verify_theorem,
)
from stabilitylab.graph6 import parse_graph6
from stabilitylab.graphs import from_edges
from stabilitylab.independence import alpha_mask
from stabilitylab.structure import KIND_ODD_CYCLE_PLUS_MATCHING, spanning_certificate, validate_decomposition


def _timed(theorem_id, **kwargs):
    jobs = int(os.environ.get("STABILITYLAB_JOBS", "1"))
    t0 = time.perf_counter()
    rep = verify_theorem(theorem_id, jobs=jobs, **kwargs)
    dt = time.perf_counter() - t0
    print(f"{theorem_id} {kwargs}: {rep.graphs_scanned} classes, "
          f"{len(rep.matches)} matches, {dt:.1f} s with jobs={jobs}")
    return rep, dt


@pytest.mark.extended
def test_corollary_unpruned_full_stream():
    rep, dt = _timed("COR", prune=False)
    assert rep.verdict == "verified"
    assert rep.matches == []
    assert rep.graphs_scanned == 12005168
    assert dt < 7200.0


@pytest.mark.extended
def test_t1d_at_ten_through_the_prune():
    rep, _ = _timed("T1d", n_values=(10,), prune=True)
    assert rep.verdict == "verified"
    assert len(rep.matches) == 438
    assert rep.graphs_scanned == 844279


@pytest.mark.extended
def test_l21_at_nine():
    rep, _ = _timed("L21", n_values=(9,))
    assert rep.verdict == "verified"
    assert len(rep.matches) == 84571
    assert rep.graphs_scanned == 274668


@pytest.mark.extended
def test_tight_10_certificates_at_nine():
    # a relabeling changes the matcher's search order and so the cover it
    # reads; every cover must still give one odd cycle plus a matching
    jobs = int(os.environ.get("STABILITYLAB_JOBS", "1"))
    _, records = filtered_records(9, FilterSpec(tight=(1, 0)), jobs=jobs)
    rng = random.Random(9)
    built = 0
    for rec in records:
        g = parse_graph6(rec.g6)
        graphs = [g]
        for _ in range(3):
            perm = rng.sample(range(9), 9)
            graphs.append(from_edges(9, [(perm[u], perm[v]) for u, v in g.edges()]))
        for h in graphs:
            d = spanning_certificate(h, 1)
            validate_decomposition(h, d)
            assert d.kind == KIND_ODD_CYCLE_PLUS_MATCHING, rec.g6
            built += 1
    assert len(records) == 8345
    assert built == 4 * 8345


@pytest.mark.extended
def test_frontiers_at_nine():
    # each T(k, 9) the pruned chain builds is the tight (k,0) filter of all
    # of level 9
    jobs = int(os.environ.get("STABILITYLAB_JOBS", "1"))
    counts = {}
    for k in range(1, 5):
        frontier = _frontier(9, k, jobs)
        assert frontier == tuple(_filtered_scan(9, FilterSpec(tight=(k, 0)), jobs=jobs)[1])
        counts[k] = len(frontier)
    assert counts == {1: 8345, 2: 1, 3: 3, 4: 0}


@pytest.mark.extended
def test_inherited_alpha_at_nine():
    # every alpha entry of level 9, set from the canonical parent as the
    # level is built, holds alpha_mask's alpha and an independent witness
    # of that size
    level = _frontier(9)
    alphas = enumeration._FRONTIERS[9, 0][1]
    assert len(alphas) == len(level) == 274668
    for code, packed in zip(level, alphas):
        a, wit = packed >> 9, packed & 511
        assert a == alpha_mask(code, 511)[0] == wit.bit_count(), code
        assert not any(code[v] & wit for v in range(9) if wit >> v & 1), code


@pytest.mark.extended
def test_derived_verdicts_at_nine():
    # with two pool workers, each stable (k,l) scan of level 9 for k <= 3
    # and l <= 1 reads or derives its verdicts from the drop tables, and
    # finds the matches of a scan over the children of level 8, which
    # decides every verdict with stable_fast; both take alpha from the
    # parent by one rule, which test_inherited_alpha_at_nine checks
    level8 = _frontier(8)
    step = -(-len(level8) // 8)
    with enumeration.Pool(2, enumeration._install, (enumeration._FRONTIERS,)) as pool:
        for kl in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1)):
            spec = FilterSpec(stable=kl)
            chunks = [((8, 0), i, i + step, 9, spec, None) for i in range(0, len(level8), step)]
            direct = sorted(code for r in pool.imap(_scan_chunk, chunks) for code in r[1])
            t0 = time.perf_counter()
            assert _filtered_scan(9, spec, jobs=2)[1] == direct, kl
            print(f"stable {kl} at n = 9: {len(direct)} matches, {time.perf_counter() - t0:.1f} s derived")
