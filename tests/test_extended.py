"""Opt-in exhaustive runs beyond the default sizes: pytest -m extended.

The default acceptance suite proves the size-10 emptiness result through the
hereditary prune; this module repeats it over the full unpruned stream of
~1.2e7 classes, and runs T1d at n = 10 through the prune, which augments the
8,345 classes of T(1,9) into 844,279 children, and checks L21 at n = 9, one
size beyond its default range, with one matching search on the bipartite
double cover for each of the 84,571 (1,0)-stable classes of level 9.  The
worker count comes from STABILITYLAB_JOBS (default 1); with 2 workers on a
2-vCPU x86-64 VM the unpruned scan took 3.1 to 5.5 minutes and T1d about
23 seconds; with 1 worker L21 at n = 9 took 17 to 19 seconds, building
level 9 included (Python 3.11.7).
"""

import os
import time

import pytest

from stabilitylab.enumeration import verify_theorem


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
