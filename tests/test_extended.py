"""Opt-in exhaustive runs: pytest -m extended.

The default acceptance suite proves the size-10 emptiness result through the
hereditary prune; this module repeats it over the full unpruned stream of
~1.2e7 classes.  The worker count comes from STABILITYLAB_JOBS (default 1);
with 2 workers on a 2-vCPU machine the scan takes about 5.5 minutes.
"""

import os
import time

import pytest

from stabilitylab.enumeration import verify_theorem


@pytest.mark.extended
def test_corollary_unpruned_full_stream():
    jobs = int(os.environ.get("STABILITYLAB_JOBS", "1"))
    t0 = time.perf_counter()
    rep = verify_theorem("COR", prune=False, jobs=jobs)
    dt = time.perf_counter() - t0
    print(f"unpruned n=10 scan: {rep.graphs_scanned} classes, "
          f"{len(rep.matches)} matches, {dt/60:.1f} min with jobs={jobs}")
    assert rep.verdict == "verified"
    assert rep.matches == []
    assert rep.graphs_scanned == 12005168
    assert dt < 7200.0
