"""Pooled scans under one multiprocessing start method against in-process scans.

Usage: ``PYTHONPATH=src python tests/pool_start_methods.py METHOD``, METHOD
one of ``multiprocessing.get_all_start_methods()``.  With the start method
set to METHOD and ``os.cpu_count`` reading 2, each worker count, 1 and 2,
runs from unset drop tables, no check verdicts and no tight (k,0)
frontier: the stable (2,1)
scan of level 8, ``verify_theorem("L21", (8,))``, the pruned tight (2,0)
scan at n = 8 under T1d's check, and ``verify --theorem T1c --n 7`` through
``cli.main``.  Their results, the CLI's exit code and stdout, and then the
drop tables of levels 2-8 and the check verdict tables must be equal for
both counts.  Exits 0 and
prints one line when they are; a difference fails an assertion.
"""

import contextlib
import io
import multiprocessing
import os
import sys

from stabilitylab import cli, enumeration
from stabilitylab.enumeration import FilterSpec, _filtered_scan, _frontier, verify_theorem


def _unset_tables() -> None:
    """Drop every tight (k,0) frontier and check verdict and give levels 2-8
    unset drop tables."""
    enumeration._VERDICTS.clear()
    memo = enumeration._FRONTIERS
    for key in [key for key in memo if key[1]]:
        del memo[key]
    for n in range(2, 9):
        level, alphas, parents, _ = memo[n, 0]
        memo[n, 0] = level, alphas, parents, [bytearray(len(level)) for _ in range(1, n)]


def _run(jobs: int) -> tuple[list, dict]:
    """The four workloads' results with ``jobs`` workers, from unset tables,
    and the drop and check verdict tables they leave."""
    _unset_tables()
    results = [
        _filtered_scan(8, FilterSpec(stable=(2, 1)), jobs=jobs),
        verify_theorem("L21", (8,), jobs=jobs),
        _filtered_scan(8, FilterSpec(tight=(2, 0)), True, jobs, "T1d"),
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--theorem", "T1c", "--n", "7", "--jobs", str(jobs)])
    results.append((code, out.getvalue()))
    tables = {n: [bytes(t) for t in enumeration._FRONTIERS[n, 0][3]] for n in range(2, 9)}
    tables["checks"] = {key: bytes(table) for key, table in enumeration._VERDICTS.items()}
    return results, tables


def main(method: str) -> None:
    multiprocessing.set_start_method(method)
    os.cpu_count = lambda: 2
    _frontier(8)
    (serial, serial_tables), (pooled, pooled_tables) = _run(1), _run(2)
    names = ("stable (2,1) at n = 8", "L21 at n = 8", "pruned T1d scan at n = 8", "verify T1c --n 7")
    for name, one, two in zip(names, serial, pooled):
        assert one == two, f"{method}: {name} differs between jobs 1 and 2"
    assert serial[3][0] == 0, serial[3]
    for n in range(2, 9):
        assert serial_tables[n] == pooled_tables[n], f"{method}: drop tables of level {n} differ"
    assert len(serial_tables["checks"]) == 2, serial_tables["checks"].keys()  # L21 at 8, T1c at 7
    assert serial_tables["checks"] == pooled_tables["checks"], f"{method}: check verdicts differ"
    print(f"{method}: {len(names)} workloads, the drop tables of levels 2-8 and the check verdicts "
          f"equal for jobs 1 and 2 "
          f"(Python {sys.version.split()[0]})")


if __name__ == "__main__":
    main(sys.argv[1])
