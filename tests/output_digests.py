"""Digests of the outputs a change must keep byte-identical.

Usage: ``PYTHONPATH=src python tests/output_digests.py JOBS``.  With JOBS
workers (at most one per CPU), from a fresh process, it runs in order:

- ``verify_theorem`` of every pipeline at each of its default sizes up to
  9, one report per size, and COR, whose default size is 10, at 9;
- the pruned ``filtered_records`` of tight (k,0) for k = 1..5 and n = 1..9,
  each with its ``graphs_scanned``;

and prints one sha256 per line: of the reports, of the records, of the
drop tables of levels 2-9 that the sequence leaves, and of the check
verdict tables of levels 2-9 it leaves, per pipeline in ``THEOREM_IDS``
order.  Compare the lines of two checkouts, or of two worker counts; the
tables depend on which verdicts and checks were asked, so they are
comparable only for the same sequence.
"""

import hashlib
import json
import sys

from stabilitylab import enumeration
from stabilitylab.enumeration import FilterSpec, filtered_records, verify_theorem


def _reports(jobs: int) -> list[str]:
    lines = []
    for theorem_id in enumeration.THEOREM_IDS:
        sizes = [n for n in enumeration.default_sizes(theorem_id) if n <= 9] or [9]
        for n in sizes:
            report = verify_theorem(theorem_id, (n,), jobs=jobs)
            lines.append(json.dumps(report.to_dict(), sort_keys=True))
    return lines


def _records(jobs: int) -> list[str]:
    lines = []
    for k in range(1, 6):
        for n in range(1, 10):
            scanned, records = filtered_records(n, FilterSpec(tight=(k, 0)), True, jobs)
            lines.append(f"{k} {n} {scanned}")
            lines += (record.to_json() for record in records)
    return lines


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(jobs: int) -> None:
    reports, records = _reports(jobs), _records(jobs)
    drops = b"".join(table for n in range(2, 10) for table in enumeration._FRONTIERS[n, 0][3])
    checks = b"".join(
        enumeration._verdicts(enumeration._PIPELINES[theorem_id].check, n)
        for theorem_id in enumeration.THEOREM_IDS
        for n in range(2, 10)
    )
    print(f"jobs={jobs} reports {_digest(reports)}")
    print(f"jobs={jobs} records {_digest(records)}")
    print(f"jobs={jobs} drops {hashlib.sha256(drops).hexdigest()}")
    print(f"jobs={jobs} checks {hashlib.sha256(checks).hexdigest()}")


if __name__ == "__main__":
    main(int(sys.argv[1]))
