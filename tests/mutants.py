"""Hand-made mutants of the exact shortcuts, and a runner that puts each to tier-1.

Usage: ``python tests/mutants.py [--out FILE]``, from the root of a
checkout.  For each mutant the runner copies the tree into a temporary
directory, replaces the mutant's old text, which must occur exactly once in
its file, by its new text, and runs tier-1 there with ``-x`` under a
``TIMEOUT`` of 600 s, leaving out ``test_mutants.py``, which every mutant
fails.  It writes JSON (to FILE, else to standard output) with a host stamp
and, per mutant, its outcome, the seconds tier-1 took and the first failing
test.  The outcome is ``killed`` when tier-1 fails, ``survived`` when it
passes and ``timeout`` when it runs out of time.  An unsound mutant is
expected to be killed; an equivalent one decides nothing differently, for
the reason it gives, so it is expected to survive.  The runner exits 1
when an outcome is not the expected one.

pytest does not collect this file; ``test_mutants.py`` checks that every
old text occurs exactly once.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
#: seconds per tier-1 run
TIMEOUT = 600
#: tier-1 with -x, but for test_mutants.py, which fails on any mutated copy
TIER1 = [
    "-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider",
    "--ignore=tests/test_mutants.py",
]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the checkout
    old: str
    new: str
    expected: str  # "killed" or "equivalent"
    reason: str = ""  # why an equivalent mutant decides nothing differently


ENUMERATION = "src/stabilitylab/enumeration.py"
CRITICAL = "src/stabilitylab/critical.py"
CANONICAL = "src/stabilitylab/canonical.py"

MUTANTS = [
    # the edge walk and the drop journal
    Mutant(
        "within-drops-journal",
        ENUMERATION,
        "        if delta > l or _within(n - 1, p, k, l - delta, journal):\n"
        "            verdict = delta <= l\n"
        "        elif not _within(n - 1, p, k - 1, l - delta, journal):\n",
        "        if delta > l or _within(n - 1, p, k, l - delta):\n"
        "            verdict = delta <= l\n"
        "        elif not _within(n - 1, p, k - 1, l - delta):\n",
        "killed",
    ),
    Mutant(
        "edge-walk-le",
        CRITICAL,
        "1 << v), a - 1)[0] < a - 1:",
        "1 << v), a - 1)[0] <= a - 1:",
        "killed",
    ),
    Mutant(
        "reduce-skips-deletion",
        CRITICAL,
        "        rows[u] ^= 1 << v\n        rows[v] ^= 1 << u\n        removed.append((u, v))\n",
        "        removed.append((u, v))\n",
        "killed",
    ),
    # the selection of a cached level's classes
    Mutant(
        "selection-rejects-lo-at-l",
        ENUMERATION,
        "bytes(entry & 15 <= l for entry in range(256))",
        "bytes(entry & 15 < l for entry in range(256))",
        "killed",
    ),
    Mutant(
        "tight-window-one-less",
        ENUMERATION,
        "wants.add(stability_bound(n, *spec.tight))",
        "wants.add(stability_bound(n, *spec.tight) - 1)",
        "killed",
    ),
    Mutant(
        "hajnal-gate-lt",
        ENUMERATION,
        "return max(map(int.bit_count, code)) <= n - 2 * a + 1 + code.count(0)",
        "return max(map(int.bit_count, code)) < n - 2 * a + 1 + code.count(0)",
        "killed",
    ),
    Mutant(
        "selection-reads-second-table",
        ENUMERATION,
        "_items(key, start, stop, n, window, kls[0] if kls else ())",
        "_items(key, start, stop, n, window, kls[-1] if kls else ())",
        "killed",
    ),
    # alpha from the parent, the sandwich and the gate
    Mutant(
        "child-alpha-le",
        ENUMERATION,
        "        if got < a:\n            return wit | a << (m + 1)\n",
        "        if got <= a:\n            return wit | a << (m + 1)\n",
        "killed",
    ),
    Mutant(
        "within-lower-bound-asks-k",
        ENUMERATION,
        "        elif not _within(n - 1, p, k - 1, l - delta, journal):\n",
        "        elif not _within(n - 1, p, k, l - delta, journal):\n",
        "killed",
    ),
    Mutant(
        "round-three-tie-accepted",
        ENUMERATION,
        "return _REJECT if max(sigs) > zsig else _TIE if zsig in sigs else _ACCEPT",
        "return _REJECT if max(sigs) > zsig else _ACCEPT",
        "killed",
    ),
    Mutant(
        "child-alpha-stale-witness",
        ENUMERATION,
        "            return wit | a << (m + 1)\n        wit = found\n",
        "            return wit | a << (m + 1)\n",
        "killed",
    ),
    # the scan's match order: reports sort, so only the order tests see it
    Mutant(
        "scan-returns-reversed",
        ENUMERATION,
        "[x for r in results for x in r[j]] for j in (1, 2, 3)",
        "[x for r in results for x in r[j]][::-1] for j in (1, 2, 3)",
        "killed",
    ),
    # the twin test of automorphism_generators
    Mutant(
        "twin-test-ignores-vertex-0",
        CANONICAL,
        "if (adj[u] ^ adj[v]) & ~(1 << u | 1 << v):",
        "if (adj[u] ^ adj[v]) & ~(1 << u | 1 << v | 1):",
        "equivalent",
        "u and v share an equitable cell, so they have equal degree, and N(u) - v and N(v) - u "
        "have equal size: they never differ in exactly one vertex",
    ),
    Mutant(
        "twin-test-ignores-vertices-0-1",
        CANONICAL,
        "if (adj[u] ^ adj[v]) & ~(1 << u | 1 << v):",
        "if (adj[u] ^ adj[v]) & ~(1 << u | 1 << v | 3):",
        "equivalent",
        "a scan of every class with n <= 9 (every parent the generator reads) found no pair of "
        "vertices in one equitable cell whose neighbourhoods differ only at vertices 0 and 1",
    ),
]


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's old text, which must occur once, in the tree at ``root``."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _host() -> dict:
    """perfbench's run stamp (python, platform, nproc, git commit, source digest), with the CPU model and date."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import harness

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        **harness.environment(str(ROOT), str(ROOT / "src")),
        "cpu": cpu,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run(mutant: Mutant) -> dict:
    """Tier-1 with ``-x`` on a copy of the tree with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(
            ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        )
        apply(mutant, tree)
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *TIER1], cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=TIMEOUT)
            outcome = "survived" if proc.returncode == 0 else "killed"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # pool workers included
            out, _ = proc.communicate()
            outcome = "timeout"
        seconds = time.perf_counter() - t0
    failing = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.MULTILINE)
    tail = out.strip().splitlines()[-1:] or [""]
    return {
        "name": mutant.name,
        "file": mutant.path,
        "expected": mutant.expected,
        "reason": mutant.reason,
        "outcome": outcome,
        "as_expected": outcome == ("survived" if mutant.expected == "equivalent" else "killed"),
        "seconds": round(seconds, 1),
        "first_failure": failing.group(1) if failing else None,
        "summary": tail[0],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", help="JSON file to write (default: standard output)")
    args = parser.parse_args(argv)
    results = []
    for mutant in MUTANTS:
        results.append(run(mutant))
        print(f"{mutant.name}: {results[-1]['outcome']} in {results[-1]['seconds']} s", file=sys.stderr)
    payload = json.dumps({"host": _host(), "tier1": " ".join(["python", *TIER1]), "mutants": results}, indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)
    return 0 if all(r["as_expected"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
