"""The three workloads: seeded inputs, the units they call, and their checks.

Each workload builds its inputs in ``setup`` from a fresh import and the
seed, exposes ``units`` (one public-API call each), turns a unit's output
into a comparable ``digest``, counts the classes a digest stands for
(``work``), and checks the digests of the first pass in ``check``.  The
checks run after the timed loop.
"""

from __future__ import annotations

import json
import random

import cli_mix
from harness import Unit

#: OEIS A000088, graphs on n = 1..8 vertices
A000088 = (1, 2, 4, 11, 34, 156, 1044, 12346)

#: (theorem, size, expected matches); all verdicts must be "verified"
PIPELINES = (
    ("T1a", 8, 110),
    ("T1d", 8, 75),
    ("T2", 8, 0),
    ("L21", 8, 3641),
    ("AND", 8, 3),
    ("T1b", 7, 170),
    ("T1c", 7, 1),
    ("SUR", 7, 1),
)

#: one level-8 parent per block of this many is extended in the generate slice
GENERATE_STRIDE = 24


def level_gates(mods) -> list[str | None]:
    """One entry per level 1..8: None when its class count matches A000088."""
    out = []
    for n, want in enumerate(A000088, start=1):
        got = sum(1 for _ in mods.enumeration.enumerate_canonical(n))
        out.append(None if got == want else f"level {n}: {got} classes, expected {want}")
    return out


class Generate:
    """Canonical augmentation of a seeded slice of level 8 to 9 vertices."""

    name = "generate"
    pool_units = None

    def setup(self, mods, seed: int) -> None:
        self.mods = mods
        level8 = [g.adj for g in mods.enumeration.enumerate_canonical(8)]
        rng = random.Random(seed)
        self.parents = [
            level8[i + rng.randrange(min(GENERATE_STRIDE, len(level8) - i))]
            for i in range(0, len(level8), GENERATE_STRIDE)
        ]
        self.units = [
            Unit(f"extend_level[{j}]", lambda p=p: mods.enumeration.extend_level([p], 9))
            for j, p in enumerate(self.parents)
        ]

    def gates(self) -> list[str | None]:
        return level_gates(self.mods)

    digest = staticmethod(tuple)

    @staticmethod
    def work(digest) -> int:
        return len(digest)

    def check(self, outputs) -> dict[int, str]:
        key = self.mods.canonical.canonical_key
        bad: dict[int, str] = {}
        owner: dict[tuple, int] = {}
        for j, (parent, children) in enumerate(zip(self.parents, outputs)):
            if children is None:
                bad[j] = "no output"
                continue
            top = 1 << 8
            for child in children:
                if len(child) != 9 or tuple(row & ~top for row in child[:8]) != parent:
                    bad[j] = "deleting the last vertex does not give back the parent"
                    break
                k = key(child)
                if k in owner:
                    bad[j] = bad[owner[k]] = "two children of the slice are isomorphic"
                owner[k] = j
        return bad


class Verify:
    """The eight verify_theorem pipelines on levels that set-up cached.

    The timed passes use one process.  ``pool_units`` are the same calls with
    ``jobs=2``, run once after the timed loop through the fork/chunk/merge
    pool: their reports must be byte-identical, and that pass's wall and CPU
    time (rusage of the reaped workers included) give the pool metrics.
    """

    name = "verify"
    POOL_JOBS = 2

    def setup(self, mods, seed: int) -> None:
        self.mods = mods
        sum(1 for _ in mods.enumeration.enumerate_canonical(8))
        mods.catalog.named_graph("K5")  # the catalog's one-time self-test
        self.pipelines = list(PIPELINES)
        random.Random(seed).shuffle(self.pipelines)

        def units(jobs):
            return [
                Unit(
                    f"{tid}@n={n},jobs={jobs}",
                    lambda tid=tid, n=n: mods.enumeration.verify_theorem(tid, n_values=(n,), jobs=jobs),
                )
                for tid, n, _ in self.pipelines
            ]

        self.units = units(1)
        self.pool_units = units(self.POOL_JOBS)

    def gates(self) -> list[str | None]:
        return level_gates(self.mods)

    @staticmethod
    def digest(report) -> str:
        return json.dumps(report.to_dict())

    @staticmethod
    def work(digest) -> int:
        return json.loads(digest)["graphs_scanned"]

    def check(self, outputs) -> dict[int, str]:
        bad: dict[int, str] = {}
        for j, ((tid, n, matches), digest) in enumerate(zip(self.pipelines, outputs)):
            if digest is None:
                bad[j] = "no output"
                continue
            rep = json.loads(digest)
            if rep["verdict"] != "verified" or rep["counterexamples"]:
                bad[j] = f"{tid}: verdict {rep['verdict']}"
            elif len(rep["matches"]) != matches:
                bad[j] = f"{tid}: {len(rep['matches'])} matches, expected {matches}"
            elif rep["graphs_scanned"] != A000088[n - 1]:
                bad[j] = f"{tid}: scanned {rep['graphs_scanned']}, expected {A000088[n - 1]}"
        return bad


class Cli:
    """A seeded mix of single-graph calls through ``cli.main`` in-process."""

    name = "cli"
    pool_units = None

    def setup(self, mods, seed: int) -> None:
        self.mods = mods
        self.calls = cli_mix.build_mix(mods, random.Random(seed))
        cli_mix.run_cli(mods, ("construct", "--family", "cycle", "--n", "5"))
        self.units = [
            Unit(f"{c.argv[0]}[{j}]", lambda c=c: cli_mix.run_cli(mods, c.argv))
            for j, c in enumerate(self.calls)
        ]

    def gates(self) -> list[str | None]:
        return []

    @staticmethod
    def digest(output):
        return output

    @staticmethod
    def work(digest) -> int:
        return 1

    def check(self, outputs) -> dict[int, str]:
        return cli_mix.check_outputs(self.mods, self.calls, outputs)


WORKLOADS = {"generate": Generate, "verify": Verify, "cli": Cli}
