"""The seeded mix of single-graph CLI calls and its correctness checks.

The mix has a fixed shape (how many calls of each command, at which sizes)
so that its cost does not swing with the seed; the seed picks the random
graphs, the vertex labelings of constructed graphs and the call order.
Graphs come from the package's constructors and catalog, relabeled, plus
G(n, p) random graphs.

Every call is checked after the timed loop: the exit code, the report
schema (``validate_report``), every certificate (``validate_decomposition``),
every alpha witness (independent and of the reported size), the values
known from the construction (alpha of cycles, tightness of the tight
families, the certificate kind), and that one graph gets one alpha from
every command that reports it.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations


@dataclass
class Call:
    argv: tuple[str, ...]
    graph: object = None  # input graph, for the independent checks
    rc: int | None = 0  # expected exit code; None when the report decides it
    expect: dict = field(default_factory=dict)

    @property
    def g6(self) -> str | None:
        return self.argv[self.argv.index("--g6") + 1] if "--g6" in self.argv else None


def run_cli(mods, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = mods.cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def build_mix(mods, rng) -> list[Call]:
    G = mods.graphs
    g6 = mods.graph6.write_graph6

    def relabel(g):
        perm = list(range(g.n))
        rng.shuffle(perm)
        return G.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])

    def gnp(n, p):
        return G.from_edges(n, [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p])

    def two_cycles(n, sizes=(3, 5, 7, 9)):
        a = rng.choice([x for x in sizes if n - x >= 3])
        return G.disjoint_union(G.cycle(a), G.cycle(n - a))

    def subdivision(n):
        counts = [0] * 6
        for _ in range((n - 4) // 2):
            counts[rng.randrange(6)] += 2
        return G.even_subdivision_k4(counts), counts

    def bipartite(m):
        pool = [(i, m + j) for i in range(m) for j in range(m) if i != j]
        return G.bipartite_with_pm(m, rng.sample(pool, m))

    def graph_call(cmd, g, *extra, rc=0, **expect):
        return Call((cmd, "--g6", g6(g), *extra), g, rc, expect)

    calls: list[Call] = []
    tight = dict(stable=True, tight=True)
    k2l0 = ("--k", "2", "--l", "0", "--tight")
    # heavy tier: stability scans on structured graphs whose cost barely moves
    # with the labeling; it holds the 90th percentile and most of the time
    for n in (19,) * 6 + (21,) * 2:
        calls.append(graph_call("check", relabel(G.cycle(n)), *k2l0, **tight))
    for _ in range(4):
        calls.append(graph_call("check", relabel(two_cycles(20, (7, 9))), *k2l0, **tight))
        calls.append(graph_call("check", relabel(subdivision(20)[0]), *k2l0, **tight))
    for n in (17,) * 6 + (15,) * 4:
        calls.append(graph_call("check", relabel(G.cycle(n)), "--k", "3", "--l", "1"))
    calls.append(graph_call("check", relabel(G.cycle(25)), "--k", "2", "--l", "1"))

    # light tier: many cheap calls on random graphs and small certificates
    reduce_graphs = [gnp(12, 0.4) for _ in range(12)]
    calls += [graph_call("reduce", g) for g in reduce_graphs]
    calls += [graph_call("alpha", g) for g in reduce_graphs]
    for n in range(16, 46):
        calls.append(graph_call("alpha", gnp(n, (0.15, 0.25, 0.35)[n % 3])))
    for _ in range(2):
        calls.append(graph_call("alpha", relabel(G.cycle(25)), alpha=12))
        calls.append(graph_call("alpha", relabel(subdivision(20)[0]), alpha=9))
        calls.append(graph_call("alpha", relabel(two_cycles(20)), alpha=9))
        calls.append(graph_call("alpha", relabel(bipartite(10)), alpha=10))
    for n in (15, 16, 17, 18) * 3:
        calls.append(graph_call("check", gnp(n, 0.25), "--k", "2", "--l", "1"))
    for n in (15, 16, 16, 17) * 2:
        calls.append(graph_call("check", gnp(n, 0.3), *k2l0, rc=None))
    for _ in range(4):
        g = gnp(14, 0.3)
        calls.append(graph_call("check", g, "--k", "3", "--l", "0"))
        calls.append(graph_call("check", g, "--k", "3", "--l", "1"))

    for n in (9, 11, 13) * 2:
        calls.append(graph_call("classify", relabel(G.cycle(n)), "--k", "1", kind="odd_cycle_plus_matching"))
        calls.append(graph_call("classify", relabel(G.cycle(n)), "--k", "2", kind="odd_cycle_plus_matching"))
    for m in (4, 5, 6) * 2:
        calls.append(graph_call("classify", relabel(bipartite(m)), "--k", "1", kind="perfect_matching"))
    for n in (10, 12, 14) * 2:
        calls.append(graph_call("classify", relabel(two_cycles(n)), "--k", "2", kind="two_odd_cycles"))
    for n in (10, 12):
        calls.append(graph_call("classify", relabel(subdivision(n)[0]), "--k", "2", kind="even_subdivision_k4"))
    for name in ("K4", "K5", "H7", "H9", "T9") * 2 + ("H9", "T9"):
        g = relabel(mods.catalog.named_graph(name))
        calls.append(graph_call("classify", g, "--k", "3", kind="named_spanning", name=name))

    def construct(g, *argv):
        return Call(("construct", "--family", *argv), None, 0, {"g6": g6(g)} if g else {})

    for _ in range(3):
        n = rng.randrange(5, 41)
        calls.append(construct(G.cycle(n), "cycle", "--n", str(n)))
        n = rng.randrange(3, 13)
        calls.append(construct(G.clique(n), "clique", "--n", str(n)))
        g, counts = subdivision(4 + 2 * rng.randrange(1, 9))
        calls.append(construct(g, "evensub-k4", "--counts", ",".join(map(str, counts))))
        m = rng.randrange(3, 11)
        extra = rng.randrange(0, m * (m - 1) + 1)
        calls.append(
            construct(None, "bipartite-pm", "--m", str(m), "--extra-edges", str(extra), "--seed", str(rng.randrange(1000)))
        )
        calls[-1].expect.update(m=m, extra=extra)
        base = gnp(8, 0.4)
        calls.append(construct(G.cone(base), "cone", "--g6", g6(base)))
    a, b = gnp(7, 0.4), gnp(9, 0.3)
    calls.append(construct(G.disjoint_union(a, b), "union", "--g6", g6(a), "--other-g6", g6(b)))
    count = rng.randrange(1, 6)
    calls.append(construct(G.add_isolated(a, count), "isolift", "--g6", g6(a), "--count", str(count)))

    calls.append(Call(("alpha", "--g6", "~" + g6(gnp(12, 0.3))[1:]), rc=1))
    calls.append(Call(("check", "--g6", g6(relabel(G.cycle(9))), "--k", "2", "--l", "2"), rc=1))
    calls.append(Call(("classify", "--g6", g6(G.cone(G.cycle(7))), "--k", "3"), rc=1))
    calls.append(Call(("reduce",), rc=1))

    rng.shuffle(calls)
    return calls


class Wrong(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Wrong(message)


def _check_one(mods, call: Call, output, alphas: dict) -> None:
    rc, out, err = output
    if call.rc == 1:
        _require(rc == 1, f"exit code {rc}, expected 1")
        _require(out == "" and "error:" in err, "error call printed a report or no message")
        return
    lines = out.splitlines()
    _require(len(lines) == 1, f"expected one report line, got {len(lines)}")
    report = json.loads(lines[0])
    try:
        mods.cli.validate_report(report)
    except ValueError as exc:
        raise Wrong(f"validate_report: {exc}")
    _require(report["command"] == call.argv[0], "report names another command")
    res = report["result"]
    cmd = call.argv[0]
    g = call.graph
    want = call.expect
    if cmd == "check":
        expected_rc = 2 if "--tight" in call.argv and not res["tight"] else 0
        _require(rc == expected_rc, f"exit code {rc}, expected {expected_rc}")
    else:
        _require(rc == call.rc, f"exit code {rc}, expected {call.rc}")
    if "alpha" in res and g is not None:
        alphas.setdefault(call.g6, set()).add(res["alpha"])
        if "alpha" in want:
            _require(res["alpha"] == want["alpha"], f"alpha {res['alpha']}, expected {want['alpha']}")

    if cmd == "alpha":
        w = res["witness"]
        _require(res["n"] == g.n, "wrong n")
        _require(len(w) == len(set(w)) == res["alpha"], "witness size differs from alpha")
        _require(all(0 <= v < g.n for v in w), "witness vertex out of range")
        _require(not any(g.adj[u] >> v & 1 for u, v in combinations(w, 2)), "witness is not independent")
    elif cmd == "check":
        k = int(call.argv[call.argv.index("--k") + 1])
        l = int(call.argv[call.argv.index("--l") + 1])
        _require((res["k"], res["l"]) == (k, l), "k, l echo differs")
        _require(res["bound"] == (g.n - k + 1) // 2 + l, "wrong stability bound")
        _require(res["tight"] == (res["stable"] and res["alpha"] == res["bound"]), "tight flag inconsistent")
        if res["stable"]:
            _require(res["witness"] is None, "stable graph reported a witness")
        else:
            w = res["witness"]
            _require(
                len(w) == k and w == sorted(set(w)) and all(0 <= v < g.n for v in w),
                "violating witness is not a sorted k-subset",
            )
        for key in ("stable", "tight"):
            if key in want:
                _require(res[key] == want[key], f"{key} is {res[key]}, expected {want[key]}")
    elif cmd == "reduce":
        kernel = mods.graph6.parse_graph6(res["kernel_g6"])
        _require(kernel.n == g.n, "kernel is not spanning")
        host, kept = set(g.edges()), set(kernel.edges())
        _require(kept <= host, "kernel has an edge the input lacks")
        removed = {tuple(e) for e in res["removed"]}
        _require(removed == host - kept and len(removed) == len(res["removed"]), "removal log differs from the edge difference")
    elif cmd == "classify":
        st = mods.structure
        d = st.Decomposition(
            kind=res["kind"],
            cycles=tuple(tuple(c) for c in res["cycles"]),
            matching=tuple(tuple(e) for e in res["matching"]),
            embedding=tuple(res["embedding"]) if res["embedding"] is not None else None,
            name=res["name"],
            branch_paths=tuple(tuple(p) for p in res["branch_paths"]),
        )
        try:
            st.validate_decomposition(g, d)
        except ValueError as exc:
            raise Wrong(f"validate_decomposition: {exc}")
        _require(res["kind"] == want["kind"], f"kind {res['kind']}, expected {want['kind']}")
        if "name" in want:
            _require(res["name"] == want["name"], f"name {res['name']}, expected {want['name']}")
    elif cmd == "construct":
        if "g6" in want:
            _require(res["g6"] == want["g6"], "constructed graph differs from the library constructor")
        else:
            h = mods.graph6.parse_graph6(res["g6"])
            m = want["m"]
            edges = set(h.edges())
            _require(h.n == res["n"] == 2 * m, "wrong bipartite order")
            _require(all(u < m <= v for u, v in edges), "edge inside one side")
            _require({(i, m + i) for i in range(m)} <= edges, "perfect matching missing")
            _require(len(edges) == m + want["extra"], "wrong number of extra edges")


def check_outputs(mods, calls: list[Call], outputs: list) -> dict[int, str]:
    """Failure reason per failing call index, from each call's first output."""
    bad: dict[int, str] = {}
    alphas: dict[str, set] = {}
    for i, (call, output) in enumerate(zip(calls, outputs)):
        if output is None:
            bad[i] = "no output"
            continue
        try:
            _check_one(mods, call, output, alphas)
        except (Wrong, ValueError, KeyError, TypeError, IndexError) as exc:
            bad[i] = f"{' '.join(call.argv[:1])}: {type(exc).__name__}: {exc}"
    for i, call in enumerate(calls):
        if len(alphas.get(call.g6, ())) > 1:
            bad.setdefault(i, f"alpha differs across commands: {sorted(alphas[call.g6])}")
    return bad
