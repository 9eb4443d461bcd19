"""Command-line surface: every operation behind a subcommand with JSON output.

Reports go to standard output, diagnostics to standard error.  Exit codes:
0 success or verified, 1 usage or input error, 2 semantic negative (not
tight, counterexample found).  Graph input is graph6 via ``--g6`` or
``--file`` (``-`` reads standard input); a file may also hold a JSON report
from a previous invocation, whose ``result.g6`` field is then used, so
subcommands compose in shell pipelines.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
from dataclasses import asdict

from . import __version__
from .critical import critical_reduce
from .enumeration import (
    FilterSpec,
    THEOREM_IDS,
    atlas_record,
    atlas_write,
    default_sizes,
    filtered_records,
    verify_theorem,
    _record_line,
)
from .graph6 import parse_graph6, write_graph6
from .graphs import (
    Graph,
    add_isolated,
    bipartite_with_pm,
    clique,
    cone,
    cycle,
    disjoint_union,
    even_subdivision_k4,
)
from .independence import alpha
from .stability import is_stable
from .structure import spanning_certificate

SCHEMA = "stabilitylab.report/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(ValueError):
    pass


def _read_graph(args) -> tuple[Graph, str]:
    if getattr(args, "g6", None):
        text = args.g6
    elif getattr(args, "file", None):
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
    else:
        raise _UsageError("a graph is required: pass --g6 or --file")
    text = text.strip()
    if text.startswith("{"):
        try:
            obj = json.loads(text.splitlines()[0])
            text = obj["result"]["g6"] if "result" in obj else obj["g6"]
        except (json.JSONDecodeError, KeyError, TypeError):
            raise ValueError("JSON input does not carry a g6 field")
    else:
        text = text.splitlines()[0] if text else ""
    return parse_graph6(text), text


def _envelope(command: str, input_digest: dict, result: dict) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "input": input_digest,
        "result": result,
    }


def _graph_digest(g6: str) -> dict:
    return {"g6": g6, "sha256": hashlib.sha256(g6.encode()).hexdigest()[:12]}


def _emit(report: dict, pretty: bool) -> None:
    validate_report(report)
    if pretty:
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        print(json.dumps(report, separators=(",", ":"), sort_keys=False))


# -- published output schema -------------------------------------------------

_RESULT_KEYS = {
    "alpha": {"n", "alpha", "witness"},
    "check": {"k", "l", "stable", "witness", "alpha", "bound", "tight"},
    "reduce": {"kernel_g6", "removed", "alpha"},
    "classify": {"kind", "cycles", "matching", "embedding", "name", "branch_paths"},
    "construct": {"g6", "n"},
    "enumerate": {"n", "scanned", "emitted", "filters", "atlas"},
    "verify": {
        "theorem_id",
        "parameter_range",
        "graphs_scanned",
        "matches",
        "counterexamples",
        "verdict",
    },
}


def validate_report(report: dict) -> None:
    """Structural check every CLI report must satisfy before being printed."""
    for key in ("schema", "version", "command", "input", "result"):
        if key not in report:
            raise ValueError(f"report is missing {key!r}")
    if report["schema"] != SCHEMA:
        raise ValueError(f"unknown schema {report['schema']!r}")
    command = report["command"]
    if command not in _RESULT_KEYS:
        raise ValueError(f"unknown command {command!r}")
    if not isinstance(report["input"], dict) or not isinstance(report["result"], dict):
        raise ValueError("input and result must be objects")
    if set(report["result"]) != _RESULT_KEYS[command]:
        raise ValueError(
            f"result keys {sorted(report['result'])} do not match the schema for {command}"
        )


# -- subcommand implementations ----------------------------------------------


def _cmd_alpha(args) -> int:
    g, g6 = _read_graph(args)
    res = alpha(g)
    result = {"n": g.n, "alpha": res.alpha, "witness": list(res.witness)}
    _emit(_envelope("alpha", _graph_digest(g6), result), args.pretty)
    return EXIT_OK


def _cmd_check(args) -> int:
    g, g6 = _read_graph(args)
    report = is_stable(g, args.k, args.l)
    result = asdict(report)
    result["witness"] = list(report.witness) if report.witness is not None else None
    _emit(_envelope("check", _graph_digest(g6), result), args.pretty)
    if args.tight and not report.tight:
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_reduce(args) -> int:
    g, g6 = _read_graph(args)
    ck = critical_reduce(g)
    result = {
        "kernel_g6": write_graph6(ck.kernel),
        "removed": [list(e) for e in ck.removed],
        "alpha": alpha(ck.kernel).alpha,
    }
    _emit(_envelope("reduce", _graph_digest(g6), result), args.pretty)
    return EXIT_OK


def _cmd_classify(args) -> int:
    g, g6 = _read_graph(args)
    d = spanning_certificate(g, args.k)
    _emit(_envelope("classify", _graph_digest(g6), asdict(d)), args.pretty)
    return EXIT_OK


def _cmd_construct(args) -> int:
    fam = args.family
    if fam not in ("cone", "union", "isolift") and (args.g6 is not None or args.file is not None):
        raise _UsageError(f"family {fam} takes no base graph: drop --g6/--file")
    if fam == "cycle":
        g = cycle(_require(args.n, "--n"))
    elif fam == "clique":
        g = clique(_require(args.n, "--n"))
    elif fam == "cone":
        base, _ = _read_graph(args)
        g = cone(base)
    elif fam == "union":
        base, _ = _read_graph(args)
        if not args.other_g6:
            raise _UsageError("union needs --other-g6")
        g = disjoint_union(base, parse_graph6(args.other_g6))
    elif fam == "isolift":
        base, _ = _read_graph(args)
        g = add_isolated(base, args.count)
    elif fam == "bipartite-pm":
        m = _require(args.m, "--m")
        rng = random.Random(args.seed)
        pool = [
            (i, m + j) for i in range(m) for j in range(m) if i != j
        ]
        extra = rng.sample(pool, min(args.extra_edges, len(pool)))
        g = bipartite_with_pm(m, extra)
    elif fam == "evensub-k4":
        if not args.counts:
            raise _UsageError("evensub-k4 needs --counts a,b,c,d,e,f")
        counts = tuple(int(x) for x in args.counts.split(","))
        g = even_subdivision_k4(counts)
    else:
        raise _UsageError(f"unknown family {fam!r}")
    result = {"g6": write_graph6(g), "n": g.n}
    _emit(_envelope("construct", {"args": _family_args(args)}, result), args.pretty)
    return EXIT_OK


def _family_args(args) -> dict:
    keep = ("family", "n", "m", "extra_edges", "seed", "count", "counts", "g6", "other_g6")
    return {k: getattr(args, k) for k in keep if getattr(args, k, None) is not None}


def _require(value, flag):
    if value is None:
        raise _UsageError(f"{flag} is required for this family")
    return value


def _parse_kl(text: str) -> tuple[int, int]:
    try:
        k, l = (int(x) for x in text.split(","))
    except ValueError:
        raise _UsageError(f"expected K,L integers, got {text!r}")
    return k, l


def _spec_from_args(args) -> FilterSpec:
    return FilterSpec(
        min_degree=args.min_degree,
        connected=True if args.connected else None,
        alpha=args.alpha,
        defect=args.defect,
        alpha_critical=True if args.alpha_critical else None,
        stable=_parse_kl(args.stable) if args.stable else None,
        tight=_parse_kl(args.tight) if args.tight else None,
    )


def _cmd_enumerate(args) -> int:
    spec = _spec_from_args(args)
    scanned, records = filtered_records(
        args.n, spec, hereditary_prune=args.prune, jobs=args.jobs
    )
    if args.atlas:
        atlas_write(records, args.atlas)
    else:
        for rec in records:
            print(_record_line(rec))
    result = {
        "n": args.n,
        "scanned": scanned,
        "emitted": len(records),
        "filters": spec.to_dict(),
        "atlas": args.atlas,
    }
    _emit(_envelope("enumerate", {"args": {"n": args.n}}, result), args.pretty)
    return EXIT_OK


def _cmd_verify(args) -> int:
    values = tuple(args.n) if args.n else None
    if args.n_max is not None:
        base = values or default_sizes(args.theorem)
        values = tuple(v for v in base if v <= args.n_max)
        if not values:
            raise _UsageError(f"--n-max {args.n_max} leaves none of the sizes {list(base)}")
    report = verify_theorem(
        args.theorem,
        n_values=values,
        k=args.k,
        prune=(False if args.no_prune else None),
        jobs=args.jobs,
    )
    if args.atlas:
        provenance = {
            "version": __version__,
            "parameters": {"theorem": args.theorem, **report.parameter_range},
        }
        graphs = (parse_graph6(g6) for g6 in report.matches)
        atlas_write((atlas_record(g, FilterSpec(), provenance) for g in graphs), args.atlas)
    _emit(_envelope("verify", {"args": {"theorem": args.theorem}}, report.to_dict()), args.pretty)
    if report.verdict != "verified":
        for g6 in report.counterexamples:
            print(f"counterexample: {g6}", file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def _add_graph_flags(p: _Parser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--g6", help="graph6 string")
    source.add_argument("--file", help="file holding a graph6 string ('-' for stdin)")


def _jobs(text: str) -> int:
    """Worker count from ``--jobs`` or ``$STABILITYLAB_JOBS``: a positive integer."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"worker count (--jobs or STABILITYLAB_JOBS) must be a positive integer, got {text!r}"
        )
    return jobs


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: building it costs more
    than most single-graph commands.  ``--jobs`` defaults to ``None``;
    ``main`` fills it from ``$STABILITYLAB_JOBS`` on every call."""
    parser = _Parser(prog="stabilitylab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("alpha", help="independence number with witness")
    _add_graph_flags(p)

    p = sub.add_parser("check", help="(k,l)-stability report")
    _add_graph_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--tight", action="store_true", help="exit 2 unless tight")

    p = sub.add_parser("reduce", help="greedy reduction to an alpha-critical kernel")
    _add_graph_flags(p)

    p = sub.add_parser("classify", help="spanning certificate for a tight (k,0)-stable graph")
    _add_graph_flags(p)
    p.add_argument("--k", type=int, required=True, choices=(1, 2, 3))

    p = sub.add_parser("construct", help="build a named graph family member")
    _add_graph_flags(p)
    p.add_argument(
        "--family",
        required=True,
        choices=("cycle", "clique", "cone", "union", "isolift", "bipartite-pm", "evensub-k4"),
    )
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--extra-edges", type=int, default=0)
    p.add_argument("--seed", type=int, default=0, help="RNG seed for random extras (default 0)")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--counts", help="six comma-separated even subdivision counts")
    p.add_argument("--other-g6", help="second operand for the union family")

    p = sub.add_parser("enumerate", help="filtered scan over all non-isomorphic graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-degree", type=int)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--alpha", type=int)
    p.add_argument("--defect", type=int)
    p.add_argument("--alpha-critical", action="store_true")
    p.add_argument("--stable", help="K,L")
    p.add_argument("--tight", help="K,L")
    p.add_argument("--prune", action="store_true", help="hereditary tight-(k,0) prune")
    p.add_argument("--atlas", help="write records to this file instead of stdout")

    v = sub.add_parser("verify", help="run a verification pipeline")
    v.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    v.add_argument("--n", type=int, action="append", help="size to scan (repeatable)")
    v.add_argument("--n-max", type=int, help="scan only the sizes (given or default) that are <= N")
    v.add_argument("--k", type=int)
    v.add_argument("--no-prune", action="store_true")
    v.add_argument("--atlas", help="also write one atlas record per match to this file")

    for p2 in sub.choices.values():
        p2.add_argument("--pretty", action="store_true", help="indented JSON output")
    for name in ("enumerate", "verify"):
        sub.choices[name].add_argument(
            "--jobs",
            type=_jobs,
            help="worker processes (default $STABILITYLAB_JOBS or 1)",
        )
    return parser


_HANDLERS = {
    "alpha": _cmd_alpha,
    "check": _cmd_check,
    "reduce": _cmd_reduce,
    "classify": _cmd_classify,
    "construct": _cmd_construct,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        # read on every call, and checked even for commands without --jobs
        default_jobs = _jobs(os.environ.get("STABILITYLAB_JOBS", "1"))
        args = build_parser().parse_args(argv)
        if getattr(args, "jobs", None) is None:
            args.jobs = default_jobs
        return _HANDLERS[args.cmd](args)
    except (ValueError, OSError, KeyError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
