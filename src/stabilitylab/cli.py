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
from dataclasses import asdict, fields

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


def _emit(command: str, input_digest: dict, result: dict, pretty: bool) -> None:
    """Print the report envelope around ``result`` after validating it."""
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "input": input_digest,
        "result": result,
    }
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


def _alpha_result(g: Graph, args) -> tuple[dict, int]:
    res = alpha(g)
    return {"n": g.n, "alpha": res.alpha, "witness": res.witness}, EXIT_OK


def _check_result(g: Graph, args) -> tuple[dict, int]:
    report = is_stable(g, args.k, args.l)
    return asdict(report), EXIT_NEGATIVE if args.tight and not report.tight else EXIT_OK


def _reduce_result(g: Graph, args) -> tuple[dict, int]:
    ck = critical_reduce(g)
    result = {
        "kernel_g6": write_graph6(ck.kernel),
        "removed": ck.removed,
        "alpha": alpha(ck.kernel).alpha,
    }
    return result, EXIT_OK


def _classify_result(g: Graph, args) -> tuple[dict, int]:
    return asdict(spanning_certificate(g, args.k)), EXIT_OK


#: the commands that analyse one input graph: name -> (help, result function)
_GRAPH_COMMANDS = {
    "alpha": ("independence number with witness", _alpha_result),
    "check": ("(k,l)-stability report", _check_result),
    "reduce": ("greedy reduction to an alpha-critical kernel", _reduce_result),
    "classify": ("spanning certificate for a tight (k,0)-stable graph", _classify_result),
}


def _cmd_graph(args) -> int:
    g, g6 = _read_graph(args)
    result, code = args.result(g, args)
    digest = {"g6": g6, "sha256": hashlib.sha256(g6.encode()).hexdigest()[:12]}
    _emit(args.cmd, digest, result, args.pretty)
    return code


def _bipartite_pm(m: int, extra_edges: int, seed: int) -> Graph:
    """``bipartite_with_pm(m)`` plus ``extra_edges`` of the m(m-1) pairs
    (i, m+j), i != j, drawn by ``random.Random(seed).sample`` from the pairs
    in lexicographic order.  ``m`` is checked first, and the pairs are
    indexed, never listed."""
    bipartite_with_pm(m)
    size = m * (m - 1)
    if not 0 <= extra_edges <= size:
        raise _UsageError(f"--extra-edges must be in 0..{size} for --m {m}, got {extra_edges}")
    picks = random.Random(seed).sample(range(size), extra_edges)
    rows = (divmod(p, m - 1) for p in picks)  # (i, rank of j among the j != i)
    return bipartite_with_pm(m, [(i, m + j + (j >= i)) for i, j in rows])


def _ints(flag: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated integers, got {text!r}") from None


#: construct families: name -> (constructor, the flags it reads with their
#: defaults, ``None`` for a required flag).  ``graph`` is the base graph from
#: --g6 or --file; the constructor takes the values in row order.
_FAMILIES = {
    "cycle": (cycle, {"n": None}),
    "clique": (clique, {"n": None}),
    "cone": (cone, {"graph": None}),
    "union": (
        lambda g, other: disjoint_union(g, parse_graph6(other)),
        {"graph": None, "other_g6": None},
    ),
    "isolift": (add_isolated, {"graph": None, "count": 1}),
    "bipartite-pm": (_bipartite_pm, {"m": None, "extra_edges": 0, "seed": 0}),
    "evensub-k4": (lambda counts: even_subdivision_k4(_ints("--counts", counts)), {"counts": None}),
}

#: every flag a family can read, in ``input.args`` order
_FAMILY_FLAGS = ("n", "m", "extra_edges", "seed", "count", "counts", "g6", "file", "other_g6")


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _cmd_construct(args) -> int:
    family = args.family
    build, reads = _FAMILIES[family]
    given = {f: getattr(args, f) for f in _FAMILY_FLAGS if getattr(args, f) is not None}
    for flag in given:
        if flag in ("g6", "file"):
            if "graph" not in reads:
                raise _UsageError(f"family {family} takes no base graph: drop --g6/--file")
        elif flag not in reads:
            raise _UsageError(f"family {family} does not read {_option(flag)}")
    values = []
    for flag, default in reads.items():  # a default joins ``given``, so it is echoed
        value = _read_graph(args)[0] if flag == "graph" else given.setdefault(flag, default)
        if value is None:
            raise _UsageError(f"{_option(flag)} is required for family {family}")
        values.append(value)
    g = build(*values)
    echo = {"family": family, **{f: given[f] for f in _FAMILY_FLAGS if f in given}}
    _emit("construct", {"args": echo}, {"g6": write_graph6(g), "n": g.n}, args.pretty)
    return EXIT_OK


def _spec_from_args(args) -> FilterSpec:
    """The filter of ``enumerate``, one flag per ``FilterSpec`` field."""
    values = {field.name: getattr(args, field.name) for field in fields(FilterSpec)}
    for kind in ("stable", "tight"):
        values[kind] = _ints(_option(kind), values[kind]) if values[kind] else None
    return FilterSpec(**values)


def _cmd_enumerate(args) -> int:
    spec = _spec_from_args(args)
    scanned, records = filtered_records(args.n, spec, hereditary_prune=args.prune, jobs=args.jobs)
    if args.atlas:
        atlas_write(records, args.atlas)
    else:
        for rec in records:
            print(rec.to_json())
    result = {
        "n": args.n,
        "scanned": scanned,
        "emitted": len(records),
        "filters": spec.to_dict(),
        "atlas": args.atlas,
    }
    _emit("enumerate", {"args": {"n": args.n}}, result, args.pretty)
    return EXIT_OK


def _cmd_verify(args) -> int:
    values = tuple(args.n) if args.n else None
    if args.n_max is not None:
        base = values or default_sizes(args.theorem)
        values = tuple(v for v in base if v <= args.n_max)
        if not values:
            raise _UsageError(f"--n-max {args.n_max} leaves none of the sizes {list(base)}")
    report = verify_theorem(args.theorem, n_values=values, k=args.k, prune=args.prune, jobs=args.jobs)
    if args.atlas:
        provenance = {
            "version": __version__,
            "parameters": {"theorem": args.theorem, **report.parameter_range},
        }
        graphs = (parse_graph6(g6) for g6 in report.matches)
        atlas_write((atlas_record(g, FilterSpec(), provenance) for g in graphs), args.atlas)
    _emit("verify", {"args": {"theorem": args.theorem}}, report.to_dict(), args.pretty)
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

    for name, (text, result) in _GRAPH_COMMANDS.items():
        p = sub.add_parser(name, help=text)
        _add_graph_flags(p)
        p.set_defaults(run=_cmd_graph, result=result)
    p = sub.choices["check"]
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--tight", action="store_true", help="exit 2 unless tight")
    sub.choices["classify"].add_argument("--k", type=int, required=True, choices=(1, 2, 3))

    p = sub.add_parser("construct", help="build a named graph family member")
    p.set_defaults(run=_cmd_construct)
    _add_graph_flags(p)
    p.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    for flag, kind, text in (
        ("n", int, "vertex count"),
        ("m", int, "vertices per side"),
        ("extra_edges", int, "random edges added across the sides"),
        ("seed", int, "RNG seed for the extra edges"),
        ("count", int, "isolated vertices to add"),
        ("counts", str, "six comma-separated even subdivision counts"),
        ("other_g6", str, "graph6 of the second operand"),
    ):
        readers = {f: reads[flag] for f, (_, reads) in _FAMILIES.items() if flag in reads}
        defaults = "".join(f", default {v}" for v in set(readers.values()) if v is not None)
        p.add_argument(_option(flag), type=kind, help=f"{text} ({', '.join(readers)}{defaults})")

    p = sub.add_parser("enumerate", help="filtered scan over all non-isomorphic graphs")
    p.set_defaults(run=_cmd_enumerate)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-degree", type=int)
    p.add_argument("--connected", action="store_const", const=True)
    p.add_argument("--alpha", type=int)
    p.add_argument("--defect", type=int)
    p.add_argument("--alpha-critical", action="store_const", const=True)
    p.add_argument("--stable", help="K,L")
    p.add_argument("--tight", help="K,L")
    p.add_argument("--prune", action="store_true", help="hereditary tight-(k,0) prune")
    p.add_argument("--atlas", help="write records to this file instead of stdout")

    v = sub.add_parser("verify", help="run a verification pipeline")
    v.set_defaults(run=_cmd_verify)
    v.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    v.add_argument("--n", type=int, action="append", help="size to scan (repeatable)")
    v.add_argument("--n-max", type=int, help="scan only the sizes (given or default) that are <= N")
    v.add_argument("--k", type=int)
    v.add_argument(
        "--prune",
        action=argparse.BooleanOptionalAction,
        help="hereditary tight-(k,0) prune (default: the pipeline's own setting)",
    )
    v.add_argument("--atlas", help="also write one atlas record per match to this file")

    for p2 in sub.choices.values():
        p2.add_argument("--pretty", action="store_true", help="indented JSON output")
    for name in ("enumerate", "verify"):
        jobs_help = "worker processes (default $STABILITYLAB_JOBS or 1)"
        sub.choices[name].add_argument("--jobs", type=_jobs, help=jobs_help)
    return parser


def main(argv=None) -> int:
    try:
        # read on every call, and checked even for commands without --jobs
        default_jobs = _jobs(os.environ.get("STABILITYLAB_JOBS", "1"))
        args = build_parser().parse_args(argv)
        if getattr(args, "jobs", None) is None:
            args.jobs = default_jobs
        return args.run(args)
    except (ValueError, OSError, KeyError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
