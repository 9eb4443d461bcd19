import io
import json
import subprocess
import sys
import tracemalloc

import pytest

from stabilitylab.canonical import is_isomorphic
from stabilitylab import cli
from stabilitylab.cli import build_parser, main, validate_report
from stabilitylab.graph6 import parse_graph6, write_graph6
from stabilitylab.graphs import cycle, disjoint_union, even_subdivision_k4, from_edges


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_report(out):
    report = json.loads(out.strip().splitlines()[-1])
    validate_report(report)
    return report


def test_alpha_subcommand(capsys):
    code, out, _ = run(capsys, "alpha", "--g6", write_graph6(cycle(7)))
    assert code == 0
    rep = last_report(out)
    assert rep["result"]["alpha"] == 3 and rep["result"]["n"] == 7


def test_alpha_k2(capsys):
    code, out, _ = run(capsys, "alpha", "--g6", "A_")
    assert code == 0
    assert last_report(out)["result"]["alpha"] == 1


def test_alpha_missing_file(capsys):
    code, out, err = run(capsys, "alpha", "--file", "does-not-exist.g6")
    assert code == 1 and out == "" and "error" in err


def test_g6_and_file_are_exclusive(capsys, tmp_path):
    code, out, err = run(capsys, "alpha", "--g6", "D?{", "--file", str(tmp_path / "absent.g6"))
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith("error:") and "--g6" in err


def test_check_subcommand(capsys):
    g6 = write_graph6(cycle(9))
    code, out, _ = run(capsys, "check", "--g6", g6, "--k", "2", "--l", "0")
    assert code == 0
    res = last_report(out)["result"]
    assert res["stable"] and res["tight"]

    code, out, _ = run(capsys, "check", "--g6", g6, "--k", "3", "--l", "0")
    assert code == 0
    res = last_report(out)["result"]
    assert not res["stable"] and len(res["witness"]) == 3

    code, _, _ = run(capsys, "check", "--g6", g6, "--k", "3", "--l", "0", "--tight")
    assert code == 2

    code, _, err = run(capsys, "check", "--g6", g6, "--k", "0", "--l", "0")
    assert code == 1 and "error" in err


def test_reduce_subcommand(capsys):
    chorded = parse_graph6(write_graph6(cycle(5)))
    from stabilitylab.graphs import from_edges

    g = from_edges(5, list(chorded.edges()) + [(0, 2)])
    code, out, _ = run(capsys, "reduce", "--g6", write_graph6(g))
    assert code == 0
    res = last_report(out)["result"]
    assert res["removed"] == [[0, 2]]
    assert is_isomorphic(parse_graph6(res["kernel_g6"]), cycle(5))


def test_classify_two_odd_cycles(capsys):
    g = disjoint_union(cycle(3), cycle(5))
    code, out, _ = run(capsys, "classify", "--g6", write_graph6(g), "--k", "2")
    assert code == 0
    res = last_report(out)["result"]
    assert res["kind"] == "two_odd_cycles"
    assert sorted(len(c) for c in res["cycles"]) == [3, 5]


def test_classify_rejects_non_tight(capsys):
    code, _, err = run(capsys, "classify", "--g6", write_graph6(cycle(6)), "--k", "2")
    assert code == 1 and "error" in err


def test_construct_families(capsys):
    code, out, _ = run(capsys, "construct", "--family", "cycle", "--n", "7")
    assert code == 0
    assert parse_graph6(last_report(out)["result"]["g6"]).n == 7

    code, out, _ = run(
        capsys, "construct", "--family", "evensub-k4", "--counts", "2,0,0,0,0,0"
    )
    assert code == 0
    g = parse_graph6(last_report(out)["result"]["g6"])
    assert is_isomorphic(g, even_subdivision_k4((2, 0, 0, 0, 0, 0)))

    code, out, _ = run(
        capsys, "construct", "--family", "bipartite-pm", "--m", "4",
        "--extra-edges", "3", "--seed", "11",
    )
    assert code == 0
    first = last_report(out)["result"]["g6"]
    code, out, _ = run(
        capsys, "construct", "--family", "bipartite-pm", "--m", "4",
        "--extra-edges", "3", "--seed", "11",
    )
    assert last_report(out)["result"]["g6"] == first  # same seed, same output

    code, _, err = run(capsys, "construct", "--family", "cycle")
    assert code == 1 and "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "cycle", "--n", "5", "--g6", "D?{"],
        ["--family", "clique", "--n", "3", "--file", "/nonexistent"],
        ["--family", "bipartite-pm", "--m", "3", "--g6", "D?{"],
        ["--family", "evensub-k4", "--counts", "2,0,0,0,0,0", "--file", "-"],
    ],
    ids=["cycle-g6", "clique-file", "bipartite-pm-g6", "evensub-k4-stdin"],
)
def test_construct_rejects_graph_flags_it_does_not_use(capsys, argv):
    code, out, err = run(capsys, "construct", *argv)
    family = argv[1]
    assert (code, out) == (1, "")
    assert err == f"error: family {family} takes no base graph: drop --g6/--file\n"


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--family", "cycle", "--n", "5", "--other-g6", "D?{"], "--other-g6"),
        (["--family", "cone", "--g6", "D?{", "--n", "9", "--counts", "1,2"], "--n"),
        (["--family", "clique", "--n", "4", "--seed", "0"], "--seed"),
        (["--family", "bipartite-pm", "--m", "3", "--count", "1"], "--count"),
        (["--family", "isolift", "--g6", "D?{", "--extra-edges", "2"], "--extra-edges"),
        (["--family", "evensub-k4", "--counts", "2,0,0,0,0,0", "--m", "3"], "--m"),
    ],
    ids=["cycle-other-g6", "cone-n-counts", "clique-seed", "bipartite-count", "isolift-extra", "evensub-m"],
)
def test_construct_rejects_flags_its_family_does_not_read(capsys, argv, flag):
    code, out, err = run(capsys, "construct", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: family {argv[1]} does not read {flag}\n"


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--family", "clique"], "--n"),
        (["--family", "bipartite-pm", "--seed", "3"], "--m"),
        (["--family", "union", "--g6", "D?{"], "--other-g6"),
        (["--family", "evensub-k4"], "--counts"),
    ],
    ids=["clique", "bipartite-pm", "union", "evensub-k4"],
)
def test_construct_requires_the_flags_its_family_reads(capsys, argv, flag):
    code, out, err = run(capsys, "construct", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} is required for family {argv[1]}\n"


@pytest.mark.parametrize(
    "argv,echo",
    [
        (["--family", "cycle", "--n", "5"], {"family": "cycle", "n": 5}),
        (
            ["--family", "bipartite-pm", "--m", "4"],
            {"family": "bipartite-pm", "m": 4, "extra_edges": 0, "seed": 0},
        ),
        (["--family", "isolift", "--g6", "D?{"], {"family": "isolift", "count": 1, "g6": "D?{"}),
        (
            ["--family", "union", "--other-g6", "A_", "--g6", "D?{"],
            {"family": "union", "g6": "D?{", "other_g6": "A_"},
        ),
        (["--family", "cone", "--file", "-"], {"family": "cone", "file": "-"}),
    ],
    ids=["cycle", "bipartite-pm-defaults", "isolift-default", "union", "cone-stdin"],
)
def test_construct_echoes_the_flags_its_family_read(capsys, monkeypatch, argv, echo):
    monkeypatch.setattr("sys.stdin", io.StringIO("D?{\n"))
    code, out, _ = run(capsys, "construct", *argv)
    assert code == 0
    args = last_report(out)["input"]["args"]
    assert args == echo and list(args) == list(echo)


def test_bipartite_pm_checks_m_before_drawing_extra_edges(capsys):
    code, out, err = run(capsys, "construct", "--family", "bipartite-pm", "--m", "33")
    assert (code, out) == (1, "") and err.startswith("error:")
    build_parser()  # built outside the measured call
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "construct", "--family", "bipartite-pm", "--m", "500")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "") and err.startswith("error:")
    assert peak < 1 << 20


@pytest.mark.parametrize("extra", ["100", "7", "-5", "-1"])
def test_bipartite_pm_rejects_extra_edges_out_of_range(capsys, extra):
    # m = 3 has 3 * 2 = 6 cross pairs off the matching
    argv = ("construct", "--family", "bipartite-pm", "--m", "3", "--extra-edges", extra)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: --extra-edges must be in 0..6 for --m 3, got {extra}\n"
    code, out, _ = run(capsys, *argv[:-1], "6")
    assert code == 0 and last_report(out)["result"]["g6"] == write_graph6(
        from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    )


@pytest.mark.parametrize("counts", ["a,b", "0,0,0,0,0,x", "2;0", ""])
def test_evensub_k4_rejects_non_integer_counts(capsys, counts):
    argv = ("construct", "--family", "evensub-k4", "--counts", counts)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: --counts expects comma-separated integers, got {counts!r}\n"
    code, out, _ = run(capsys, *argv[:-1], "0,0,0,0,0,2")
    assert code == 0
    assert last_report(out)["result"]["g6"] == write_graph6(even_subdivision_k4((0, 0, 0, 0, 0, 2)))


def test_construct_output_feeds_analysis(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "--family", "clique", "--n", "4")
    assert code == 0
    blob = tmp_path / "report.json"
    blob.write_text(out.strip().splitlines()[-1] + "\n")
    code, out, _ = run(capsys, "alpha", "--file", str(blob))
    assert code == 0
    assert last_report(out)["result"]["alpha"] == 1


@pytest.mark.parametrize(
    "text",
    ['{"result": {"g6": 5}}', '{"g6": null}', '{"result": {"g6": "~~"}}', '{"result": 5}'],
    ids=["int", "null", "long-form", "result-int"],
)
def test_bad_g6_field_exits_one(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
    code, out, err = run(capsys, "alpha", "--file", "-")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_shell_pipe_roundtrip():
    pipe = subprocess.run(
        f"{sys.executable} -m stabilitylab construct --family cycle --n 9 | "
        f"{sys.executable} -m stabilitylab alpha --file -",
        shell=True,
        capture_output=True,
        text=True,
    )
    assert pipe.returncode == 0
    rep = json.loads(pipe.stdout.strip().splitlines()[-1])
    validate_report(rep)
    assert rep["result"]["alpha"] == 4


def test_enumerate_subcommand(capsys, tmp_path):
    atlas = tmp_path / "t20.jsonl"
    code, out, _ = run(
        capsys, "enumerate", "--n", "5", "--tight", "2,0", "--atlas", str(atlas)
    )
    assert code == 0
    rep = last_report(out)
    assert rep["result"]["emitted"] == 1
    assert atlas.read_text().count("\n") == 1


def test_enumerate_streams_records(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--tight", "3,0")
    assert code == 0
    lines = out.strip().splitlines()
    record = json.loads(lines[0])
    assert set(record) == {"g6", "n", "alpha", "flags", "provenance"}
    last_report(out)


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "T1c", "--n", "5", "--n", "7")
    assert code == 0
    rep = last_report(out)
    assert rep["result"]["verdict"] == "verified"
    assert len(rep["result"]["matches"]) == 2


def test_verify_repeated_size_exits_one(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "T1c", "--n", "5", "--n", "5")
    assert (code, out) == (1, "") and err == "error: size 5 is given twice\n"


@pytest.mark.parametrize("kl", ["1,1", "0,0", "2,-1", "1", "1,2,3", "1,x"])
@pytest.mark.parametrize("kind", ["--stable", "--tight"])
def test_enumerate_rejects_malformed_stability_filter(capsys, kind, kl):
    code, out, err = run(capsys, "enumerate", "--n", "5", kind, kl)
    assert (code, out) == (1, "") and err.startswith("error:")
    assert kind[2:] in err  # the message names the filter


@pytest.mark.parametrize("flag,value", [("--min-degree", "-1"), ("--alpha", "0")])
def test_enumerate_rejects_out_of_range_filter(capsys, flag, value):
    code, out, err = run(capsys, "enumerate", "--n", "3", flag, value)
    assert (code, out) == (1, "") and err.startswith(f"error: {flag[2:].replace('-', '_')} needs")


def test_enumerate_accepts_negative_defect(capsys):
    # n - 2 alpha < 0 whenever alpha > n/2: the path and K2+K1 on 3 vertices
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--defect", "-1")
    assert code == 0 and '"emitted":2' in out.strip().splitlines()[-1]


def test_verify_n_max_caps_explicit_sizes(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "T1c", "--n", "7", "--n-max", "7")
    assert code == 0
    assert last_report(out)["result"]["parameter_range"]["n_values"] == [7]


def test_verify_n_max_caps_cor_default(capsys):
    # COR defaults to n = 10; a cap of 7 leaves no size
    code, out, err = run(capsys, "verify", "--theorem", "COR", "--n-max", "7")
    assert code == 1 and out == "" and err.startswith("error:") and "[10]" in err


def test_verify_k_outside_cor_exits_one(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "T1c", "--n", "5", "--k", "7")
    assert code == 1 and out == "" and err.startswith("error:") and "COR" in err


def test_verify_n_max_leaving_no_size_exits_one(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "T1c", "--n", "7", "--n-max", "5")
    assert code == 1 and out == "" and err.startswith("error:")


def test_verify_atlas_output(capsys, tmp_path):
    from stabilitylab.enumeration import atlas_read

    atlas = tmp_path / "sur5.jsonl"
    code, out, _ = run(
        capsys, "verify", "--theorem", "SUR", "--n", "5", "--atlas", str(atlas)
    )
    assert code == 0
    records = atlas_read(atlas)
    assert len(records) == 1 and records[0].n == 5


def test_verify_counterexample_exit(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "COR", "--n", "4")
    assert code == 2
    assert "counterexample" in err
    assert last_report(out)["result"]["verdict"] == "refuted"


def test_verify_prune_flag_turns_the_prune_on_and_off(capsys):
    # T1d's pipeline leaves the prune off; both flags reach verify_theorem
    reports = {}
    for flag in ("--prune", "--no-prune"):
        code, out, _ = run(capsys, "verify", "--theorem", "T1d", "--n", "8", flag)
        assert code == 0
        reports[flag] = last_report(out)["result"]
    assert reports["--prune"]["parameter_range"]["prune"] is True
    assert reports["--no-prune"]["parameter_range"]["prune"] is False
    assert reports["--prune"]["matches"] == reports["--no-prune"]["matches"]
    assert reports["--prune"]["verdict"] == "verified"


def test_verify_prune_without_a_tight_filter_exits_one(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "L21", "--n", "5", "--prune")
    assert (code, out) == (1, "")
    assert err == "error: the hereditary prune requires a tight (k,0) filter\n"


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit):  # argparse --version passthrough still exits
        main(["--version"])
    code, _, err = run(capsys, "alpha")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "verify", "--theorem", "nope")
    assert code == 1


def test_bad_jobs_environment_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("STABILITYLAB_JOBS", "abc")
    code, out, err = run(capsys, "alpha", "--g6", "Dhc")
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_non_positive_jobs_exit_one(capsys, jobs):
    code, out, err = run(capsys, "verify", "--theorem", "T1c", "--n", "5", "--jobs", jobs)
    assert code == 1 and out == "" and "error:" in err


def test_parser_built_once_and_jobs_environment_read_per_call(capsys, monkeypatch):
    build_parser.cache_clear()
    seen_jobs = []
    real_verify = cli.verify_theorem

    def spy(*args, **kwargs):
        seen_jobs.append(kwargs["jobs"])
        return real_verify(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_theorem", spy)
    monkeypatch.delenv("STABILITYLAB_JOBS", raising=False)
    # on a machine with two CPUs, two jobs run L21 at n=7 through the pool
    verify = ("verify", "--theorem", "L21", "--n", "7")
    code, serial_out, _ = run(capsys, *verify)
    assert code == 0
    monkeypatch.setenv("STABILITYLAB_JOBS", "abc")
    code, out, err = run(capsys, "alpha", "--g6", "Dhc")
    assert code == 1 and out == "" and err.startswith("error:")
    monkeypatch.setenv("STABILITYLAB_JOBS", "2")
    assert run(capsys, *verify) == (0, serial_out, "")
    assert run(capsys, *verify, "--jobs", "1") == (0, serial_out, "")
    assert seen_jobs == [1, 2, 1]
    assert build_parser.cache_info().misses == 1
