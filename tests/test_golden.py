"""Output bytes pinned by sha256.

Refactors of the generation, scan, filter, record and certificate code must
leave what users see unchanged: the ``enumerate`` record stream (unfiltered
up to n = 8, all 12,346 classes in emitted order), atlas files, every
``verify`` report and atlas at n <= 7, the pruned scans behind the default
``COR`` report (n = 10) and ``enumerate --prune`` at n = 8, the codes of
level 9 in the order generation returns them, the reports (witnesses
included) of the single-graph commands on a fixed set of graphs, the
tight (1,0) spanning certificates up to n = 8 and the full canonical
labeling (key, order, orbits and generators) of small and symmetric
graphs, each under seeded relabelings.  Each CLI
case pins the exit code, the digest of standard output (the atlas path
replaced by ``ATLAS``) and the digest of the atlas file.  A digest changes
only with an intended change of output; regenerate it then, and say so in
the change log.
"""

import hashlib
import random
from dataclasses import asdict

import pytest

from stabilitylab.canonical import canonical_data
from stabilitylab.catalog import named_graph
from stabilitylab.cli import main
from stabilitylab.enumeration import FilterSpec, _frontier, filtered_records
from stabilitylab.graph6 import parse_graph6
from stabilitylab.graphs import Graph, clique, cycle, disjoint_union, from_edges
from stabilitylab.structure import spanning_certificate

#: verify runs every default size up to 7 (COR also runs 4..7 besides its
#: pruned default n=10, whose atlas is empty); L21 with jobs=2 scans every
#: size through the pool wherever two CPUs are present, and must give the
#: jobs=1 bytes; no even subdivision of the 4-clique has 7 vertices, so the
#: defect-2 filter is also pinned at n=6; the pruned enumerate chains T(1,6)
#: and T(2,7) into n=8
CASES = {
    "enumerate --n 8": (
        ["enumerate", "--n", "8"],
        False,
        (0,
         "330bdf62ea1de3c6cbc3c7106b815a3109a7ab29ff80151522e31d962f6bb99f",
         None),
    ),
    "enumerate --n 7": (
        ["enumerate", "--n", "7"],
        False,
        (0,
         "0b47be4e96aaf36072942eca96edacd0eba355b01b3981ade677e43ef7199875",
         None),
    ),
    "enumerate --n 7 --tight 2,0": (
        ["enumerate", "--n", "7", "--tight", "2,0"],
        True,
        (0,
         "ab5b6fb274e545e7b6f4e9f4dc88400f3ceff198c52e4ab218c20750fe76416d",
         "7d3af6667aa6d2f03bf3edadc53635a4be70b13333f6a8a9a95bb462c3124a66"),
    ),
    "enumerate --n 7 --stable 1,0": (
        ["enumerate", "--n", "7", "--stable", "1,0"],
        True,
        (0,
         "ef81847f185d627a08d74138f557b4e09e62c8a2230bb063b242e8803e48d7eb",
         "2f2a48329358549f5d8c8d652f4fa29b645d9b843379d51a39ffa7bbc5cde8c5"),
    ),
    "enumerate --n 7 --connected --defect 2 --alpha-critical": (
        ["enumerate", "--n", "7", "--connected", "--defect", "2", "--alpha-critical"],
        True,
        (0,
         "6f77fb79532c0a1f25eafbb4f2714410b412d4c193708c9e852c6feeddedb8a6",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ),
    "enumerate --n 6 --connected --defect 2 --alpha-critical": (
        ["enumerate", "--n", "6", "--connected", "--defect", "2", "--alpha-critical"],
        True,
        (0,
         "751bf0cc3f9e2054323037e109953b73e553e3aef9f687945c67aacaab205bc8",
         "a561b17801cd6afd7184ff62261d2b4cd2a997401c078d425a8ddbb530a0807c"),
    ),
    "verify --theorem L21 --jobs 2": (
        ["verify", "--theorem", "L21", "--n-max", "7", "--jobs", "2"],
        True,
        (0,
         "782e5272cf4ec499c409478a2500cb2666b349f1b71be1a57d9b2a62f560b92c",
         "3801ec4573d05833c82a76b46ecb999e53aa00140e6fef3d3b3e6430b08e5268"),
    ),
    "verify --theorem T1a": (
        ["verify", "--theorem", "T1a", "--n-max", "7"],
        True,
        (0,
         "3c7f0bf8b5dd7d2749a9672bedf71ac37dd40a51e28fc1267516164b26dba38e",
         "48417b988df711199c831dda3eb1b323c4fe5a470e40efd6de68224a6d1c8f04"),
    ),
    "verify --theorem T1b": (
        ["verify", "--theorem", "T1b", "--n-max", "7"],
        True,
        (0,
         "3b1b65af81d6e94538362bc6778ef6fec5db352d8655d9c121e6268c22848350",
         "f1387826d6d84987a5384e835fc848db72d218ea30a6c799187239b654e5349b"),
    ),
    "verify --theorem T1c": (
        ["verify", "--theorem", "T1c", "--n-max", "7"],
        True,
        (0,
         "fed83dcf3fd217af4bb269c62723e34c47ffa8b8c6562cb5e66ba1ac2cdf112a",
         "05080b0a82c215e2e8155f22e767adfd03afef00ac0cd743743e807f42275639"),
    ),
    "verify --theorem T1d": (
        ["verify", "--theorem", "T1d", "--n-max", "7"],
        True,
        (0,
         "0c9a178b4d2952fa52b4439c36096bdb5011d91d458f10e6ead35c83130c8bcc",
         "311bc632e762f16d66c6caa100321d52111456c096e1f2723e4d81e5601a8236"),
    ),
    "verify --theorem T2": (
        ["verify", "--theorem", "T2", "--n-max", "7"],
        True,
        (0,
         "c0d57fa68a6699c67a99a3f4d50841055725346307125128e8a17d1687ae5876",
         "781f06bf43db1efbd9fd7e5f6382c432e35b271fa99a7d83370a8b47731a373f"),
    ),
    "verify --theorem COR": (
        ["verify", "--theorem", "COR", "--n", "4", "--n", "5", "--n", "6", "--n", "7"],
        True,
        (2,
         "467c2cc1555fe61bbc0dfce1d82e11b823dd88b0adec8a0c1356803cbd57c9b0",
         "d1ea66b244358b3d8bcbe9a1865b8a973c4add098b5bf506cabacfc115e05d30"),
    ),
    "verify --theorem COR, default n=10, pruned": (
        ["verify", "--theorem", "COR"],
        True,
        (0,
         "ecd553b3b924f82d1a3f3bf060cda41ea97ddb78df600b94e37c66fd4240de80",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ),
    "enumerate --n 8 --tight 3,0 --prune": (
        ["enumerate", "--n", "8", "--tight", "3,0", "--prune"],
        True,
        (0,
         "3ccc0604a67ee55a9f86d2e5ed112b34d4297b2db897f5d3bd50581e5a088a45",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ),
    "verify --theorem L21": (
        ["verify", "--theorem", "L21", "--n-max", "7"],
        True,
        (0,
         "782e5272cf4ec499c409478a2500cb2666b349f1b71be1a57d9b2a62f560b92c",
         "3801ec4573d05833c82a76b46ecb999e53aa00140e6fef3d3b3e6430b08e5268"),
    ),
    "verify --theorem AND": (
        ["verify", "--theorem", "AND", "--n-max", "7"],
        True,
        (0,
         "aa880c3eb9a97c58fabb6de85e468f084655f2b27af714c226a5ce068de67244",
         "6801063e99aeb54ae96cb62815c9b099d5e095f72402c3345fae2ab8a0b6c8db"),
    ),
    "verify --theorem SUR": (
        ["verify", "--theorem", "SUR", "--n-max", "7"],
        True,
        (0,
         "36ca01ddb9877fb3e54152908b01bb59994494dfa24c437fc27c95a015c214bf",
         "89b93da1a62cde94456b3573ba9339221fd4ea280f64b1a5cde95303ae56f205"),
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv, with_atlas, tmp_path, capsys):
    """(exit code, stdout digest, atlas digest or None) of one CLI call."""
    atlas = tmp_path / "atlas.jsonl"
    capsys.readouterr()
    code = main([*argv, "--atlas", str(atlas)] if with_atlas else list(argv))
    out = capsys.readouterr().out.replace(str(atlas), "ATLAS")
    return code, _sha(out.encode()), _sha(atlas.read_bytes()) if with_atlas else None


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_unchanged(name, tmp_path, capsys):
    argv, with_atlas, pinned = CASES[name]
    assert run_case(argv, with_atlas, tmp_path, capsys) == pinned


#: sha256 of level 9, one code per line, its rows as decimal integers
#: separated by single spaces, lines joined by newlines
LEVEL_9 = (274668, "fa22f5e92f967b73ae654bfaf294c9fd6a158dde193ccfc3c7daea30f9c3d030")


def test_level_nine_codes_unchanged():
    level = _frontier(9)
    text = "\n".join(" ".join(map(str, code)) for code in level)
    assert (len(level), _sha(text.encode())) == LEVEL_9


#: single-graph commands run on each graph below, ``--g6`` after the command
#: name; ``classify`` takes the graph's k
SINGLE_GRAPH_COMMANDS = (
    ("alpha",),
    ("check", "--k", "2", "--l", "0", "--tight"),
    ("check", "--k", "3", "--l", "1"),
    ("reduce",),
    ("classify", "--k"),
)

#: graph -> (graph6, classify k, exit codes, sha256 of every command's exit
#: code, a newline and its standard output, in command order).  The witnesses
#: in these reports are user-visible and depend on the alpha search order.
#: The catalog graphs and the cycles keep their library labeling; C7+C9 is
#: ``disjoint_union(cycle(7), cycle(9))``, the subdivision is
#: ``even_subdivision_k4((4, 2, 4, 2, 2, 2))`` and the G(n, p) graphs were
#: drawn from ``random.Random(7)``, one ``random() < p`` per vertex pair in
#: lexicographic order, in the order listed.
SINGLE_GRAPH_CASES = {
    "K4": ("C~", "3", (0, 0, 0, 0, 0),
           "2ca9e03a5b3e675d724d1efc2c01d565404558d0ce81f1f51d7da99c7f338be7"),
    "K5": ("D~{", "3", (0, 2, 0, 0, 0),
           "007b1ce2121020e3ac424e4853582f81ccbf419ed9fbe7dfb73658ba80d42623"),
    "H7": ("FqhPw", "3", (0, 2, 0, 0, 0),
           "f217dc706f8fd4ba19b49e8f7c135c414c99e6ddf90cbaf6f1e9378835b097c1"),
    "H9": ("HLr?GSr", "3", (0, 2, 0, 0, 0),
           "d5664ac9f8c94bea15d72fa2d67e9ce2a881c019b1243db51cc7c859c7eeb015"),
    "T9": ("HyciKCp", "3", (0, 2, 0, 0, 0),
           "2398cd384f63edc897f1c190f8bf44ba4b44c8e5715d641bcc407733cad61811"),
    "C19": ("RhCGGC@?G?_@?@??_?G?@??C??K??G", "2", (0, 0, 0, 0, 0),
            "8eadde1d84d0a0840473202c0a864e97cd734d8b45ef164c6877518a64bf46b0"),
    "C21": ("ThCGGC@?G?_@?@??_?G?@??C??G??G??E??@", "2", (0, 0, 0, 0, 0),
            "ea8a61ac06a0e00ab0afd98c90e41226fe348a4ca4dba011acec664f21ba97b5"),
    "C7+C9": ("OhCKG?@?G?_@?@??_?GA@", "2", (0, 0, 0, 0, 0),
              "65ed0f9abdb9462d471e3b8503d07ffddbb21fa78a3035df3cedc000977df462"),
    "even subdivision of K4, n=20": (
        "S?_GIE?GK??@?@C?g?@?@O??O?H???_?C", "2", (0, 0, 0, 0, 0),
        "5ab40637ac531eca0cfaaa2e56821d222332346a0ffc285f883efac7d2c498e2"),
    "G(16, 0.3)": ("OW_GdT`gQCyfouCc?OV??", "2", (0, 2, 0, 0, 1),
                   "9f6f9a93130d2be27027c328b60068b190d631d76604723031bf7b65d6f65e8c"),
    "G(20, 0.25)": ("SDQKsYISF_oI_A_CGXFS@@?[C@EJ???Ao", "2", (0, 2, 0, 0, 1),
                    "c8ff22489b8a2980ded01ffd97fac8174a4c4f5081f85ca2ae319b2001408856"),
    "G(24, 0.2)": (
        "WCOOCSWYK?aCIOzEK@G????B?CO@@?KWC?G?z?_?CJP[gH?", "2", (0, 2, 0, 0, 1),
        "e28a0f2b6eaad6beca13a87615a8b97aabc52581ce37a74372d1e666470dbc5c"),
    "G(30, 0.15)": (
        "]O___kH?O?grH?D@G?O??????@GCi_?c??CA???HAAo_??B`?G_C__DWCB?AA?COg??C?A?A@?",
        "2", (0, 2, 0, 0, 1),
        "072f9d7addfc25703c5ec9c9c65e79a3e0723b1b201f7536375f7c686e12b785"),
}


@pytest.mark.parametrize("name", list(SINGLE_GRAPH_CASES))
def test_single_graph_output_unchanged(name, capsys):
    g6, k, codes, digest = SINGLE_GRAPH_CASES[name]
    got_codes, h = [], hashlib.sha256()
    for command in SINGLE_GRAPH_COMMANDS:
        args = [*command, k] if command[0] == "classify" else list(command)
        capsys.readouterr()
        code = main([args[0], "--g6", g6, *args[1:]])
        got_codes.append(code)
        h.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert (tuple(got_codes), h.hexdigest()) == (codes, digest)


def _relabelings(g: Graph, rng: random.Random, count: int) -> list[Graph]:
    """``g`` followed by ``count`` relabelings drawn from ``rng``."""
    out = [g]
    for _ in range(count):
        perm = rng.sample(range(g.n), g.n)
        out.append(from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    return out


#: (certificates, sha256 of ``asdict(spanning_certificate(g, 1))`` per line)
#: over every tight (1,0) class on 2..8 vertices, each followed by three
#: relabelings drawn from ``random.Random(10)``; both kinds are read off
#: the cycle cover of one matching search on the bipartite double cover
TIGHT_10_CERTIFICATES = (
    1228, "0ddccdc02ce9f1ef43a5b64cd1a7e6322a15721868a88c9c7cbda883ec12b7c5")


def test_tight_10_certificates_unchanged():
    rng = random.Random(10)
    h, count = hashlib.sha256(), 0
    for n in range(2, 9):
        for rec in filtered_records(n, FilterSpec(tight=(1, 0)))[1]:
            for g in _relabelings(parse_graph6(rec.g6), rng, 3):
                h.update(f"{asdict(spanning_certificate(g, 1))}\n".encode())
                count += 1
    assert (count, h.hexdigest()) == TIGHT_10_CERTIFICATES


def _circulant(n: int, jumps) -> Graph:
    return from_edges(n, [(i, (i + j) % n) for i in range(n) for j in jumps])


def _cube(d: int) -> Graph:
    return from_edges(1 << d, [(v, v ^ 1 << i) for v in range(1 << d) for i in range(d)])


#: symmetric graphs whose searches find many automorphisms
SYMMETRIC = (
    [cycle(n) for n in range(3, 13)]
    + [clique(n) for n in range(1, 9)]
    + [_circulant(n, (1, j)) for n in range(7, 13) for j in (2, 3)]
    + [
        from_edges(
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
            + [(i, 5 + i) for i in range(5)],
        ),  # Petersen
        _cube(3),
        _cube(4),
    ]
    + [disjoint_union(cycle(a), cycle(b)) for a, b in ((3, 3), (3, 5), (4, 4), (5, 7))]
    + [named_graph(name) for name in ("K4", "K5", "H7", "H9", "T9")]
)

#: (labelings, sha256 of ``canonical_data``'s key, order, orbit and
#: generators per line) over every class on 1..6 vertices with one
#: relabeling each, then ``SYMMETRIC`` with two, drawn from ``random.Random(10)``
CANONICAL_DATA = (
    542, "4088ecacf7d8a0604417f54d79ba17234e51ca326ddcbc9bf50554ab5d0af870")


def test_canonical_data_unchanged():
    rng = random.Random(10)
    h, count = hashlib.sha256(), 0
    classes = [Graph(n, code) for n in range(1, 7) for code in _frontier(n)]
    for graphs, copies in ((classes, 1), (SYMMETRIC, 2)):
        for g in graphs:
            for v in _relabelings(g, rng, copies):
                d = canonical_data(v.adj)
                h.update(f"{d.key} {d.order} {d.orbit} {d.generators}\n".encode())
                count += 1
    assert (count, h.hexdigest()) == CANONICAL_DATA
