"""Output bytes pinned by sha256.

Refactors of the generation, scan, filter, record and certificate code must
leave what users see unchanged: the ``enumerate`` record stream (unfiltered
up to n = 8, all 12,346 classes in emitted order), atlas files, and every
``verify`` report and atlas at n <= 7, and the codes of level 9 in the
order generation returns them.  Each CLI case pins the exit code, the digest
of standard output (the atlas path replaced by ``ATLAS``) and the digest of
the atlas file.  A digest changes only with an intended change of
output; regenerate it then, and say so in the change log.
"""

import hashlib

import pytest

from stabilitylab.cli import main
from stabilitylab.enumeration import _cached_level

#: verify runs every default size up to 7 (COR, whose default is n=10, runs
#: 4..7); L21 at n=7 is past the serial threshold, so jobs=2 uses the pool and
#: must give the jobs=1 bytes; no even subdivision of the 4-clique has 7
#: vertices, so the defect-2 filter is also pinned at n=6
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
    level = _cached_level(9)
    text = "\n".join(" ".join(map(str, code)) for code in level)
    assert (len(level), _sha(text.encode())) == LEVEL_9
