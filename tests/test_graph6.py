import random

import pytest
from hypothesis import given

from helpers import graphs_st, random_graph, reference_encode_rows, reference_parse_graph6
from stabilitylab.canonical import is_isomorphic
from stabilitylab.enumeration import enumerate_canonical
from stabilitylab.graph6 import parse_graph6, write_graph6
from stabilitylab.graphs import Graph, from_edges


# hand-encoded fixtures: header byte is n+63; bits are the upper triangle
# column by column, padded with zeros to a multiple of six
def test_k2_roundtrip():
    g = parse_graph6("A_")  # n=2 -> 'A'; single bit 1 -> 100000 -> '_'
    assert g.n == 2 and g.edges() == ((0, 1),)
    assert write_graph6(g) == "A_"


def test_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.edge_count == 0
    assert write_graph6(g) == "@"


def test_p3():
    g = parse_graph6("Bg")  # bits (0,1)(0,2)(1,2) = 101 -> 101000 -> 'g'
    assert g.edges() == ((0, 1), (1, 2))
    assert write_graph6(from_edges(3, [(0, 1), (1, 2)])) == "Bg"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "~??",  # long form
        "B",  # truncated bit field
        "Bgg",  # trailing garbage
        "B\x1f",  # header ok, body char out of range
        chr(62) + "g",  # header below range
        "Bh",  # nonzero padding bits for n=3 (101001)
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_graph6(text)


def test_write_rejects_oversized():
    with pytest.raises(ValueError):
        write_graph6(Graph(63, (0,) * 63))


@given(graphs_st(max_n=12))
def test_roundtrip_preserves_labels(g):
    assert parse_graph6(write_graph6(g)).adj == g.adj


def test_roundtrip_on_enumerated_stream():
    for n in range(1, 8):
        for g in enumerate_canonical(n):
            back = parse_graph6(write_graph6(g))
            assert back.adj == g.adj
            assert is_isomorphic(back, g)


def test_roundtrip_sampled_at_nine():
    stream = list(enumerate_canonical(9))
    for g in stream[::1000]:
        assert parse_graph6(write_graph6(g)).adj == g.adj


def test_codec_equals_bitwise_reference():
    # on 1..62 vertices, from empty to complete, the one-field encoder
    # writes the bit-by-bit reference's string, and both parsers read it
    # back to the same rows
    rng = random.Random(62)
    for n in range(1, 63):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            g = random_graph(rng, n, p)
            text = write_graph6(g)
            assert text == reference_encode_rows(g.adj, n), (n, p)
            assert parse_graph6(text).adj == reference_parse_graph6(text).adj == g.adj


def _message(parse, text) -> str:
    with pytest.raises(ValueError) as info:
        parse(text)
    return str(info.value)


def _malformed(rng) -> list:
    """Inputs that every check of the parser rejects, in turn: no string,
    bad headers, bit fields of the wrong length, characters out of range
    (two in one body, to name the first) and nonzero padding bits."""
    texts = [None, 5, "", "  ", "~??", "?", chr(62) + "g", chr(127), "\x80", "Bh", "B\x1f", "B\x7f"]
    for n in range(2, 63):
        m = n * (n - 1) // 2
        good = write_graph6(random_graph(rng, n))
        texts += [good[:-1], good + "?", good + "~"]
        at = rng.randrange(1, len(good))
        texts.append(good[:at] + rng.choice(" >\x7f\u00e9") + good[at + 1 :])
        texts.append(good[:at] + "\x7f" + good[at + 1 :-1] + chr(62))  # two out of range
        if m % 6:  # set the lowest padding bit of the last character
            last = ord(good[-1]) - 63 | 1
            texts.append(good[:-1] + chr(last + 63))
            texts.append(good[:-1] + "\x7f")  # out of range before padding
    return texts


def test_parse_errors_equal_the_reference():
    # every malformed input raises the bitwise reference's message, so the
    # checks run in the reference's order
    texts = _malformed(random.Random(6))
    assert any("padding" in _message(reference_parse_graph6, t) for t in texts)
    for text in texts:
        assert _message(parse_graph6, text) == _message(reference_parse_graph6, text), repr(text)
