"""Short-form graph6 encoding and decoding.

Layout: one header byte ``n + 63`` (so ``n <= 62``), then the upper triangle
of the adjacency matrix read column by column, packed six bits per character
with each 6-bit group offset by 63.  Trailing pad bits must be zero.
"""

from __future__ import annotations

from .graphs import Graph

_MAX_G6 = 62


def encode_rows(adj: tuple[int, ...], n: int) -> str:
    """The graph6 string of the adjacency rows ``adj`` on ``n`` vertices,
    with no ``Graph`` built: the one encoder, which ``write_graph6`` calls."""
    if n > _MAX_G6:
        raise ValueError(f"graph6 short form cannot encode {n} > {_MAX_G6} vertices")
    out = [chr(n + 63)]
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | (adj[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc, nbits = 0, 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def write_graph6(g: Graph) -> str:
    return encode_rows(g.adj, g.n)


def parse_graph6(text: str) -> Graph:
    if not isinstance(text, str):
        raise ValueError(f"graph6 input must be a string, not {type(text).__name__}")
    s = text.strip()
    if not s:
        raise ValueError("empty graph6 string")
    head = ord(s[0])
    if head == 126:
        raise ValueError("long-form graph6 (n > 62) is not supported")
    if not 63 <= head <= 125:
        raise ValueError(f"malformed graph6 header byte {head}")
    n = head - 63
    if n == 0:
        raise ValueError("graph6 string encodes an empty vertex set")
    body = s[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 bit field has {len(body)} characters, expected {need}")
    adj = [0] * n
    stream = []
    for ch in body:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise ValueError(f"graph6 character {ch!r} out of range")
        stream.extend((c - 63 >> k & 1) for k in range(5, -1, -1))
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if stream[idx]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    if any(stream[idx:]):
        raise ValueError("nonzero padding bits in graph6 string")
    return Graph(n, tuple(adj))
