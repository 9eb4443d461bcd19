"""Short-form graph6 encoding and decoding.

Layout: one header byte ``n + 63`` (so ``n <= 62``), then the upper triangle
of the adjacency matrix read column by column, packed six bits per character
with each 6-bit group offset by 63.  Trailing pad bits must be zero.  Both
directions go through one integer bit field holding that stream lowest bit
first: pair i < j at bit j(j-1)/2 + i, so column j is row j's bits below j,
and each character is one six-bit group of the field through a table.
"""

from __future__ import annotations

from .graphs import Graph

_MAX_G6 = 62


#: ``_CHARS[g]`` is the character of the six bits ``g`` holds lowest first,
#: the first of them its highest bit
_CHARS = tuple(chr(63 + int(f"{g:06b}"[::-1], 2)) for g in range(64))
_GROUPS = {ch: g for g, ch in enumerate(_CHARS)}


def encode_rows(adj: tuple[int, ...], n: int) -> str:
    """The graph6 string of the adjacency rows ``adj`` on ``n`` vertices,
    with no ``Graph`` built: the one encoder, which ``write_graph6`` calls.
    The bit field, read lowest bit first, is column j's bits i < j of row j
    at offset j(j-1)/2, one six-bit group per character."""
    if n > _MAX_G6:
        raise ValueError(f"graph6 short form cannot encode {n} > {_MAX_G6} vertices")
    field = offset = 0
    for j in range(1, n):
        field |= (adj[j] & ((1 << j) - 1)) << offset
        offset += j
    return chr(n + 63) + "".join([_CHARS[field >> s & 63] for s in range(0, offset, 6)])


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
    field = 0
    for shift, ch in zip(range(0, 6 * need, 6), body):
        group = _GROUPS.get(ch)
        if group is None:
            raise ValueError(f"graph6 character {ch!r} out of range")
        field |= group << shift
    if field >> n * (n - 1) // 2:
        raise ValueError("nonzero padding bits in graph6 string")
    adj = [0] * n
    offset = 0
    for j in range(1, n):
        column = field >> offset & ((1 << j) - 1)
        offset += j
        adj[j] |= column
        while column:
            low = column & -column
            adj[low.bit_length() - 1] |= 1 << j
            column ^= low
    return Graph(n, tuple(adj))
