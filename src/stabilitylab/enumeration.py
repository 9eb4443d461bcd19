"""Canonical generation of all non-isomorphic graphs and the verification pipelines.

Generation is vertex-by-vertex canonical augmentation: a parent on n-1
vertices is extended by one new vertex z attached to every subset of the
parent (one representative per orbit of the parent's automorphism group),
and the child survives iff z lies in the child's canonical deletion orbit.
The canonical deletion vertex always sits in the last cell of the equitable
partition, and refinement from degree ranks only splits cells in place, so
that cell lies inside the last cell of every earlier refinement round.  The
gate runs these tests in order, each exact, and stops at the first that
decides.  Steps 1-5 read only the parent and the attachment mask S and run
on each mask before the orbit walk; steps 6-8 run on a built child:

1. z must have the largest degree: |S| >= max degree + [S meets one];
2. z alone of largest degree: accept.  The others of degree |S| are
   ``S & D[|S|-1] | D[|S|] & ~S``, D[d] holding the parent's vertices of
   degree d;
3. the second refinement round, on that cell only: another vertex with a
   larger sorted list of neighbour degrees rejects, a list of z's larger
   than all others accepts, and only ties go on;
4. every tied vertex v a twin of z, ``(S ^ N(v)) & ~v == 0``: accept;
5. round three on z and its ties: a tie with a larger sorted list of
   neighbours' round-two colours rejects, none but twins with z's accepts;
6. the equitable partition, refined from step 5's round-two colours on
   neighbour lists extended from the parent's: z outside its last cell rejects;
7. the last cell's other vertices: none, or all proved to be in z's orbit
   by :func:`~stabilitylab.canonical.shares_orbit`, accepts, since the
   canonical deletion vertex is one of them;
8. the full canonical labeling decides the rest.

Step 3 sorts no list.  It compares weights: a vertex's weight is the sum of
``(n+1) ** (n - deg u)`` over its neighbours u.  Read in base n+1, digit
n-d of the weight counts the neighbours of degree d, and no digit reaches
n+1.  The vertices compared share one degree, so their lists have one
length.  At the first place where two such ascending lists differ, the
smaller list has the smaller entry d; both lists agree on the entries below
d, and only the smaller one has another d.  So it has the larger digit
n-d, and every higher digit is equal.  A larger weight is therefore a
smaller list, and equal weights are equal lists.  One table per parent,
``out_w[m]``, sums ``(n+1) ** (n - deg u)`` over u in m, and n+1 divides
each entry, parent degrees being at most n-2.  Weights are compared times
n+1: a vertex of S gains one degree, so z weighs ``out_w[S]`` and v weighs
``out_w[N(v) & S] + (n+1) * out_w[N(v) & ~S]``, plus ``(n+1) ** (n+1-|S|)``
for z when v is in S.

Step 5 reads a vertex's round-two colour as ``deg * (n+1) ** (n+2) -
weight``, with child degrees: scaled weights stay below ``(n+1) ** (n+2)``,
so these ints order as the round-two ranks, equal ints being equal colours,
and sorted lists of them compare as the third round's lists of ranks.
``refine_colors`` reads only the order of its colours, so step 6 starts
from a tie's ints and ends where degree ranks end, one round sooner.  The
last equitable cell lies inside the last cell of every round, so a reject
of step 5 is exact, and the accepts of steps 4 and 5 too, since swapping z
with a twin is an automorphism.  An automorphism of the parent, z fixed,
maps the child of S onto the child of its image, so steps 1-5 decide an
orbit's masks alike: only the least mask of an orbit is gated, and the walk
closes the orbit, kept or not.  Once per parent size, masks are bucketed by
popcount and a table holds each mask's new-vertex bits for the child rows.
Orbits are closed through one image table per generator of the parent's
group from ``automorphism_generators``, which reads twin cells without the
search (see :mod:`~stabilitylab.canonical`).

Every frontier a scan reads is built once per process by :func:`_frontier`
and kept in ``_FRONTIERS``: the levels up to 9 vertices, as the tuples of
adjacency-row codes that ``extend_level`` returns, checked against the known
class counts, with the index of each class's canonical parent in the level
below, and the prune's tight (k,0) frontiers T(k, n).  Scans and level
builds read ``(entry read, code, alpha entry)`` items through ``_items``: a
cached level as it is, the next level, level 10 and pruned scans with k > 1
as children of a frontier at n-1.

Every frontier carries an alpha entry per class, ``witness | alpha << n``
in 16 bits, set once from the canonical parent's by :func:`_child_alpha`
as the frontier is built (a T(k, n)'s by the scan that finds it); children
of a frontier get theirs as they are generated, and no scan writes one.
A cached level also keeps each class's alpha alone, one byte per class,
and beside it one ``bytearray`` per k < n is its drop table.  A drop
entry, one byte, bounds drop_k, the largest fall of alpha over the removals
of k vertices; a graph is (k,l)-stable when drop_k <= l.  A stable
or tight test on a cached class reads the entry and, when it leaves the
verdict open, tries the canonical parent (:func:`_within`); only what stays
open is scanned by ``stable_fast``, and every verdict narrows the entry, so
each is found at most once per process.  Pool workers share no memory with
this process: a pool gets only the frontiers its scan reads, and each pooled
chunk returns a journal of the entries it narrowed to be merged; a chunk run
in this process narrows the tables themselves.

A filtered scan of a cached level selects its classes before any
per-class test, from three byte tables over the level, each mapped to a
0/1 mask by one ``translate``: the drop table of the filter's first (k,l)
drops the classes whose entry already proves drop_k > l, the pipeline's
verdict table those it knows are no match, and the alpha bytes keep the one
alpha the filter allows (:func:`_alpha_window`: a tight filter's bound, the
required alpha, half of n - defect).  The masks are ANDed as ints and
``compress`` the index range once, so no per-class Python code runs on a
class the tables drop.  A frontier child is tested against that alpha once
it has its own.  The classes left run their tests ordered by cost: the
required minimum degree, Hajnal's degree bound when alpha-critical graphs
are asked for (max degree at most n - 2*alpha + 1, plus one per isolated
vertex, which every alpha-critical graph meets), connectivity, the edge
walk of ``alpha_preserving_edge``, and the (k,l) verdicts last, by
:func:`_within`, which decides, narrows and journals every entry the
selection left.  Only the first (k,l) selects: a class dropped by the
second's entry would skip the ``_within`` call that narrows its first.
The optional hereditary prune for a tight (k,0) filter at size n augments
only the classes of T(k-1, n-1), the matches of the pruned tight (k-1,0)
scan; its base case, k = 1 or n <= 2, is level n whole.  A tight
(k,0)-stable graph minus any vertex is tight (k-1,0)-stable, so each
match's parent is there.

Each match is finished in its scan chunk, in the pool workers when there
are several: the pipeline's check ``(code, n)`` runs on it, and the chunk
returns the codes, their alpha entries and the codes the check rejects.  A
chunk names its pipeline by theorem id, since a check may be a closure,
which cannot be pickled.  On a cached level a pipeline decides each class
once per process: its verdict, one byte per (pipeline, class) in
``_VERDICTS``, keyed by the pipeline's check and n, says whether the check
of a match passed or failed or that the class is no match, and every later
scan reads it: a known match skips the tests, the (k,l) verdicts and the
check, and the selection drops a known non-match.  A pooled chunk journals
the verdicts it finds as ``(n, 0, i, verdict)``, which names no drop table,
and the scan merges them.  Frontier children run every test and check.
``verify_theorem`` encodes each match of a cached level to graph6 once per
process, in ``_GRAPH6``.  Chunks come back in the order of their items, so
a scan returns its matches in level order for every worker count; only the
reports and atlas records sort them, by graph6.
Reports and atlas records are encoded straight from the adjacency rows;
only the certificate builders and the AND and SUR recognizers build a
``Graph``.
"""

from __future__ import annotations

import json
import os
from array import array
from dataclasses import asdict, dataclass
from functools import lru_cache, reduce
from itertools import compress
from multiprocessing import Pool
from operator import and_, or_
from typing import Callable, Iterator, Sequence

from . import __version__, catalog
from .canonical import (
    automorphism_generators,
    canonical_data,
    equitable,
    refine_colors,
    shares_orbit,
)
from .critical import (
    CLASS_NAMED,
    alpha_preserving_edge,
    catalog_match,
    is_even_subdivision_k4,
    named_class,
)
from .errors import InvariantViolation
from .graph6 import encode_rows, parse_graph6
from .graphs import Graph, reachable
from .independence import alpha_mask
from .stability import stability_bound, stable_fast, tight_fast
from .structure import augment_matching, spanning_certificate

Code = tuple[int, ...]

#: OEIS A000088: graphs on n = 1..9 vertices up to isomorphism
CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346, 274668)
_CACHE_MAX_N = len(CLASS_COUNTS)  # levels kept in memory, each checked against its count
MAX_ENUM_N = _CACHE_MAX_N + 1  # the largest size, streamed as children of the last cached level


def _check_size(n: int) -> None:
    """The one size check of generation, scans and ``verify_theorem``."""
    if type(n) is not int or not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"vertex count {n!r} outside 1..{MAX_ENUM_N}")


# -- canonical augmentation --------------------------------------------------


@lru_cache(maxsize=None)
def _popcount_buckets(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``(exactly, above)``: ``exactly[c]`` holds the masks below ``2**m`` of
    popcount c and ``above[c]`` those of popcount greater than c, ascending."""
    exactly: list[list[int]] = [[] for _ in range(m + 1)]
    for s in range(1 << m):
        exactly[s.bit_count()].append(s)
    above = [sorted(s for b in exactly[c + 1 :] for s in b) for c in range(m + 1)]
    return tuple(map(tuple, exactly)), tuple(map(tuple, above))


def _subset_sums(values: Sequence[int]) -> list[int]:
    """``table[s]`` sums ``values[v]`` over the set bits v of ``s < 2**len(values)``,
    built by doubling: the masks with highest bit v are those below ``1 << v``
    plus v, so their sums are the sums already built plus ``values[v]``."""
    table = [0]
    for value in values:
        table += [t + value for t in table]
    return table


def _image_table(sigma: tuple[int, ...]) -> list[int]:
    """``table[s]`` is the image of mask ``s`` under the permutation ``sigma``:
    the subset sum of ``1 << sigma[v]``, whose bits are distinct."""
    return _subset_sums([1 << image for image in sigma])


def _subset_reps(parent: Code, keep: Callable[[int], int]) -> list[tuple[int, int]]:
    """``(S, keep(S))`` for one attachment subset S per orbit of the parent's
    automorphism group, the least of each orbit in ascending order, keeping
    only subsets that give the new vertex the largest degree in the child
    and that ``keep``, run once per orbit and constant on it, maps to nonzero."""
    m = len(parent)
    degs = [row.bit_count() for row in parent]
    top = max(degs)
    hubs = sum(1 << v for v, d in enumerate(degs) if d == top)
    exactly, above = _popcount_buckets(m)
    masks = [s for s in exactly[top] if not s & hubs]
    masks += above[top]
    masks.sort()  # two ascending runs: one merge
    tables = [_image_table(g) for g in automorphism_generators(parent)]
    seen = bytearray(1 << m)
    reps = []
    for s in masks:
        if seen[s]:
            continue
        if verdict := keep(s):
            reps.append((s, verdict))
        stack = [s]
        seen[s] = 1
        while stack:
            x = stack.pop()
            for table in tables:
                y = table[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return reps


@lru_cache(maxsize=None)
def _degree_weights(n: int) -> tuple[int, ...]:
    """``(n + 1) ** (n - d)`` for each degree d of a graph on ``n`` vertices:
    the weight a neighbour of degree d adds in the gate's second round."""
    return tuple((n + 1) ** (n - d) for d in range(n))


#: verdicts of :func:`_mask_gate`; a reject is 0, so ``_subset_reps`` drops it
_REJECT, _ACCEPT, _TIE = 0, 1, 2


def _mask_gate(parent: Code, nlists: list[list[int]]) -> tuple[Callable[[int], int], dict]:
    """Steps 2-5 of the gate on a mask S that passed step 1, from one table
    built once for ``parent`` and its neighbour lists: ``_ACCEPT``,
    ``_REJECT``, or ``_TIE`` when a vertex that is not a twin of z ties with
    z in round three, and beside it a dict of each tie's round-two colours."""
    n = len(parent) + 1
    scale = n + 1
    degs = [row.bit_count() for row in parent]
    weights = _degree_weights(n)
    span = scale ** (n + 2)
    out_w = _subset_sums([weights[d] for d in degs])
    cells = [0] * n
    for v, d in enumerate(degs):
        cells[d] |= 1 << v
    ties: dict[int, list[int]] = {}

    def verdict(s: int) -> int:
        k = s.bit_count()
        top = s & cells[k - 1] | cells[k] & ~s
        zweight = out_w[s]
        tied = []
        while top:
            low = top & -top
            top ^= low
            v = low.bit_length() - 1
            row = parent[v]
            weight = out_w[row & s] + out_w[row & ~s] * scale
            if s & low:
                weight += weights[k - 1]
            if weight < zweight:
                return _REJECT
            if weight == zweight and (s ^ row) & ~low:
                tied.append(v)
        if not tied:
            return _ACCEPT
        # round three: each round-two colour (degree, -weight) as one int, z's last
        color = [
            d * span - out_w[row & s] - out_w[row & ~s] * scale + (s >> v & 1) * (span - weights[k - 1])
            for v, (d, row) in enumerate(zip(degs, parent))
        ]
        color.append(k * span - zweight)
        zsig = sorted(c for v, c in enumerate(color) if s >> v & 1)
        sigs = [sorted(color[u] for u in nlists[v] + [n - 1] * (s >> v & 1)) for v in tied]
        if zsig in sigs:
            ties[s] = color
        return _REJECT if max(sigs) > zsig else _TIE if zsig in sigs else _ACCEPT

    return verdict, ties


@lru_cache(maxsize=None)
def _spread(m: int) -> tuple[tuple[int, ...], ...]:
    """``table[S][v]`` is the bit of the new vertex ``1 << m`` when v is in S, else 0."""
    return tuple(tuple((s >> v & 1) << m for v in range(m)) for s in range(1 << m))


def _child_code(parent: Code, subset: int) -> Code:
    return (*map(or_, parent, _spread(len(parent))[subset]), subset)


def _tie_accepts(child: Code, parent_lists: list[list[int]], subset: int, colors: list[int]) -> bool:
    """Steps 6-8 of the gate on a child that :func:`_mask_gate` left tied,
    refined from its round-two ``colors`` on lists extended from the parent's."""
    z = len(parent_lists)
    nlists = [nb + [z] if subset >> v & 1 else nb for v, nb in enumerate(parent_lists)]
    nlists.append([v for v in range(z) if subset >> v & 1])
    colors = refine_colors(nlists, colors)
    if colors[z] != max(colors):
        return False
    cell = [v for v in range(z) if colors[v] == colors[z]]
    if not cell or shares_orbit(nlists, colors, z, cell):
        return True
    data = canonical_data(child)
    return data.orbit[data.order[z]] == data.orbit[z]


def _canonical_children(parent: Code) -> Iterator[Code]:
    """Children of ``parent`` on one more vertex whose deletion parent it is."""
    parent_lists = equitable(parent)[0]
    gate, ties = _mask_gate(parent, parent_lists)
    for subset, verdict in _subset_reps(parent, gate):
        child = _child_code(parent, subset)
        if verdict == _ACCEPT or _tie_accepts(child, parent_lists, subset, ties[subset]):
            yield child


def extend_level(parents: Sequence[Code], n: int) -> list[Code]:
    """All canonical graphs on ``n`` vertices whose deletion parent is listed;
    every parent must have ``n - 1`` vertices."""
    for parent in parents:
        if len(parent) != n - 1:
            raise ValueError(f"children on {n} vertices need parents on {n - 1}, got {len(parent)}")
    return [child for parent in parents for child in _canonical_children(parent)]


def _child_alpha(parent: Code, packed: int, s: int) -> int:
    """``witness | alpha << n`` of the child p + z on n vertices with
    attachment set ``s``, from p's entry ``packed`` in that form.  A set of
    the child avoids z, so is one of p, or is z plus one of p - s: alpha
    grows exactly when alpha(p - s) >= alpha(p) (the vertex recursion of
    Tarjan & Trojanowski, 1977, at z).  p's witness decides that when it
    misses ``s``, else one threshold query does."""
    m = len(parent)
    full = (1 << m) - 1
    a, wit = packed >> m, packed & full
    if wit & s:
        got, found = alpha_mask(parent, full & ~s, a)
        if got < a:
            return wit | a << (m + 1)
        wit = found
    return wit | 1 << m | (a + 1) << (m + 1)


#: (n, 0) -> (level n, its alpha entries, each class's parent index in
#: level n-1, its drop tables, one alpha byte per class); (n, k) -> (T(k, n),
#: its alpha entries) for k >= 1.  Drop entry i of table k - 1 is
#: ``lo | (15 - hi) << 4`` for known bounds lo <= drop_k <= hi, 0 if none.
_FRONTIERS: dict[tuple[int, int], tuple] = {(1, 0): (((0,),), array("H", [3]), array("I"), [], b"\x01")}


#: verdict bytes of a pipeline on a class of a cached level; 0 is unknown
_PASSES, _FAILS, _NO_MATCH = 1, 2, 3

#: (check, n) -> one verdict byte per class of cached level n for the
#: pipeline whose check it is: 0 while unknown, ``_PASSES`` or ``_FAILS``
#: for a match by its check, ``_NO_MATCH`` for a class that the pipeline's
#: filter rejects.  A pool worker does not get it from ``_install``: a
#: forked one inherits this process's tables and a spawned one starts
#: empty; each pooled chunk journals the verdicts it finds, and the scan
#: merges them here.
_VERDICTS: dict[tuple[Check, int], bytearray] = {}

#: n -> code -> graph6 of each match ``verify_theorem`` reported on cached
#: level n, encoded once per process
_GRAPH6: dict[int, dict[Code, str]] = {}


def _verdicts(check: Check, n: int) -> bytearray:
    """The verdicts of ``check`` on cached level ``n``, all unknown at first."""
    return _VERDICTS.setdefault((check, n), bytearray(len(_FRONTIERS[n, 0][0])))


def _install(frontiers: dict) -> None:
    """Start a pool worker with the frontiers its scan reads."""
    _FRONTIERS.update(frontiers)


def _frontier(n: int, k: int = 0, jobs: int = 1) -> tuple[Code, ...]:
    """Level ``n`` for k = 0, checked against the known class count, else
    T(k, n), the matches of the pruned tight (k,0) scan at ``n`` with ``jobs``
    workers, in level order; each is built once per process with its
    alphas, kept only when whole.  A level keeps each class's parent index
    and unset drop tables."""
    if (n, k) not in _FRONTIERS:
        if k:
            _, matches, alphas, _ = _filtered_scan(n, FilterSpec(tight=(k, 0)), True, jobs)
            _FRONTIERS[n, k] = tuple(matches), alphas
        elif not 1 <= n <= _CACHE_MAX_N:
            raise ValueError(f"levels 1..{_CACHE_MAX_N} are cached, not {n}")
        else:
            level, alphas, parents = [], array("H"), array("I")
            for p, code, packed in _items((n - 1, 0), 0, len(_frontier(n - 1)), n):
                parents.append(p)
                level.append(code)
                alphas.append(packed)
            if len(level) != CLASS_COUNTS[n - 1]:
                raise InvariantViolation(
                    f"level {n} has {len(level)} classes, expected {CLASS_COUNTS[n - 1]}"
                )
            drops = [bytearray(len(level)) for _ in range(1, n)]
            _FRONTIERS[n, 0] = tuple(level), alphas, parents, drops, bytes(a >> n for a in alphas)
    return _FRONTIERS[n, k][0]


#: ``_LO_AT_MOST[l]`` maps a drop entry to 1 unless its lower bound proves drop_k > l
_LO_AT_MOST = tuple(bytes(entry & 15 <= l for entry in range(256)) for l in range(16))
#: maps a verdict byte to 1 unless it is ``_NO_MATCH``
_MAY_MATCH = bytes(verdict != _NO_MATCH for verdict in range(256))


@lru_cache(maxsize=None)
def _alpha_is(window: int) -> bytes:
    """Maps an alpha byte to 1 when it is ``window``."""
    return bytes(a == window for a in range(256))


def _items(
    key: tuple[int, int],
    start: int,
    stop: int,
    n: int,
    window: int | None = None,
    kl: tuple = (),
    verdicts: bytearray | None = None,
) -> Iterator[tuple[int, Code, int]]:
    """``(i, code, alpha entry)`` of each class a read of entries ``start:stop``
    of frontier ``key`` at ``n`` yields, i the entry read: each entry's
    canonical children with :func:`_child_alpha`'s, the one place children
    get their alphas, or the classes of a cached level selected before any
    per-class test.  Each selector is a byte table over the entries, mapped
    to one 0/1 mask by ``translate``: the drop entry for ``kl = (k, l)``, if
    given and k < n, must leave drop_k <= l possible, the verdict byte in
    ``verdicts``, if given, must not be ``_NO_MATCH``, and the alpha byte
    must be ``window`` (any for ``None``).  The masks, each over the same
    ``start:stop``, are ANDed as ints and ``compress`` the index range once."""
    codes, alphas = _FRONTIERS[key][:2]
    if key[0] != n:
        return (
            (i, child, _child_alpha(parent, packed, child[-1]))
            for i, parent, packed in zip(range(start, stop), codes[start:stop], alphas[start:stop])
            for child in _canonical_children(parent)
        )
    masks = []
    if kl and kl[0] < n:
        k, l = kl
        masks.append(_FRONTIERS[key][3][k - 1][start:stop].translate(_LO_AT_MOST[l]))
    if verdicts is not None:
        masks.append(verdicts[start:stop].translate(_MAY_MATCH))
    if window is not None:
        masks.append(_FRONTIERS[key][4][start:stop].translate(_alpha_is(window)))
    index = range(start, stop)
    if masks:
        mask = reduce(and_, (int.from_bytes(m, "little") for m in masks))
        index = compress(index, mask.to_bytes(stop - start, "little"))
    return ((i, codes[i], alphas[i]) for i in index)


def enumerate_canonical(n: int) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class of graphs on ``n`` vertices."""
    _check_size(n)
    batches = [_frontier(n)] if n <= _CACHE_MAX_N else map(_canonical_children, _frontier(n - 1))
    for codes in batches:
        for code in codes:
            yield Graph(n, code)


# -- filters -----------------------------------------------------------------


@dataclass(frozen=True)
class FilterSpec:
    """Named predicates applied to every enumerated graph, cheapest first."""

    min_degree: int | None = None
    connected: bool | None = None
    alpha: int | None = None
    defect: int | None = None
    alpha_critical: bool | None = None
    stable: tuple[int, int] | None = None
    tight: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        for key, floor in (("min_degree", 0), ("alpha", 1), ("defect", None)):
            value = getattr(self, key)
            if value is None or type(value) is int and (floor is None or value >= floor):
                continue
            at_least = "" if floor is None else f" >= {floor}"
            raise ValueError(f"{key} needs an integer{at_least}, got {value!r}")
        for key in ("connected", "alpha_critical"):
            if (value := getattr(self, key)) is not None and type(value) is not bool:
                raise ValueError(f"{key} needs a bool, got {value!r}")
        for kind, kl in (("stable", self.stable), ("tight", self.tight)):
            if kl is None:
                continue
            if len(kl) != 2 or not all(type(x) is int for x in kl) or not kl[0] > kl[1] >= 0:
                raise ValueError(f"{kind} needs integers k > l >= 0, got {kl!r}")

    def to_dict(self) -> dict:
        """The filters that are set, as recorded in atlas provenance and reports."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def _code_connected(code: Code, n: int) -> bool:
    return reachable(code, 0) == (1 << n) - 1


def _min_degree(code: Code) -> int:
    return min(map(int.bit_count, code))


def _within_hajnal_bound(code: Code, n: int, a: int) -> bool:
    """Hajnal's bound (1965): every degree of an alpha-critical graph without
    isolated vertices is at most n - 2*alpha + 1.  Dropping i isolated
    vertices drops n and alpha by i each, so the bound rises by i.  A graph
    over it is not alpha-critical."""
    return max(map(int.bit_count, code)) <= n - 2 * a + 1 + code.count(0)


def _flag_evaluator(key: str) -> Callable[[Code, int, int | None, int | None], object]:
    """The function recomputing atlas flag ``key`` from ``(code, n, alpha, witness)``.

    ``connected`` and ``min_degree`` ignore alpha and the witness.  Unknown
    and malformed keys raise ``ValueError``.
    """
    if key == "connected":
        return lambda code, n, a, wit: _code_connected(code, n)
    if key == "min_degree":
        return lambda code, n, a, wit: _min_degree(code)
    if key == "defect":
        return lambda code, n, a, wit: n - 2 * a
    if key == "alpha_critical":
        return lambda code, n, a, wit: _within_hajnal_bound(code, n, a) and (
            alpha_preserving_edge(code, n, a) is None
        )
    kind, _, kl = key.partition("_")
    if kind not in ("stable", "tight"):
        raise ValueError(f"unknown flag {key!r}")
    try:  # the spec validates (k,l); the key must be the one it writes
        spec = FilterSpec(**{kind: tuple(map(int, kl.split("_")))})
    except ValueError:
        spec = None
    if spec is None or key not in _required_flags(spec):
        raise ValueError(f"malformed flag {key!r}")
    k, l = getattr(spec, kind)
    test = stable_fast if kind == "stable" else tight_fast
    return lambda code, n, a, wit: test(code, n, k, l, a, wit)


def _required_flags(spec: FilterSpec) -> dict:
    """Atlas flags every match of ``spec`` carries, with the values it requires."""
    keys = ("connected", "defect", "alpha_critical")
    flags = {key: getattr(spec, key) for key in keys if getattr(spec, key) is not None}
    for kind in ("stable", "tight"):
        if (params := getattr(spec, kind)) is not None:
            flags[f"{kind}_{params[0]}_{params[1]}"] = True
    return flags


def _alpha_window(spec: FilterSpec, n: int) -> int | None:
    """The one alpha a match of ``spec`` on ``n`` vertices can have: a tight
    filter's ``stability_bound`` when n > k, ``alpha``, or (n - defect) / 2;
    ``None`` when ``spec`` fixes none, and 0, which no graph has, when these
    differ or n - defect is odd."""
    wants = set()
    if spec.tight and n > spec.tight[0]:
        wants.add(stability_bound(n, *spec.tight))
    if spec.alpha is not None:
        wants.add(spec.alpha)
    if spec.defect is not None:
        wants.add(0 if (n - spec.defect) % 2 else (n - spec.defect) // 2)
    return None if not wants else wants.pop() if len(wants) == 1 else 0


def _spec_tests(spec: FilterSpec, n: int) -> list[tuple]:
    """The per-class tests a chunk runs on each class of size ``n`` that its
    selection leaves, before the (k,l) verdicts of ``spec``, as (evaluator of
    ``(code, n, alpha, witness)``, required value), ordered by cost:
    ``min_degree``, Hajnal's gate when ``alpha_critical`` is True,
    ``connected``, then the edge walk (with the gate for False); built once
    per chunk, not once per graph.  Alpha itself is tested by
    :func:`_alpha_window` before these."""
    tests = []
    if spec.min_degree is not None:
        tests.append((lambda code, n, a, wit: _min_degree(code) >= spec.min_degree, True))
    if spec.alpha_critical:
        tests.append((lambda code, n, a, wit: _within_hajnal_bound(code, n, a), True))
    if spec.connected is not None:
        tests.append((_flag_evaluator("connected"), spec.connected))
    if spec.alpha_critical:
        tests.append((lambda code, n, a, wit: alpha_preserving_edge(code, n, a) is None, True))
    elif spec.alpha_critical is not None:
        tests.append((_flag_evaluator("alpha_critical"), False))
    return tests


def _within(n: int, i: int, k: int, l: int, journal: array | None = None) -> bool:
    """Whether drop_k <= l for class ``i`` of cached level ``n > k``, a
    parent p plus z: read off the class's entry, else from p's verdicts
    (found alike in level n-1) by delta + drop_{k-1}(p) <= drop_k <= delta +
    drop_k(p), delta = alpha - alpha(p) (both set at build), else by
    ``stable_fast``; the verdict narrows the entry, noted in ``journal``.  The
    lower bound deletes z and a worst (k-1)-set of p; the upper holds as G -
    X contains p - (X - z).  drop_k <= k needs no entry, and for n-1 <= k p
    bounds nothing."""
    if l >= k:
        return True
    level, alphas, parents, drops, _ = _FRONTIERS[n, 0]
    entry = drops[k - 1][i]
    lo, hi = entry & 15, 15 - (entry >> 4)
    if hi <= l or lo > l:
        return hi <= l
    a = alphas[i] >> n
    verdict = None
    if n - 1 > k:
        p = parents[i]
        delta = a - (_FRONTIERS[n - 1, 0][1][p] >> (n - 1))
        if delta > l or _within(n - 1, p, k, l - delta, journal):
            verdict = delta <= l
        elif not _within(n - 1, p, k - 1, l - delta, journal):
            verdict = False
    if verdict is None:
        verdict = stable_fast(level[i], n, k, l, a, alphas[i] & ((1 << n) - 1))
    lo, hi = (lo, l) if verdict else (l + 1, hi)
    drops[k - 1][i] = entry = lo | (15 - hi) << 4
    if journal is not None:
        journal.extend((n, k, i, entry))
    return verdict


def _scan_chunk(
    args: tuple[tuple[int, int], int, int, int, FilterSpec, str | None], journal: array | None = None
) -> tuple[int, list[Code], list[int], list[Code], array | None]:
    """(codes read, matches, their alpha entries, failed matches,
    ``journal``) of the filter over entries ``start:stop`` of frontier
    ``key`` at ``n`` for ``args = (key, start, stop, n, spec, theorem_id)``,
    ``spec`` being the filter of pipeline ``theorem_id`` when one is named;
    :func:`_within` records in ``journal`` each drop entry it narrows.  A
    read of cached level n (``key == (n, 0)``) selects its classes in
    ``_items`` by three byte tables, the first (k,l)'s drop table, the
    pipeline's verdicts and the alpha bytes against :func:`_alpha_window`,
    and counts every entry read; a frontier child is counted, then tested
    against the window.  A class whose verdict is known is a match at once,
    failed if its check failed.  On the others the tests of
    :func:`_spec_tests` run, then the (k,l) verdicts: by :func:`_within` on
    a class of a cached level, else by ``stable_fast``.  Each match is
    finished here: the check of pipeline ``theorem_id`` (none for ``None``)
    takes its code and n, and the matches it rejects are the failed ones.
    On a cached level each verdict found, ``_NO_MATCH`` included, is kept in
    :func:`_verdicts`, so the tests and the check run once per class per
    process, and ``journal`` records it as ``(n, 0, i, verdict)``; a
    frontier child runs them always.  An exception comes back as the same
    type with n and the graph6 of the first and last item in front of its
    message."""
    key, start, stop, n, spec, theorem_id = args
    try:
        kls = [kl for kl in (spec.stable, spec.tight) if kl]
        window = _alpha_window(spec, n)
        tests = _spec_tests(spec, n)
        cached = key[0] == n
        if not cached and window is not None:
            tests.insert(0, (lambda code, n, a, wit: a, window))
        check = None if theorem_id is None else _PIPELINES[theorem_id].check
        verdicts = _verdicts(check, n) if cached and check is not None else None
        full = (1 << n) - 1
        scanned = 0
        matches: list[Code] = []
        alphas: list[int] = []
        failed: list[Code] = []
        items = _items(key, start, stop, n, window, kls[0] if kls else (), verdicts)
        for scanned, (index, code, packed) in enumerate(items, 1):
            verdict = 0 if verdicts is None else verdicts[index]
            if not verdict:
                a, wit = packed >> n, packed & full
                verdict = _NO_MATCH
                for test, want in tests:
                    if test(code, n, a, wit) != want:
                        break
                else:
                    for k, l in kls:
                        if n <= k or not (
                            _within(n, index, k, l, journal) if cached else stable_fast(code, n, k, l, a, wit)
                        ):
                            break
                    else:
                        verdict = _PASSES if check is None or check(code, n) else _FAILS
                if verdicts is not None:
                    verdicts[index] = verdict
                    if journal is not None:
                        journal.extend((n, 0, index, verdict))
            if verdict == _NO_MATCH:
                continue
            matches.append(code)
            alphas.append(packed)
            if verdict == _FAILS:
                failed.append(code)
        return stop - start if cached else scanned, matches, alphas, failed, journal
    except Exception as exc:
        items = _FRONTIERS[key][0][start:stop]
        first, last = (encode_rows(c, len(c)) for c in (items[0], items[-1]))
        try:
            named = type(exc)(f"n={n}, chunk {first} to {last}: {exc}")
        except Exception:
            raise exc from None  # a type that takes other arguments keeps its message
        raise named from exc


def _pooled_chunk(args: tuple) -> tuple[int, list[Code], list[int], list[Code], array]:
    """:func:`_scan_chunk` in a pool worker, journaling the drop entries it narrows."""
    return _scan_chunk(args, array("I"))


def _scan_key(n: int, spec: FilterSpec, prune: bool) -> tuple[int, int]:
    """The frontier a scan of ``spec`` at ``n`` reads: cached level n, key
    ``(n, 0)``, when k = 1 and n <= 9, else the children of T(k-1, n-1), key
    ``(n - 1, k - 1)``; k is 1 unless ``prune`` and n > 2 take it from the
    tight filter."""
    k = spec.tight[0] if prune and n > 2 else 1
    return (n, 0) if k == 1 and n <= _CACHE_MAX_N else (n - 1, k - 1)


def _filtered_scan(
    n: int, spec: FilterSpec, prune: bool = False, jobs: int = 1, theorem_id: str | None = None
) -> tuple[int, list[Code], list[int], list[Code]]:
    """(classes scanned, matches, their alpha entries, failed matches) of
    ``spec`` at size ``n``, each list in level order.  The failed matches are
    those the check of pipeline ``theorem_id`` rejects, run in the chunks
    (none for ``None``).  The items are those of :func:`_scan_key`; the
    prune requires ``spec.tight=(k,0)``.  Level order is index order for a
    cached level, and for children their parents' order, then
    :func:`_canonical_children`'s; chunks come back in that order whatever
    ``jobs`` is.  T(k-1, n-1) keeps the order of
    level n-1 (by induction from k = 1, a selection of a cached level), so
    its children keep that of level n, and a pruned tight (k,0) scan returns
    the unpruned scan's list.
    About four chunks per worker, at most one worker per CPU and per item
    whatever ``jobs`` asks for; one worker scans every item as one chunk in
    this process.  A chunk names its items by frontier and index in the
    memo each worker gets as it starts: the frontier the scan reads and, for
    a cached level, every level below, which :func:`_within` reads.  Each
    drop entry a pooled chunk narrowed merges here as the larger ``lo`` and
    the larger ``15 - hi``, and each pipeline verdict it found into this
    process's verdicts, so they end the same for every worker count."""
    _check_size(n)
    if prune and (spec.tight is None or spec.tight[1] != 0):
        raise ValueError("the hereditary prune requires a tight (k,0) filter")
    key = _scan_key(n, spec, prune)
    size = len(_frontier(*key, jobs))
    workers = min(jobs, os.cpu_count() or 1, size)
    step = -(-size // (4 * workers)) if workers > 1 else max(size, 1)
    chunks = [(key, i, min(i + step, size), n, spec, theorem_id) for i in range(0, size, step)]
    if workers > 1:
        reads = [(m, 0) for m in range(1, n + 1)] if key[0] == n else [key]
        with Pool(workers, _install, ({r: _FRONTIERS[r] for r in reads},)) as pool:
            results = list(pool.imap(_pooled_chunk, chunks))
            pool.close()  # let each worker take its end sentinel: the exit would terminate it
            pool.join()
        if theorem_id is not None and key[0] == n:
            verdicts = _verdicts(_PIPELINES[theorem_id].check, n)
        journal = (e for r in results for e in r[4])  # read four items at a time
        for m, j, i, entry in zip(journal, journal, journal, journal):
            if not j:  # k = 0 names no drop table: a pipeline verdict on level n
                verdicts[i] = entry
                continue
            table = _FRONTIERS[m, 0][3][j - 1]
            table[i] = max(table[i] & 15, entry & 15) | max(table[i] & 240, entry & 240)
    else:
        results = list(map(_scan_chunk, chunks))
    matches, alphas, failed = ([x for r in results for x in r[j]] for j in (1, 2, 3))
    return sum(r[0] for r in results), matches, alphas, failed


# -- atlas records -----------------------------------------------------------


@dataclass
class AtlasRecord:
    g6: str
    n: int
    alpha: int
    flags: dict
    provenance: dict

    def to_json(self) -> str:
        """The record as one atlas line (no newline): fields in fixed order,
        flags sorted by name."""
        payload = {
            "g6": self.g6,
            "n": self.n,
            "alpha": self.alpha,
            "flags": {k: self.flags[k] for k in sorted(self.flags)},
            "provenance": self.provenance,
        }
        return json.dumps(payload, separators=(",", ":"), sort_keys=False)


def _record(code: Code, n: int, alpha: int, spec: FilterSpec, provenance: dict) -> AtlasRecord:
    flags = {"min_degree": _min_degree(code), **_required_flags(spec)}
    if "connected" not in flags:
        flags["connected"] = _code_connected(code, n)
    return AtlasRecord(encode_rows(code, n), n, alpha, flags, provenance)


def atlas_record(g: Graph, spec: FilterSpec, provenance: dict) -> AtlasRecord:
    """Record of a graph that passed ``spec``: the flags ``spec`` requires
    carry their required values; ``connected`` and ``min_degree`` are always
    present."""
    return _record(g.adj, g.n, alpha_mask(g.adj, (1 << g.n) - 1)[0], spec, provenance)


def filtered_records(
    n: int,
    spec: FilterSpec,
    hereditary_prune: bool = False,
    jobs: int = 1,
) -> tuple[int, list[AtlasRecord]]:
    """Scan size ``n`` and return (classes scanned, matching records sorted by graph6),
    each record's alpha taken from the scan."""
    scanned, matches, alphas, _ = _filtered_scan(n, spec, prune=hereditary_prune, jobs=jobs)
    provenance = {
        "version": __version__,
        "parameters": {"n": n, "filters": spec.to_dict(), "prune": hereditary_prune},
    }
    records = [_record(code, n, a >> n, spec, provenance) for code, a in zip(matches, alphas)]
    records.sort(key=lambda r: r.g6)
    return scanned, records


def atlas_write(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")


def _same(stored: object, recomputed: object) -> bool:
    return type(stored) is type(recomputed) and stored == recomputed


def atlas_read(path) -> list[AtlasRecord]:
    """Load records, re-deriving every stored property from the graph6 field;
    a stored value must have the recomputed value and its type."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                rec = AtlasRecord(
                    g6=obj["g6"],
                    n=obj["n"],
                    alpha=obj["alpha"],
                    flags=obj["flags"],
                    provenance=obj.get("provenance", {}),
                )
                if not isinstance(rec.flags, dict):
                    raise TypeError("flags is not an object")
                evaluators = {key: _flag_evaluator(key) for key in rec.flags}
                g = parse_graph6(rec.g6)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed atlas record ({exc})")
            if not _same(rec.n, g.n):
                raise ValueError(f"{path}:{lineno}: stored n={rec.n} but graph has {g.n}")
            a, wit = alpha_mask(g.adj, (1 << g.n) - 1)
            if not _same(rec.alpha, a):
                raise ValueError(f"{path}:{lineno}: stored alpha={rec.alpha} but recomputed {a}")
            for key, value in rec.flags.items():
                if not _same(value, evaluators[key](g.adj, g.n, a, wit)):
                    raise ValueError(f"{path}:{lineno}: flag {key}={value!r} fails recomputation")
            records.append(rec)
    return records


# -- theorem pipelines -------------------------------------------------------


@dataclass
class VerificationReport:
    theorem_id: str
    parameter_range: dict
    graphs_scanned: int
    matches: list[str]
    counterexamples: list[str]
    verdict: str

    def to_dict(self) -> dict:
        return asdict(self)


Check = Callable[[Code, int], bool]


def _certificate_check(k: int) -> Check:
    """Match test: the spanning certificate of tight (k,0)-stability builds;
    a failed construction makes the match a counterexample."""

    def check(code: Code, n: int) -> bool:
        try:
            spanning_certificate(Graph(n, code), k)
            return True
        except (InvariantViolation, ValueError):
            return False

    return check


def _l21_check(code: Code, n: int) -> bool:
    """Match test of L21: every maximum independent set S saturates into
    V - S, that is, |N(X)| >= |X| for every vertex set X, which one
    ``augment_matching`` search on the bipartite double cover decides.  If
    it holds, N(Y) avoids S for each Y in S.  If not, a largest deficiency
    |X| - |N(X)| lies on an independent set (Zhang, SIAM J. Discrete Math.
    1990) inside a maximum S (Larson, European J. Combin. 2011)."""
    return not augment_matching(code, (1 << n) - 1)[1]


def _refuted(code: Code, n: int) -> bool:
    """Match test that no match passes: every match is a counterexample."""
    return False


@dataclass(frozen=True)
class _Pipeline:
    """What one theorem scans: the filter, the test each match must pass
    (``check(code, n)``, run in the scan chunks), the default sizes, the
    parity every size must have (``None``: any), whether the hereditary
    prune is on by default, the one ``k`` the theorem accepts (``None``:
    none) and the catalog graphs each size must find (a name not found at
    its order is a counterexample).  Every pipeline takes the sizes 1..10
    that its parity allows."""

    spec: FilterSpec
    check: Check
    sizes: tuple[int, ...]
    parity: int | None = None
    prune: bool = False
    k: int | None = None
    required: tuple[str, ...] = ()


_PIPELINES: dict[str, _Pipeline] = {
    "T1a": _Pipeline(FilterSpec(tight=(1, 0)), _certificate_check(1), (2, 4, 6, 8), 0),
    "T1b": _Pipeline(FilterSpec(tight=(1, 0)), _certificate_check(1), (3, 5, 7, 9), 1),
    "T1c": _Pipeline(FilterSpec(tight=(2, 0)), _certificate_check(2), (5, 7, 9), 1),
    "T1d": _Pipeline(FilterSpec(tight=(2, 0)), _certificate_check(2), (4, 6, 8), 0),
    "T2": _Pipeline(FilterSpec(tight=(3, 0)), _certificate_check(3), (4, 5, 6, 7, 8, 9)),
    # a tight (3,0)-stable graph has at most 9 vertices: any match refutes it
    "COR": _Pipeline(FilterSpec(tight=(3, 0)), _refuted, (10,), prune=True, k=3),
    "L21": _Pipeline(FilterSpec(stable=(1, 0)), _l21_check, (2, 3, 4, 5, 6, 7, 8)),
    "AND": _Pipeline(
        FilterSpec(connected=True, defect=2, alpha_critical=True),
        lambda code, n: is_even_subdivision_k4(Graph(n, code)) is not None,
        (4, 6, 8),
    ),
    "SUR": _Pipeline(
        FilterSpec(min_degree=3, connected=True, defect=3, alpha_critical=True),
        lambda code, n: named_class(Graph(n, code)) is not None,
        (5, 7, 9),
        required=CLASS_NAMED,
    ),
}

THEOREM_IDS = tuple(_PIPELINES)


def default_sizes(theorem_id: str) -> tuple[int, ...]:
    """Sizes ``verify_theorem`` scans when none are given."""
    return _PIPELINES[theorem_id].sizes


def verify_theorem(
    theorem_id: str,
    n_values: tuple[int, ...] | None = None,
    k: int | None = None,
    prune: bool | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Run one verification pipeline and report matches and counterexamples.

    Every pipeline scans the filtered enumeration stream at the requested
    sizes and attempts the corresponding certificate construction on each
    match, in the scan chunks; a failed construction or recognizer is a
    counterexample.  On a cached level (n <= 9, unpruned) the pipeline's
    filter tests and check run once per class per process: later calls read
    its verdict bytes, select only its matches and take their graph6 from
    ``_GRAPH6``.  Pruned scans and n = 10 run every test and check and
    encode every match on each call.  Every size is checked before the
    first scan.
    """
    if theorem_id not in _PIPELINES:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    pipeline = _PIPELINES[theorem_id]
    if k is not None and k != pipeline.k:
        if pipeline.k is not None:
            raise ValueError(f"the size-bound check is only enumerable for k={pipeline.k}")
        owners = ", ".join(t for t, p in _PIPELINES.items() if p.k is not None)
        raise ValueError(f"k applies only to {owners}, not to {theorem_id}")
    use_prune = pipeline.prune if prune is None else prune
    values = pipeline.sizes if n_values is None else n_values
    if not values:
        raise ValueError(f"no sizes given for {theorem_id}")
    for i, n in enumerate(values):
        _check_size(n)
        if n in values[:i]:
            raise ValueError(f"size {n} is given twice")
    for n in values:
        if pipeline.parity is not None and n % 2 != pipeline.parity:
            raise ValueError(f"{theorem_id} applies to {('even', 'odd')[pipeline.parity]} sizes")

    scanned_total = 0
    matches: list[str] = []
    counterexamples: list[str] = []

    for n in values:
        scanned, codes, _, failed = _filtered_scan(n, pipeline.spec, use_prune, jobs, theorem_id)
        scanned_total += scanned
        cached = _scan_key(n, pipeline.spec, use_prune) == (n, 0)
        encoded = _GRAPH6.setdefault(n, {}) if cached else {}
        for code in codes:
            if code not in encoded:
                encoded[code] = encode_rows(code, n)
        matches += map(encoded.__getitem__, codes)
        counterexamples += map(encoded.__getitem__, failed)
        counterexamples.extend(_missing(pipeline.required, n, codes))

    verdict = "verified" if not counterexamples else "refuted"
    params: dict = {"n_values": list(values), "prune": use_prune}
    if pipeline.k is not None:
        params["k"] = pipeline.k
    return VerificationReport(
        theorem_id=theorem_id,
        parameter_range=params,
        graphs_scanned=scanned_total,
        matches=sorted(matches),
        counterexamples=sorted(counterexamples),
        verdict=verdict,
    )


def _missing(names: tuple[str, ...], n: int, codes: list[Code]) -> list[str]:
    """The graph6 of each catalog graph in ``names`` on ``n`` vertices that
    no code in ``codes`` matches."""
    wanted = tuple(name for name in names if catalog.named_graph(name).n == n)
    if not wanted:
        return []
    found = {match[0] for code in codes if (match := catalog_match(Graph(n, code), wanted))}
    return [encode_rows(catalog.named_graph(name).adj, n) for name in wanted if name not in found]
