"""Shared test oracles and hypothesis strategies.

The oracles here are deliberately naive (full subset scans, permutation
scans) so they stay independent of the solver paths they check.
"""

from __future__ import annotations

from itertools import combinations, permutations

from hypothesis import strategies as st

from stabilitylab import enumeration
from stabilitylab.canonical import canonical_data, neighbor_lists, refine_colors
from stabilitylab.graphs import Graph, bits, delete_vertices, from_edges, normalize_edge
from stabilitylab.independence import alpha_mask, independent_masks
from stabilitylab.stability import stability_bound, stable_fast
from stabilitylab.structure import HallCertificate, augment_matching


def naive_alpha(g: Graph) -> int:
    """Largest independent set size by scanning all 2^n vertex subsets."""
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() <= best:
            continue
        if all(g.adj[v] & mask == 0 for v in bits(mask)):
            best = mask.bit_count()
    return best


def plain_alpha_mask(adj: tuple[int, ...], mask: int) -> tuple[int, int]:
    """``alpha_mask`` as it was before the clique-cover bound: the oracle for
    its ``(size, witness_mask)``.

    Maximum independent set within ``mask``: returns ``(size, witness_mask)``.

    Branch and bound: pick a maximum-degree vertex of the remaining subgraph,
    branch on including it (dropping its closed neighborhood) before excluding
    it, and prune when the remaining vertex count cannot beat the incumbent.
    The first maximum found under this fixed order is the witness.
    """
    best = 0
    best_set = 0

    def bb(avail: int, size: int, chosen: int) -> None:
        nonlocal best, best_set
        if size + avail.bit_count() <= best:
            return
        if not avail:
            best, best_set = size, chosen
            return
        bv = -1
        bd = -1
        rest = avail
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            d = (adj[v] & avail).bit_count()
            if d > bd:
                bd, bv = d, v
        if bd == 0:
            # Everything left is isolated within the subgraph: take it all.
            total = size + avail.bit_count()
            if total > best:
                best, best_set = total, chosen | avail
            return
        v = bv
        bb(avail & ~(adj[v] | (1 << v)), size + 1, chosen | (1 << v))
        bb(avail & ~(1 << v), size, chosen)

    bb(mask, 0, 0)
    return best, best_set


def edge_deletion_preserving_edge(adj: tuple[int, ...], n: int, a: int) -> tuple[int, int] | None:
    """First edge (u < v, in ``Graph.edges()`` order) whose deletion keeps the
    independence number at ``a``: each edge is deleted from the rows and alpha
    recomputed with ``plain_alpha_mask``, the oracle for
    ``critical.alpha_preserving_edge``."""
    full = (1 << n) - 1
    for u in range(n):
        for v in bits(adj[u] >> (u + 1) << (u + 1)):
            rows = list(adj)
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
            if plain_alpha_mask(tuple(rows), full)[0] == a:
                return u, v
    return None


def naive_removal_alphas(g: Graph, k: int) -> list[tuple[tuple[int, ...], int]]:
    """(k-subset, independence number after deleting it) for every k-subset in
    lexicographic order: the plain reference scan that stability is defined by."""
    return [
        (sub, naive_alpha(delete_vertices(g, sub)[0]))
        for sub in combinations(range(g.n), k)
    ]


def plain_removal_alphas(adj: tuple[int, ...], n: int, k: int):
    """Yield ``(subset, alpha after removing it)`` for every k-subset in
    lexicographic order, one ``alpha_mask`` call each and nothing skipped: the
    reference for the witness-cached stability scan."""
    full = (1 << n) - 1
    for sub in combinations(range(n), k):
        smask = 0
        for v in sub:
            smask |= 1 << v
        yield sub, alpha_mask(adj, full ^ smask)[0]


def reference_first_violator(
    adj: tuple[int, ...], n: int, k: int, floor: int, known: list[int], alpha=alpha_mask
) -> tuple[int, ...] | None:
    """``stability._first_violator`` as it was written subset by subset: every
    k-subset in lexicographic order is tested against the whole ``known``
    list, then swapped or probed with ``alpha(adj, rest, floor)``.  The
    reference for the order of the scan's ``alpha_mask`` calls, its result
    and the sets it adds to ``known``."""
    full = (1 << n) - 1
    top = known[0]
    groups = None
    for sub in combinations([1 << v for v in range(n)], k):
        smask = sum(sub)
        if any(not w & smask for w in known):
            continue
        hit = top & smask
        if not hit & (hit - 1):
            if groups is None:
                groups = {}
                for u in range(n):
                    hits = adj[u] & top
                    groups[hits] = groups.get(hits, 0) | 1 << u
            swap = groups.get(hit, 0) & ~smask
            if swap:
                known.append(top ^ hit | swap & -swap)
                continue
        rest, wit = alpha(adj, full ^ smask, floor)
        if rest < floor:
            return tuple(b.bit_length() - 1 for b in sub)
        known.append(wit)
    return None


def naive_independent_sets(g: Graph, t: int) -> list[tuple[int, ...]]:
    out = []
    for sub in combinations(range(g.n), t):
        if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
            out.append(sub)
    return out


def naive_maximum_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """Every maximum independent set, lexicographically: the vertex subsets
    of each size in turn, as ``itertools.combinations`` lists them, keeping
    those that contain no edge, until a size keeps none."""
    edges = set(g.edges())
    found: list[tuple[int, ...]] = [()]
    for t in range(1, g.n + 1):
        bigger = [s for s in combinations(range(g.n), t) if edges.isdisjoint(combinations(s, 2))]
        if not bigger:
            break
        found = bigger
    return found


def naive_hall(g: Graph, a_set: tuple[int, ...]) -> bool:
    """Hall's condition for matching ``a_set`` into the rest of the graph,
    checked on every nonempty subset S as |N(S)| >= |S|."""
    rows = [g.adj[v] for v in a_set]
    for size in range(1, len(rows) + 1):
        for sub in combinations(rows, size):
            union = 0
            for row in sub:
                union |= row
            if union.bit_count() < size:
                return False
    return True


def reference_hall_matching(g: Graph, a_set) -> HallCertificate:
    """``structure.hall_matching`` as it was written with a recursive
    augmenting closure over a dict and a set: the reference its matching
    or violator must equal.  The violator is the set the failed search
    blocked: the failed vertex and the mates of the vertices it visited."""
    a_sorted = tuple(sorted(set(a_set)))
    match: dict[int, int] = {}  # right vertex -> matched left vertex

    def augment(a: int, visited: set[int]) -> bool:
        for b in g.neighbors(a):
            if b in visited:
                continue
            visited.add(b)
            if b not in match or augment(match[b], visited):
                match[b] = a
                return True
        return False

    for a in a_sorted:
        visited: set[int] = set()
        if not augment(a, visited):
            return HallCertificate(None, tuple(sorted({a} | {match[b] for b in visited})))
    edges = tuple(sorted(normalize_edge(left, right) for right, left in match.items()))
    return HallCertificate(edges, None)


def reference_l21_check(adj: tuple[int, ...], n: int, a: int) -> bool:
    """``enumeration._l21_check`` as it was written set by set: every
    independent set of size ``a`` (the independence number) from
    ``independent_masks``, each put to ``augment_matching``, stopping at the
    first set that does not saturate into its complement."""
    sets = independent_masks(adj, (1 << n) - 1, a)
    return all(not augment_matching(adj, s)[1] for s in sets)


def has_cycle_cover(adj: tuple[int, ...], n: int) -> bool:
    """Whether some permutation sigma of the vertices sends every v to a
    neighbour sigma(v), by backtracking over v = 0, 1, ...: a perfect
    matching of the bipartite double cover, found without a matcher."""
    used = [False] * n

    def place(v: int) -> bool:
        if v == n:
            return True
        for u in range(n):
            if adj[v] >> u & 1 and not used[u]:
                used[u] = True
                if place(v + 1):
                    return True
                used[u] = False
        return False

    return place(0)


def labeled_codes(n: int):
    """Every labeled simple graph on n vertices as an adjacency tuple."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield tuple(adj)


def brute_orbits(g: Graph) -> tuple[int, ...]:
    """Vertex orbits under the full automorphism group, by permutation scan."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in permutations(range(g.n)):
        ok = True
        for v in range(g.n):
            image = 0
            for u in bits(g.adj[v]):
                image |= 1 << perm[u]
            if image != g.adj[perm[v]]:
                ok = False
                break
        if ok:
            for v in range(g.n):
                ra, rb = find(v), find(perm[v])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    reps = {}
    out = []
    for v in range(g.n):
        r = find(v)
        reps.setdefault(r, v)
        out.append(reps[r])
    return tuple(out)


def reference_refine_colors(nlists: list[list[int]], colors: list[int]) -> list[int]:
    """``refine_colors`` as it was before it skipped the signatures of
    vertices alone in their cells: every vertex is ranked by its color and
    its full sorted list of neighbour colors."""
    n = len(nlists)
    ncolors = len(set(colors))
    while True:
        sigs = [(c, tuple(sorted(colors[u] for u in nb))) for c, nb in zip(colors, nlists)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if len(rank) in (ncolors, n):
            return new
        colors, ncolors = new, len(rank)


def reference_target_cell(colors: list[int]) -> list[int] | None:
    """``canonical._target_cell`` as it was before it counted per rank: the
    cells gathered in a dict, the first of size two or more by color."""
    cell_of: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cell_of.setdefault(c, []).append(v)
    for c in sorted(cell_of):
        if len(cell_of[c]) > 1:
            return cell_of[c]
    return None


def reference_subset_reps(parent: tuple[int, ...], keep) -> list[tuple[int, int]]:
    """``enumeration._subset_reps`` walking the generators of the parent's
    ``canonical_data``: ``(S, keep(S))`` for the least mask S of every orbit
    that gives the new vertex the largest degree and that ``keep`` maps to a
    nonzero value, ascending.  A mask's image is the image of the mask less
    its lowest bit plus the image of that bit."""
    m = len(parent)
    degs = [row.bit_count() for row in parent]
    top = max(degs)
    hubs = sum(1 << v for v in range(m) if degs[v] == top)
    images = []
    for g in canonical_data(parent).generators:
        image = [0]
        for s in range(1, 1 << m):
            low = s & -s
            image.append(image[s ^ low] | 1 << g[low.bit_length() - 1])
        images.append(image)
    seen, reps = set(), []
    for s in range(1 << m):
        size = s.bit_count()
        if size < top or size == top and s & hubs or s in seen or not (verdict := keep(s)):
            continue
        reps.append((s, verdict))
        seen.add(s)
        stack = [s]
        while stack:
            x = stack.pop()
            for image in images:
                if image[x] not in seen:
                    seen.add(image[x])
                    stack.append(image[x])
    return reps


def reference_round_three(parent: tuple[int, ...], s: int) -> int:
    """``enumeration._mask_gate``'s verdict on the attachment mask ``s``
    without weights: 0 (reject), 1 (accept) or 2 (tie).  The child is built
    and refined one round from its round-two colours, each vertex ranked by
    its degree and sorted list of neighbour degrees.  z outside the last cell
    of that round rejects; a last cell of z and its twins only accepts."""
    n = len(parent) + 1
    z = n - 1
    child = [row | 1 << z if s >> v & 1 else row for v, row in enumerate(parent)] + [s]
    nlists = neighbor_lists(tuple(child))
    degs = [len(nb) for nb in nlists]

    def ranks(sigs):
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        return [rank[sig] for sig in sigs]

    two = ranks([(degs[v], tuple(sorted(degs[u] for u in nb))) for v, nb in enumerate(nlists)])
    three = ranks([(two[v], tuple(sorted(two[u] for u in nb))) for v, nb in enumerate(nlists)])
    if three[z] != max(three):
        return 0
    twins = {v for v in range(z) if (child[v] ^ s) & ~(1 << v | 1 << z) == 0}
    last = {v for v in range(z) if three[v] == three[z]}
    return 1 if last <= twins else 2


def reference_canonical_children(parent: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """Canonical children of ``parent`` on ``n`` vertices by the ungated path:
    the least attachment subset of every orbit of the parent's automorphism
    group, ascending, each child kept iff its new vertex has the largest
    degree, ends in the last cell of the partition refined from the unit
    partition, and shares an orbit with the canonical deletion vertex."""
    gens = canonical_data(parent).generators
    seen, reps = set(), []
    for m in range(1 << len(parent)):
        if m in seen:
            continue
        reps.append(m)
        orbit, stack = {m}, [m]
        while stack:
            x = stack.pop()
            for g in gens:
                y = sum(1 << g[v] for v in bits(x))
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        seen |= orbit
    children = []
    for m in reps:
        child = tuple(
            [row | 1 << (n - 1) if m >> v & 1 else row for v, row in enumerate(parent)] + [m]
        )
        degs = [row.bit_count() for row in child]
        if degs[n - 1] < max(degs):
            continue
        colors = refine_colors(neighbor_lists(child), [0] * n)
        if colors[n - 1] != max(colors):
            continue
        data = canonical_data(child)
        if data.orbit[data.order[n - 1]] == data.orbit[n - 1]:
            children.append(child)
    return children


def reference_encode_rows(adj: tuple[int, ...], n: int) -> str:
    """``graph6.encode_rows`` as it was written bit by bit: the upper
    triangle read column by column into an accumulator, flushed as a
    character every six bits and padded with zeros at the end."""
    if n > 62:
        raise ValueError(f"graph6 short form cannot encode {n} > 62 vertices")
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


def reference_parse_graph6(text: str) -> Graph:
    """``graph6.parse_graph6`` as it was written bit by bit: every character
    unpacked into a list of bits, read back pair by pair, the rest checked
    to be zero padding.  Its error messages are the reference."""
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


def reference_scan_chunk(args, journal=None):
    """``enumeration._scan_chunk`` as it was before cached reads selected
    their classes: every class of the chunk is read, and its tests run in
    order (a tight filter's alpha against ``stability_bound``, ``alpha``,
    ``defect``, ``min_degree``, ``connected``, then ``alpha_critical`` as
    Hajnal's gate and the edge walk in one), then the (k,l) verdicts by
    ``_within`` on a cached level, else by ``stable_fast``.  The reference
    for the selection's results and for the drop entries it narrows."""
    key, start, stop, n, spec, theorem_id = args
    bound = spec.tight and n > spec.tight[0] and stability_bound(n, *spec.tight)
    tests = [(lambda code, n, a, wit: a, want) for want in (bound, spec.alpha) if want]
    if spec.defect is not None:
        tests.append((enumeration._flag_evaluator("defect"), spec.defect))
    if spec.min_degree is not None:
        tests.append((lambda code, n, a, wit: enumeration._min_degree(code) >= spec.min_degree, True))
    for name in ("connected", "alpha_critical"):
        if getattr(spec, name) is not None:
            tests.append((enumeration._flag_evaluator(name), getattr(spec, name)))
    kls = [kl for kl in (spec.stable, spec.tight) if kl]
    cached = key[0] == n
    check = None if theorem_id is None else enumeration._PIPELINES[theorem_id].check
    full = (1 << n) - 1
    scanned = 0
    matches, alphas, failed = [], [], []
    codes, entries = enumeration._FRONTIERS[key][:2]
    if cached:
        items = zip(range(start, stop), codes[start:stop], entries[start:stop])
    else:
        items = enumeration._items(key, start, stop, n)
    for index, code, packed in items:
        scanned += 1
        a, wit = packed >> n, packed & full
        for test, want in tests:
            if test(code, n, a, wit) != want:
                break
        else:
            for k, l in kls:
                if n <= k or not (
                    enumeration._within(n, index, k, l, journal)
                    if cached
                    else stable_fast(code, n, k, l, a, wit)
                ):
                    break
            else:
                matches.append(code)
                alphas.append(packed)
                if check is not None and not check(code, n):
                    failed.append(code)
    return scanned, matches, alphas, failed, journal


def relabeled(g: Graph, rng) -> Graph:
    """``g`` under a random permutation of its vertices."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return from_edges(n, edges)


@st.composite
def graphs_st(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    if n == 1:
        return from_edges(1, [])
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs)))
    return from_edges(n, chosen)
