"""Exhaustive and randomized graph corpora for the property suites.

Deterministic sources:

* all connected graphs on up to 8 vertices (atlas for <= 7, the shipped
  ``data/connected8.g6`` for 8);
* all 2-connected outerplanar graphs on 4..9 vertices, as polygon
  dissections up to isomorphism;
* all trees on a vertex range.

Seeded random sources for the Eulerian-split and structure-lemma suites.

Each source costs about as much as its output.  The atlas lists graphs by
vertex count (Read & Wilson, *An Atlas of Graphs*), so it is read once, up
to the largest count asked for, and bucketed.  The 8-vertex cache is
decoded from graph6 straight into ``FiniteGraph``.  Dissections need no
general isomorphism test: a dissection of a polygon has exactly one
Hamilton cycle, the polygon's boundary, so every isomorphism between two
dissections maps boundary to boundary and is a rotation or reflection of
the polygon.  Two chord sets are isomorphic iff they share the least image
under those 2n symmetries.
"""

from __future__ import annotations

import random
from importlib import resources
from itertools import chain

import networkx as nx

# networkx's private atlas generator lets a read stop early; the public
# graph_atlas_g builds all 1,253 graphs (about 5 times the cost up to n = 6)
try:
    from networkx.generators.atlas import _generate_graphs as _atlas_graphs
except ImportError:  # pragma: no cover - a networkx without the helper
    _atlas_graphs = nx.graph_atlas_g

from .graphs import FiniteGraph, GraphError, InvariantError, MultiGraph, canon_edge
from .outerplanar import positions_cross

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def _from_nx(g) -> FiniteGraph:
    relabel = _names(g.nodes())
    return FiniteGraph.build(
        relabel.values(), [(relabel[a], relabel[b]) for a, b in g.edges()]
    )


def _names(nodes) -> dict:
    """Names v0, v1, ... for networkx nodes, in the ``str`` order of the
    nodes (so 10 comes between 1 and 2)."""
    return {v: f"v{i}" for i, v in enumerate(sorted(nodes, key=str))}


def _atlas_by_order(n_min: int, n_max: int) -> dict:
    """The connected atlas graphs on n_min..n_max vertices, keyed by vertex
    count, from one read of the atlas.  The atlas lists graphs by vertex
    count, so the read stops at the first graph on more than n_max."""
    if not 1 <= n_min <= n_max <= 7:
        raise GraphError("atlas covers 1..7 vertices")
    out = {k: [] for k in range(n_min, n_max + 1)}
    for g in _atlas_graphs():
        k = g.number_of_nodes()
        if k > n_max:
            break
        if k in out and nx.is_connected(g):
            out[k].append(_from_nx(g))
    for k, graphs in out.items():
        if len(graphs) != CONNECTED_COUNTS[k]:
            raise InvariantError(f"atlas count mismatch at n={k}: {len(graphs)}")
    return out


_connected8_cache = None


def connected_graphs_8():
    """All 11117 connected graphs on 8 vertices, from the shipped data file;
    a missing or corrupt file is an `InvariantError`."""
    global _connected8_cache
    if _connected8_cache is not None:
        return _connected8_cache
    path = resources.files("hamcircle.data").joinpath("connected8.g6")
    try:
        text = path.read_bytes()
    except FileNotFoundError:
        raise InvariantError("connected-8 cache is missing") from None
    graphs = _read_graph6(text, 8)
    if len(graphs) != CONNECTED_COUNTS[8]:
        raise InvariantError("connected-8 cache is corrupt")
    _connected8_cache = graphs
    return graphs


def _read_graph6(text: bytes, n: int):
    """Decode graph6 lines of n-vertex graphs (n <= 62, no header) into
    graphs on v0..v{n-1}, named as ``_from_nx`` names networkx's decoding.

    A line is the byte 63 + n, then the upper triangle of the adjacency
    matrix column by column (0-1, 0-2, 1-2, 0-3, ...), six bits to a byte,
    high bit first, each byte offset by 63, with the bits past the last
    pair 0.  A line of the wrong length or first byte, a byte outside
    63..126, or a padding bit that is set is an ``InvariantError``.  Each
    byte is decoded by a table, one for its position, of the edges each
    value sets there."""
    name = _names(range(n))
    vertices = frozenset(name.values())
    pairs = [canon_edge(name[i], name[j]) for j in range(1, n) for i in range(j)]
    width = -(-len(pairs) // 6)
    tables = []  # per position, byte -> its edges, or None if not valid there
    for p in range(width):
        part = pairs[6 * p:6 * p + 6]
        padding = (1 << 6 - len(part)) - 1
        table = [None] * 256
        for c in range(64):
            if not c & padding:
                table[63 + c] = tuple(e for k, e in enumerate(part) if c >> 5 - k & 1)
        tables.append(table)
    out = []
    for line in text.split():
        if len(line) != 1 + width or line[0] != 63 + n:
            raise InvariantError(f"not a {n}-vertex graph6 line: {line!r}")
        parts = [t[c] for t, c in zip(tables, line[1:])]
        if None in parts:
            raise InvariantError(
                f"graph6 line has a byte out of range or a padding bit set: {line!r}"
            )
        out.append(FiniteGraph(vertices, frozenset(chain.from_iterable(parts))))
    return out


def connected_graphs_upto(n: int):
    """All connected graphs with 1..n vertices, n <= 8."""
    if n > 8:
        raise GraphError("corpus covers up to 8 vertices")
    out = []
    if n >= 1:
        for graphs in _atlas_by_order(1, min(n, 7)).values():
            out.extend(graphs)
    if n == 8:
        out.extend(connected_graphs_8())
    return out


# ---------------------------------------------------------------------------
# 2-connected outerplanar graphs as polygon dissections


def _chords(n: int):
    """The chords (i, j), i < j, of the convex n-gon, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 2, n) if not (i == 0 and j == n - 1)]


def _noncrossing_chord_subsets(n: int):
    """All sets of pairwise non-crossing chords of the convex n-gon."""
    chords = _chords(n)
    out = []

    def rec(idx, chosen):
        if idx == len(chords):
            out.append(tuple(chosen))
            return
        rec(idx + 1, chosen)
        c = chords[idx]
        if not any(positions_cross(c, o) for o in chosen):
            chosen.append(c)
            rec(idx + 1, chosen)
            chosen.pop()

    rec(0, [])
    return out


def _dihedral_keys(n: int):
    """A function from a chord set of the n-gon to the least bitmask image
    of its chords under the 2n rotations and reflections of the polygon,
    with chord (i, j), i < j, as bit k for its index k in lexicographic
    order."""
    chords = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bit = {c: 1 << k for k, c in enumerate(chords)}
    images = [
        {c: bit[tuple(sorted((s * x + r) % n for x in c))] for c in chords}
        for r in range(n)
        for s in (1, -1)
    ]
    return lambda chosen: min(sum(map(im.__getitem__, chosen)) for im in images)


def two_connected_outerplanar(n_min: int = 4, n_max: int = 9):
    """All 2-connected outerplanar graphs with n_min..n_max vertices, up to
    isomorphism: a cycle plus non-crossing chords, the first chord set of
    each isomorphism class in enumeration order.

    The boundary cycle is the graph's only Hamilton cycle, so isomorphisms
    between dissections are the polygon's rotations and reflections, and
    ``_dihedral_keys`` decide isomorphism exactly (the counts per n are
    OEIS A001004)."""
    out = []
    for n in range(n_min, n_max + 1):
        name = _names(range(n))
        base = [(i, (i + 1) % n) for i in range(n)]
        dihedral_key = _dihedral_keys(n)
        seen = set()
        for chords in _noncrossing_chord_subsets(n):
            key = dihedral_key(chords)
            if key in seen:
                continue
            seen.add(key)
            out.append(FiniteGraph.build(
                name.values(), [(name[a], name[b]) for a, b in base + list(chords)]
            ))
    return out


def trees_range(n_min: int = 3, n_max: int = 10):
    out = []
    for n in range(n_min, n_max + 1):
        if n == 1:
            out.append(FiniteGraph.build(["v0"], []))
            continue
        if n == 2:
            out.append(FiniteGraph.build(["v0", "v1"], [("v0", "v1")]))
            continue
        out.extend(_from_nx(t) for t in nx.nonisomorphic_trees(n))
    return out


# ---------------------------------------------------------------------------
# seeded random sources


def _closed_walk_multigraph(seq):
    """Multigraph whose edges are the consecutive pairs of a cyclic vertex
    sequence (no immediate repeats allowed)."""
    n = len(seq)
    edges = []
    for i in range(n):
        a, b = seq[i], seq[(i + 1) % n]
        if a == b:
            raise GraphError("closed walk revisits a vertex immediately")
        edges.append((i, a, b))
    return MultiGraph.build(set(seq), edges)


def _random_cyclic_no_repeat(rng: random.Random, items, tries=200):
    for _ in range(tries):
        seq = list(items)
        rng.shuffle(seq)
        if all(seq[i] != seq[(i + 1) % len(seq)] for i in range(len(seq))):
            return seq
    raise GraphError("could not arrange the walk without immediate repeats")


def random_eulerian_multigraph(rng: random.Random, max_n: int = 10) -> MultiGraph:
    """A random connected Eulerian multigraph with <= max_n vertices and at
    least one vertex of degree exactly 4 (built from a random closed walk;
    each appearance in the walk contributes degree 2)."""
    n = rng.randint(3, max_n)
    verts = [f"v{i}" for i in range(n)]
    items = list(verts)
    twice = rng.sample(verts, rng.randint(1, max(1, n // 2)))
    items.extend(twice)
    # a few triple appearances for degree-6 vertices, keeping some degree 4
    spare = [v for v in verts if v not in twice]
    if spare and rng.random() < 0.3:
        extra = rng.sample(spare, 1)
        items.extend(extra * 2)
    return _closed_walk_multigraph(_random_cyclic_no_repeat(rng, items))


def random_two_four_multigraph(rng: random.Random, max_n: int = 10) -> MultiGraph:
    """A random connected Eulerian multigraph with all degrees in {2, 4}
    and at least one degree-4 vertex."""
    n = rng.randint(3, max_n)
    verts = [f"v{i}" for i in range(n)]
    items = list(verts)
    items.extend(rng.sample(verts, rng.randint(1, n - 1)))
    return _closed_walk_multigraph(_random_cyclic_no_repeat(rng, items))


def random_two_connected(rng: random.Random, max_n: int = 10) -> FiniteGraph:
    """A random Hamiltonian (hence 2-connected) graph: a cycle plus extras."""
    n = rng.randint(4, max_n)
    verts = [f"v{i}" for i in range(n)]
    order = list(verts)
    rng.shuffle(order)
    edges = {canon_edge(order[i], order[(i + 1) % n]) for i in range(n)}
    extras = rng.randint(0, n)
    for _ in range(extras):
        a, b = rng.sample(verts, 2)
        edges.add(canon_edge(a, b))
    return FiniteGraph(frozenset(verts), frozenset(edges))


def random_dissection(rng: random.Random, max_n: int = 10) -> FiniteGraph:
    """A random 2-connected outerplanar graph (cycle plus a random set of
    non-crossing chords); such graphs have no K_{2,3} minor."""
    n = rng.randint(4, max_n)
    verts = [f"v{i}" for i in range(n)]
    edges = {canon_edge(verts[i], verts[(i + 1) % n]) for i in range(n)}
    chords = []
    pool = _chords(n)
    rng.shuffle(pool)
    for c in pool:
        if rng.random() < 0.5:
            continue
        if not any(positions_cross(c, o) for o in chords):
            chords.append(c)
            edges.add(canon_edge(verts[c[0]], verts[c[1]]))
    return FiniteGraph(frozenset(verts), frozenset(edges))


def random_connected_subset(rng: random.Random, g: FiniteGraph, min_size: int):
    """A random connected vertex subset of size >= min_size (grown by BFS)."""
    if len(g.vertices) < min_size:
        raise GraphError("graph too small")
    size = rng.randint(min_size, len(g.vertices))
    start = rng.choice(sorted(g.vertices))
    chosen = {start}
    frontier = set(g.adj[start])
    while len(chosen) < size and frontier:
        v = rng.choice(sorted(frontier))
        chosen.add(v)
        frontier |= g.adj[v]
        frontier -= chosen
    return frozenset(chosen)
