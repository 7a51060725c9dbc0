"""Exhaustive and randomized graph corpora for the property suites.

Deterministic sources:

* all connected graphs on up to 8 vertices (atlas for <= 7, a cached
  canonical augmentation for 8);
* all 2-connected outerplanar graphs on 4..9 vertices, as polygon
  dissections up to isomorphism;
* all trees on a vertex range.

Seeded random sources for the Eulerian-split and structure-lemma suites.
"""

from __future__ import annotations

import random
from importlib import resources

import networkx as nx

from .graphs import FiniteGraph, GraphError, InvariantError, MultiGraph, canon_edge

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def _from_nx(g) -> FiniteGraph:
    relabel = {v: f"v{i}" for i, v in enumerate(sorted(g.nodes(), key=str))}
    return FiniteGraph.build(
        relabel.values(), [(relabel[a], relabel[b]) for a, b in g.edges()]
    )


def _to_nx(g: FiniteGraph):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


def connected_atlas(n: int):
    """All connected graphs on exactly n <= 7 vertices (networkx atlas)."""
    if not 1 <= n <= 7:
        raise GraphError("atlas covers 1..7 vertices")
    out = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() == n and n > 0 and nx.is_connected(g):
            out.append(_from_nx(g))
    if len(out) != CONNECTED_COUNTS[n]:
        raise InvariantError(f"atlas count mismatch at n={n}: {len(out)}")
    return out


def _dedup_iso(graphs):
    """Isomorphism-reduce a list of networkx graphs (invariant buckets + VF2).

    The bucket key is the sorted multiset of (degree, sorted neighbour
    degrees); VF2 decides isomorphism within a bucket.
    """
    buckets = {}
    out = []
    for g in graphs:
        deg = dict(g.degree())
        key = tuple(sorted((deg[v], tuple(sorted(deg[u] for u in g[v]))) for v in g))
        bucket = buckets.setdefault(key, [])
        if any(nx.is_isomorphic(g, h) for h in bucket):
            continue
        bucket.append(g)
        out.append(g)
    return out


def _generate_connected8():
    """Every connected 8-vertex graph is a connected 7-vertex graph plus a
    new vertex joined to a nonempty subset (remove any non-cutvertex)."""
    seven = [_to_nx(g) for g in connected_atlas(7)]
    candidates = []
    for g in seven:
        nodes = sorted(g.nodes())
        for mask in range(1, 1 << 7):
            h = g.copy()
            h.add_node("new")
            for i in range(7):
                if mask >> i & 1:
                    h.add_edge("new", nodes[i])
            candidates.append(nx.convert_node_labels_to_integers(h))
    result = _dedup_iso(candidates)
    if len(result) != CONNECTED_COUNTS[8]:
        raise InvariantError(f"connected-8 generation found {len(result)} graphs")
    return result


_connected8_cache = None


def connected_graphs_8():
    """All 11117 connected graphs on 8 vertices, from the shipped cache."""
    global _connected8_cache
    if _connected8_cache is not None:
        return _connected8_cache
    path = resources.files("hamcircle.data").joinpath("connected8.g6")
    try:
        text = path.read_bytes()
    except FileNotFoundError:
        graphs = _generate_connected8()
    else:
        graphs = [
            nx.from_graph6_bytes(line.strip())
            for line in text.splitlines()
            if line.strip()
        ]
        if len(graphs) != CONNECTED_COUNTS[8]:
            raise InvariantError("connected-8 cache is corrupt")
    _connected8_cache = [_from_nx(g) for g in graphs]
    return _connected8_cache


def connected_graphs_upto(n: int):
    """All connected graphs with 1..n vertices, n <= 8."""
    if n > 8:
        raise GraphError("corpus covers up to 8 vertices")
    out = []
    for k in range(1, min(n, 7) + 1):
        out.extend(connected_atlas(k))
    if n == 8:
        out.extend(connected_graphs_8())
    return out


def write_connected8_cache(path):
    graphs = _generate_connected8()
    with open(path, "wb") as fh:
        for g in graphs:
            fh.write(nx.to_graph6_bytes(g, header=False))


# ---------------------------------------------------------------------------
# 2-connected outerplanar graphs as polygon dissections


def _noncrossing_chord_subsets(n: int):
    """All sets of pairwise non-crossing chords of the convex n-gon."""
    chords = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]

    def crosses(c1, c2):
        (a, b), (c, d) = c1, c2
        return (a < c < b < d) or (c < a < d < b)

    out = []

    def rec(idx, chosen):
        if idx == len(chords):
            out.append(tuple(chosen))
            return
        rec(idx + 1, chosen)
        c = chords[idx]
        if all(not crosses(c, o) for o in chosen):
            chosen.append(c)
            rec(idx + 1, chosen)
            chosen.pop()

    rec(0, [])
    return out


def two_connected_outerplanar(n_min: int = 4, n_max: int = 9):
    """All 2-connected outerplanar graphs with n_min..n_max vertices, up to
    isomorphism (a cycle plus non-crossing chords, deduplicated)."""
    out = []
    for n in range(n_min, n_max + 1):
        base = [(i, (i + 1) % n) for i in range(n)]
        candidates = []
        for chords in _noncrossing_chord_subsets(n):
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from(base)
            g.add_edges_from(chords)
            candidates.append(g)
        out.extend(_from_nx(g) for g in _dedup_iso(candidates))
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
    pool = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]
    rng.shuffle(pool)
    for c in pool:
        if rng.random() < 0.5:
            continue
        (a, b) = c
        ok = all(
            not ((a < x < b < y) or (x < a < y < b)) for x, y in chords
        )
        if ok:
            chords.append(c)
            edges.add(canon_edge(verts[a], verts[b]))
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
