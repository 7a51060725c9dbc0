"""Forbidden-substructure detection: K4 subgraphs, K4 and K2,3 minors,
and outerplanarity recognition with an independent circular-ordering oracle.

Every "is there a minor / is it outerplanar" question is decided first, by
a linear-time test:

* K4-minor-freeness by series-parallel reduction (Duffin 1965; Valdes,
  Tarjan & Lawler 1982): deleting vertices of degree at most 1 and
  suppressing vertices of degree 2 empties a graph iff it has no K4 minor;
* outerplanarity block by block, by degree-2 elimination (after Mitchell
  1979): a degree-2 vertex is removed and its neighbours joined until two
  vertices are left, and the removed vertices, put back between their
  neighbours in reverse order, give the unique Hamilton cycle in circle
  order.  Getting stuck, or reducing a second vertex onto one pair too
  early, shows a K4 or K2,3 minor; an order is returned only after it is
  certified (a Hamilton cycle, no two chords crossing), so acceptance is a
  proof by itself;
* a K2,3 minor by blocks: K2,3 is 2-connected, so it is a minor of some
  block, and a 2-connected graph without one is K4 or outerplanar.

A witness is built only when it is asked for and the decision says one
exists.  Both patterns have maximum degree 3, so a minimal set of edges that
still contains one as a minor is a subdivision of it (Diestel, *Graph
Theory*, 1.7).  Both patterns are 2-connected, so such a set lies inside
one block.  The witness helper takes the first block on which the decision
holds, deletes each of its edges, in canonical order, whose removal keeps
the decision true, then reads the subdivision: its degree-3 vertices are
the branch vertices, and the paths of degree-2 vertices between them become
branch sets.  Edges go in galloping batches of 1, 2, 4, ... while deletions
succeed, and one at a time after a failed batch.  Having a minor survives
deleting edges, so this deletes exactly the edges the one-at-a-time loop
would, and the witness is that loop's.  A block whose every edge is needed
costs one decision per edge, O(m (n + m)); a run of deletable edges, a few.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import (
    FiniteGraph,
    GraphError,
    InvariantError,
    blocks,
    canon_edge,
    max_flow,
    vkey,
)


@dataclass(frozen=True)
class MinorWitness:
    pattern: str  # "K4" or "K23"
    branch_sets: dict  # pattern vertex -> frozenset of host vertices
    edges: dict  # pattern edge (tuple of pattern vertices) -> host edge

    def to_obj(self):
        return {
            "pattern": self.pattern,
            "branch_sets": {
                k: sorted(v, key=vkey) for k, v in sorted(self.branch_sets.items())
            },
            "edges": [
                {"pattern_edge": list(pe), "host_edge": list(he)}
                for pe, he in sorted(self.edges.items())
            ],
        }


_PATTERNS = {
    "K4": (["a", "b", "c", "d"], list(itertools.combinations(["a", "b", "c", "d"], 2))),
    "K23": (
        ["a1", "a2", "b1", "b2", "b3"],
        [(x, y) for x in ("a1", "a2") for y in ("b1", "b2", "b3")],
    ),
}


def validate_witness(g: FiniteGraph, w: MinorWitness):
    """Raise if the witness violates its own invariants."""
    pverts, pedges = _PATTERNS[w.pattern]
    if set(w.branch_sets) != set(pverts):
        raise GraphError("witness branch sets do not match the pattern")
    seen = set()
    for pv in pverts:
        bs = w.branch_sets[pv]
        if not bs or not bs <= g.vertices:
            raise GraphError(f"branch set for {pv} empty or outside the host")
        if bs & seen:
            raise GraphError("branch sets overlap")
        seen |= bs
        if not g.subgraph(bs).is_connected():
            raise GraphError(f"branch set for {pv} is disconnected")
    for pe in pedges:
        key = tuple(sorted(pe))
        if key not in w.edges:
            raise GraphError(f"missing host edge for pattern edge {pe}")
        a, b = w.edges[key]
        if not g.has_edge(a, b):
            raise GraphError(f"host edge {a}-{b} not in graph")
        x, y = sorted(pe)
        if not (
            (a in w.branch_sets[x] and b in w.branch_sets[y])
            or (a in w.branch_sets[y] and b in w.branch_sets[x])
        ):
            raise GraphError(f"host edge {a}-{b} does not join the right branch sets")


def find_k4_subgraph(g: FiniteGraph):
    """First 4-clique in canonical order, or None.

    Walks a < b < c < d in ``vkey`` rank, each adjacent to every vertex
    before it, so the first clique found is the lexicographically first.
    """
    vs = g.sorted_vertices()
    rank = {v: i for i, v in enumerate(vs)}
    adj = g.adj
    later = {v: sorted((w for w in adj[v] if rank[w] > rank[v]), key=rank.get) for v in vs}
    for a in vs:
        for b in later[a]:
            for c in later[b]:
                if c not in adj[a]:
                    continue
                for d in later[c]:
                    if d in adj[a] and d in adj[b]:
                        return frozenset((a, b, c, d))
    return None


# -- internally disjoint path packing (Menger via unit-capacity flow) -------


def internally_disjoint_paths(g: FiniteGraph, a, b, need):
    """Up to `need` a-b paths, pairwise disjoint except at the ends.

    Unit-capacity augmenting paths on the vertex-split digraph: every
    vertex other than a, b becomes an in/out arc of capacity one, so flow
    value equals the largest internally vertex-disjoint packing (Menger).
    The nodes ("i", v) and ("o", v) are numbered in ``str`` order, which
    fixes the paths found.  Returns a list of vertex sequences; length <
    need means no larger packing exists.
    """
    arcs = [(("i", v), ("o", v)) for v in g.vertices if v not in (a, b)]
    for x, y in g.edges:
        for u, w in ((x, y), (y, x)):
            if w != a and u != b:
                arcs.append((("o", u), ("i", w)))
    nodes = sorted(((s, v) for v in g.vertices for s in "io"), key=str)
    number = {x: k for k, x in enumerate(nodes)}
    value, flow = max_flow(len(nodes), [(number[u], number[w], 1) for u, w in arcs],
                           number[("o", a)], number[("i", b)], need)
    # decompose the integral flow into vertex paths
    nxt_of = {}
    for (u, w), f in zip(arcs, flow):
        if f and u[0] == "o":
            nxt_of.setdefault(u[1], []).append(w[1])
    for k in nxt_of:
        nxt_of[k].sort(key=vkey)
    paths = []
    for _ in range(value):
        path = [a]
        while path[-1] != b:
            path.append(nxt_of[path[-1]].pop(0))
        paths.append(path)
    return paths


def has_k23_minor(g: FiniteGraph) -> bool:
    """True iff g has a K2,3 minor, decided block by block.

    K2,3 is 2-connected, so any K2,3 minor is a minor of one block.  A
    2-connected graph without a K2,3 minor is K4 or outerplanar, and
    neither has one.  A block on at most 4 vertices is K4 or outerplanar,
    so only larger blocks are tested.
    """
    return any(len(b) >= 5 and circle_order(g.subgraph(b)) is None for b in blocks(g))


def has_k4_minor(g: FiniteGraph) -> bool:
    """True iff g has a K4 minor, by series-parallel reduction.

    Deleting a vertex of degree at most 1, and suppressing a vertex of
    degree 2 (its two neighbours become adjacent; a parallel edge merges
    into the existing one), neither creates nor destroys a K4 minor.  A
    graph without one reduces to nothing; a graph with one gets stuck at
    minimum degree 3.
    """
    adj = {v: set(ns) for v, ns in g.adj.items()}
    work = [v for v, ns in adj.items() if len(ns) <= 2]
    while work:
        v = work.pop()
        if v not in adj or len(adj[v]) > 2:
            continue
        ns = adj.pop(v)
        for u in ns:
            adj[u].discard(v)
        if len(ns) == 2:
            u, w = ns
            adj[u].add(w)
            adj[w].add(u)
        work.extend(u for u in ns if len(adj[u]) <= 2)
    return bool(adj)


def _minimal_subgraph(g: FiniteGraph, present) -> FiniteGraph:
    """An edge-minimal subgraph of g on which the decision `present` holds,
    given that it holds on g, without isolated vertices.

    Edges are tried in canonical order, in galloping batches: the next
    `step` edges are deleted together; if the decision holds, `step`
    doubles, else the batch is put back and its first edge tried alone, and
    kept if that fails.  An edge kept once is still needed at the end.
    """
    edges = set(g.edges)
    order = g.sorted_edges()
    i, step = 0, 1
    while i < len(order):
        batch = order[i:i + step]
        edges.difference_update(batch)
        if present(FiniteGraph(g.vertices, frozenset(edges))):
            i += len(batch)
            step *= 2
            continue
        edges.update(batch)
        if step == 1:
            i += 1
        step = 1
    return FiniteGraph(frozenset(v for e in edges for v in e), frozenset(edges))


def _subdivision_witness(g: FiniteGraph, pattern: str, present):
    """A witness read off a minimal subgraph of g on which the decision
    `present` for `pattern` holds, or None if that subgraph is not a
    subdivision of the pattern.

    The branch vertices are the degree-3 vertices, named in ``vkey``
    order; every other vertex has degree 2 and lies on one path between
    two of them.  For K4 a path's interior joins its first end's branch
    set; for K2,3 each of the three paths from a1 to a2 has an interior,
    which becomes a b set.
    """
    sub = _minimal_subgraph(g, present)
    hubs = [v for v in sub.sorted_vertices() if sub.degree(v) == 3]
    names = ["a", "b", "c", "d"] if pattern == "K4" else ["a1", "a2"]
    if len(hubs) != len(names) or any(sub.degree(v) not in (2, 3) for v in sub.vertices):
        return None
    name = dict(zip(hubs, names))
    paths = []
    for h in hubs:
        for v in sub.neighbors(h):
            path = [h, v]
            while path[-1] not in name:
                x, y = sub.adj[path[-1]]
                path.append(y if x == path[-2] else x)
            if name[h] < name[path[-1]]:
                paths.append(path)
    branch = {n: {h} for h, n in name.items()}
    edges = {}
    for i, p in enumerate(paths):
        x, y = name[p[0]], name[p[-1]]
        if pattern == "K4":
            branch[x].update(p[1:-1])
            edges[(x, y)] = canon_edge(p[-2], p[-1])
        else:
            b = f"b{i + 1}"
            branch[b] = set(p[1:-1])
            edges[(x, b)] = canon_edge(p[0], p[1])
            edges[(y, b)] = canon_edge(p[-2], p[-1])
    return MinorWitness(pattern, {k: frozenset(v) for k, v in branch.items()}, edges)


def find_minor(g: FiniteGraph, pattern: str):
    """A validated witness that g has `pattern` ("K4" or "K23") as a minor,
    or None.

    The linear-time decision runs first; the witness is built only when
    the decision says one exists.  A decision without a valid witness is
    a bug and raises ``InvariantError``.
    """
    present = {"K4": has_k4_minor, "K23": has_k23_minor}.get(pattern)
    if present is None:
        raise GraphError(f"unknown pattern {pattern!r}")
    if not present(g):
        return None
    # both patterns are 2-connected, so a minor lies inside one block: only
    # the first block that has one is shrunk (with one block, g is that block)
    bs = blocks(g)
    block = bs[0] if len(bs) == 1 else next((b for b in bs if present(g.subgraph(b))), None)
    if block is None:
        raise InvariantError(f"{pattern} minor decided present but in no block")
    w = _subdivision_witness(g.subgraph(block), pattern, present)
    if w is None:
        raise InvariantError(f"{pattern} minor decided present but no witness was found")
    try:
        validate_witness(g, w)
    except GraphError as e:
        raise InvariantError(f"{pattern} witness is invalid: {e}") from e
    return w


def _eliminate(g: FiniteGraph):
    """Degree-2 elimination of a 2-connected g, then reinsertion: a cyclic
    vertex order, or None when the elimination shows a K4 or K2,3 minor.

    Removing a vertex v of degree 2 with neighbours u, w and adding uw
    keeps g 2-connected, and outerplanar if it was; v sat between u and w
    on the Hamilton cycle, so uw is an edge of the smaller graph's cycle.
    A second removal on the pair {u, w} while a third vertex is left gives
    three internally disjoint u-w paths with interiors (through the two
    removed vertices and through what is left), so a K2,3 minor; a third
    removal on one pair cannot happen after that.  A 2-connected graph on
    three or more vertices without a degree-2 vertex has a K4 minor.
    Otherwise two adjacent vertices are left, and each removed vertex is
    put back between its pair, last removed first, in a linked ring.
    """
    adj = {v: set(ns) for v, ns in g.adj.items()}
    work = [v for v, ns in adj.items() if len(ns) == 2]
    removed = []
    pairs = set()
    while len(adj) > 2:
        while work:
            v = work.pop()
            if v in adj and len(adj[v]) == 2:
                break
        else:
            return None
        u, w = ns = adj.pop(v)
        pair = frozenset(ns)
        if pair in pairs and len(adj) > 2:
            return None
        pairs.add(pair)
        removed.append((v, u, w))
        adj[u].discard(v)
        adj[w].discard(v)
        adj[u].add(w)
        adj[w].add(u)
        work += (x for x in ns if len(adj[x]) == 2)
    u, w = adj
    nxt = {u: w, w: u}
    for v, a, b in reversed(removed):
        if nxt[a] != b:
            a, b = b, a
        nxt[a], nxt[v] = v, b
    order = [u]
    for _ in range(len(nxt) - 1):
        order.append(nxt[order[-1]])
    return order


def circle_order(g: FiniteGraph):
    """The unique Hamilton cycle of a 2-connected outerplanar g in circle
    order, or None if g is not outerplanar.

    The order comes from ``_eliminate`` and is certified before it is
    returned: consecutive vertices are adjacent and, in one stack sweep
    over the edges' position spans, no two edges cross.  An accepted order
    is thus an outerplanar drawing of g.  A certificate that fails is a
    bug and raises ``InvariantError``.
    """
    order = _eliminate(g)
    if order is None:
        return None
    n = len(g.vertices)
    pos = {v: i for i, v in enumerate(order)}
    adj = g.adj
    if len(order) != n or len(pos) != n or any(
        order[i - 1] not in adj[v] for i, v in enumerate(order)
    ):
        raise InvariantError("the elimination order is not a Hamilton cycle")
    # spans opening at each position, longest first; an open span ending
    # before a new one ends is crossed by it
    opens = [[] for _ in range(n)]
    for a, b in g.edges:
        i, j = pos[a], pos[b]
        opens[min(i, j)].append(max(i, j))
    stack = []
    for i, ends in enumerate(opens):
        while stack and stack[-1] == i:
            stack.pop()
        for j in sorted(ends, reverse=True):
            if stack and j > stack[-1]:
                raise InvariantError("two chords of the elimination order cross")
            stack.append(j)
    return order


def is_outerplanar(g: FiniteGraph) -> bool:
    """True iff g has no K4 minor and no K2,3 minor, that is, it can be
    drawn without crossings with every vertex on the outer face.

    An outerplanar graph on n >= 2 vertices has at most 2n - 3 edges,
    which rejects dense graphs at once.  Otherwise each block on at least
    4 vertices is tested by ``circle_order``: a graph is outerplanar iff
    its blocks are, and a block on at most 3 vertices is an edge or a
    triangle.
    """
    n = len(g.vertices)
    if n <= 3:
        return True
    if len(g.edges) > 2 * n - 3:
        return False
    return all(len(b) < 4 or circle_order(g.subgraph(b)) is not None for b in blocks(g))


def k4_minor_equals_subgraph(g: FiniteGraph) -> bool:
    """Property runner: under no-K2,3-minor, K4 minor iff K4 subgraph."""
    if has_k23_minor(g):
        raise GraphError("graph has a K2,3 minor; equivalence premise violated")
    return (find_minor(g, "K4") is not None) == (find_k4_subgraph(g) is not None)


def circular_ordering_oracle(g: FiniteGraph):
    """A cyclic vertex order with no two crossing chords, or None.

    Brute-force placement search, limited to 10 vertices.
    """
    vs = g.sorted_vertices()
    n = len(vs)
    if n > 10:
        raise GraphError("circular ordering oracle limited to 10 vertices")
    if n <= 3:
        return list(vs)
    first = vs[0]
    adj = g.adj

    def place(order, pos, blocked):
        # blocked: bitmask of the positions strictly inside a placed chord.
        # Every later chord (q, p) has p beyond all placed positions, so it
        # crosses a placed chord iff q is blocked; blocked positions only grow.
        if len(order) == n:
            return list(order)
        p = len(order)
        for v in vs:
            if v in pos:
                continue
            qs = [pos[u] for u in adj[v] if u in pos]
            if any(blocked >> q & 1 for q in qs):
                continue
            grown = blocked | ((1 << p) - (1 << (min(qs) + 1)) if qs else 0)
            newly = grown & ~blocked
            # a vertex that becomes blocked can take no further chord
            if any(
                w != v and w not in pos
                for i in range(p)
                if newly >> i & 1
                for w in adj[order[i]]
            ):
                continue
            order.append(v)
            pos[v] = p
            res = place(order, pos, grown)
            if res is not None:
                return res
            order.pop()
            del pos[v]
        return None

    return place([first], {first: 0}, 0)
