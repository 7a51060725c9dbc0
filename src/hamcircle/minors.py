"""Forbidden-substructure detection: K4 subgraphs, K4 and K2,3 minors,
and outerplanarity recognition with an independent circular-ordering oracle.

Every "is there a minor / is it outerplanar" question is decided first, by
a linear-time test:

* K4-minor-freeness by series-parallel reduction (Duffin 1965; Valdes,
  Tarjan & Lawler 1982): deleting vertices of degree at most 1 and
  suppressing vertices of degree 2 empties a graph iff it has no K4 minor;
* outerplanarity as planarity of the graph plus an apex joined to every
  vertex (Mitchell 1979 gives a direct linear test);
* a K2,3 minor by blocks: K2,3 is 2-connected, so it is a minor of some
  block, and a 2-connected graph without one is K4 or outerplanar.

A witness is built by search only when it is asked for and the decision
says one exists.  Both patterns have maximum degree 3, so containing one as
a minor is the same as containing a subdivision.  The searches therefore
place the branch vertices and route internally disjoint paths, which is
much faster than enumerating branch-set assignments and still yields a
branch-set witness (path interiors are absorbed into one endpoint's branch
set).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import networkx as nx

from .graphs import FiniteGraph, GraphError, augment_flow, blocks, canon_edge, vkey


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


def internally_disjoint_paths(g: FiniteGraph, a, b, need, forbid_edge_ab=False):
    """Up to `need` a-b paths, pairwise disjoint except at the ends.

    Unit-capacity augmenting paths on the vertex-split digraph: every
    vertex other than a, b becomes an in/out arc of capacity one, so flow
    value equals the largest internally vertex-disjoint packing (Menger).
    Returns a list of vertex sequences; length < need means no larger
    packing exists.
    """
    cap = {}
    for v in g.vertices:
        if v not in (a, b):
            cap[(("i", v), ("o", v))] = 1
    for x, y in g.edges:
        if forbid_edge_ab and {x, y} == {a, b}:
            continue
        for u, w in ((x, y), (y, x)):
            if w == a or u == b:
                continue
            cap[(("o", u), ("i", w))] = 1
    value, flow = augment_flow(cap, ("o", a), ("i", b), need)
    # decompose the integral flow into vertex paths
    nxt_of = {}
    for (u, v), f in flow.items():
        if f > 0 and u[0] == "o" and v[0] == "i":
            nxt_of.setdefault(u[1], []).append(v[1])
    for k in nxt_of:
        nxt_of[k].sort(key=vkey)
    paths = []
    for _ in range(value):
        path = [a]
        while path[-1] != b:
            path.append(nxt_of[path[-1]].pop(0))
        paths.append(path)
    return paths


def _k23_minor(g: FiniteGraph):
    """A K2,3 minor witness via two hub vertices joined by three
    internally disjoint paths of length at least 2, or None."""
    # a hub of degree < 3 cannot end three disjoint paths
    vs = [v for v in g.sorted_vertices() if g.degree(v) >= 3]
    for a, b in itertools.combinations(vs, 2):
        paths = internally_disjoint_paths(g, a, b, 3, forbid_edge_ab=True)
        if len(paths) >= 3:
            branch = {"a1": frozenset([a]), "a2": frozenset([b])}
            edges = {}
            for i, p in enumerate(paths[:3]):
                mid = p[1:-1]
                branch[f"b{i + 1}"] = frozenset(mid)
                edges[tuple(sorted(("a1", f"b{i + 1}")))] = canon_edge(p[0], p[1])
                edges[tuple(sorted(("a2", f"b{i + 1}")))] = canon_edge(p[-2], p[-1])
            w = MinorWitness("K23", branch, edges)
            validate_witness(g, w)
            return w
    return None


def has_k23_minor(g: FiniteGraph) -> bool:
    """True iff g has a K2,3 minor, decided block by block.

    K2,3 is 2-connected, so any K2,3 minor is a minor of one block.  A
    2-connected graph without a K2,3 minor is K4 or outerplanar, and
    neither has one.  A block on at most 4 vertices is K4 or outerplanar,
    so only larger blocks are tested.
    """
    return any(len(b) >= 5 and not is_outerplanar(g.subgraph(b)) for b in blocks(g))


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


def _route_paths(g, branch, pedges, used, idx, routes):
    """Backtracking router: realize pattern edges by internally disjoint
    host paths avoiding other branch vertices."""
    if idx == len(pedges):
        return True
    x, y = pedges[idx]
    a, b = branch[x], branch[y]
    blocked = (set(branch.values()) - {a, b}) | used

    def dfs(path):
        last = path[-1]
        for nb in g.neighbors(last):
            if nb == b and len(path) >= 1:
                routes[idx] = path + [b]
                newly = set(path[1:])
                used.update(newly)
                if _route_paths(g, branch, pedges, used, idx + 1, routes):
                    return True
                used.difference_update(newly)
                routes[idx] = None
            elif nb not in blocked and nb not in path and nb != a:
                if dfs(path + [nb]):
                    return True
        return False

    return dfs([a])


def _k4_minor(g: FiniteGraph):
    sub = find_k4_subgraph(g)
    if sub is not None:
        quad = sorted(sub, key=vkey)
        names = ["a", "b", "c", "d"]
        branch = {n: frozenset([v]) for n, v in zip(names, quad)}
        edges = {
            tuple(sorted((names[i], names[j]))): canon_edge(quad[i], quad[j])
            for i, j in itertools.combinations(range(4), 2)
        }
        w = MinorWitness("K4", branch, edges)
        validate_witness(g, w)
        return w
    vs = [v for v in g.sorted_vertices() if g.degree(v) >= 3]
    pedges = list(itertools.combinations(["a", "b", "c", "d"], 2))
    for quad in itertools.combinations(vs, 4):
        branch = dict(zip(["a", "b", "c", "d"], quad))
        routes = [None] * len(pedges)
        if _route_paths(g, branch, pedges, set(), 0, routes):
            bsets = {n: {v} for n, v in branch.items()}
            edges = {}
            for (x, y), path in zip(pedges, routes):
                interior = path[1:-1]
                bsets[x].update(interior)
                edges[tuple(sorted((x, y)))] = canon_edge(path[-2], path[-1])
            w = MinorWitness("K4", {k: frozenset(v) for k, v in bsets.items()}, edges)
            validate_witness(g, w)
            return w
    return None


def find_minor(g: FiniteGraph, pattern: str):
    """A validated witness that g has `pattern` ("K4" or "K23") as a minor,
    or None.

    The linear-time decision runs first; the witness search runs only when
    the decision says a witness exists.
    """
    if pattern == "K4":
        present, search = has_k4_minor(g), _k4_minor
    elif pattern == "K23":
        present, search = has_k23_minor(g), _k23_minor
    else:
        raise GraphError(f"unknown pattern {pattern!r}")
    if not present:
        return None
    w = search(g)
    if w is None:
        raise GraphError(f"{pattern} minor decided present but no witness was found")
    return w


def is_outerplanar(g: FiniteGraph) -> bool:
    """True iff g has no K4 minor and no K2,3 minor, that is, it can be
    drawn without crossings with every vertex on the outer face.

    Decided as planarity of g plus an apex joined to every vertex: a
    drawing of one gives a drawing of the other, with the apex in the
    outer face.  An outerplanar graph on n >= 2 vertices has at most
    2n - 3 edges, which rejects dense graphs at once.
    """
    n = len(g.vertices)
    if n <= 3:
        return True
    if len(g.edges) > 2 * n - 3:
        return False
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    apex = object()  # equal to no vertex of g
    h.add_edges_from((apex, v) for v in g.vertices)
    return nx.check_planarity(h)[0]


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
