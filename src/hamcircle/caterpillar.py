"""Caterpillar trees and Hamilton cycles in their squares.

A caterpillar is a tree that leaves only a path when its leaves are
removed.  The partition machinery below orders the vertex set into
consecutive classes along the spine; squares of caterpillars are then
covered by "square strings" sweeping classes of one parity, which is what
the constructive Hamilton-cycle routine and the cover lemma use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import (
    FiniteGraph,
    GraphError,
    InvariantError,
    MultiGraph,
    _apex_paths,
    canon_edge,
    eulerian_v_splits,
    is_eulerian,
    kth_power,
    vkey,
)


def _check_tree(t: FiniteGraph):
    if len(t.vertices) == 0:
        raise GraphError("empty graph is not a tree")
    if len(t.edges) != len(t.vertices) - 1 or not t.is_connected():
        raise GraphError("graph is not a tree")


def is_caterpillar(t: FiniteGraph):
    """The spine path (ordered vertex list) if t is a caterpillar, else None.

    The spine is T minus its leaves; it may be empty (single vertex or
    single edge) or a single vertex (stars).
    """
    _check_tree(t)
    if len(t.vertices) == 1:
        return list(t.vertices)
    leaves = {v for v in t.vertices if t.degree(v) <= 1}
    spine = t.vertices - leaves
    if not spine:
        return []
    sub = t.subgraph(spine)
    if not sub.is_connected():
        return None
    if any(sub.degree(v) > 2 for v in spine):
        return None
    # order the path
    ends = sorted((v for v in spine if sub.degree(v) <= 1), key=vkey)
    start = ends[0]
    order = [start]
    prev = None
    while len(order) < len(spine):
        nxt = [x for x in sub.adj[order[-1]] if x != prev]
        prev = order[-1]
        order.append(nxt[0])
    return order


def find_s_k13(t: FiniteGraph):
    """A subgraph isomorphic to the once-subdivided 3-star, or None.

    Looks for a center with three branches of length two; works on any
    graph, not just trees.
    """
    import itertools

    for c in t.sorted_vertices():
        nbrs = t.neighbors(c)
        if len(nbrs) < 3:
            continue
        # each chosen neighbor needs its own second vertex
        for trio in itertools.combinations(nbrs, 3):
            picks = []
            used = {c, *trio}
            ok = True
            for m in trio:
                ext = [x for x in t.neighbors(m) if x not in used]
                if not ext:
                    ok = False
                    break
                picks.append(ext[0])
                used.add(ext[0])
            if ok:
                vs = {c, *trio, *picks}
                es = {canon_edge(c, m) for m in trio} | {
                    canon_edge(m, p) for m, p in zip(trio, picks)
                }
                return FiniteGraph(frozenset(vs), frozenset(es))
    return None


@dataclass(frozen=True)
class OrderedCaterpillarPartition:
    tree: FiniteGraph
    spine: tuple  # oriented spine sequence (may be a convention choice)
    classes: tuple  # frozensets in ascending class order
    jumping: tuple  # per-class jumping vertex; None for the final
    # all-leaf class when it has no non-leaf member

    @property
    def index_of(self):
        idx = {}
        for i, cls in enumerate(self.classes):
            for v in cls:
                idx[v] = i
        return idx


def caterpillar_partition(t: FiniteGraph) -> OrderedCaterpillarPartition:
    """The ordered partition of a caterpillar's vertices.

    The head class is the singleton of the minimal spine vertex; each later
    class holds one spine vertex together with the previous spine vertex's
    leaves; the tail class holds the last spine vertex's leaves.
    Degenerate spines (stars, a single edge) collapse to a canonically
    chosen single "spine" vertex.
    """
    spine = is_caterpillar(t)
    if spine is None:
        raise GraphError("not a caterpillar")
    if len(t.vertices) < 2:
        raise GraphError("partition needs at least 2 vertices")
    leaves = {v for v in t.vertices if t.degree(v) <= 1}
    if not spine:
        spine = [min(t.vertices, key=vkey)]
        leaves = t.vertices - {spine[0]}
    elif vkey(spine[0]) > vkey(spine[-1]):
        spine = list(reversed(spine))
    classes = [frozenset([spine[0]])]
    jumping = [spine[0]]
    for prev, cur in zip(spine, spine[1:]):
        classes.append(frozenset({cur} | (t.adj[prev] & leaves)))
        jumping.append(cur)
    tail = frozenset(t.adj[spine[-1]] & leaves)
    if tail:
        classes.append(tail)
        jumping.append(None)
    part = OrderedCaterpillarPartition(t, tuple(spine), tuple(classes), tuple(jumping))
    _assert_partition_properties(part)
    return part


def _assert_partition_properties(part: OrderedCaterpillarPartition):
    t = part.tree
    covered = set()
    for cls in part.classes:
        covered |= cls
    if covered != set(t.vertices):
        raise InvariantError("classes do not partition the vertex set")
    for cls in part.classes:
        for a in cls:
            dist = t.distances_from(a, limit=2)
            for b in cls:
                if a != b and dist.get(b) != 2:
                    raise InvariantError(f"{a},{b} not at distance 2")
    for i in range(len(part.classes) - 1):
        j = part.jumping[i]
        if j is None:
            raise InvariantError(f"class {i} has no jumping vertex")
        for b in part.classes[i + 1]:
            if b not in t.adj[j]:
                raise InvariantError(f"jumping vertex {j} not adjacent to {b}")


@dataclass(frozen=True)
class SquareStringSpec:
    v: object
    w: object
    left_closed: bool
    right_closed: bool


def _clique_path(members, start, end):
    """A path through all members of a square-clique from start to end."""
    rest = sorted((m for m in members if m not in (start, end)), key=vkey)
    if start == end:
        return [start] + rest
    return [start] + rest + [end]


def square_string(part: OrderedCaterpillarPartition, spec: SquareStringSpec):
    """A path in the caterpillar's square sweeping same-parity classes.

    Visits only classes of the endpoints' parity, covers every such class
    strictly between them completely, and covers the endpoint classes
    entirely or just at the endpoint depending on the closure flags.
    """
    idx = part.index_of
    v, w = spec.v, spec.w
    if v not in idx or w not in idx:
        raise GraphError("endpoint not in the partition")
    iv, iw = idx[v], idx[w]
    if iv > iw:
        raise GraphError("endpoints given against the class order")
    if (iw - iv) % 2 != 0:
        raise GraphError("endpoint classes have different parity")
    classes, jumping = part.classes, part.jumping
    if iv == iw:
        if spec.left_closed or spec.right_closed:
            path = _clique_path(classes[iv], v, w)
        else:
            path = [v] if v == w else [v, w]
        _assert_square_path(part, path)
        return path
    # leftmost class
    if spec.left_closed:
        j = jumping[iv]
        if v == j and len(classes[iv]) > 1:
            raise GraphError(
                "left-closed string starting at the jumping vertex "
                "cannot leave its class"
            )
        path = _clique_path(classes[iv], v, j)
    else:
        if v != jumping[iv]:
            raise GraphError("left-open string requires a jumping start vertex")
        path = [v]
    # interior classes of the same parity
    for i in range(iv + 2, iw, 2):
        j = jumping[i]
        members = classes[i]
        entry = min(
            (m for m in members if m != j), key=vkey, default=j
        )
        path += _clique_path(members, entry, j)
    # rightmost class
    if spec.right_closed:
        members = classes[iw]
        entry = min((m for m in members if m != w), key=vkey, default=w)
        path += _clique_path(members, entry, w)
    else:
        path.append(w)
    _assert_square_path(part, path)
    return path


def _assert_square_path(part, path):
    t = part.tree
    if len(set(path)) != len(path):
        raise InvariantError("square string repeats a vertex")
    for a, b in zip(path, path[1:]):
        d = t.distances_from(a, limit=2).get(b)
        if d is None or d > 2:
            raise InvariantError(f"{a}-{b} not an edge of the square")


def hamilton_cycle_of_square(t: FiniteGraph) -> frozenset:
    """A Hamilton cycle of the caterpillar's square, built by sweeping the
    partition classes outward over one parity and back over the other."""
    if len(t.vertices) < 3:
        raise GraphError("need at least 3 vertices")
    part = caterpillar_partition(t)
    classes, jumping = part.classes, part.jumping
    m = len(classes) - 1
    if m == 1:
        seq = [jumping[0]] + sorted(classes[1], key=vkey)
    else:
        seq = [jumping[0]]
        top_even = m if m % 2 == 0 else m - 1
        for i in range(2, top_even + 1, 2):
            j = jumping[i]
            members = classes[i]
            if i == m:
                # the turn happens here; the exit edge lands on the next
                # jumping vertex, so any end of the class traversal works
                seq += _clique_path(members, min(members, key=vkey), max(members, key=vkey))
            else:
                entry = min((x for x in members if x != j), key=vkey, default=j)
                seq += _clique_path(members, entry, j)
        if m % 2 == 1:
            seq += sorted(classes[m], key=vkey)
            start_odd = m - 2
        else:
            start_odd = m - 1
        for i in range(start_odd, 0, -2):
            j = jumping[i]
            members = classes[i]
            seq += [j] + sorted((x for x in members if x != j), key=vkey)
    if len(seq) != len(t.vertices):
        raise InvariantError("cycle does not visit every vertex once")
    edges = {canon_edge(a, b) for a, b in zip(seq, seq[1:])}
    edges.add(canon_edge(seq[-1], seq[0]))
    square = kth_power(t, 2)
    if not edges <= square.edges:
        raise InvariantError("cycle leaves the square")
    cnt = {v: 0 for v in t.vertices}
    for a, b in edges:
        cnt[a] += 1
        cnt[b] += 1
    if not all(c == 2 for c in cnt.values()):
        raise InvariantError("not 2-regular")
    if not FiniteGraph(t.vertices, frozenset(edges)).is_connected():
        raise InvariantError("cycle is not connected")
    return frozenset(edges)


def spanning_caterpillar_search(g: FiniteGraph):
    """A spanning caterpillar of g, or None.

    Searches over candidate spine paths; a path works when every other
    vertex has a neighbor on it.  Backtracking, limited to 20 vertices.
    """
    if not g.is_connected():
        raise GraphError("graph is not connected")
    n = len(g.vertices)
    if n > 20:
        raise GraphError("spanning caterpillar search limited to 20 vertices")
    if n == 1:
        return g

    def dominated(path_set):
        return all(
            v in path_set or g.adj[v] & path_set for v in g.vertices
        )

    def build(path):
        path_set = set(path)
        tree_edges = {canon_edge(a, b) for a, b in zip(path, path[1:])}
        for v in g.sorted_vertices():
            if v not in path_set:
                attach = min(g.adj[v] & path_set, key=vkey)
                tree_edges.add(canon_edge(v, attach))
        return FiniteGraph(g.vertices, frozenset(tree_edges))

    best = None

    def dfs(path, used):
        nonlocal best
        if best is not None:
            return
        if dominated(used):
            best = build(path)
            return
        for y in g.neighbors(path[-1]):
            if y not in used:
                path.append(y)
                used.add(y)
                dfs(path, used)
                path.pop()
                used.remove(y)
                if best is not None:
                    return

    for s in g.sorted_vertices():
        dfs([s], {s})
        if best is not None:
            break
    if best is not None and is_caterpillar(best) is None:
        raise InvariantError("constructed spanning tree is not a caterpillar")
    return best


# ---------------------------------------------------------------------------
# covers (finite truncation of the double-ray cover lemma)


def _ham_path_from(g: FiniteGraph, start):
    """A spanning path of g starting at `start`, or None."""
    if start not in g.vertices:
        return None
    paths = _apex_paths(g, start=start, limit=1)
    return list(paths[0]) if paths else None


def _two_ray_cover(square, universe, v, w, allowed_v, allowed_w):
    """Split `universe` into S ∋ v and its complement ∋ w such that the
    square induces a spanning path from v on S and from w on the rest,
    respecting the allowed regions.  Returns (path_v, path_w) or None."""
    import itertools

    must_v = universe - allowed_w
    must_w = universe - allowed_v
    if v in must_w or w in must_v or (must_v & must_w):
        return None
    free = sorted(universe - must_v - must_w - {v, w}, key=vkey)
    for bits in itertools.product((0, 1), repeat=len(free)):
        sv = set(must_v) | {v} | {f for f, b in zip(free, bits) if b == 0}
        sw = universe - sv
        if v == w:
            # rays from a common start share exactly that vertex
            sw = sw | {v}
        pv = _ham_path_from(square.subgraph(sv), v)
        if pv is None:
            continue
        pw = _ham_path_from(square.subgraph(sw), w)
        if pw is not None:
            return pv, pw
    return None


def decomp_covers(t: FiniteGraph, part: OrderedCaterpillarPartition, v, w):
    """Two vertex covers of a finite caterpillar by paths of its square.

    Even distance between v and w: a v-w path P plus a disjoint path D
    covering the rest, and a pair of paths from v and w partitioning the
    vertex set with the lemma's class-avoidance constraints.  Odd
    distance: two such pairs with mirrored avoidance.
    """
    idx = part.index_of
    if idx[v] > idx[w]:
        raise GraphError("v must not come after w in the class order")
    iv, iw = idx[v], idx[w]
    square = kth_power(t, 2)
    universe = set(t.vertices)
    lower = {x for x in universe if idx[x] < iv}
    upper = {x for x in universe if idx[x] > iw}
    dist_even = t.distances_from(v).get(w, 0) % 2 == 0
    report = {"parity": "even" if dist_even else "odd"}
    if dist_even:
        jv = part.jumping[iv] == v
        jw = part.jumping[iw] == w
        p = square_string(
            part, SquareStringSpec(v, w, left_closed=not jv, right_closed=jw)
        )
        rest = universe - set(p)
        if rest:
            d = None
            for s in sorted(rest, key=vkey):
                d = _ham_path_from(square.subgraph(rest), s)
                if d is not None:
                    break
            if d is None:
                raise InvariantError("no covering path for the complement of P")
        else:
            d = []
        pair = _two_ray_cover(
            square, universe, v, w, universe - upper, universe - lower
        )
        if pair is None:
            raise InvariantError("no two-ray cover found")
        report.update({"P": p, "D": d, "R_v": pair[0], "R_w": pair[1]})
        _check_cover(universe, p, d, disjoint=True)
        _check_cover(universe, pair[0], pair[1], disjoint=v != w)
        if set(pair[0]) & upper or set(pair[1]) & lower:
            raise InvariantError("two-ray cover enters a forbidden side")
    else:
        pair1 = _two_ray_cover(
            square, universe, v, w, universe - upper, universe - lower
        )
        pair2 = _two_ray_cover(
            square, universe, v, w, universe - lower, universe - upper
        )
        if pair1 is None or pair2 is None:
            raise InvariantError("no two-ray cover found")
        report.update(
            {
                "R_v": pair1[0],
                "R_w": pair1[1],
                "R_v_prime": pair2[0],
                "R_w_prime": pair2[1],
            }
        )
        _check_cover(universe, pair1[0], pair1[1], disjoint=v != w)
        _check_cover(universe, pair2[0], pair2[1], disjoint=v != w)
        if set(pair1[0]) & upper or set(pair1[1]) & lower:
            raise InvariantError("two-ray cover enters a forbidden side")
        if set(pair2[0]) & lower or set(pair2[1]) & upper:
            raise InvariantError("two-ray cover enters a forbidden side")
    return report


def _check_cover(universe, p1, p2, disjoint):
    s1, s2 = set(p1), set(p2)
    if s1 | s2 != universe:
        raise InvariantError("cover misses vertices")
    if disjoint and s1 & s2:
        raise InvariantError("cover paths overlap")


def interval_path(
    g: FiniteGraph, part: OrderedCaterpillarPartition, x, y, v, w
):
    """A path from x to y inside the union of partition classes between
    those of v and w (inclusive), found by BFS."""
    idx = part.index_of
    iv, iw = idx[v], idx[w]
    if iv > iw:
        raise GraphError("v must not come after w in the class order")
    interval = {z for z in g.vertices if z in idx and iv <= idx[z] <= iw}
    if x not in interval or y not in interval:
        raise GraphError("endpoint outside the class interval")
    sub = g.subgraph(interval)
    prev = {x: None}
    queue = [x]
    while queue and y not in prev:
        nxt = []
        for u in queue:
            for z in sub.neighbors(u):
                if z not in prev:
                    prev[z] = u
                    nxt.append(z)
        queue = nxt
    if y not in prev:
        raise InvariantError("no path inside the interval")
    path = [y]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return list(reversed(path))


def split_to_cycle(m: MultiGraph):
    """Resolve every degree-4 vertex of a {2,4}-regular Eulerian multigraph
    by Eulerian splits until a single cycle remains."""
    if not is_eulerian(m):
        raise GraphError("multigraph is not Eulerian")
    if any(m.degree(v) not in (2, 4) for v in m.vertices):
        raise GraphError("degrees must be 2 or 4")
    history = []
    cur = m
    while True:
        deg4 = sorted((v for v in cur.vertices if cur.degree(v) == 4), key=vkey)
        if not deg4:
            break
        res = eulerian_v_splits(cur, deg4[0])[0]
        history.append(res)
        cur = res.multigraph
    if not is_eulerian(cur) or any(cur.degree(v) != 2 for v in cur.vertices):
        raise InvariantError("splitting did not end in a 2-regular Eulerian multigraph")
    return cur, history
