"""Caterpillar trees and Hamilton cycles in their squares.

A caterpillar is a tree that leaves only a path when its leaves are
removed.  The partition machinery below orders the vertex set into
consecutive classes along the spine; the constructive Hamilton-cycle
routine for the square sweeps out over the even classes with a "square
string" and back over the odd ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    FiniteGraph,
    GraphError,
    InvariantError,
    MultiGraph,
    canon_edge,
    eulerian_v_splits,
    is_eulerian,
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
        # within distance 2: adjacent or with a common neighbour
        if b not in t.adj[a] and not t.adj[a] & t.adj[b]:
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
        if m % 2 == 0:
            # the turn happens in the last class; the exit edge lands on the
            # next jumping vertex, so any end of the class traversal works
            w = max(classes[m], key=vkey)
        else:
            w = jumping[m - 1]
        seq = square_string(part, SquareStringSpec(jumping[0], w, False, True))
        if m % 2 == 1:
            seq += sorted(classes[m], key=vkey)
            start_odd = m - 2
        else:
            start_odd = m - 1
        for i in range(start_odd, 0, -2):
            j = jumping[i]
            members = classes[i]
            seq += [j] + sorted((x for x in members if x != j), key=vkey)
    # the certificate: seq is a permutation of the vertices whose cyclically
    # consecutive pairs are all within distance 2
    if len(seq) != len(t.vertices) or set(seq) != t.vertices:
        raise InvariantError("cycle does not visit every vertex once")
    _assert_square_path(part, seq)
    _assert_square_path(part, [seq[-1], seq[0]])
    return frozenset(canon_edge(a, b) for a, b in zip(seq, seq[1:] + seq[:1]))


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
