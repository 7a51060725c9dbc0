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
    _eulerian_pairings,
    canon_edge,
    is_eulerian,
    v_split,
    vkey,
)


def _check_tree(t: FiniteGraph):
    if len(t.vertices) == 0:
        raise GraphError("empty graph is not a tree")
    if len(t.edges) != len(t.vertices) - 1 or not t.is_connected():
        raise GraphError("graph is not a tree")


def is_caterpillar(t: FiniteGraph):
    """The spine path (ordered vertex list, from the lesser `vkey` of its
    two ends) if t is a caterpillar, else None.

    The spine is T minus its leaves; it may be empty (single vertex or
    single edge) or a single vertex (stars).
    """
    _check_tree(t)
    if len(t.vertices) == 1:
        return list(t.vertices)
    adj = t.adj
    leaves = {v for v in t.vertices if len(adj[v]) <= 1}
    # a tree minus its leaves is a subtree, so it is a path iff no vertex
    # keeps more than two neighbours in it
    inner = {v: adj[v] - leaves for v in t.vertices if v not in leaves}
    if not inner:
        return []
    if any(len(nbrs) > 2 for nbrs in inner.values()):
        return None
    # order the path
    start = min((v for v, nbrs in inner.items() if len(nbrs) <= 1), key=vkey)
    order = [start]
    prev = None
    while len(order) < len(inner):
        nxt = [x for x in inner[order[-1]] if x != prev]
        prev = order[-1]
        order.append(nxt[0])
    return order


def find_s_k13(t: FiniteGraph):
    """A subgraph of the tree t isomorphic to the once-subdivided 3-star,
    or None.

    The centre is the first vertex with three neighbours of degree at least
    two; each of them is extended by its first other neighbour.
    """
    _check_tree(t)
    for c in t.sorted_vertices():
        trio = [m for m in t.neighbors(c) if t.degree(m) >= 2][:3]
        if len(trio) == 3:
            es = set()
            for m in trio:
                p = next(x for x in t.neighbors(m) if x != c)
                es |= {canon_edge(c, m), canon_edge(m, p)}
            return FiniteGraph(frozenset(x for e in es for x in e), frozenset(es))
    return None


@dataclass(frozen=True)
class OrderedCaterpillarPartition:
    tree: FiniteGraph
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

    The head class is the singleton of the spine's first vertex, the lesser
    (`vkey`) of its two ends, where `is_caterpillar` starts it; each later
    class holds one spine vertex together with the previous spine vertex's
    leaves; the tail class holds the last spine vertex's leaves.
    Degenerate spines (stars, a single edge) collapse to a canonically
    chosen single "spine" vertex.
    """
    return _partition(t, is_caterpillar(t))


def _partition(t: FiniteGraph, spine) -> OrderedCaterpillarPartition:
    """`caterpillar_partition` of t from its spine as `is_caterpillar`
    returned it, so a caller that has recognised t does not do it again."""
    if spine is None:
        raise GraphError("not a caterpillar")
    if len(t.vertices) < 2:
        raise GraphError("partition needs at least 2 vertices")
    if not spine:
        spine = [min(t.vertices, key=vkey)]
    # the spine holds every vertex that is not a leaf
    leaves = t.vertices.difference(spine)
    classes = [frozenset([spine[0]])]
    jumping = [spine[0]]
    for prev, cur in zip(spine, spine[1:]):
        classes.append(frozenset({cur} | (t.adj[prev] & leaves)))
        jumping.append(cur)
    tail = frozenset(t.adj[spine[-1]] & leaves)
    if tail:
        classes.append(tail)
        jumping.append(None)
    part = OrderedCaterpillarPartition(t, tuple(classes), tuple(jumping))
    _assert_partition_properties(part)
    return part


def _assert_partition_properties(part: OrderedCaterpillarPartition):
    """Certify the order lemma: the classes cover the tree's vertices,
    the members of each class lie pairwise at distance 2, and each class's
    jumping vertex is adjacent to every member of the next class.

    Distinct vertices lie at distance 2 exactly when they are not adjacent
    and share a neighbour, so each class of two or more members is checked
    to be an independent set with a common neighbour: for a class after
    the head, the previous class's jumping vertex (the last loop checks
    it), and for the head class, a vertex in all its members' neighbour
    sets.  Each vertex and edge is read a constant number of times."""
    t = part.tree
    adj = t.adj
    covered = set()
    for cls in part.classes:
        covered |= cls
    if covered != t.vertices:
        raise InvariantError("classes do not partition the vertex set")
    for cls in part.classes:
        if len(cls) > 1:
            for a in cls:
                if not adj[a].isdisjoint(cls):
                    b = next(iter(adj[a] & cls))
                    raise InvariantError(f"{a},{b} not at distance 2")
    head = part.classes[0] if part.classes else ()
    if len(head) > 1 and not set.intersection(*(adj[a] for a in head)):
        raise InvariantError(f"the head class {sorted(head, key=vkey)} has no common "
                             f"neighbour, so not all its members are at distance 2")
    for i in range(len(part.classes) - 1):
        j = part.jumping[i]
        if j is None:
            raise InvariantError(f"class {i} has no jumping vertex")
        for b in part.classes[i + 1]:
            if b not in adj[j]:
                raise InvariantError(f"jumping vertex {j} not adjacent to {b}")


def _clique_path(members, start, end):
    """A path through all members of a square-clique from start to end."""
    rest = sorted((m for m in members if m not in (start, end)), key=vkey)
    if start == end:
        return [start] + rest
    return [start] + rest + [end]


def square_string(part: OrderedCaterpillarPartition, v, w, left_closed, right_closed):
    """A path in the caterpillar's square sweeping same-parity classes.

    Visits only classes of the endpoints' parity.  Each class is a clique
    path from its entry (v in the first class, else its least member other
    than the exit) to its exit (w in the last class, else its jumping
    vertex); an open end contributes only its endpoint.
    """
    idx = part.index_of
    if v not in idx or w not in idx:
        raise GraphError("endpoint not in the partition")
    iv, iw = idx[v], idx[w]
    if iv > iw:
        raise GraphError("endpoints given against the class order")
    if (iw - iv) % 2 != 0:
        raise GraphError("endpoint classes have different parity")
    path = []
    for i in range(iv, iw + 1, 2):
        members = part.classes[i]
        exit_ = w if i == iw else part.jumping[i]
        entry = v if i == iv else min(
            (m for m in members if m != exit_), key=vkey, default=exit_
        )
        if iv < i < iw or (i == iv and left_closed) or (i == iw and right_closed):
            piece = _clique_path(members, entry, exit_)
        else:  # an open end: just the endpoints that lie in this class
            piece = [x for x in dict.fromkeys((v, w)) if idx[x] == i]
        if i < iw and piece[-1] != exit_:
            raise GraphError("string cannot leave the class of v at its jumping vertex")
        path += piece
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
    # a graph too small for the square cycle is refused before recognition
    return _square_cycle(t, is_caterpillar(t) if len(t.vertices) >= 3 else None)


def _square_cycle(t: FiniteGraph, spine) -> frozenset:
    """`hamilton_cycle_of_square` of t from its spine as `is_caterpillar`
    returned it."""
    if len(t.vertices) < 3:
        raise GraphError("need at least 3 vertices")
    part = _partition(t, spine)
    classes, jumping = part.classes, part.jumping
    m = len(classes) - 1
    if m % 2 == 0:
        # the turn happens in the last class; the exit edge lands on the
        # next jumping vertex, so any end of the class traversal works
        w = max(classes[m], key=vkey)
    else:
        w = jumping[m - 1]
    seq = square_string(part, jumping[0], w, False, True)
    if m % 2 == 1:
        seq += sorted(classes[m], key=vkey)
        start_odd = m - 2
    else:
        start_odd = m - 1
    for i in range(start_odd, 0, -2):
        seq += _clique_path(classes[i], jumping[i], jumping[i])
    # the certificate: seq is a permutation of the vertices whose cyclically
    # consecutive pairs are all within distance 2
    if len(seq) != len(t.vertices) or set(seq) != t.vertices:
        raise InvariantError("cycle does not visit every vertex once")
    _assert_square_path(part, seq)
    _assert_square_path(part, [seq[-1], seq[0]])
    return frozenset(canon_edge(a, b) for a, b in zip(seq, seq[1:] + seq[:1]))


def split_to_cycle(m: MultiGraph):
    """Resolve every degree-4 vertex of a {2,4}-regular Eulerian multigraph
    by Eulerian splits until a single cycle remains; return it and the
    multigraph after each split."""
    if not is_eulerian(m):
        raise GraphError("multigraph is not Eulerian")
    if any(m.degree(v) not in (2, 4) for v in m.vertices):
        raise GraphError("degrees must be 2 or 4")
    # a split replaces its vertex by two of degree 2 and leaves every other
    # degree as it was, so the degree-4 vertices are listed once; an
    # accepted split is Eulerian, so each step keeps the precondition of
    # eulerian_v_splits, whose first result is built directly
    history = []
    cur = m
    for v in sorted((v for v in m.vertices if m.degree(v) == 4), key=vkey):
        pairings = _eulerian_pairings(cur, v)
        if not pairings:
            raise InvariantError(f"no Eulerian split at {v!r}")
        cur = v_split(cur, v, *pairings[0])
        history.append(cur)
    if not is_eulerian(cur) or any(cur.degree(v) != 2 for v in cur.vertices):
        raise InvariantError("splitting did not end in a 2-regular Eulerian multigraph")
    return cur, history
