"""Locally finite infinite graphs as deterministic adjacency oracles.

A LazyGraph never materializes the whole graph: it exposes a root and a
pure neighbor function.  Ends are approximated by "deep components": the
infinite components left after removing a finite region around the root.
Built-in generators attach an exhaustion hint that names those regions,
certifies which components are infinite and names each component's class:
components of one class are the same up to names, so their end-degree
bounds are equal.  Deep components come only from
such a hint: without one they are refused with a GraphError, since a finite
exploration can never certify that a component is infinite.  The level-r
quotient, the region plus one surrogate vertex per deep component, is the
one finite window that the level graphs, the quotient search and the
circle check read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import FiniteGraph, GraphError, MultiGraph, _augment_indexed, canon_edge, vkey


class BudgetError(GraphError):
    pass


class LazyGraph:
    """root vertex + pure neighbor oracle (+ optional exhaustion hint)."""

    def __init__(self, root, neighbor_fn, hint=None):
        self.root = root
        self._neighbor_fn = lru_cache(maxsize=None)(neighbor_fn)
        self.hint = hint

    def neighbors(self, v):
        return list(self._neighbor_fn(v))


@dataclass(frozen=True)
class DeepComponent:
    radius: int
    comp_id: object
    fingers: frozenset  # component vertices adjacent to the region
    cut_edges: tuple  # (region vertex, finger) pairs, one per cut edge


DEFAULT_VERTEX_BUDGET = 200_000  # the one bound on exploration; read at call time


def _check_radius(r):
    if r < 0:
        raise GraphError("radius must be nonnegative")


def ball(lg: LazyGraph, r: int) -> FiniteGraph:
    """Exact induced subgraph on all vertices within distance r of the root;
    more vertices than the vertex budget raise `BudgetError`."""
    _check_radius(r)
    seen = {lg.root}
    order = [lg.root]
    frontier = [lg.root]
    for _ in range(r):
        nxt = []
        for x in frontier:
            for y in lg.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    order.append(y)
                    nxt.append(y)
                    if len(order) > DEFAULT_VERTEX_BUDGET:
                        raise BudgetError("ball exceeds the vertex budget")
        frontier = nxt
    es = set()
    for x in order:
        for y in lg.neighbors(x):
            if y in seen:
                es.add(canon_edge(x, y))
    return FiniteGraph(frozenset(order), frozenset(es))


def _hint(lg: LazyGraph):
    """The graph's exhaustion hint; a graph without one is an error."""
    if lg.hint is None:
        raise GraphError("no exhaustion hint: deep components cannot be certified")
    return lg.hint


def deep_components(lg: LazyGraph, r: int):
    """The infinite components of the graph minus the level-r region, as
    certified by the generator's exhaustion hint; a graph without a hint
    is an error."""
    _check_radius(r)
    out = []
    for comp_id, fingers, cut in _hint(lg).components(r):
        out.append(DeepComponent(r, comp_id, frozenset(fingers), tuple(cut)))
    out.sort(key=lambda c: str(c.comp_id))
    return out


def quotient_window(lg: LazyGraph, r: int):
    """The level-r window as (region, its vertices, edge records): the
    vertices are the region's plus one surrogate ``end:<id>`` per deep
    component, and each quotient edge is one record (a, b, edge of lg).
    Region edges come first, in `vkey` order; then each component's cut
    edges, with the surrogate in place of the finger.  A graph without a
    hint is refused before its oracle is called."""
    region = frozenset(_hint(lg).region(r))
    comps = deep_components(lg, r)
    records = []
    for v in sorted(region, key=vkey):
        kv = vkey(v)
        for y in lg.neighbors(v):
            if y in region and kv < vkey(y):
                records.append((v, y, (v, y)))
    for comp in comps:
        surrogate = f"end:{comp.comp_id}"
        for inside, finger in sorted(comp.cut_edges, key=lambda e: (vkey(e[0]), vkey(e[1]))):
            records.append((inside, surrogate, canon_edge(inside, finger)))
    vertices = region | {f"end:{c.comp_id}" for c in comps}
    return region, vertices, records


def quotient_multigraph(lg: LazyGraph, r: int) -> MultiGraph:
    """Region plus one surrogate vertex per deep component; parallel cut
    edges preserved, edge ids in record order."""
    _, vertices, records = quotient_window(lg, r)
    return MultiGraph.build(vertices, [(i, a, b) for i, (a, b, _) in enumerate(records)])


def end_nesting(lg: LazyGraph, r1: int, r2: int):
    """Map each deep component at radius r2 to the one at r1 containing it.

    Deep components come only from a hint, so a graph without one is an
    error."""
    if not r1 < r2:
        raise GraphError("need r1 < r2")
    shallow = deep_components(lg, r1)
    deep = deep_components(lg, r2)
    by_id = {c.comp_id: c for c in shallow}
    return {c: by_id[lg.hint.nest(c.comp_id, r1)] for c in deep}


def end_degree_bound(lg: LazyGraph, comp: DeepComponent, mode: str, depth=10):
    """(lower, upper) bounds on the end degree seen through this component.

    upper: the finger cut size.  lower: a max-flow packing of disjoint
    paths from the region boundary through the component to exploration
    depth `depth`.  Exploring more vertices than the vertex budget raises
    `BudgetError`; a graph without a hint is an error.
    """
    if mode not in ("vertex", "edge"):
        raise GraphError("mode must be 'vertex' or 'edge'")
    if depth < 1:
        raise GraphError("depth must be positive")
    region = frozenset(_hint(lg).region(comp.radius))
    split = mode == "vertex"
    upper = len(comp.fingers) if split else len(comp.cut_edges)
    # The unit-capacity flow network is built while a BFS from the fingers
    # explores the component: node 0 is the source, node 1 the sink, and
    # every arc gets its own slot pair (see graphs._augment_indexed).  In
    # vertex mode an explored vertex splits into an in-node and the next
    # node, its out-node, joined by an arc of capacity 1; in edge mode it is
    # one node, since the source arcs total `upper` and no vertex can carry
    # more.  A vertex at depth `depth` drains straight to the sink and gets
    # no out-arcs: a flow path through it can stop there.  None of this
    # changes the value of a maximum flow.
    SRC, SNK = 0, 1
    out = [[], []]
    tail = []
    capacity = []
    node = {}  # explored vertex -> the node its in-arcs enter

    def add_arc(u, v, c):
        a = len(tail)
        out[u].append((v, a))
        out[v].append((u, a + 1))
        tail.extend((u, v))
        capacity.extend((c, 0))

    def add_vertex(v, deep):
        if len(node) >= DEFAULT_VERTEX_BUDGET:
            raise BudgetError(
                f"the exploration to depth {depth} passes {DEFAULT_VERTEX_BUDGET} "
                "vertices, over the vertex budget"
            )
        i = node[v] = len(out)
        out.append([])
        if deep:
            add_arc(i, SNK, 1 if split else upper)
        elif split:
            out.append([])
            add_arc(i, i + 1, 1)
        return i

    level = sorted(comp.fingers, key=vkey)
    for f in level:
        add_vertex(f, False)
    for f in level if split else [f for _, f in comp.cut_edges]:
        add_arc(SRC, node[f], 1)
    for d in range(1, depth + 1):
        deep = d == depth
        nxt = []
        for x in level:
            u = node[x] + split  # x's out-node
            for y in lg.neighbors(x):
                j = node.get(y)
                if j is None:
                    if y in region:
                        continue
                    j = add_vertex(y, deep)
                    nxt.append(y)
                add_arc(u, j, 1)
        if not nxt:
            raise BudgetError("component exhausted before the depth budget")
        level = nxt
    # the source arcs hold `upper` units, so the flow stops there
    value, _, _ = _augment_indexed(out, tail, capacity, SRC, SNK, upper)
    return value, upper


# ---------------------------------------------------------------------------
# generators


class _LadderHint:
    """Exhaustion by whole columns; both tails are infinite by construction."""

    def region(self, r):
        return frozenset(
            f"L:{i}:{s}" for i in range(-r, r + 1) for s in ("bot", "top")
        )

    def components(self, r):
        left = [(f"L:{-r}:{s}", f"L:{-r - 1}:{s}") for s in ("bot", "top")]
        right = [(f"L:{r}:{s}", f"L:{r + 1}:{s}") for s in ("bot", "top")]
        return [
            ("left", frozenset(f for _, f in left), tuple(left)),
            ("right", frozenset(f for _, f in right), tuple(right)),
        ]

    def nest(self, comp_id, r1):
        return comp_id

    def component_class(self, comp_id):
        """Each tail is its own class."""
        return comp_id


def double_ladder() -> LazyGraph:
    """The two-way infinite ladder: rails (i,s)-(i+1,s), rungs (i,top)-(i,bot)."""

    def nbr(v):
        _, i, side = v.split(":")
        i = int(i)
        other = "bot" if side == "top" else "top"
        out = [f"L:{i - 1}:{side}", f"L:{i + 1}:{side}", f"L:{i}:{other}"]
        return sorted(out)

    return LazyGraph("L:0:top", nbr, hint=_LadderHint())


def lazy_power(lg: LazyGraph, k: int) -> LazyGraph:
    """The k-th power as a lazy oracle (neighbors within distance k)."""
    if k < 1:
        raise GraphError("k must be positive")
    if k == 1:
        return lg

    def nbr(v):
        dist = {v: 0}
        frontier = [v]
        for _ in range(k):
            nxt = []
            for x in frontier:
                for y in lg.neighbors(x):
                    if y not in dist:
                        dist[y] = 1
                        nxt.append(y)
            frontier = nxt
        dist.pop(v)
        return sorted(dist, key=vkey)

    return LazyGraph(lg.root, nbr)
