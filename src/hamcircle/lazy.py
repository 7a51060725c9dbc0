"""Locally finite infinite graphs as deterministic adjacency oracles.

A LazyGraph never materializes the whole graph: it exposes a root and a
pure neighbor function.  Ends are approximated by "deep components": the
infinite components left after removing a finite region around the root.
Each built-in generator is one object that is both the neighbour oracle
and the exhaustion hint.  The hint names those regions, certifies which
components are infinite by yielding each one's id and cut edges (its
fingers are the cut's outer ends), and names each component's class:
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

from .graphs import FiniteGraph, GraphError, MultiGraph, canon_edge, max_flow, vkey


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
    comp_id: object
    cut_edges: tuple  # (region vertex, finger) pairs, one per cut edge

    @property
    def fingers(self):
        """The component's vertices adjacent to the region: the cut's
        outer ends."""
        return frozenset(f for _, f in self.cut_edges)

    @property
    def surrogate(self):
        """The vertex that stands for the component in the quotient."""
        return f"end:{self.comp_id}"


DEFAULT_VERTEX_BUDGET = 200_000  # the one bound on exploration; read at call time


def check_budget(what, size):
    """Refuse `what`, `size` vertices, over the vertex budget, before it
    is built."""
    if size > DEFAULT_VERTEX_BUDGET:
        raise BudgetError(f"{what} hold {size} vertices, over the vertex budget "
                          f"{DEFAULT_VERTEX_BUDGET}")


def _check_radius(r):
    if r < 0:
        raise GraphError("radius must be nonnegative")


def _explore(lg: LazyGraph, v, r: int):
    """The vertices within distance r of v, breadth first from v; more
    vertices than the vertex budget raise `BudgetError`."""
    what = f"the vertices reached within distance {r} of {v!r}"
    seen = {v}
    order = [v]
    frontier = [v]
    for _ in range(r):
        nxt = []
        for x in frontier:
            for y in lg.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    order.append(y)
                    nxt.append(y)
                    check_budget(what, len(order))
        frontier = nxt
    return order


def ball(lg: LazyGraph, r: int) -> FiniteGraph:
    """Exact induced subgraph on all vertices within distance r of the root;
    more vertices than the vertex budget raise `BudgetError`."""
    _check_radius(r)
    order = _explore(lg, lg.root, r)
    seen = frozenset(order)
    return FiniteGraph(seen, frozenset(
        canon_edge(x, y) for x in order for y in lg.neighbors(x) if y in seen
    ))


def _hint(lg: LazyGraph):
    """The graph's exhaustion hint; a graph without one is an error."""
    if lg.hint is None:
        raise GraphError("no exhaustion hint: deep components cannot be certified")
    return lg.hint


def deep_components(lg: LazyGraph, r: int):
    """The infinite components of the graph minus the level-r region, as
    certified by the generator's exhaustion hint, which names each one's
    id and cut edges; a graph without a hint is an error."""
    _check_radius(r)
    out = [DeepComponent(comp_id, tuple(cut)) for comp_id, cut in _hint(lg).components(r)]
    out.sort(key=lambda c: str(c.comp_id))
    return out


def quotient_window(lg: LazyGraph, r: int):
    """The level-r window as (region, deep components, edge records): the
    region is the one the graph's exhaustion hint names, the components
    are `deep_components(lg, r)`, and each quotient edge is one record
    (a, b, edge of lg) whose first end a is always a region vertex.
    Region edges come first, in `vkey` order; then each component's cut
    edges, with its surrogate ``end:<id>`` in place of the finger.  The
    quotient's vertices are the region's plus one surrogate per
    component.  A graph without a hint is refused before its oracle is
    called, and a region over the vertex budget before it is built."""
    region = frozenset(_hint(lg).region(r))
    comps = deep_components(lg, r)
    records = []
    for v in sorted(region, key=vkey):
        kv = vkey(v)
        for y in lg.neighbors(v):
            if y in region and kv < vkey(y):
                records.append((v, y, (v, y)))
    for comp in comps:
        for inside, finger in sorted(comp.cut_edges, key=lambda e: (vkey(e[0]), vkey(e[1]))):
            records.append((inside, comp.surrogate, canon_edge(inside, finger)))
    return region, comps, records


def quotient_multigraph(lg: LazyGraph, r: int) -> MultiGraph:
    """The level-r window as a multigraph: the region plus one surrogate
    vertex per deep component, parallel cut edges preserved, edge ids in
    record order."""
    region, comps, records = quotient_window(lg, r)
    return MultiGraph.build(region | {c.surrogate for c in comps},
                            [(i, a, b) for i, (a, b, _) in enumerate(records)])


def end_degree_bound(lg: LazyGraph, comp: DeepComponent, mode: str, depth: int):
    """(lower, upper) bounds on the end degree seen through this component.

    upper: the finger cut size.  lower: a max-flow packing of disjoint
    paths from the region boundary through the component to exploration
    depth `depth`.  The exploration starts at the fingers and stops at
    the cut edges, which the hint lists completely, so the region is
    never built.  Exploring more vertices than the vertex budget raises
    `BudgetError`; a graph without a hint is an error.
    """
    if mode not in ("vertex", "edge"):
        raise GraphError("mode must be 'vertex' or 'edge'")
    if depth < 1:
        raise GraphError("depth must be positive")
    _hint(lg)
    cut = frozenset(comp.cut_edges)
    what = f"the vertices reached in the exploration to depth {depth}"
    split = mode == "vertex"
    upper = len(comp.fingers) if split else len(comp.cut_edges)
    # The unit-capacity flow network is built while a BFS from the fingers
    # explores the component: node 0 is the source, node 1 the sink.  In
    # vertex mode an explored vertex splits into an in-node and the next
    # node, its out-node, joined by an arc of capacity 1; in edge mode it is
    # one node, since the source arcs total `upper` and no vertex can carry
    # more.  A vertex at depth `depth` drains straight to the sink and gets
    # no out-arcs: a flow path through it can stop there.  None of this
    # changes the value of a maximum flow.
    SRC, SNK = 0, 1
    arcs = []
    nodes = 2
    node = {}  # explored vertex -> the node its in-arcs enter

    def add_vertex(v, deep):
        nonlocal nodes
        check_budget(what, len(node) + 1)
        i = node[v] = nodes
        nodes += 1
        if deep:
            arcs.append((i, SNK, 1 if split else upper))
        elif split:
            nodes += 1
            arcs.append((i, i + 1, 1))
        return i

    level = sorted(comp.fingers, key=vkey)
    for f in level:
        add_vertex(f, False)
    for f in level if split else [f for _, f in comp.cut_edges]:
        arcs.append((SRC, node[f], 1))
    for d in range(1, depth + 1):
        deep = d == depth
        nxt = []
        for x in level:
            u = node[x] + split  # x's out-node
            for y in lg.neighbors(x):
                j = node.get(y)
                if j is None:
                    if (y, x) in cut:
                        continue
                    j = add_vertex(y, deep)
                    nxt.append(y)
                arcs.append((u, j, 1))
        if not nxt:
            raise BudgetError("component exhausted before the depth budget")
        level = nxt
    # the source arcs hold `upper` units, so the flow stops there
    value, _ = max_flow(nodes, arcs, SRC, SNK, upper)
    return value, upper


# ---------------------------------------------------------------------------
# generators


class _DoubleLadder:
    """The two-way infinite ladder, rails L:<i>:<s> - L:<i+1>:<s> and rungs
    L:<i>:top - L:<i>:bot, as its own neighbour oracle and exhaustion hint:
    the level-r region is columns -r..r, and both tails are infinite by
    construction.  A region over the vertex budget is refused before
    anything is built."""

    def neighbors(self, v):
        _, i, side = v.split(":")
        i = int(i)
        other = "bot" if side == "top" else "top"
        return sorted([f"L:{i - 1}:{side}", f"L:{i + 1}:{side}", f"L:{i}:{other}"])

    def _columns(self, r):
        check_budget(f"the columns -{r}..{r}", 2 * (2 * r + 1))
        return range(-r, r + 1)

    def region(self, r):
        return frozenset(f"L:{i}:{s}" for i in self._columns(r) for s in ("bot", "top"))

    def components(self, r):
        self._columns(r)
        return [(tail, tuple((f"L:{i}:{s}", f"L:{i + step}:{s}") for s in ("bot", "top")))
                for tail, i, step in (("left", -r, -1), ("right", r, 1))]

    def component_class(self, comp_id):
        """Each tail is its own class."""
        return comp_id


def double_ladder() -> LazyGraph:
    """The two-way infinite ladder: rails (i,s)-(i+1,s), rungs (i,top)-(i,bot)."""
    ladder = _DoubleLadder()
    return LazyGraph("L:0:top", ladder.neighbors, hint=ladder)


def lazy_power(lg: LazyGraph, k: int) -> LazyGraph:
    """The k-th power as a lazy oracle (neighbors within distance k); a
    ball of radius k over the vertex budget raises `BudgetError`."""
    if k < 1:
        raise GraphError("k must be positive")
    if k == 1:
        return lg

    def nbr(v):
        return sorted(_explore(lg, v, k)[1:], key=vkey)

    return LazyGraph(lg.root, nbr)
