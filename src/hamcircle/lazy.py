"""Locally finite infinite graphs as deterministic adjacency oracles.

A LazyGraph never materializes the whole graph: it exposes a root and a
pure neighbor function.  Ends are approximated by "deep components": the
infinite components left after removing a finite region around the root.
Built-in generators attach an exhaustion hint that names those regions and
certifies which components are infinite; hint-less graphs fall back to
balls and exhaustive exploration with a hard budget error when a
component's finiteness cannot be decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import FiniteGraph, GraphError, augment_flow, canon_edge, vkey


class BudgetError(GraphError):
    pass


class LazyGraph:
    """root vertex + pure neighbor oracle (+ optional exhaustion hint)."""

    def __init__(self, root, neighbor_fn, hint=None, name=None):
        self.root = root
        self._neighbor_fn = lru_cache(maxsize=None)(neighbor_fn)
        self.hint = hint
        self.name = name

    def neighbors(self, v):
        return list(self._neighbor_fn(v))


@dataclass(frozen=True)
class BallView:
    radius: int
    graph: FiniteGraph
    boundary: frozenset  # vertices at distance exactly `radius`


@dataclass(frozen=True)
class DeepComponent:
    radius: int
    comp_id: object
    fingers: frozenset  # component vertices adjacent to the region
    representative: object
    cut_edges: tuple  # (region vertex, finger) pairs, one per cut edge


DEFAULT_VERTEX_BUDGET = 200_000
DEFAULT_EXPLORE_BUDGET = 5_000


def ball(lg: LazyGraph, r: int, max_vertices=DEFAULT_VERTEX_BUDGET) -> BallView:
    """Exact induced subgraph on all vertices within distance r of the root."""
    if r < 0:
        raise GraphError("radius must be nonnegative")
    dist = {lg.root: 0}
    order = [lg.root]
    frontier = [lg.root]
    for d in range(1, r + 1):
        nxt = []
        for x in frontier:
            for y in lg.neighbors(x):
                if y not in dist:
                    dist[y] = d
                    order.append(y)
                    nxt.append(y)
                    if len(order) > max_vertices:
                        raise BudgetError("ball exceeds the vertex budget")
        frontier = nxt
    vs = frozenset(order)
    es = set()
    for x in order:
        for y in lg.neighbors(x):
            if y in dist:
                es.add(canon_edge(x, y))
    g = FiniteGraph(vs, frozenset(es))
    return BallView(r, g, frozenset(v for v, d in dist.items() if d == r))


def _region(lg: LazyGraph, r: int):
    if lg.hint is not None:
        return frozenset(lg.hint.region(r))
    return ball(lg, r).graph.vertices


def deep_components(lg: LazyGraph, r: int, budget=DEFAULT_EXPLORE_BUDGET):
    """The infinite components of the graph minus the level-r region.

    With a generator hint the components come certified; without one, each
    component is explored exhaustively and a component that neither
    exhausts nor is certified raises a budget error.
    """
    if lg.hint is not None:
        out = []
        for comp_id, fingers, cut in lg.hint.components(r):
            fingers = frozenset(fingers)
            rep = min(fingers, key=vkey)
            out.append(DeepComponent(r, comp_id, fingers, rep, tuple(cut)))
        out.sort(key=lambda c: str(c.comp_id))
        return out
    region = _region(lg, r)
    # collect cut edges
    cut = []
    for v in sorted(region, key=vkey):
        for y in lg.neighbors(v):
            if y not in region:
                cut.append((v, y))
    # without a hint we can only rule components out by exhausting them
    explored = set()
    for _, f in cut:
        if f in explored:
            continue
        seen = {f}
        stack = [f]
        while stack:
            x = stack.pop()
            for y in lg.neighbors(x):
                if y not in region and y not in seen:
                    seen.add(y)
                    stack.append(y)
                    if len(seen) > budget:
                        raise BudgetError(
                            "cannot decide finiteness of a component "
                            "within the exploration budget"
                        )
        # fully explored: the component is finite, hence not a deep one
        explored |= seen
    return []


def end_nesting(lg: LazyGraph, r1: int, r2: int, budget=DEFAULT_EXPLORE_BUDGET):
    """Map each deep component at radius r2 to the one at r1 containing it."""
    if not r1 < r2:
        raise GraphError("need r1 < r2")
    shallow = deep_components(lg, r1)
    deep = deep_components(lg, r2)
    if lg.hint is not None and hasattr(lg.hint, "nest"):
        by_id = {c.comp_id: c for c in shallow}
        return {c: by_id[lg.hint.nest(c.comp_id, r1)] for c in deep}
    finger_owner = {}
    for c in shallow:
        for f in c.fingers:
            finger_owner[f] = c
    region1 = _region(lg, r1)
    mapping = {}
    for c in deep:
        # BFS from the deep component stays inside its shallow component,
        # so the first shallow finger reached identifies the container
        seen = set(c.fingers)
        stack = sorted(c.fingers, key=vkey)
        owner = None
        while stack and owner is None:
            x = stack.pop(0)
            if x in finger_owner:
                owner = finger_owner[x]
                break
            for y in lg.neighbors(x):
                if y not in region1 and y not in seen:
                    seen.add(y)
                    stack.append(y)
                    if len(seen) > budget:
                        raise BudgetError("nesting search exceeded budget")
        if owner is None:
            raise BudgetError("deep component not reachable from any finger")
        mapping[c] = owner
    return mapping


def _explore_component(lg, region, comp: DeepComponent, depth: int):
    """Vertices of the component up to `depth` steps past the fingers,
    with their exploration depth."""
    dist = {f: 0 for f in comp.fingers}
    frontier = sorted(comp.fingers, key=vkey)
    for d in range(1, depth + 1):
        nxt = []
        for x in frontier:
            for y in lg.neighbors(x):
                if y not in region and y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


def end_degree_bound(lg: LazyGraph, comp: DeepComponent, mode: str, depth=10):
    """(lower, upper) bounds on the end degree seen through this component.

    upper: the finger cut size.  lower: a max-flow packing of disjoint
    paths from the region boundary through the component to exploration
    depth `depth`.
    """
    if mode not in ("vertex", "edge"):
        raise GraphError("mode must be 'vertex' or 'edge'")
    region = _region(lg, comp.radius)
    upper = len(comp.fingers) if mode == "vertex" else len(comp.cut_edges)
    dist = _explore_component(lg, region, comp, depth)
    deep_set = {v for v, d in dist.items() if d >= depth}
    if not deep_set:
        raise BudgetError("component exhausted before the depth budget")
    # unit-capacity flow: source -> fingers (per cut edge or per finger),
    # through the explored part, sink at the depth frontier.  The k-th
    # explored vertex splits into in-node 2k + 2 and out-node 2k + 3:
    # integers are cheap to hash and order, and the value of a maximum
    # flow does not depend on how its nodes are named
    SRC, SNK = 0, 1
    node = {v: 2 * k + 2 for k, v in enumerate(dist)}
    cap = {}
    for a, b in comp.cut_edges:
        if mode == "edge":
            cap[(SRC, node[b])] = cap.get((SRC, node[b]), 0) + 1
        else:
            cap[(SRC, node[b])] = 1
    for v, i in node.items():
        cap[(i, i + 1)] = (1 if mode == "vertex" else upper + 1)
        if v in deep_set:
            cap[(i + 1, SNK)] = upper + 1
    for v, i in node.items():
        for y in lg.neighbors(v):
            if y in node:
                cap[(i + 1, node[y])] = 1
    value, _ = augment_flow(cap, SRC, SNK, upper + 1)
    lower = min(value, upper)
    return lower, upper


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


def double_ladder() -> LazyGraph:
    """The two-way infinite ladder: rails (i,s)-(i+1,s), rungs (i,top)-(i,bot)."""

    def nbr(v):
        _, i, side = v.split(":")
        i = int(i)
        other = "bot" if side == "top" else "top"
        out = [f"L:{i - 1}:{side}", f"L:{i + 1}:{side}", f"L:{i}:{other}"]
        return sorted(out)

    return LazyGraph("L:0:top", nbr, hint=_LadderHint(), name="double-ladder")


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

    return LazyGraph(lg.root, nbr, hint=None, name=None)


def lazy_from_finite(g: FiniteGraph, root=None) -> LazyGraph:
    if root is None:
        root = min(g.vertices, key=vkey)

    def nbr(v):
        return g.neighbors(v)

    return LazyGraph(root, nbr, hint=None, name=None)
