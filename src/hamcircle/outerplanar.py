"""Unique Hamilton cycles of 2-connected outerplanar graphs, 2-contractible
edges, contraction quotients, the two-neighbour structure lemma, and
straight-chord disk layouts.  The cycle, in circle order, is the order that
``minors.circle_order`` rebuilds by putting back the vertices its degree-2
elimination removed, each between its two neighbours; the order is
certified (a Hamilton cycle whose chords do not cross) before it is used."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import (
    FiniteGraph,
    GraphError,
    canon_edge,
    is_two_connected,
    reach,
    vkey,
)
from .minors import circle_order, has_k23_minor


def two_contractible_edges(g: FiniteGraph) -> frozenset:
    """Edges whose contraction leaves the graph 2-connected.

    For a 2-connected g on n >= 4 vertices, g/ab is 2-connected iff
    g - {a, b} is connected: a cut vertex of g/ab other than the merged
    vertex would be one of g, and the merged vertex separates g/ab iff
    {a, b} separates g.  A triangle contracts to K2, so it has none.

    Each edge ab is tested by one `reach` from a neighbour s of a other
    than b, seeded with {a, b, s}: it is kept iff the search reaches every
    vertex.  The test never reads the circle order, so it checks the
    paper's characterisation independently.
    """
    if not is_two_connected(g):
        raise GraphError("graph is not 2-connected")
    if len(g.vertices) < 4:
        return frozenset()
    adj, n = g.adj, len(g.vertices)
    kept = []
    for a, b in g.edges:
        s = next(x for x in adj[a] if x != b)
        if len(reach(adj, {a, b, s}, [s])) == n:
            kept.append((a, b))
    return frozenset(kept)


def _circle_order(g: FiniteGraph):
    """The unique Hamilton cycle as (circle order, edge set); the order
    starts at the least vertex and turns toward its lesser neighbour."""
    if not is_two_connected(g):
        raise GraphError("graph is not 2-connected")
    order = circle_order(g)
    if order is None:
        raise GraphError("graph is not outerplanar")
    i = order.index(min(order, key=vkey))
    order = order[i:] + order[:i]
    if vkey(order[-1]) < vkey(order[1]):
        order = order[:1] + order[:0:-1]
    cyc = frozenset(canon_edge(a, b) for a, b in zip(order, order[1:] + order[:1]))
    return order, cyc


def unique_hamilton_cycle_outerplanar(g: FiniteGraph) -> frozenset:
    """The unique Hamilton cycle; unless g is a triangle, these are exactly
    the 2-contractible edges."""
    return _circle_order(g)[1]


def contraction_quotient(g: FiniteGraph, k) -> FiniteGraph:
    """Contract each component of g - k to a single fresh vertex and
    simplify; vertices of k keep their ids."""
    k = frozenset(k)
    if not k:
        raise GraphError("empty vertex set k")
    if not k <= g.vertices:
        raise GraphError("k contains non-vertices")
    comp_of = {}
    for comp in g.subgraph(g.vertices - k).components():
        name = "comp:" + vkey(min(comp, key=vkey))
        if name in g.vertices:
            raise GraphError(f"fresh vertex name {name!r} collides")
        for v in comp:
            comp_of[v] = name
    vs = set(k) | set(comp_of.values())
    es = set()
    for a, b in g.edges:
        aa = comp_of.get(a, a)
        bb = comp_of.get(b, b)
        if aa != bb:
            es.add(canon_edge(aa, bb))
    return FiniteGraph(frozenset(vs), frozenset(es))


def check_quotient_two_connected(g: FiniteGraph, k) -> bool:
    """Property runner: the quotient by a connected k with |k| >= 3 inside
    a 2-connected graph is again 2-connected."""
    k = frozenset(k)
    if not is_two_connected(g):
        raise GraphError("graph is not 2-connected")
    if len(k) < 3:
        raise GraphError("need |k| >= 3")
    if not k <= g.vertices:
        raise GraphError("k contains non-vertices")
    if not g.subgraph(k).is_connected():
        raise GraphError("k does not induce a connected subgraph")
    return is_two_connected(contraction_quotient(g, k))


def check_struct1(g: FiniteGraph, k0):
    """For each component K1 of g - (k0 and its neighbourhood), record its
    neighbourhood size; return the components where it is not 2.

    The structure lemma for 2-connected K2,3-minor-free graphs says the
    returned list is always empty.
    """
    k0 = frozenset(k0)
    if not is_two_connected(g):
        raise GraphError("graph is not 2-connected")
    if has_k23_minor(g):
        raise GraphError("graph has a K2,3 minor; lemma premise violated")
    if not k0 <= g.vertices:
        raise GraphError("k0 contains non-vertices")
    if not k0 or not g.subgraph(k0).is_connected():
        raise GraphError("k0 must induce a connected nonempty subgraph")
    closed = set(k0)
    for v in k0:
        closed |= g.adj[v]
    violations = []
    for comp in g.subgraph(g.vertices - closed).components():
        nbh = set()
        for v in comp:
            nbh |= g.adj[v] - comp
        if len(nbh) != 2:
            violations.append((comp, frozenset(nbh)))
    return violations


# ---------------------------------------------------------------------------
# disk layout


@dataclass(frozen=True)
class DiskLayout:
    placements: tuple  # ((vertex, angle in radians), ...) in cycle order
    boundary: tuple  # edges drawn as circle arcs
    chords: tuple  # edges drawn as straight segments


def positions_cross(p, q):
    """True iff two chords of a circle cross, each given by the positions
    (lower, higher) of its ends along the circle.  Chords that share an
    end do not cross."""
    (a, b), (c, d) = p, q
    return (a < c < b < d) or (c < a < d < b)


def disk_layout(g: FiniteGraph) -> DiskLayout:
    """Place the unique Hamilton cycle on the unit circle at uniform
    angles; all remaining edges become straight chords, which do not cross
    because ``minors.circle_order`` certified the order."""
    order, cyc = _circle_order(g)
    n = len(order)
    placements = tuple((v, 2 * math.pi * i / n) for i, v in enumerate(order))
    boundary = tuple(sorted(cyc, key=lambda e: (vkey(e[0]), vkey(e[1]))))
    chords = tuple(
        sorted(g.edges - cyc, key=lambda e: (vkey(e[0]), vkey(e[1])))
    )
    return DiskLayout(placements, boundary, chords)


def layout_to_svg(layout: DiskLayout) -> str:
    """Render a layout to a 512x512 SVG: boundary as circle arcs, chords as
    line segments, each vertex labelled with its id, XML-escaped."""
    size = 512
    cx = cy = size / 2
    rad = size * 0.42
    pos = {
        v: (cx + rad * math.cos(a), cy - rad * math.sin(a))
        for v, a in layout.placements
    }
    angles = dict(layout.placements)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<circle cx="{cx}" cy="{cy}" r="{rad}" fill="none" '
        f'stroke="#cccccc" stroke-width="1"/>',
    ]
    for a, b in layout.boundary:
        x1, y1 = pos[a]
        x2, y2 = pos[b]
        # short arc along the circle between consecutive vertices
        parts.append(
            f'<path d="M {x1:.2f} {y1:.2f} A {rad:.2f} {rad:.2f} 0 0 '
            f'{1 if (angles[b] - angles[a]) % (2 * math.pi) > math.pi else 0} '
            f'{x2:.2f} {y2:.2f}" fill="none" stroke="#1f6fb2" stroke-width="2"/>'
        )
    for a, b in layout.chords:
        x1, y1 = pos[a]
        x2, y2 = pos[b]
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="#b24a1f" stroke-width="1.5"/>'
        )
    for v, (x, y) in sorted(pos.items(), key=lambda t: vkey(t[0])):
        # xml.sax.saxutils.escape, inlined: importing it loads urllib and ssl
        label = vkey(v).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#222222"/>')
        parts.append(
            f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="12" '
            f'font-family="monospace">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
