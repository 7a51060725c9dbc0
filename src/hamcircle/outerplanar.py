"""Unique Hamilton cycles of 2-connected outerplanar graphs, 2-contractible
edges, contraction quotients, the two-neighbour structure lemma, and
straight-chord disk layouts."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import (
    FiniteGraph,
    GraphError,
    InvariantError,
    canon_edge,
    is_two_connected,
    vkey,
)
from .minors import has_k23_minor, is_outerplanar


def two_contractible_edges(g: FiniteGraph) -> frozenset:
    """Edges whose contraction leaves the graph 2-connected.

    For a 2-connected g on n >= 4 vertices, g/ab is 2-connected iff
    g - {a, b} is connected: a cut vertex of g/ab other than the merged
    vertex would be one of g, and the merged vertex separates g/ab iff
    {a, b} separates g.  A triangle contracts to K2, so it has none.
    """
    if not is_two_connected(g):
        raise GraphError("graph is not 2-connected")
    if len(g.vertices) < 4:
        return frozenset()
    return frozenset(e for e in g.edges if g.subgraph(g.vertices - set(e)).is_connected())


def _is_spanning_cycle(g: FiniteGraph, edges) -> bool:
    cnt = {v: 0 for v in g.vertices}
    for a, b in edges:
        cnt[a] += 1
        cnt[b] += 1
    if any(c != 2 for c in cnt.values()):
        return False
    sub = FiniteGraph(g.vertices, frozenset(edges))
    return sub.is_connected()


def unique_hamilton_cycle_outerplanar(g: FiniteGraph) -> frozenset:
    """The unique Hamilton cycle: the 2-contractible edges, except that a
    triangle (whose contractions all collapse below 2-connectivity) is its
    own cycle."""
    if not is_two_connected(g):
        raise GraphError("graph is not 2-connected")
    if not is_outerplanar(g):
        raise GraphError("graph is not outerplanar")
    if len(g.vertices) == 3:
        return g.edges
    cyc = two_contractible_edges(g)
    if not _is_spanning_cycle(g, cyc):
        raise InvariantError(
            "2-contractible edges of a 2-connected outerplanar graph "
            "failed to form a spanning cycle"
        )
    return cyc


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

    def to_obj(self):
        return {
            "placements": [[v, a] for v, a in self.placements],
            "boundary": [list(e) for e in self.boundary],
            "chords": [list(e) for e in self.chords],
        }


def _cycle_order(g: FiniteGraph, cyc):
    nbr = {}
    for a, b in cyc:
        nbr.setdefault(a, []).append(b)
        nbr.setdefault(b, []).append(a)
    start = min(g.vertices, key=vkey)
    second = min(nbr[start], key=vkey)
    order = [start, second]
    while len(order) < len(g.vertices):
        prev, cur = order[-2], order[-1]
        nxt = [x for x in nbr[cur] if x != prev]
        order.append(nxt[0])
    return order


def chords_cross(order, e, f):
    pos = {v: i for i, v in enumerate(order)}
    a, b = sorted((pos[e[0]], pos[e[1]]))
    c, d = sorted((pos[f[0]], pos[f[1]]))
    return (a < c < b < d) or (c < a < d < b)


def disk_layout(g: FiniteGraph) -> DiskLayout:
    """Place the unique Hamilton cycle on the unit circle at uniform
    angles; all remaining edges become straight chords, asserted pairwise
    non-crossing."""
    cyc = unique_hamilton_cycle_outerplanar(g)
    order = _cycle_order(g, cyc)
    n = len(order)
    placements = tuple((v, 2 * math.pi * i / n) for i, v in enumerate(order))
    boundary = tuple(sorted(cyc, key=lambda e: (vkey(e[0]), vkey(e[1]))))
    chords = tuple(
        sorted(g.edges - cyc, key=lambda e: (vkey(e[0]), vkey(e[1])))
    )
    for i in range(len(chords)):
        for j in range(i + 1, len(chords)):
            if chords_cross(order, chords[i], chords[j]):
                raise InvariantError(
                    f"chords {chords[i]} and {chords[j]} cross in the layout"
                )
    return DiskLayout(placements, boundary, chords)


def layout_to_svg(layout: DiskLayout) -> str:
    """Render a layout to a 512x512 SVG: boundary as circle arcs, chords as
    line segments."""
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
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#222222"/>')
        parts.append(
            f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="12" '
            f'font-family="monospace">{v}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
