"""The cubic gadget with three contact vertices and the recursive
construction of finite graphs converging to an infinite cubic graph with a
unique Hamilton circle.

The gadget ("fragment") has pendant contacts u, l, r and two special
interior vertices c and v.  Closing the contacts into one vertex Z gives a
cubic graph H whose Hamilton cycles avoiding Z's edge to m's pendant are
the gadget's Hamilton paths without contact m.  Checked on every load:
none avoids u's edge; two avoid r's, both using the pendant edges at u
and l.
A copy's c and v are replaced by child copies, attached through the
(u,l,r) -> (l,s,t) and (u,l,r) -> (w,x,y) identification.

A copy is named by its path ("" for the root, then "c" or "v" per step),
its vertex x by ``F:<path>:<x>``, the root's closed contacts by ``Z``.  One
table, `Fragment.ends`, built once per gadget, names both ends of every edge
of the limit graph, where every c and v is replaced, by these ids.  The
level-n graph is the limit graph's level-n quotient
(`lazy.quotient_window`): the copies of depth <= n, each deeper
subtree contracted to the c or v vertex that its root copy replaces.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from itertools import product

from .graphs import (
    FiniteGraph,
    GraphError,
    InvariantError,
    canon_edge,
    enumerate_hamilton_cycles,
)
from .jsonio import graph_from_obj
from . import lazy
from .lazy import LazyGraph, quotient_window

ROLES = ("u", "l", "r")  # a copy's contacts, in this order
_VERTEX_ID = re.compile(r"F:([cv]*):([^:]+)")


@dataclass(frozen=True)
class Fragment:
    graph: FiniteGraph
    roles: dict  # role name -> vertex id; "x" may coincide with "t"

    @cached_property
    def contacts(self):
        return (self.roles["u"], self.roles["l"], self.roles["r"])

    def pendant_edge(self, role):
        return canon_edge(self.roles[role], self.pendants[role])

    @property
    def interior(self):
        return self.graph.vertices - set(self.contacts)

    # -- the wiring of copies, read off their paths

    @cached_property
    def children(self):
        """Replaced vertex -> (path tag of the child copy in its place, the
        neighbours that become the child's u, l and r contacts)."""
        r = self.roles
        return {
            r["c"]: ("c", (r["l"], r["s"], r["t"])),
            r["v"]: ("v", (r["w"], r["x"], r["y"])),
        }

    @cached_property
    def pendants(self):
        """Contact role -> the interior vertex its pendant edge meets."""
        out = {}
        for m in ROLES:
            (out[m],) = self.graph.adj[self.roles[m]]
        return out

    @cached_property
    def patterns(self):
        """Contact role -> the gadget's Hamilton paths without it as edge
        sets: H's Hamilton cycles avoiding Z's edge to the role's pendant,
        Z's two used edges named back as their pendant edges."""
        closed = {x: "Z" for x in self.contacts}
        h = FiniteGraph.build(self.interior | {"Z"},
                              ([closed.get(x, x) for x in e] for e in self.graph.edges))
        back = {canon_edge("Z", self.pendants[m]): self.pendant_edge(m) for m in ROLES}
        cycles = {m: enumerate_hamilton_cycles(h, forced_out=[("Z", self.pendants[m])])
                  for m in ROLES}
        return {m: [frozenset(back.get(e, e) for e in c) for c in cs] for m, cs in cycles.items()}

    @cached_property
    def kept(self):
        """The interior vertices that no child replaces."""
        return frozenset(self.interior - set(self.children))

    @cached_property
    def ends(self):
        """The whole wiring as one table: ``ends[a][b]`` says where the local
        edge a-b ends at b in the limit graph, as (path suffix, kept local
        vertex): a c or v hands the edge on to its child's pendant.  An edge
        that leaves the copy upward, at a contact, ends at (None, the
        contact's role)."""

        def end(via, x):
            if x in self.contacts:
                return None, ROLES[self.contacts.index(x)]
            suffix = ""
            while x in self.children:
                tag, nbrs = self.children[x]
                role = ROLES[nbrs.index(via)]
                suffix, via, x = suffix + tag, self.roles[role], self.pendants[role]
            return suffix, x

        adj = self.graph.adj
        return {a: {b: end(a, b) for b in adj[a]} for a in self.graph.vertices}

    def _at(self, path, end):
        """Graph id of the table entry `end` read in the copy at `path`."""
        suffix, x = end
        return self.contact(path, x) if suffix is None else f"F:{path}{suffix}:{x}"

    def contact(self, path, role):
        """Graph id of the `role` contact of the copy at `path`: Z for the
        root, else where the parent's edge from the replaced c or v to the
        neighbour wired to `role` ends."""
        if not path:
            return "Z"
        x = self.roles[path[-1]]
        _, nbrs = self.children[x]
        return self._at(path[:-1], self.ends[x][nbrs[ROLES.index(role)]])

    def land(self, path, role):
        """Graph id where the copy's pendant edge at `role` lands (the l
        pendant on ``F:<path>c:p1``)."""
        return self._at(path, self.ends[self.roles[role]][self.pendants[role]])

    def edge(self, path, a, b):
        """The limit graph's edge that the copy's local edge a-b stands for."""
        return canon_edge(self._at(path, self.ends[b][a]), self._at(path, self.ends[a][b]))

    # -- the limit graph's neighbour oracle and exhaustion hint.  Exhaustion
    # is by copy depth: the level-r region holds every copy of depth <= r;
    # each deeper subtree is infinite by construction, and its cut edges
    # are its root copy's three pendant edges.  Nothing is kept but the
    # table of edge ends: each region and component list is built when asked.

    def neighbors(self, v):
        if v == "Z":
            return sorted(self.land("", m) for m in ROLES)
        m = _VERTEX_ID.fullmatch(v) if isinstance(v, str) else None
        if m is None or m[2] not in self.kept:
            raise GraphError(f"unknown vertex {v!r}")
        path = m[1]
        out = []
        for suffix, x in self.ends[m[2]].values():  # `_at`, inlined on the hot path
            out.append(self.contact(path, x) if suffix is None else f"F:{path}{suffix}:{x}")
        out.sort()
        return out

    def region(self, r):
        return frozenset(["Z"] + [f"F:{p}:{x}" for p in copy_paths(self, r) for x in self.kept])

    def components(self, r):
        return tuple(
            (path, tuple((self.contact(path, m), self.land(path, m)) for m in ROLES))
            for path in (p + t for p in copy_paths(self, r) if len(p) == r for t in "cv")
        )

    def component_class(self, comp_id):
        """One class for every deep component at every radius.  The
        component at path P is its root copy's subtree: its vertices
        ``F:<P><w>:<x>`` map onto those of the component at Q under the
        renaming P -> Q, every neighbour outside it lies in the region, and
        its cut is the root copy's pendant edges in role order u, l, r.  So
        the flow network explored from the fingers is the same up to names,
        and so are the max-flow value and the cut size."""
        return "subtree"


def _validate_fragment(f: Fragment):
    g = f.graph
    for contact in f.contacts:
        if g.degree(contact) != 1:
            raise GraphError(f"contact {contact!r} must have degree 1")
    for x in f.interior:
        if g.degree(x) != 3:
            raise GraphError(f"interior vertex {x!r} must have degree 3")
    for x, (tag, nbrs) in f.children.items():
        if g.adj[x] != set(nbrs):
            raise GraphError(f"{tag} must be adjacent to exactly {', '.join(nbrs)}")
    # H is simple and cubic: Z is a new vertex with three distinct neighbours
    if "Z" in g.vertices:
        raise GraphError("no gadget vertex may be named 'Z'")
    if len(set(f.pendants.values())) != len(ROLES):
        raise GraphError("the contacts' pendants must be distinct")
    # the Hamilton path counts that characterize the gadget
    minus_u, minus_r = f.patterns["u"], f.patterns["r"]
    if len(minus_u) != 0:
        raise GraphError(f"expected 0 Hamilton paths without u, got {len(minus_u)}")
    if len(minus_r) != 2:
        raise GraphError(f"expected 2 Hamilton paths without r, got {len(minus_r)}")
    pu, pl = f.pendant_edge("u"), f.pendant_edge("l")
    for es in minus_r:
        if pu not in es or pl not in es:
            raise GraphError("a Hamilton path without r misses a pendant edge")


@lru_cache(maxsize=1)
def load_tutte_fragment() -> Fragment:
    data = json.loads(
        resources.files("hamcircle.data").joinpath("tutte_fragment.json").read_text()
    )
    f = Fragment(graph_from_obj(data["graph"]), dict(data["roles"]))
    _validate_fragment(f)
    return f


# ---------------------------------------------------------------------------
# the level graphs


def copy_paths(f: Fragment, depth: int):
    """Paths of all copies of depth <= `depth`, shallowest first: the one
    gate on Section-5 depth.  They and Z hold 1 + |kept| * (2^(depth+1) - 1)
    vertices of the limit graph; a negative depth raises GraphError and a
    size over the vertex budget BudgetError, before anything is built."""
    if depth < 0:
        raise GraphError("level must be nonnegative")
    lazy.check_budget(f"the copies of depth <= {depth}",
                      1 + len(f.kept) * ((1 << min(depth + 1, 64)) - 1))
    return ["".join(p) for k in range(depth + 1) for p in product("cv", repeat=k)]


@dataclass(frozen=True)
class FragmentTree:
    fragment: Fragment
    level: int
    graph: FiniteGraph

    @property
    def marked(self):
        """Paths of the copies of depth == level, sorted."""
        paths = copy_paths(self.fragment, self.level)
        return tuple(p for p in paths if len(p) == self.level)

    def cut_edges_of(self, path):
        """The three attachment edges of a marked copy: its pendant edges."""
        f = self.fragment
        return [canon_edge(f.contact(path, m), f"F:{path}:{f.pendants[m]}") for m in ROLES]


@lru_cache(maxsize=None)
def build_gn(n: int):
    """The level-n graph (contacts closed into one root vertex) and its
    recursion tree, read straight off the level-n `quotient_window`: its
    region, plus the surrogate of each of the window's deep components,
    named for the vertex ``F:<P>:<c or v>`` that the subtree at path
    P + t replaces.  Only a record's second end can be a surrogate.  A
    negative level or one over the vertex budget fails in `copy_paths`."""
    f = load_tutte_fragment()
    region, comps, records = quotient_window(section5_graph(), n)
    names = {c.surrogate: f"F:{c.comp_id[:-1]}:{f.roles[c.comp_id[-1]]}" for c in comps}
    g = FiniteGraph(
        region | frozenset(names.values()),
        frozenset(canon_edge(a, names.get(b, b)) for a, b, _ in records),
    )
    return g, FragmentTree(f, n, g)


def audit_tree(ft: FragmentTree):
    """Degree and cut checks; raises on violation."""
    g = ft.graph
    for x in g.vertices:
        if g.degree(x) != 3:
            raise InvariantError(f"vertex {x} has degree {g.degree(x)}")
    # one pass groups the vertices by marked copy: every marked copy has
    # depth ft.level, so a vertex lies in the subtree of the copy named by
    # its own path's first ft.level letters, if that copy is marked
    subtrees = {path: set() for path in ft.marked}
    for x in g.vertices:
        if x.startswith("F:"):
            own = x.split(":", 2)[1][:ft.level]
            if own in subtrees:
                subtrees[own].add(x)
    for path in ft.marked:
        sub = subtrees[path]
        cut = {canon_edge(x, y) for x in sub for y in g.adj[x] if y not in sub}
        if len(cut) != 3:
            raise InvariantError(
                f"marked copy {path!r} has a {len(cut)}-edge boundary cut"
            )
        if set(cut) != set(ft.cut_edges_of(path)):
            raise InvariantError(f"cut of {path!r} differs from its pendant edges")


def section5_graph() -> LazyGraph:
    """The limit of the fragment construction as a lazy adjacency oracle,
    with the gadget itself as neighbour function and exhaustion hint.

    Adjacency is read off the vertex ids, so every vertex has its final
    neighbourhood at any depth; regions and components past the vertex
    budget raise `BudgetError`.
    """
    f = load_tutte_fragment()
    return LazyGraph("Z", f.neighbors, hint=f)
