"""The cubic gadget with three contact vertices and the recursive
construction of finite graphs converging to an infinite cubic graph with a
unique Hamilton circle.

The gadget ("fragment") has pendant contacts u, l, r and two special
interior vertices c and v.  Its defining property, validated by brute
force every time it is loaded: the graph minus u has no Hamilton path
while the graph minus r has exactly two, both using the pendant edges at
u and l.  Expansion replaces each marked copy's c and v by fresh child
copies, attached through the (u,l,r) -> (l,s,t) and (u,l,r) -> (w,x,y)
identification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .graphs import (
    FiniteGraph,
    GraphError,
    InvariantError,
    canon_edge,
    cut_edges,
    enumerate_hamilton_paths,
    vkey,
)
from .jsonio import graph_from_obj
from .lazy import LazyGraph

LEVEL_CAP = 4  # default cap for explicit level builds
ORACLE_LEVEL_CAP = 8  # internal cap for the lazy limit oracle


@dataclass(frozen=True)
class Fragment:
    graph: FiniteGraph
    roles: dict  # role name -> vertex id; "x" may coincide with "t"

    @property
    def contacts(self):
        return (self.roles["u"], self.roles["l"], self.roles["r"])

    def pendant_edge(self, role):
        v = self.roles[role]
        (nbr,) = self.graph.adj[v]
        return canon_edge(v, nbr)

    @property
    def interior(self):
        return self.graph.vertices - set(self.contacts)


def _validate_fragment(f: Fragment):
    g = f.graph
    u, l, r = f.contacts
    for contact in (u, l, r):
        if g.degree(contact) != 1:
            raise GraphError(f"contact {contact!r} must have degree 1")
    for x in f.interior:
        if g.degree(x) != 3:
            raise GraphError(f"interior vertex {x!r} must have degree 3")
    c, v = f.roles["c"], f.roles["v"]
    if g.adj[c] != {l, f.roles["s"], f.roles["t"]}:
        raise GraphError("c must be adjacent to exactly {l, s, t}")
    if g.adj[v] != {f.roles["w"], f.roles["x"], f.roles["y"]}:
        raise GraphError("v must be adjacent to exactly {w, x, y}")
    if not g.has_edge(l, c) or not g.has_edge(v, f.roles["w"]):
        raise GraphError("edges l-c and v-w must be present")
    # the Hamilton path counts that characterize the gadget
    minus_u = enumerate_hamilton_paths(g.without_vertex(u))
    if len(minus_u) != 0:
        raise GraphError(f"expected 0 Hamilton paths without u, got {len(minus_u)}")
    minus_r = enumerate_hamilton_paths(g.without_vertex(r))
    if len(minus_r) != 2:
        raise GraphError(f"expected 2 Hamilton paths without r, got {len(minus_r)}")
    pu, pl = f.pendant_edge("u"), f.pendant_edge("l")
    for path in minus_r:
        es = {canon_edge(a, b) for a, b in zip(path, path[1:])}
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


def fragment_t_minus_l_count(f: Fragment) -> int:
    """The (derived, never assumed) Hamilton path count without l."""
    return len(enumerate_hamilton_paths(f.graph.without_vertex(f.roles["l"])))


# ---------------------------------------------------------------------------
# the recursion tree


@dataclass(frozen=True)
class FragmentTree:
    fragment: Fragment
    level: int
    graph: FiniteGraph
    # node path ("" = root, then "c"/"v" per level) -> contact ids in the
    # surrounding graph, as a dict {"u": id, "l": id, "r": id}
    nodes: dict
    marked: tuple  # node paths at depth == level

    def node_vertex(self, path, local):
        """Graph id of a copy's own interior vertex."""
        return f"F:{path}:{local}"

    def cut_edges_of(self, path):
        """The three attachment edges of a marked copy."""
        f = self.fragment
        contacts = self.nodes[path]
        out = []
        for role in ("u", "l", "r"):
            pv, nbr = f.pendant_edge(role)
            inner = nbr if pv == f.roles[role] else pv
            out.append(canon_edge(contacts[role], self.node_vertex(path, inner)))
        return out

    def subtree_vertices(self, path):
        """All interior vertices of the copy at `path` and its descendants.

        Vertex ids encode the tree path, so a prefix test suffices."""
        return {
            x
            for x in self.graph.vertices
            if x.startswith("F:") and x.split(":", 2)[1].startswith(path)
        }


def _fragment_local_edges(f: Fragment):
    """Fragment edges with pendant contacts dropped, plus the pendant
    records (role, interior endpoint)."""
    u, l, r = f.contacts
    contact_set = {u, l, r}
    interior_edges = []
    pendants = {}
    for a, b in f.graph.sorted_edges():
        if a in contact_set or b in contact_set:
            contact = a if a in contact_set else b
            inner = b if a in contact_set else a
            role = {u: "u", l: "l", r: "r"}[contact]
            pendants[role] = inner
        else:
            interior_edges.append((a, b))
    return interior_edges, pendants


def _attach_copy(f, local, path, contacts, vertices, edges):
    """Add the interior of a fresh copy at `path`, wired to the given
    contact ids.  `local` is ``_fragment_local_edges(f)``, computed once
    per build."""
    interior_edges, pendants = local

    def gid(x):
        return f"F:{path}:{x}"

    for x in f.interior:
        vertices.add(gid(x))
    for a, b in interior_edges:
        edges.add(canon_edge(gid(a), gid(b)))
    for role, inner in pendants.items():
        edges.add(canon_edge(contacts[role], gid(inner)))


def build_g0() -> FragmentTree:
    """The closed base level: one copy with its three contacts merged."""
    f = load_tutte_fragment()
    z = "Z"
    vertices = {z}
    edges = set()
    contacts = {"u": z, "l": z, "r": z}
    _attach_copy(f, _fragment_local_edges(f), "", contacts, vertices, edges)
    g = FiniteGraph(frozenset(vertices), frozenset(edges))
    return FragmentTree(f, 0, g, {"": contacts}, ("",))


def expand(ft: FragmentTree) -> FragmentTree:
    """One construction step: each marked copy loses its c and v and gains
    a child copy in each one's place."""
    f = ft.fragment
    local = _fragment_local_edges(f)
    adj = ft.graph.adj
    vertices = set(ft.graph.vertices)
    edges = set(ft.graph.edges)
    nodes = dict(ft.nodes)
    new_marked = []
    for path in ft.marked:
        gc = ft.node_vertex(path, f.roles["c"])
        gv = ft.node_vertex(path, f.roles["v"])
        # children attach only to surviving vertices, so a dead vertex's
        # edges are exactly its edges in the graph being expanded
        for dead in (gc, gv):
            vertices.discard(dead)
            for nbr in adj[dead]:
                edges.discard(canon_edge(dead, nbr))
        c_contacts = {
            "u": ft.nodes[path]["l"],
            "l": ft.node_vertex(path, f.roles["s"]),
            "r": ft.node_vertex(path, f.roles["t"]),
        }
        v_contacts = {
            "u": ft.node_vertex(path, f.roles["w"]),
            "l": ft.node_vertex(path, f.roles["x"]),
            "r": ft.node_vertex(path, f.roles["y"]),
        }
        for tag, contacts in (("c", c_contacts), ("v", v_contacts)):
            child = path + tag
            _attach_copy(f, local, child, contacts, vertices, edges)
            nodes[child] = contacts
            new_marked.append(child)
    g = FiniteGraph(frozenset(vertices), frozenset(edges))
    return FragmentTree(f, ft.level + 1, g, nodes, tuple(sorted(new_marked)))


@lru_cache(maxsize=None)
def build_gn(n: int, cap: int = LEVEL_CAP):
    """The level-n graph (contacts closed into one root vertex) and its
    recursion tree."""
    if n < 0:
        raise GraphError("level must be nonnegative")
    if n > cap:
        raise GraphError(f"level {n} exceeds the cap {cap}")
    ft = build_g0()
    for _ in range(n):
        ft = expand(ft)
    return ft.graph, ft


def audit_tree(ft: FragmentTree):
    """Degree and cut checks; raises on violation."""
    g = ft.graph
    for x in g.vertices:
        if g.degree(x) != 3:
            raise InvariantError(f"vertex {x} has degree {g.degree(x)}")
    for path in ft.marked:
        sub = ft.subtree_vertices(path)
        cut = cut_edges(g, sub)
        if len(cut) != 3:
            raise InvariantError(
                f"marked copy {path!r} has a {len(cut)}-edge boundary cut"
            )
        if set(cut) != set(ft.cut_edges_of(path)):
            raise InvariantError(f"cut of {path!r} differs from its pendant edges")


# ---------------------------------------------------------------------------
# the limit graph as a lazy oracle


def _depth_of(vertex_id) -> int:
    if vertex_id == "Z":
        return 0
    return len(vertex_id.split(":", 2)[1])


class _Section5Hint:
    """Exhaustion by fragment depth: the level-r region holds every copy of
    depth <= r; each deeper subtree is infinite by construction.

    Regions and components are computed once per radius and kept on the
    hint, so they live as long as the graph that owns it."""

    def __init__(self, oracle):
        self.oracle = oracle
        self._u_local = _fragment_local_edges(oracle.fragment)[1]["u"]
        self._regions = {}
        self._components = {}

    def region(self, r):
        if r not in self._regions:
            _, ft = build_gn(min(r + 3, ORACLE_LEVEL_CAP), cap=ORACLE_LEVEL_CAP)
            self._regions[r] = frozenset(
                x for x in ft.graph.vertices if _depth_of(x) <= r
            )
        return self._regions[r]

    def components(self, r):
        if r not in self._components:
            self._components[r] = self._scan_components(r)
        return self._components[r]

    def _scan_components(self, r):
        level = min(r + 3, ORACLE_LEVEL_CAP)
        _, ft = build_gn(level, cap=ORACLE_LEVEL_CAP)
        region = self.region(r)
        out = []
        for path in sorted(p for p in ft.nodes if len(p) == r + 1):
            cut = []
            for a, b in ft.cut_edges_of(path):
                inside, outside = (a, b) if a in region else (b, a)
                # the pendant edge at l is transient; the persistent cut
                # edge goes to the c-child's u-side neighbor instead
                if _depth_of(outside) <= r:
                    raise InvariantError("cut edge does not leave the region")
                cut.append((inside, outside))
            # replace the transient l-c edge by its stable replacement
            stable = []
            for inside, outside in cut:
                if outside == f"F:{path}:" + self.oracle.fragment.roles["c"]:
                    stable.append((inside, f"F:{path}c:{self._u_local}"))
                else:
                    stable.append((inside, outside))
            fingers = frozenset(f for _, f in stable)
            out.append((path, fingers, tuple(stable)))
        return tuple(out)

    def nest(self, comp_id, r1):
        return comp_id[: r1 + 1]


class _Section5Oracle:
    def __init__(self):
        self.fragment = load_tutte_fragment()

    def neighbors(self, v):
        d = _depth_of(v)
        level = min(d + 2, ORACLE_LEVEL_CAP)
        g, _ = build_gn(level, cap=ORACLE_LEVEL_CAP)
        if v not in g.vertices:
            raise GraphError(f"unknown vertex {v!r}")
        return g.neighbors(v)


def section5_graph() -> LazyGraph:
    """The limit of the fragment construction as a lazy adjacency oracle.

    A vertex of fragment depth d has its final neighborhood from level
    d+2 on, so the oracle serves adjacency from a deep enough finite
    build and only ever reports persistent edges.
    """
    oracle = _Section5Oracle()
    hint = _Section5Hint(oracle)
    return LazyGraph("Z", oracle.neighbors, hint=hint, name="section5")
