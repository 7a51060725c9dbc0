"""The cubic gadget with three contact vertices and the recursive
construction of finite graphs converging to an infinite cubic graph with a
unique Hamilton circle.

The gadget ("fragment") has pendant contacts u, l, r and two special
interior vertices c and v.  Its defining property, validated by brute
force every time it is loaded: the graph minus u has no Hamilton path
while the graph minus r has exactly two, both using the pendant edges at
u and l.  A copy's c and v are replaced by child copies, attached through
the (u,l,r) -> (l,s,t) and (u,l,r) -> (w,x,y) identification.

A copy is named by its path ("" for the root, then "c" or "v" per step),
its vertex x by ``F:<path>:<x>``, the root's closed contacts by ``Z``.  One
wiring rule reads every edge of the limit graph, where every c and v is
replaced, off these ids: `Fragment.contact`, `descend` and `edge`.  The
level-n graph is the limit graph's level-n quotient
(`lazy.quotient_multigraph`): the copies of depth <= n, each deeper
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
    enumerate_hamilton_paths,
)
from .jsonio import graph_from_obj
from . import lazy
from .lazy import BudgetError, LazyGraph, quotient_multigraph

ROLES = ("u", "l", "r")  # a copy's contacts, in this order


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
    def hamilton_paths(self):
        """Contact role -> the Hamilton paths of the gadget without it."""
        return {
            m: enumerate_hamilton_paths(self.graph.without_vertex(self.roles[m]))
            for m in ROLES
        }

    @cached_property
    def kept(self):
        """The interior vertices that no child replaces, sorted."""
        return tuple(sorted(self.interior - set(self.children)))

    def contact(self, path, role):
        """Graph id of the `role` contact of the copy at `path`: Z for the
        root, else the parent's neighbour of the replaced c or v."""
        if not path:
            return "Z"
        _, nbrs = self.children[self.roles[path[-1]]]
        return self.vertex(path[:-1], nbrs[ROLES.index(role)])

    def vertex(self, path, x):
        """Graph id of local vertex x of the copy at `path`; a contact is
        the vertex it stands for."""
        if x in self.contacts:
            return self.contact(path, ROLES[self.contacts.index(x)])
        return f"F:{path}:{x}"

    def descend(self, path, x, via):
        """Where the copy's local edge via-x ends at x in the limit graph, as
        (copy path, local vertex): a c or v hands the edge on to its child's
        pendant."""
        while x in self.children:
            tag, nbrs = self.children[x]
            role = ROLES[nbrs.index(via)]
            path, via, x = path + tag, self.roles[role], self.pendants[role]
        return path, x

    def land(self, path, role):
        """Graph id where the copy's pendant edge at `role` lands (the l
        pendant on ``F:<path>c:p1``)."""
        return self.vertex(*self.descend(path, self.pendants[role], self.roles[role]))

    def edge(self, path, a, b):
        """The limit graph's edge that the copy's local edge a-b stands for."""
        return canon_edge(
            self.vertex(*self.descend(path, a, b)), self.vertex(*self.descend(path, b, a))
        )


def _validate_fragment(f: Fragment):
    g = f.graph
    u, l, r = f.contacts
    for contact in (u, l, r):
        if g.degree(contact) != 1:
            raise GraphError(f"contact {contact!r} must have degree 1")
    for x in f.interior:
        if g.degree(x) != 3:
            raise GraphError(f"interior vertex {x!r} must have degree 3")
    for x, (tag, nbrs) in f.children.items():
        if g.adj[x] != set(nbrs):
            raise GraphError(f"{tag} must be adjacent to exactly {set(nbrs)}")
    # the Hamilton path counts that characterize the gadget
    minus_u, minus_r = f.hamilton_paths["u"], f.hamilton_paths["r"]
    if len(minus_u) != 0:
        raise GraphError(f"expected 0 Hamilton paths without u, got {len(minus_u)}")
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


# ---------------------------------------------------------------------------
# the level graphs


def copy_paths(f: Fragment, depth: int):
    """Paths of all copies of depth <= `depth`, shallowest first: the one
    gate on Section-5 depth.  They and Z hold 1 + |kept| * (2^(depth+1) - 1)
    vertices of the limit graph; a negative depth raises GraphError and a
    size over the vertex budget BudgetError, before anything is built."""
    if depth < 0:
        raise GraphError("level must be nonnegative")
    size = 1 + len(f.kept) * ((1 << min(depth + 1, 64)) - 1)
    if size > lazy.DEFAULT_VERTEX_BUDGET:
        raise BudgetError(
            f"the copies of depth <= {depth} hold {size} vertices, over the "
            f"vertex budget {lazy.DEFAULT_VERTEX_BUDGET}"
        )
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
        return [canon_edge(f.contact(path, m), f.vertex(path, f.pendants[m])) for m in ROLES]


@lru_cache(maxsize=None)
def build_gn(n: int):
    """The level-n graph (contacts closed into one root vertex) and its
    recursion tree: the limit graph's level-n quotient, each surrogate
    ``end:<p><t>`` named for the vertex ``F:<p>:<c or v>`` it stands for.
    A negative level or one over the vertex budget fails in `copy_paths`."""
    f = load_tutte_fragment()
    m = quotient_multigraph(section5_graph(), n)

    def name(x):
        return f"F:{x[4:-1]}:{f.roles[x[-1]]}" if x.startswith("end:") else x

    g = FiniteGraph(
        frozenset(map(name, m.vertices)),
        frozenset(canon_edge(name(a), name(b)) for _, a, b in m.edges),
    )
    return g, FragmentTree(f, n, g)


def audit_tree(ft: FragmentTree):
    """Degree and cut checks; raises on violation."""
    g = ft.graph
    for x in g.vertices:
        if g.degree(x) != 3:
            raise InvariantError(f"vertex {x} has degree {g.degree(x)}")
    # one pass groups the vertices by marked copy: a vertex lies in the
    # subtree of each marked copy whose path is a prefix of its own
    subtrees = {path: set() for path in ft.marked}
    depths = {len(path) for path in ft.marked}
    for x in g.vertices:
        if x.startswith("F:"):
            own = x.split(":", 2)[1]
            for k in depths:
                if own[:k] in subtrees:
                    subtrees[own[:k]].add(x)
    for path in ft.marked:
        sub = subtrees[path]
        cut = {canon_edge(x, y) for x in sub for y in g.adj[x] if y not in sub}
        if len(cut) != 3:
            raise InvariantError(
                f"marked copy {path!r} has a {len(cut)}-edge boundary cut"
            )
        if set(cut) != set(ft.cut_edges_of(path)):
            raise InvariantError(f"cut of {path!r} differs from its pendant edges")


# ---------------------------------------------------------------------------
# the limit graph as a lazy oracle


class _Section5Hint:
    """Exhaustion by fragment depth: the level-r region holds every copy of
    depth <= r; each deeper subtree is infinite by construction, and its
    cut edges are its root copy's three pendant edges.

    Regions and components are computed once per radius and kept on the
    hint, so they live as long as the graph that owns it."""

    def __init__(self, fragment):
        self.fragment = fragment
        self._regions = {}
        self._components = {}

    def region(self, r):
        if r not in self._regions:
            kept = self.fragment.kept
            self._regions[r] = frozenset(
                ["Z"] + [f"F:{p}:{x}" for p in copy_paths(self.fragment, r) for x in kept]
            )
        return self._regions[r]

    def components(self, r):
        if r not in self._components:
            f = self.fragment
            out = []
            for path in (p + t for p in copy_paths(f, r) if len(p) == r for t in "cv"):
                cut = tuple((f.contact(path, m), f.land(path, m)) for m in ROLES)
                out.append((path, frozenset(b for _, b in cut), cut))
            self._components[r] = tuple(out)
        return self._components[r]

    def nest(self, comp_id, r1):
        return comp_id[: r1 + 1]


_VERTEX_ID = re.compile(r"F:([cv]*):([^:]+)")


class _Section5Oracle:
    """Neighbours of ``F:<path>:<x>`` in the limit graph, from a table fixed
    once per kept local vertex: the role of its contact, if it has a
    pendant edge, and (path suffix, local vertex) for its other edges."""

    def __init__(self, fragment):
        f = self.fragment = fragment
        self._root = sorted(f.land("", m) for m in ROLES)
        self._targets = {}
        for x in f.kept:
            role, below = None, []
            for y in f.graph.adj[x]:
                if y in f.contacts:
                    role = ROLES[f.contacts.index(y)]
                else:
                    below.append(f.descend("", y, x))
            self._targets[x] = (role, tuple(below))

    def neighbors(self, v):
        if v == "Z":
            return self._root
        m = _VERTEX_ID.fullmatch(v) if isinstance(v, str) else None
        if m is None or m[2] not in self._targets:
            raise GraphError(f"unknown vertex {v!r}")
        path = m[1]
        role, below = self._targets[m[2]]
        out = [f"F:{path}{s}:{y}" for s, y in below]
        if role is not None:
            out.append(self.fragment.contact(path, role))
        out.sort()
        return out


def section5_graph() -> LazyGraph:
    """The limit of the fragment construction as a lazy adjacency oracle.

    Adjacency is read off the vertex ids, so every vertex has its final
    neighbourhood at any depth; regions and components past the vertex
    budget raise `BudgetError`.
    """
    oracle = _Section5Oracle(load_tutte_fragment())
    hint = _Section5Hint(oracle.fragment)
    return LazyGraph("Z", oracle.neighbors, hint=hint)
