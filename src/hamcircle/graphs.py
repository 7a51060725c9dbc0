"""Finite simple graphs and multigraphs.

Everything downstream (minor detection, caterpillar squares, the fragment
construction) works on these two immutable types.  Vertex ids are opaque
hashable tokens, canonically short strings; all orderings are by ``str`` of
the id so results are reproducible run to run.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


# the sort key of a vertex: its ``str`` form (the builtin, so no Python frame)
vkey = str


def ekey(e):
    a, b = str(e[0]), str(e[1])
    return (a, b) if a <= b else (b, a)


def canon_edge(a, b):
    """Order an endpoint pair canonically."""
    return (a, b) if str(a) <= str(b) else (b, a)


class GraphError(ValueError):
    pass


class InvariantError(AssertionError):
    """An internal invariant failed: a bug, not a property of the input.

    Raised explicitly, so the check survives ``python -O``."""


def reach(adj, seen, stack):
    """Grow `seen` by every vertex reached from the vertices on `stack`
    without passing through a vertex already in `seen`, and return it: the
    one reachability search.  The stack's vertices belong in `seen` too,
    and the stack is used up."""
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


@dataclass(frozen=True)
class FiniteGraph:
    """An undirected simple graph without loops."""

    vertices: frozenset
    edges: frozenset  # of canonical 2-tuples

    @staticmethod
    def build(vertices: Iterable, edges: Iterable) -> "FiniteGraph":
        vs = frozenset(vertices)
        es = set()
        for a, b in edges:
            if a == b:
                raise GraphError(f"loop at {a!r}")
            if a not in vs or b not in vs:
                raise GraphError(f"edge ({a!r}, {b!r}) has endpoint outside vertex set")
            es.add(canon_edge(a, b))
        return FiniteGraph(vs, frozenset(es))

    @cached_property
    def adj(self) -> dict:
        a = {v: set() for v in self.vertices}
        for x, y in self.edges:
            a[x].add(y)
            a[y].add(x)
        return a

    def sorted_vertices(self):
        return sorted(self.vertices, key=vkey)

    def sorted_edges(self):
        return sorted(self.edges, key=ekey)

    def degree(self, v) -> int:
        return len(self.adj[v])

    def has_edge(self, a, b) -> bool:
        return canon_edge(a, b) in self.edges

    def neighbors(self, v):
        return sorted(self.adj[v], key=vkey)

    def subgraph(self, keep) -> "FiniteGraph":
        keep = frozenset(keep)
        return FiniteGraph(
            keep,
            frozenset(e for e in self.edges if e[0] in keep and e[1] in keep),
        )

    def components(self):
        """Connected components as frozensets, by least vertex under ``vkey``."""
        seen, out = set(), []
        for s in self.sorted_vertices():
            if s not in seen:
                out.append(frozenset(reach(self.adj, {s}, [s])))
                seen |= out[-1]
        return out

    def is_connected(self) -> bool:
        """True iff g has at most one component, from one search."""
        if not self.vertices:
            return True
        start = next(iter(self.vertices))
        return len(reach(self.adj, {start}, [start])) == len(self.vertices)

    def distances_from(self, src, limit=None):
        """BFS distance map from src, optionally cut off at `limit`."""
        dist = {src: 0}
        frontier = [src]
        d = 0
        while frontier:
            if limit is not None and d >= limit:
                break
            d += 1
            nxt = []
            for x in frontier:
                for y in self.adj[x]:
                    if y not in dist:
                        dist[y] = d
                        nxt.append(y)
            frontier = nxt
        return dist


@dataclass(frozen=True)
class MultiGraph:
    """Undirected multigraph; parallel edges distinguished by integer edge id."""

    vertices: frozenset
    edges: tuple  # of (edge_id, a, b), a/b in canon_edge order, sorted by edge id

    @staticmethod
    def build(vertices: Iterable, edges: Iterable) -> "MultiGraph":
        vs = frozenset(vertices)
        es = []
        ids = set()
        for eid, a, b in edges:
            if a == b:
                raise GraphError(f"loop at {a!r}")
            if a not in vs or b not in vs:
                raise GraphError(f"edge {eid} has endpoint outside vertex set")
            if eid in ids:
                raise GraphError(f"duplicate edge id {eid}")
            ids.add(eid)
            x, y = canon_edge(a, b)
            es.append((eid, x, y))
        es.sort(key=lambda t: t[0])
        return MultiGraph(vs, tuple(es))

    @cached_property
    def incidence(self) -> dict:
        inc = {v: [] for v in self.vertices}
        for eid, a, b in self.edges:
            inc[a].append((eid, b))
            inc[b].append((eid, a))
        return inc

    def degree(self, v) -> int:
        return len(self.incidence[v])

    def sorted_vertices(self):
        return sorted(self.vertices, key=vkey)

    def is_connected_on_support(self) -> bool:
        inc = self.incidence
        support = [v for v, star in inc.items() if star]
        if not support:
            return True
        seen = {support[0]}
        stack = [support[0]]
        while stack:
            for _, y in inc[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(support)


# ---------------------------------------------------------------------------
# basic operations


def kth_power(g: FiniteGraph, k: int) -> FiniteGraph:
    """Add an edge between every pair of vertices at distance 2..k."""
    if k < 1:
        raise GraphError("k must be positive")
    if k == 1:
        return g
    new_edges = set(g.edges)
    for v in g.vertices:
        dist = g.distances_from(v, limit=k)
        for w, d in dist.items():
            if 1 < d <= k:
                new_edges.add(canon_edge(v, w))
    return FiniteGraph(g.vertices, frozenset(new_edges))


def blocks(g: FiniteGraph) -> list:
    """Vertex sets of the blocks of g (its maximal 2-connected subgraphs and
    its bridges), from one iterative lowpoint DFS (Hopcroft-Tarjan).

    A block's vertex set induces exactly the block.  Isolated vertices lie
    in no block.  The DFS visits roots and neighbours in ``vkey`` order, so
    the list order is the same in every run.  The vertices are sorted once,
    and one sweep over them in that order appends each to its neighbours'
    lists, which are then in that order too: O(n log n + m) in all.
    """
    order = g.sorted_vertices()
    adj = g.adj
    nbrs = {v: [] for v in order}
    for v in order:
        for w in adj[v]:
            nbrs[w].append(v)
    disc, low = {}, {}
    out = []
    for root in order:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, None, iter(nbrs[root]))]
        edges = []  # tree and back edges not yet assigned to a block
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    edges.append((v, w))
                    stack.append((w, v, iter(nbrs[w])))
                    break
                if w != parent and disc[w] < disc[v]:
                    low[v] = min(low[v], disc[w])
                    edges.append((v, w))
            else:
                stack.pop()
                if parent is None:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    # parent separates v's subtree: its edges form a block
                    comp = set()
                    while True:
                        e = edges.pop()
                        comp.update(e)
                        if e == (parent, v):
                            break
                    out.append(frozenset(comp))
    return out


def is_two_connected(g: FiniteGraph) -> bool:
    """At least 3 vertices, connected and without a cut vertex.

    One lowpoint DFS over ``g.adj``, in whatever order its sets iterate,
    which stops at the first cut vertex: a non-root vertex p is one iff
    some child v of p has low[v] >= disc[p], and the root is one iff its
    first child's subtree misses a vertex (else it has one child).  When
    the graph is disconnected that first subtree misses a vertex too.
    O(n + m), with no sort and no block list.
    """
    adj = g.adj
    n = len(adj)
    if n < 3:
        return False
    root = next(iter(adj))
    disc = {root: 0}
    low = {root: 0}
    stack = [(root, None, iter(adj[root]))]
    while stack:
        v, parent, it = stack[-1]
        for w in it:
            d = disc.get(w)
            if d is None:
                disc[w] = low[w] = len(disc)
                stack.append((w, v, iter(adj[w])))
                break
            if w != parent and d < low[v]:
                low[v] = d
        else:
            stack.pop()
            if len(stack) == 1:  # v is the root's first child
                return len(disc) == n
            if stack:
                if low[v] >= disc[parent]:
                    return False
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return False


def is_eulerian(m: MultiGraph) -> bool:
    if any(len(star) % 2 for star in m.incidence.values()):
        return False
    return m.is_connected_on_support()


def _fresh_pair(m: MultiGraph, v):
    base = vkey(v)
    i = 0
    while True:
        a, b = f"{base}/s{i}a", f"{base}/s{i}b"
        if a not in m.vertices and b not in m.vertices:
            return a, b
        i += 1


def v_split(m: MultiGraph, v, e1_ids, e2_ids) -> MultiGraph:
    """m with v replaced by two new vertices, partitioning its edges."""
    inc_ids = {eid for eid, _ in m.incidence[v]}
    e1_ids, e2_ids = frozenset(e1_ids), frozenset(e2_ids)
    if e1_ids | e2_ids != inc_ids or e1_ids & e2_ids or not e1_ids or not e2_ids:
        raise GraphError("edge sets do not partition the star at v")
    v1, v2 = _fresh_pair(m, v)
    vs = (m.vertices - {v}) | {v1, v2}
    # m's edges are canonical and sorted by id, so only the renamed ones
    # need their endpoints reordered; no loop or foreign endpoint can arise
    es = []
    for e in m.edges:
        eid, a, b = e
        if a == v or b == v:
            w = v1 if eid in e1_ids else v2
            e = (eid, *canon_edge(b if a == v else a, w))
        es.append(e)
    return MultiGraph(vs, tuple(es))


def _eulerian_pairings(m: MultiGraph, v):
    """The 2+2 pairings of the edges at a degree-4 vertex v of an Eulerian
    multigraph m whose split is Eulerian, as ``(e1_ids, e2_ids)`` pairs in
    the order (ab|cd), (ac|bd), (ad|bc) of the sorted edge ids a < b < c < d.

    A 2+2 split leaves every degree even, so it is Eulerian iff it is
    connected on its support.  m is, so every component of m - v holds a
    neighbour of v, and the split is connected iff some component of m - v
    meets both halves.  One DFS labels the components of m - v that v's
    neighbours reach; nothing is rebuilt.
    """
    inc = m.incidence
    star = sorted(inc[v])  # (edge id, neighbour), by edge id
    label = {v: -1}
    for i, (_, w) in enumerate(star):
        if w in label:
            continue
        label[w] = i
        stack = [w]
        while stack:
            for _, y in inc[stack.pop()]:
                if y not in label:
                    label[y] = i
                    stack.append(y)
    ids = [eid for eid, _ in star]
    comp = [label[w] for _, w in star]
    out = []
    for (i, j), (k, l) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        if {comp[i], comp[j]} & {comp[k], comp[l]}:
            out.append(((ids[i], ids[j]), (ids[k], ids[l])))
    return out


def eulerian_v_splits(m: MultiGraph, v):
    """The Eulerian splits of a degree-4 vertex, of the three 2+2 pairings.

    Only the accepted pairings are built.  The splitting lemma for Eulerian
    multigraphs promises at least 2 of them.  Nothing here checks that; the
    ``euler`` corpus suite and acceptance criterion 6 count a shortfall as
    a violation.
    """
    if not is_eulerian(m):
        raise GraphError("multigraph is not Eulerian")
    if m.degree(v) != 4:
        raise GraphError(f"degree of {v!r} is {m.degree(v)}, need 4")
    return [v_split(m, v, e1, e2) for e1, e2 in _eulerian_pairings(m, v)]


def max_flow(n: int, arcs, s: int, t: int, stop: int):
    """Push flow from s to t one unit per shortest augmenting path, until
    `stop` units flow or no augmenting path is left.

    ``arcs`` lists ``(tail, head, capacity)`` on nodes ``0..n-1``.  Arc k
    gets two residual slots, ``2k`` forward and ``2k ^ 1`` backward, and
    each node's residual arcs are tried in head order, so the flow is
    reproducible.  Returns ``(value, flow)`` with ``flow[k]`` the units on
    ``arcs[k]``.
    """
    out = [[] for _ in range(n)]  # node -> [(head, slot)]
    tail = []  # slot -> tail node; the head is tail[a ^ 1]
    capacity = []
    for u, v, c in arcs:
        a = len(tail)
        out[u].append((v, a))
        out[v].append((u, a + 1))
        tail += (u, v)
        capacity += (c, 0)
    for arcs_out in out:
        arcs_out.sort()
    flow = [0] * len(tail)
    value = 0
    while value < stop:
        via = [-1] * n  # the slot that reached each node
        via[s] = len(tail)
        queue = [s]
        found = False
        for u in queue:
            for v, a in out[u]:
                if via[v] < 0 and capacity[a] - flow[a] + flow[a ^ 1] > 0:
                    via[v] = a
                    if v == t:
                        found = True
                        break
                    queue.append(v)
            if found:
                break
        if not found:
            break
        v = t
        while v != s:
            a = via[v]
            push = a if capacity[a] > flow[a] else a ^ 1
            flow[push] += 1 if push == a else -1
            v = tail[a]
        value += 1
    return value, flow[::2]


# ---------------------------------------------------------------------------
# Hamilton search
#
# One backtracking kernel serves paths and cycles, for simple graphs and
# multigraphs alike.  Cycles are found edge-wise with unit propagation:
# once a vertex has two chosen edges its remaining edges are excluded, a
# vertex with only two live edges has both forced, and an edge closing a
# premature cycle is excluded.  Propagation is incremental (a worklist of
# the endpoints of edges whose state changed) and every change is recorded
# on a trail, so backtracking undoes exactly what a branch did.  A Hamilton
# cycle crosses every edge cut at least twice, so once the search has
# backtracked a node also fails when its live graph (the vertices not yet
# saturated, the undecided edges, and one virtual edge per chosen segment)
# is disconnected or has a bridge.  That prunes only subtrees without a
# cycle, so the cycles and the order they are found in stay the same; a
# search that never backtracks never pays for the check.
#
# The exact check is one low-link pass (Tarjan), run only where cycle-space
# labels cannot prove the live graph 2-edge-connected (Pritchard &
# Thurimella, "Fast computation of small cuts via cycle space sampling",
# ACM Trans. Algorithms 2011).  A pass that finds its live graph H
# 2-edge-connected anchors its subtree: each back edge gets a fixed random
# 64-bit label and each tree edge the XOR of the back edges over it, so
# every cut of H XORs to 0.  A descendant's live graph is H minus the edges
# D set OUT since, with chosen edges contracted, which makes and removes no
# bridge, so it is split or bridged only if a cut of H lies in D plus one
# live edge.  Where D has at most four edges and no nonempty subset of D
# XORs to 0 or to another live edge's label, the pass is skipped; anywhere
# else it runs and either prunes as before or re-anchors, so the labels
# never prune.
#
# Hamilton paths are the Hamilton cycles of the graph plus an apex joined
# to every vertex, with the apex removed.

# cycle-space labels: entry e is edge e's label wherever it is a back edge
# of the cut check's low-link pass
_CUT_LABELS = []
_CUT_LABEL_SEED = 2011
_CUT_SUBSET_CAP = 4  # most OUT edges since the anchor that the labels test


def _cut_labels(m):
    """The label table, grown to at least `m` entries.  Entry e is the e-th
    64-bit draw from a generator seeded with `_CUT_LABEL_SEED`, whatever
    sizes the table grew through."""
    labels = _CUT_LABELS
    if len(labels) < m:
        draws = random.Random(_CUT_LABEL_SEED)
        labels[:] = [draws.getrandbits(64) for _ in range(max(m, 2 * len(labels)))]
    return labels


class _CycleSearch:
    """Edge-state backtracking for Hamilton cycles.

    Vertices are ``0..n-1`` in branching order and ``ends[e]`` holds the
    endpoints of edge ``e``; parallel edges are allowed.  ``run`` returns
    the cycles through every forced-in and no forced-out edge as sorted
    tuples of edge indices, at most ``limit`` of them.
    """

    UNDEC, IN, OUT = 0, 1, 2

    def __init__(self, n, ends, limit=None):
        if n < 2:
            raise GraphError("need at least 2 vertices")
        if limit is not None and limit < 1:
            raise GraphError("limit must be positive")
        self.n = n
        self.ends = ends
        inc = [[] for _ in range(n)]
        for e, (a, b) in enumerate(ends):
            inc[a].append(e)
            inc[b].append(e)
        self.inc = inc
        self.state = [self.UNDEC] * len(ends)
        self.chosen = [0] * n
        self.live = [len(es) for es in inc]  # incident edges not OUT
        # for a vertex that is the end of a chosen segment, the other end of
        # that segment; isolated vertices map to themselves
        self.pend = list(range(n))
        # the segment end on the first endpoint's side when an IN edge joined
        # two segments, -1 when it closed the cycle (read when undoing)
        self.joined = [-1] * len(ends)
        self.in_count = 0
        self.trail = []  # edges in the order their state was decided
        self.queue = list(range(n))  # vertices to re-examine
        self.limit = limit
        self.solutions = []
        self.nodes = 0  # calls of _search, for measurements and tests
        self.cut_passes = 0  # low-link passes the cut check ran
        self.cut_skips = 0  # cut checks the labels settled without a pass
        self.armed = False  # whether the cut check runs: set by the first backtrack
        # the last passed low-link pass on the current branch, as (trail
        # length, {tree edge: label}, {label: live edges carrying it}); None
        # until one has run
        self.anchor = None

    def run(self, forced_in=(), forced_out=()):
        ok = all(self._set_in(e) for e in forced_in) and all(
            self._set_out(e) for e in forced_out
        )
        if ok and self._propagate():
            self._search()
        return sorted(self.solutions)

    def _set_in(self, e):
        state = self.state
        if state[e] != self.UNDEC:
            return state[e] == self.IN
        a, b = self.ends[e]
        chosen = self.chosen
        if chosen[a] >= 2 or chosen[b] >= 2:
            return False
        pend = self.pend
        ea, eb = pend[a], pend[b]
        closing = ea == b
        if closing and self.in_count + 1 != self.n:
            return False  # would close a cycle that is not spanning
        state[e] = self.IN
        chosen[a] += 1
        chosen[b] += 1
        self.in_count += 1
        self.trail.append(e)
        self.queue += (a, b)
        if closing:
            self.joined[e] = -1
            return True
        pend[ea] = eb
        pend[eb] = ea
        self.joined[e] = ea
        if self.in_count + 1 != self.n:
            # the new segment's ends may not be joined directly: that would
            # close a cycle short of spanning
            inc, ends = self.inc, self.ends
            if len(inc[ea]) > len(inc[eb]):
                ea, eb = eb, ea
            for f in inc[ea]:
                if state[f] == self.UNDEC:
                    x, y = ends[f]
                    if (y if x == ea else x) == eb:
                        self._set_out(f)
        return True

    def _set_out(self, e):
        state = self.state
        if state[e] != self.UNDEC:
            return state[e] == self.OUT
        a, b = self.ends[e]
        state[e] = self.OUT
        self.live[a] -= 1
        self.live[b] -= 1
        self.trail.append(e)
        self.queue += (a, b)
        return True

    def _propagate(self):
        queue = self.queue
        state, chosen, live, inc = self.state, self.chosen, self.live, self.inc
        UNDEC = self.UNDEC
        while queue:
            v = queue.pop()
            cin = chosen[v]
            if cin == 2:
                if live[v] > 2:
                    for e in inc[v]:
                        if state[e] == UNDEC:
                            self._set_out(e)
            elif live[v] < 2:
                queue.clear()
                return False
            elif live[v] == 2:
                for e in inc[v]:
                    if state[e] == UNDEC and not self._set_in(e):
                        queue.clear()
                        return False
        return True

    def _bridged(self):
        """Whether the live graph is disconnected or has a bridge, once
        armed and while at least two components of the chosen edges are
        left.

        The live graph joins the vertices with fewer than two chosen edges
        by the undecided edges and by one virtual edge per chosen segment,
        between its two ends.  The rest of a Hamilton cycle is a spanning
        cycle of it that uses every virtual edge, so the graph is
        2-edge-connected.  The anchor's labels settle that when they can;
        otherwise a low-link pass decides, and if it passes, its labels
        become the anchor."""
        if not self.armed or self.in_count >= self.n - 1:
            return False
        if self._proven():
            self.cut_skips += 1
            return False
        self.cut_passes += 1
        anchor = self._low_link()
        if anchor is None:
            return True
        self.anchor = anchor
        return False

    def _proven(self):
        """Whether the anchor's labels prove the live graph 2-edge-connected:
        at most `_CUT_SUBSET_CAP` edges were set OUT since the anchor, and no
        nonempty set of them XORs to 0 or to the label of a live edge
        outside the set.  Every cut XORs to 0, so no cut of the anchor's live
        graph then lies in those edges plus one live edge."""
        anchor = self.anchor
        if anchor is None:
            return False
        mark, tree, count = anchor
        trail, state, labels = self.trail, self.state, self.labels
        outs = []  # labels of the edges set OUT since the anchor
        xors = [0]  # the XOR of every subset of them
        for i in range(mark, len(trail)):
            e = trail[i]
            if state[e] == self.OUT:
                if len(outs) == _CUT_SUBSET_CAP:
                    return False
                x = tree.get(e)
                if x is None:
                    x = labels[e]
                outs.append(x)
                xors += [y ^ x for y in xors]
        for x in xors[1:]:
            if not x or count.get(x, 0) > outs.count(x):
                return False
        return True

    def _low_link(self):
        """One iterative low-link pass (Tarjan) over the live graph: None
        if it is disconnected or has a bridge, else its cycle-space labels
        as an anchor.

        A segment's ends are discovered together, the second as the
        first's child over the virtual edge, so that edge is a tree edge
        and never a back edge.  A back edge's label is its table entry, and
        a tree edge's is the XOR of the labels at the back edges' ends in
        the subtree below it, which is the XOR of the back edges over it."""
        n = self.n
        chosen, pend, state, nbr, labels = (
            self.chosen, self.pend, self.state, self.nbr, self.labels)
        disc = [0] * n  # discovery order from 1; 0 while unvisited
        low = [0] * n
        acc = [0] * n  # XOR of the back-edge labels at the subtree's vertices
        tree = {}  # tree edge -> label
        found = []  # the label of every live edge, virtual ones included
        # a segment's end when one is chosen, else every vertex is live
        root = chosen.index(1) if self.in_count else 0
        seen = 0
        stack = []  # (vertex, edge it was reached by, its incident edges left)
        v, via = root, -1
        while True:
            # discover v, then its segment's other end, if any, over the
            # virtual edge (-1: no undecided edge shares that id)
            while True:
                seen += 1
                disc[v] = low[v] = seen
                stack.append((v, via, iter(nbr[v])))
                w = pend[v]
                if w == v or disc[w]:
                    break
                v, via = w, -1
            while stack:
                v, via, edges = stack[-1]
                lo, x, dv = low[v], acc[v], disc[v]
                for e, w in edges:
                    if state[e] or e == via:  # decided, or the tree edge back
                        continue
                    d = disc[w]
                    if not d:
                        break
                    b = labels[e]
                    x ^= b
                    if d < dv:  # seen from its lower end: count it once
                        found.append(b)
                        if d < lo:
                            lo = d
                else:
                    stack.pop()
                    if stack:
                        u = stack[-1][0]
                        if lo > disc[u]:
                            return None  # the edge that reached v is a bridge
                        if lo < low[u]:
                            low[u] = lo
                        acc[u] ^= x
                        found.append(x)
                        if via >= 0:
                            tree[via] = x
                    continue
                low[v] = lo
                acc[v] = x
                v, via = w, e
                break
            else:
                if seen != n - chosen.count(2):
                    return None
                return len(self.trail), tree, Counter(found)

    def _arm(self):
        """Switch the cut check on, with each vertex's incident edges as
        (edge, other end) pairs for its pass and the label table."""
        ends = self.ends
        self.nbr = [[(e, sum(ends[e]) - v) for e in es] for v, es in enumerate(self.inc)]
        self.labels = _cut_labels(len(ends))
        self.armed = True

    def _undo(self, mark):
        trail, state, ends = self.trail, self.state, self.ends
        chosen, live, pend = self.chosen, self.live, self.pend
        while len(trail) > mark:
            e = trail.pop()
            a, b = ends[e]
            if state[e] == self.IN:
                chosen[a] -= 1
                chosen[b] -= 1
                self.in_count -= 1
                ea = self.joined[e]
                if ea >= 0:
                    eb = pend[ea]
                    pend[ea] = a
                    pend[eb] = b
            else:
                live[a] += 1
                live[b] += 1
            state[e] = self.UNDEC

    def _pick(self):
        """An undecided edge at the first vertex with one chosen edge, else
        the first undecided edge."""
        state, chosen, inc = self.state, self.chosen, self.inc
        for v in range(self.n):
            if chosen[v] == 1:
                for e in inc[v]:
                    if state[e] == self.UNDEC:
                        return e
        for e, s in enumerate(state):
            if s == self.UNDEC:
                return e
        return None

    def _search(self):
        """Depth-first over IN/OUT branches on the picked edge, with an
        explicit stack so that depth is not bounded by Python's recursion
        limit.  A frame holds the picked edge, the trail length before the
        branch, whether its OUT branch has been entered, and the cut
        check's anchor at the branching node."""
        frames = []
        enter = True  # the current state is a search node not yet expanded
        while True:
            if enter:
                self.nodes += 1
                enter = False
                if self.in_count == self.n:
                    if any(c != 2 for c in self.chosen):
                        raise InvariantError("spanning edge set is not 2-regular")
                    self.solutions.append(
                        tuple(e for e, s in enumerate(self.state) if s == self.IN)
                    )
                    if self.limit is not None and len(self.solutions) >= self.limit:
                        return
                else:
                    pick = self._pick()
                    if pick is not None:
                        frames.append([pick, len(self.trail), False, self.anchor])
                        enter = (self._set_in(pick) and self._propagate()
                                 and not self._bridged())
                        continue
            if not frames:
                return
            frame = frames[-1]
            self._undo(frame[1])
            self.anchor = frame[3]
            if not self.armed:
                self._arm()
            if frame[2]:
                frames.pop()
            else:
                frame[2] = True
                enter = (self._set_out(frame[0]) and self._propagate()
                         and not self._bridged())


def enumerate_hamilton_cycles(g, forced_in=(), forced_out=(), limit=None):
    """Every spanning cycle as an edge set, each exactly once.

    For a FiniteGraph the result is a sorted list of frozensets of
    endpoint pairs; for a MultiGraph, frozensets of edge ids.  With
    `limit`, the search stops after that many cycles and returns those.
    """
    vs = g.sorted_vertices()
    index = {v: i for i, v in enumerate(vs)}
    if isinstance(g, FiniteGraph):
        ids = pairs = g.sorted_edges()
        forced_in = [canon_edge(*e) for e in forced_in]
        forced_out = [canon_edge(*e) for e in forced_out]
    else:
        ids = [eid for eid, _, _ in g.edges]
        pairs = [(a, b) for _, a, b in g.edges]
    pos = {eid: i for i, eid in enumerate(ids)}
    try:
        fin = [pos[e] for e in forced_in]
        fout = [pos[e] for e in forced_out]
    except KeyError as missing:
        raise GraphError(f"forced edge {missing} not in the graph")
    ends = [(index[a], index[b]) for a, b in pairs]
    # edge indices follow the sorted edges (or edge ids), so the search's
    # sorted index tuples are already in output order
    return [
        frozenset(ids[i] for i in s)
        for s in _CycleSearch(len(vs), ends, limit).run(fin, fout)
    ]


def enumerate_hamilton_paths(g: FiniteGraph):
    """All spanning paths, each once (a path equals its reverse).

    They are read off the Hamilton cycles of g plus an apex joined to every
    vertex: a path's ends are the apex's two neighbours on the cycle, and it
    begins at the one that comes first in vertex order."""
    if not g.vertices:
        raise GraphError("empty graph")
    vs = g.sorted_vertices()
    n = len(vs)
    if n == 1:
        return [tuple(vs)]
    index = {v: i for i, v in enumerate(vs)}
    ends = [(index[a], index[b]) for a, b in g.sorted_edges()]
    m = len(ends)
    ends += [(i, n) for i in range(n)]  # apex edge m + i joins vertex i
    paths = []
    for cycle in _CycleSearch(n + 1, ends).run():
        nbr = [[] for _ in range(n)]
        for e in cycle[:-2]:
            a, b = ends[e]
            nbr[a].append(b)
            nbr[b].append(a)
        seq = [cycle[-2] - m]
        prev = -1
        while len(seq) < n:
            here = seq[-1]
            step = nbr[here][0] if nbr[here][0] != prev else nbr[here][1]
            prev = here
            seq.append(step)
        paths.append(tuple(vs[i] for i in seq))
    return sorted(paths, key=lambda p: [vkey(v) for v in p])
