import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from hamcircle.graphs import FiniteGraph, MultiGraph, canon_edge, vkey


def graph(edges, extra_vertices=()):
    vs = set(extra_vertices)
    for a, b in edges:
        vs |= {a, b}
    return FiniteGraph.build(vs, edges)


def path_graph(n):
    return graph([(f"v{i}", f"v{i+1}") for i in range(n - 1)])


def cycle_graph(n):
    return graph([(f"v{i}", f"v{(i+1) % n}") for i in range(n)])


def complete_graph(n):
    vs = [f"v{i}" for i in range(n)]
    return graph(list(itertools.combinations(vs, 2)))


def k23():
    return graph([(a, b) for a in ("a1", "a2") for b in ("b1", "b2", "b3")])


def zigzag_triangulation(n):
    """An n-gon triangulated by a zigzag of n - 3 chords."""
    names = [f"p{i:02d}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    lo, hi = 0, n - 1
    while hi - lo > 2:
        if (hi - lo) % 2:
            lo += 1
        else:
            hi -= 1
        edges.append((names[lo], names[hi]))
    return graph(edges)


def two_connected_by_definition(g):
    """Reference for is_two_connected: at least 3 vertices, connected, and
    connected after removing any one vertex."""
    if len(g.vertices) < 3 or not g.is_connected():
        return False
    return all(g.subgraph(g.vertices - {v}).is_connected() for v in g.vertices)


def contract_subgraph(g, h):
    """g with the connected vertex set h contracted to one fresh vertex,
    named ``comp:<m>`` for the least member m of h: the contraction in the
    definition of a 2-contractible edge."""
    z = "comp:" + vkey(min(h, key=vkey))
    ends = [[z if x in h else x for x in e] for e in g.edges]
    edges = frozenset(canon_edge(a, b) for a, b in ends if a != b)
    return FiniteGraph((g.vertices - set(h)) | {z}, edges)


def cut_edges(g, s):
    """Reference for a cut: the edges of g with exactly one endpoint in s."""
    return frozenset(e for e in g.edges if (e[0] in s) != (e[1] in s))


def reference_augment_flow(cap, source, sink, stop):
    """Reference for graphs.max_flow on named nodes: ``cap`` maps arcs
    ``(u, v)`` to capacities, a node pair holds one residual between both
    directions, and arcs are sorted by ``str`` at every BFS visit.  Returns
    ``(value, flow)`` with ``flow`` mapping arcs to their units."""
    out_arcs = {}
    for u, v in cap:
        out_arcs.setdefault(u, set()).add(v)
        out_arcs.setdefault(v, set()).add(u)
    flow = {}

    def residual(u, v):
        return cap.get((u, v), 0) - flow.get((u, v), 0) + flow.get((v, u), 0)

    value = 0
    while value < stop:
        prev = {source: None}
        queue = [source]
        found = False
        while queue and not found:
            nxt = []
            for u in queue:
                for v in sorted(out_arcs.get(u, ()), key=str):
                    if v not in prev and residual(u, v) > 0:
                        prev[v] = u
                        if v == sink:
                            found = True
                            break
                        nxt.append(v)
                if found:
                    break
            queue = nxt
        if not found:
            break
        v = sink
        while prev[v] is not None:
            u = prev[v]
            if cap.get((u, v), 0) > flow.get((u, v), 0):
                flow[(u, v)] = flow.get((u, v), 0) + 1
            else:
                flow[(v, u)] = flow.get((v, u), 0) - 1
            v = u
        value += 1
    return value, flow


def subtree_vertices(ft, path):
    """The interior vertices of a fragment tree's copy at `path` and of its
    descendants, read off the vertex ids (``F:<path>:<x>``) by a prefix
    test; an oracle independent of the tree's own cut bookkeeping."""
    return {
        x
        for x in ft.graph.vertices
        if x.startswith("F:") and x.split(":", 2)[1].startswith(path)
    }


# differential tests of a fast path against its reference: reproducible runs
DIFF = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def simple_graphs(draw, max_n=9):
    """Simple graphs on 1..max_n vertices with permuted vertex names, so
    that name order and structure vary independently."""
    n = draw(st.integers(1, max_n))
    names = draw(st.permutations([f"x{i}" for i in range(n)]))
    pairs = list(itertools.combinations(names, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return FiniteGraph.build(names, chosen)


def multigraph(edges, extra_vertices=()):
    vs = set(extra_vertices)
    for _, a, b in edges:
        vs |= {a, b}
    return MultiGraph.build(vs, edges)


@pytest.fixture
def diamond():
    return graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")])


@pytest.fixture
def petersen():
    outer = [(f"o{i}", f"o{(i+1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i+2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    return graph(outer + inner + spokes)
