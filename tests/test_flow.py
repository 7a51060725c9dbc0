"""The unit-capacity max flow against the dict-based flow it replaced."""

import itertools

from hypothesis import example, given
from hypothesis import strategies as st

from conftest import DIFF, reference_augment_flow
from hamcircle.corpus import connected_graphs_upto
from hamcircle.graphs import FiniteGraph, canon_edge, max_flow, vkey
from hamcircle.minors import internally_disjoint_paths


def flow_by_name(cap, source, sink, stop):
    """max_flow on named nodes, numbered in ``str`` order: ``cap`` maps arcs
    ``(u, v)`` to capacities.  Returns ``(value, flow)`` with ``flow``
    mapping the arcs that carry flow to their units."""
    names = sorted({x for arc in cap for x in arc} | {source, sink}, key=str)
    number = {x: i for i, x in enumerate(names)}
    arcs = [(number[u], number[v], c) for (u, v), c in cap.items()]
    value, flow = max_flow(len(names), arcs, number[source], number[sink], stop)
    return value, {arc: f for arc, f in zip(cap, flow) if f}


def reference_disjoint_paths(g, a, b, need):
    """internally_disjoint_paths on the dict-based reference flow."""
    cap = {}
    for v in g.vertices:
        if v not in (a, b):
            cap[(("i", v), ("o", v))] = 1
    for x, y in g.edges:
        for u, w in ((x, y), (y, x)):
            if w == a or u == b:
                continue
            cap[(("o", u), ("i", w))] = 1
    value, flow = reference_augment_flow(cap, ("o", a), ("i", b), need)
    nxt_of = {}
    for (u, v), f in flow.items():
        if f > 0 and u[0] == "o" and v[0] == "i":
            nxt_of.setdefault(u[1], []).append(v[1])
    for k in nxt_of:
        nxt_of[k].sort(key=vkey)
    paths = []
    for _ in range(value):
        path = [a]
        while path[-1] != b:
            path.append(nxt_of[path[-1]].pop(0))
        paths.append(path)
    return paths


# string names and tuple names whose str forms never collide
NODES = ["a", "b", "c", "d", "e", "f10", "f2", ("i", "a"), ("o", "a"), ("o", "b"), ("t",)]


@st.composite
def flow_instances(draw):
    nodes = draw(st.lists(st.sampled_from(NODES), min_size=2, max_size=8, unique=True))
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    # dense enough that equally short paths, which only the arc order
    # separates, are common; antiparallel arcs arise whenever both (u, v)
    # and (v, u) are drawn
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True,
                         min_size=len(pairs) // 3, max_size=len(pairs)))
    cap = {arc: draw(st.integers(0, 2)) for arc in arcs}
    source, sink = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
    return cap, source, sink, draw(st.integers(0, 4))


# Random instances rarely need an augmenting path that cancels flow, so a
# trap is given outright: s-a-b-t goes first and s-d-b-a-c-t undoes a-b.
# Its arcs are listed out of str order; with one unit to push, only the
# arc order makes s-a-b-t the path, not s-d-b-t.
TRAP = {(x, y): 1 for x, y in ["sd", "sa", "ac", "ab", "bt", "db", "ct"]}
SPLIT_TRAP = {(("o", x), ("i", y)): 1 for x, y in TRAP}
SPLIT_TRAP.update({(("i", v), ("o", v)): 1 for v in "abcd"})


@DIFF
@given(flow_instances())
@example((TRAP, "s", "t", 3))
@example((TRAP, "s", "t", 1))
@example((SPLIT_TRAP, ("o", "s"), ("i", "t"), 3))
@example(({("a", "b"): 2, ("b", "a"): 1, ("b", "c"): 1, ("a", "c"): 1}, "a", "c", 4))
def test_flow_matches_reference(instance):
    cap, source, sink, stop = instance
    value, flow = flow_by_name(cap, source, sink, stop)
    want_value, want_flow = reference_augment_flow(cap, source, sink, stop)
    assert value == want_value
    # the reference nets antiparallel arcs into one residual, max_flow
    # keeps one per arc, so only the value is comparable when both occur
    if not any((v, u) in cap for u, v in cap):
        assert flow == {arc: f for arc, f in want_flow.items() if f}


def test_flow_on_a_node_outside_every_arc():
    cap = {("a", "b"): 1}
    assert flow_by_name(cap, "a", "z", 2) == (0, {})
    assert flow_by_name(cap, "z", "b", 2) == (0, {})
    assert max_flow(2, [], 0, 1, 1) == (0, [])


def test_disjoint_paths_match_reference_on_small_graphs():
    # every pair of every small connected graph, and again without the
    # edge between the pair where there is one
    cases = []
    for g in connected_graphs_upto(7):
        for a, b in itertools.combinations(g.sorted_vertices(), 2):
            cases.append((g, a, b, 3))
            if g.has_edge(a, b):
                cases.append((FiniteGraph(g.vertices, g.edges - {canon_edge(a, b)}), a, b, 3))
    assert [internally_disjoint_paths(*c) for c in cases] == [
        reference_disjoint_paths(*c) for c in cases]
