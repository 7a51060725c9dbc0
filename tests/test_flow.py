"""The indexed unit-capacity flow against the dict-based flow it replaced."""

import itertools

from hypothesis import example, given
from hypothesis import strategies as st

from conftest import DIFF
from hamcircle import minors
from hamcircle.corpus import connected_graphs_upto
from hamcircle.graphs import augment_flow
from hamcircle.minors import internally_disjoint_paths


def reference_augment_flow(cap, source, sink, stop):
    """The dict-based flow: arcs sorted by ``str`` at every BFS visit."""
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
# Its arcs are listed out of str order, so the arc order is tested too.
TRAP = {(x, y): 1 for x, y in ["sd", "sa", "ac", "ab", "bt", "db", "ct"]}
SPLIT_TRAP = {(("o", x), ("i", y)): 1 for x, y in TRAP}
SPLIT_TRAP.update({(("i", v), ("o", v)): 1 for v in "abcd"})


@DIFF
@given(flow_instances())
@example((TRAP, "s", "t", 3))
@example((SPLIT_TRAP, ("o", "s"), ("i", "t"), 3))
@example(({("a", "b"): 2, ("b", "a"): 1, ("b", "c"): 1, ("a", "c"): 1}, "a", "c", 4))
def test_flow_matches_reference(instance):
    cap, source, sink, stop = instance
    got = augment_flow(cap, source, sink, stop)
    want = reference_augment_flow(cap, source, sink, stop)
    assert got == want
    # the arcs are reported in the order they were first used, as before
    assert list(got[1]) == list(want[1])


def test_flow_on_a_node_outside_every_arc():
    cap = {("a", "b"): 1}
    assert augment_flow(cap, "a", "z", 2) == reference_augment_flow(cap, "a", "z", 2)
    assert augment_flow(cap, "z", "b", 2) == (0, {})
    assert augment_flow({}, "a", "b", 1) == (0, {})


def test_disjoint_paths_match_reference_on_small_graphs(monkeypatch):
    cases = []
    for g in connected_graphs_upto(7):
        for a, b in itertools.combinations(g.sorted_vertices(), 2):
            cases.append((g, a, b, 3, g.has_edge(a, b)))
    got = [internally_disjoint_paths(*case) for case in cases]
    monkeypatch.setattr(minors, "augment_flow", reference_augment_flow)
    want = [internally_disjoint_paths(*case) for case in cases]
    assert got == want
