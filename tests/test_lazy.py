import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import DIFF, cycle_graph, graph, simple_graphs
from hamcircle import lazy
from hamcircle.graphs import GraphError, augment_flow, canon_edge
from hamcircle.lazy import (
    BudgetError,
    DeepComponent,
    LazyGraph,
    ball,
    deep_components,
    double_ladder,
    end_degree_bound,
    end_nesting,
    lazy_from_finite,
    lazy_power,
)


def test_ladder_ball_sizes():
    lad = double_ladder()
    sizes = [len(ball(lad, r).graph.vertices) for r in range(3)]
    assert sizes == [1, 4, 8]
    b2 = ball(lad, 2)
    assert "L:0:top" in b2.graph.vertices
    assert "L:2:top" in b2.graph.vertices
    assert "L:2:bot" not in b2.graph.vertices


def test_ladder_deep_components():
    lad = double_ladder()
    comps = deep_components(lad, 3)
    assert [c.comp_id for c in comps] == ["left", "right"]
    for c in comps:
        assert len(c.cut_edges) == 2
        assert len(c.fingers) == 2


def test_ladder_nesting():
    lad = double_ladder()
    mapping = end_nesting(lad, 1, 3)
    assert len(mapping) == 2
    for deep, shallow in mapping.items():
        assert deep.comp_id == shallow.comp_id


def test_ladder_end_degrees():
    lad = double_ladder()
    for c in deep_components(lad, 2):
        assert end_degree_bound(lad, c, "vertex") == (2, 2)
        assert end_degree_bound(lad, c, "edge") == (2, 2)


def test_end_degree_mode_validation():
    lad = double_ladder()
    c = deep_components(lad, 2)[0]
    with pytest.raises(GraphError):
        end_degree_bound(lad, c, "face")


def test_lazy_power_neighbors():
    lad = double_ladder()
    sq = lazy_power(lad, 2)
    n1 = set(lad.neighbors("L:0:top"))
    n2 = set(sq.neighbors("L:0:top"))
    assert n1 < n2
    assert "L:2:top" in n2 and "L:1:bot" in n2


def test_hintless_infinite_component_raises():
    # the square of the ladder has no exhaustion hint: deciding that a
    # component is infinite must fail loudly
    sq = lazy_power(double_ladder(), 2)
    with pytest.raises(BudgetError):
        deep_components(sq, 2, budget=500)


def test_hintless_finite_graph_has_no_deep_components():
    lg = lazy_from_finite(cycle_graph(6))
    assert deep_components(lg, 1) == []


def test_lazy_from_finite_ball_matches():
    g = cycle_graph(8)
    lg = lazy_from_finite(g, "v0")
    b = ball(lg, 4)
    assert b.graph.vertices == g.vertices
    assert b.graph.edges == g.edges


def test_ball_budget():
    lad = double_ladder()
    with pytest.raises(BudgetError):
        ball(lad, 100, max_vertices=50)


def reference_end_degree_bound(lg, comp, mode, depth):
    """The packing with tuple-named flow nodes ("i", v) and ("o", v)."""
    region = lazy._region(lg, comp.radius)
    upper = len(comp.fingers) if mode == "vertex" else len(comp.cut_edges)
    dist = lazy._explore_component(lg, region, comp, depth)
    deep_set = {v for v, d in dist.items() if d >= depth}
    if not deep_set:
        raise BudgetError("component exhausted before the depth budget")
    cap = {}
    SRC, SNK = ("s",), ("t",)
    for a, b in comp.cut_edges:
        if mode == "edge":
            cap[(SRC, ("i", b))] = cap.get((SRC, ("i", b)), 0) + 1
        else:
            cap[(SRC, ("i", b))] = 1
    for v in dist:
        cap[(("i", v), ("o", v))] = (1 if mode == "vertex" else upper + 1)
        if v in deep_set:
            cap[(("o", v), SNK)] = upper + 1
    for v in dist:
        for y in lg.neighbors(v):
            if y in dist:
                cap[(("o", v), ("i", y))] = 1
    value, _ = augment_flow(cap, SRC, SNK, upper + 1)
    return min(value, upper), upper


def outside_components(lg, r):
    """Each component of a finite graph minus the radius-r ball, as a
    DeepComponent (finite ones included, to exercise the packing)."""
    region = lazy._region(lg, r)
    cut = [(v, y) for v in sorted(region) for y in lg.neighbors(v) if y not in region]
    out, owner = [], {}
    for _, f in cut:
        if f in owner:
            continue
        seen, stack = {f}, [f]
        while stack:
            for y in lg.neighbors(stack.pop()):
                if y not in region and y not in seen:
                    seen.add(y)
                    stack.append(y)
        owner.update(dict.fromkeys(seen, len(out)))
        out.append(seen)
    comps = []
    for k, seen in enumerate(out):
        edges = tuple(e for e in cut if owner[e[1]] == k)
        fingers = frozenset(y for _, y in edges)
        comps.append(DeepComponent(r, k, fingers, min(fingers), edges))
    return comps


def test_end_degree_bound_sees_a_bottleneck():
    # three fingers that all pass through x: one vertex-disjoint path and
    # one edge-disjoint path reach the depth frontier
    g = graph([("r", "a"), ("r", "b"), ("r", "c"), ("a", "x"), ("b", "x"),
               ("c", "x"), ("x", "p1"), ("p1", "p2"), ("p2", "p3")])
    lg = lazy_from_finite(g, "r")
    (c,) = outside_components(lg, 0)
    assert end_degree_bound(lg, c, "vertex", depth=3) == (1, 3)
    assert end_degree_bound(lg, c, "edge", depth=3) == (1, 3)


@DIFF
@given(simple_graphs(max_n=12), st.integers(0, 1), st.integers(1, 2))
def test_end_degree_bound_matches_reference(g, r, depth):
    lg = lazy_from_finite(g)
    for c in outside_components(lg, r):
        for mode in ("vertex", "edge"):
            try:
                want = reference_end_degree_bound(lg, c, mode, depth)
            except BudgetError:
                with pytest.raises(BudgetError):
                    end_degree_bound(lg, c, mode, depth)
            else:
                assert end_degree_bound(lg, c, mode, depth) == want
