import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import DIFF, cycle_graph, graph, reference_augment_flow, simple_graphs
from hamcircle import cli, lazy
from hamcircle.fragment import copy_paths, load_tutte_fragment, section5_graph
from hamcircle.graphs import GraphError, vkey
from hamcircle.lazy import (
    BudgetError,
    LazyGraph,
    ball,
    deep_components,
    double_ladder,
    end_degree_bound,
    lazy_power,
    quotient_multigraph,
    quotient_window,
)


class FiniteHint:
    """An exhaustion hint for a finite graph: regions are balls about the
    root, and the components are all those of the graph minus the ball,
    finite ones included, to exercise the packing."""

    def __init__(self, lg):
        self.lg = lg

    def region(self, r):
        return ball(self.lg, r).vertices

    def components(self, r):
        lg, region = self.lg, self.region(r)
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
        return [(k, tuple(e for e in cut if owner[e[1]] == k)) for k in range(len(out))]


def lazy_from_finite(g, root=None):
    """A finite graph as a lazy graph with a `FiniteHint`."""
    lg = LazyGraph(min(g.vertices, key=vkey) if root is None else root, g.neighbors)
    lg.hint = FiniteHint(lg)
    return lg


def test_ladder_ball_sizes():
    lad = double_ladder()
    sizes = [len(ball(lad, r).vertices) for r in range(3)]
    assert sizes == [1, 4, 8]
    b2 = ball(lad, 2)
    assert "L:0:top" in b2.vertices
    assert "L:2:top" in b2.vertices
    assert "L:2:bot" not in b2.vertices


def test_ladder_deep_components():
    lad = double_ladder()
    comps = deep_components(lad, 3)
    assert [c.comp_id for c in comps] == ["left", "right"]
    for c in comps:
        assert len(c.cut_edges) == 2
        assert len(c.fingers) == 2


@pytest.mark.parametrize("make, radii", [(double_ladder, range(6)), (section5_graph, range(4))],
                         ids=["double-ladder", "section5"])
def test_hint_cuts_are_the_edges_leaving_the_region(make, radii):
    # the quotient window holds every edge of the graph at the region only
    # if the hint's cut edges are all of them
    lg = make()
    for r in radii:
        region = lg.hint.region(r)
        cut = {(v, y) for v in region for y in lg.neighbors(v) if y not in region}
        assert {e for _, es in lg.hint.components(r) for e in es} == cut
        comps = deep_components(lg, r)
        for c in comps:
            assert c.fingers == {y for _, y in c.cut_edges} and not c.fingers & region
        window, window_comps, _ = quotient_window(lg, r)
        assert window == region and window_comps == comps
        assert [c.surrogate for c in comps] == [f"end:{c.comp_id}" for c in comps]


def test_ladder_end_degrees():
    lad = double_ladder()
    for c in deep_components(lad, 2):
        assert end_degree_bound(lad, c, "vertex", depth=8) == (2, 2)
        assert end_degree_bound(lad, c, "edge", depth=8) == (2, 2)


def test_end_degree_mode_validation():
    lad = double_ladder()
    c = deep_components(lad, 2)[0]
    with pytest.raises(GraphError):
        end_degree_bound(lad, c, "face", depth=8)


def test_lazy_power_neighbors():
    lad = double_ladder()
    sq = lazy_power(lad, 2)
    n1 = set(lad.neighbors("L:0:top"))
    n2 = set(sq.neighbors("L:0:top"))
    assert n1 < n2
    assert "L:2:top" in n2 and "L:1:bot" in n2


@pytest.mark.parametrize(
    "make",
    [lambda: lazy_power(double_ladder(), 2), lambda: LazyGraph("v0", cycle_graph(6).neighbors)],
    ids=["ladder-square", "finite-cycle"],
)
def test_hintless_graphs_have_no_deep_components(make):
    # no finite exploration certifies a component infinite: without an
    # exhaustion hint, deep components are refused outright
    lg = make()
    with pytest.raises(GraphError, match="no exhaustion hint"):
        deep_components(lg, 1)


def test_hintless_quotient_is_refused_before_the_oracle_is_called():
    # no radius, however large, starts an exploration that could only end
    # at the vertex budget
    square = lazy_power(double_ladder(), 2)
    calls = []
    lg = LazyGraph(square.root, lambda v: calls.append(v) or square.neighbors(v))
    with pytest.raises(GraphError, match="no exhaustion hint"):
        quotient_multigraph(lg, 10**6)
    assert calls == []


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_end_degree_bound_needs_a_hint(mode):
    comp = deep_components(double_ladder(), 1)[1]
    with pytest.raises(GraphError, match="no exhaustion hint"):
        end_degree_bound(lazy_power(double_ladder(), 2), comp, mode, depth=8)


def test_lazy_from_finite_ball_matches():
    g = cycle_graph(8)
    lg = lazy_from_finite(g, "v0")
    b = ball(lg, 4)
    assert b.vertices == g.vertices
    assert b.edges == g.edges


def test_ladder_past_the_vertex_budget():
    # columns -r..r hold 2(2r + 1) vertices: 199,998 at r = 49,999 and
    # 200,002 at r = 50,000, refused before anything is built
    lad = double_ladder()
    assert len(lad.hint.region(49_999)) == 199_998
    for r in (50_000, 120_000, 10**9):
        with pytest.raises(BudgetError, match="over the vertex budget"):
            lad.hint.region(r)
        with pytest.raises(BudgetError, match="over the vertex budget"):
            quotient_multigraph(lad, r)


def test_ball_budget(monkeypatch):
    lad = double_ladder()
    monkeypatch.setattr(lazy, "DEFAULT_VERTEX_BUDGET", 50)
    with pytest.raises(BudgetError):
        ball(lad, 100)


def test_one_budget_bounds_every_reader(monkeypatch, capsys):
    # every reader looks the budget up when called, so one lowered value
    # bounds them all; none of these requests fits in 27 vertices
    monkeypatch.setattr(lazy, "DEFAULT_VERTEX_BUDGET", 27)
    with pytest.raises(BudgetError, match="over the vertex budget 27"):
        copy_paths(load_tutte_fragment(), 5)
    with pytest.raises(BudgetError):
        ball(double_ladder(), 30)
    lg = section5_graph()
    with pytest.raises(BudgetError, match="over the vertex budget"):
        end_degree_bound(lg, deep_components(lg, 1)[0], "vertex", depth=3)
    # the ladder's columns -6..6 hold 26 vertices and -7..7 hold 30
    assert len(double_ladder().hint.region(6)) == 26
    for read in (double_ladder().hint.region, double_ladder().hint.components):
        with pytest.raises(BudgetError, match="over the vertex budget 27"):
            read(7)
    # a power's neighbours are a ball about the vertex, which holds 24
    # vertices at radius 6, 28 at radius 7 and 800 at radius 200
    assert len(lazy_power(double_ladder(), 6).neighbors("L:0:top")) == 23
    for k in (7, 200):
        with pytest.raises(BudgetError, match="over the vertex budget 27"):
            lazy_power(double_ladder(), k).neighbors("L:0:top")
    assert cli.main(["tutte-verify"]) == cli.OK
    assert json.loads(capsys.readouterr().out)["budgets"] == {"max_vertices": 27}


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_end_degree_bound_stops_at_the_vertex_budget(monkeypatch, mode):
    # a section5 component at radius 1 explores 28 vertices to depth 3
    lg = section5_graph()
    comp = deep_components(lg, 1)[0]
    monkeypatch.setattr(lazy, "DEFAULT_VERTEX_BUDGET", 28)
    assert end_degree_bound(lg, comp, mode, depth=3) == (3, 3)
    monkeypatch.setattr(lazy, "DEFAULT_VERTEX_BUDGET", 27)
    with pytest.raises(BudgetError, match="over the vertex budget"):
        end_degree_bound(lg, comp, mode, depth=3)


def explore_component(lg, region, comp, depth):
    """Vertices of the component up to `depth` steps past the fingers,
    with their exploration depth."""
    dist = {f: 0 for f in comp.fingers}
    frontier = sorted(comp.fingers, key=vkey)
    for d in range(1, depth + 1):
        nxt = []
        for x in frontier:
            for y in lg.neighbors(x):
                if y not in region and y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


def reference_end_degree_bound(lg, r, comp, mode, depth):
    """The packing on the full split network of the component at radius r,
    explored up to the level-r region, with tuple-named flow nodes ("i", v)
    and ("o", v), through the dict-based reference flow."""
    region = lg.hint.region(r)
    upper = len(comp.fingers) if mode == "vertex" else len(comp.cut_edges)
    dist = explore_component(lg, region, comp, depth)
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
    value, _ = reference_augment_flow(cap, SRC, SNK, upper + 1)
    return min(value, upper), upper


@pytest.mark.parametrize("depth, vertex, edge", [(3, (1, 3), (1, 3)),
                                                 (1, (1, 3), (3, 3))],
                         ids=["depth-3", "depth-1"])
def test_end_degree_bound_sees_a_bottleneck(depth, vertex, edge):
    # three fingers that all pass through x: at depth 3 one vertex-disjoint
    # path and one edge-disjoint path reach the depth frontier; at depth 1
    # x is itself on the frontier, so the three edges into it all count
    g = graph([("r", "a"), ("r", "b"), ("r", "c"), ("a", "x"), ("b", "x"),
               ("c", "x"), ("x", "p1"), ("p1", "p2"), ("p2", "p3")])
    lg = lazy_from_finite(g, "r")
    (c,) = deep_components(lg, 0)
    assert end_degree_bound(lg, c, "vertex", depth=depth) == vertex
    assert end_degree_bound(lg, c, "edge", depth=depth) == edge


@pytest.mark.parametrize("make", [section5_graph, double_ladder],
                         ids=["section5", "double-ladder"])
def test_end_degree_bound_matches_reference_on_generators(make):
    # every deep component, in both modes, at the CLI's default depth
    lg = make()
    for r in range(7):
        for c in deep_components(lg, r):
            for mode in ("vertex", "edge"):
                want = reference_end_degree_bound(lg, r, c, mode, 8)
                assert end_degree_bound(lg, c, mode, 8) == want


# Random graphs this small seldom make vertex capacities bind, so one is
# given outright: two fingers share the hub x, which fans out into two arms.
# A vertex-disjoint packing finds one path, an edge-disjoint one two.
FAN = graph([("a", "b"), ("a", "c"), ("b", "x"), ("c", "x"), ("x", "p1"),
             ("p1", "p2"), ("p2", "p3"), ("x", "q1"), ("q1", "q2"), ("q2", "q3")])


@DIFF
@given(simple_graphs(max_n=12), st.integers(0, 1), st.integers(1, 4))
@example(FAN, 0, 3)
def test_end_degree_bound_matches_reference(g, r, depth):
    lg = lazy_from_finite(g)
    for c in deep_components(lg, r):
        for mode in ("vertex", "edge"):
            try:
                want = reference_end_degree_bound(lg, r, c, mode, depth)
            except BudgetError:
                with pytest.raises(BudgetError):
                    end_degree_bound(lg, c, mode, depth)
            else:
                assert end_degree_bound(lg, c, mode, depth) == want
