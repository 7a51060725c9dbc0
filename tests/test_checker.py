import dataclasses

import networkx as nx
import pytest

from hamcircle.checker import (
    TransferTable,
    dp_series,
    ladder_rails_member,
    limit_certificate,
    limit_circle_edges,
    quotient_hamilton,
    quotient_multigraph,
    section5_circle_member,
    stabilized_viable,
    transfer_table,
    verify_candidate_circle,
    viable_patterns,
)
from hamcircle.fragment import LEVEL_CAP, build_gn, load_tutte_fragment, section5_graph
from hamcircle.graphs import GraphError, canon_edge
from hamcircle.lazy import BudgetError, double_ladder


def test_transfer_table_shape():
    tt = transfer_table()
    assert len(tt.patterns["u"]) == 0
    assert len(tt.patterns["r"]) == 2
    assert len(tt.patterns["l"]) == 4
    for m in ("l", "r"):
        for p in tt.patterns[m]:
            assert p.c_child_missing in ("u", "l", "r")
            assert p.v_child_missing in ("u", "l", "r")


def test_viability_prunes_to_one_pattern():
    tt = transfer_table()
    depth0 = viable_patterns(tt, 0)
    assert len(depth0["r"]) == 2
    fixed, depth = stabilized_viable(tt)
    assert depth <= 3
    assert len(fixed["r"]) == 1
    assert len(fixed["l"]) == 0
    # the surviving pattern keeps both children in the missing-r state
    (p,) = fixed["r"]
    assert p.c_child_missing == "r" and p.v_child_missing == "r"


def test_limit_certificate():
    cert = limit_certificate()
    assert cert["limit_count"] == 1
    assert cert["pattern_counts"] == {"u": 0, "l": 0, "r": 1}


def test_limit_certificate_counts_the_fixed_point():
    # a doctored table whose missing-l state keeps a copy of the surviving
    # missing-r pattern: the fixed point then leaves two patterns
    tt = transfer_table()
    fixed, _ = stabilized_viable(tt)
    (p,) = fixed["r"]
    doctored = TransferTable(
        tt.fragment,
        {**tt.patterns, "l": tt.patterns["l"] + (dataclasses.replace(p, missing="l"),)},
    )
    cert = limit_certificate(doctored)
    assert cert["pattern_counts"] == {"u": 0, "l": 1, "r": 1}
    assert cert["limit_count"] == 2


def test_dp_counts_and_stabilization():
    series = dp_series(4)
    assert [v.count for v in series] == [6, 4, 16, 256, 65536]
    assert [v.stable for v in series] == [None, None, True, True, True]


def test_forced_set_monotone():
    series = dp_series(3)
    hint = section5_graph().hint
    for n in range(1, 4):
        window = hint.region(n - 1)
        assert {e for e in series[n].forced if set(e) <= window} >= series[n - 1].forced


def test_region_edges_match_the_level_graphs():
    # the limit graph's edges inside the level-n region are the level
    # graph's edges but those at the deepest copies' c and v
    f = load_tutte_fragment()
    lg = section5_graph()
    for n in range(LEVEL_CAP + 1):
        g, ft = build_gn(n)
        dead = {f"F:{p}:{f.roles[x]}" for p in ft.marked for x in ("c", "v")}
        region = lg.hint.region(n)
        inside = {canon_edge(v, y) for v in region for y in lg.neighbors(v) if y in region}
        assert inside == {e for e in g.edges if not dead & set(e)}


def test_dp_series_builds_no_level_graph():
    build_gn.cache_clear()
    dp_series(6)
    assert build_gn.cache_info().currsize == 0


def test_engine_agreement_levels_0_to_2():
    lg = section5_graph()
    series = dp_series(2)
    for r in range(3):
        _, cycles = quotient_hamilton(lg, r)
        assert len(cycles) == series[r].count


def test_engine_agreement_level_3():
    expect = dp_series(3)[3].count
    assert expect == 256
    # the level-3 graph is this quotient, its surrogates renamed
    _, cycles = quotient_hamilton(section5_graph(), 3)
    assert len(cycles) == expect


def test_quotient_is_reinsertion():
    # the level-r quotient is isomorphic to the closed level-r build
    lg = section5_graph()
    for r in (0, 1, 2):
        m = quotient_multigraph(lg, r)
        g, _ = build_gn(r)
        q = nx.MultiGraph()
        for _, a, b in m.edges:
            q.add_edge(a, b)
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges)
        assert len(m.vertices) == len(g.vertices)
        assert nx.is_isomorphic(nx.Graph(q), h)


def test_ladder_quotients_unique():
    lad = double_ladder()
    for r in range(1, 7):
        m, cycles = quotient_hamilton(lad, r)
        assert len(cycles) == 1
        # the unique cycle uses the rails and no rung
        (cycle,) = cycles
        ends = {eid: (a, b) for eid, a, b in m.edges}
        for eid in cycle:
            a, b = ends[eid]
            if a.startswith("end:") or b.startswith("end:"):
                continue
            assert a.split(":")[2] == b.split(":")[2]


def test_verify_ladder_rails():
    lad = double_ladder()
    assert verify_candidate_circle(lad, ladder_rails_member(), range(1, 7))


def test_verify_ladder_rejects_rung():
    lad = double_ladder()
    rails = ladder_rails_member()
    extra = canon_edge("L:0:top", "L:0:bot")

    def member(e):
        return rails(e) or canon_edge(*e) == extra

    assert not verify_candidate_circle(lad, member, range(1, 7))


def test_verify_section5_candidate():
    lg = section5_graph()
    member = section5_circle_member(6)
    assert verify_candidate_circle(lg, member, range(0, 4))


def test_verify_section5_rejects_perturbations():
    lg = section5_graph()
    member = section5_circle_member(6)
    region = sorted(lg.hint.region(1))
    in_edge = out_edge = None
    for v in region:
        for y in lg.neighbors(v):
            e = canon_edge(v, y)
            if member(e) and in_edge is None:
                in_edge = e
            if not member(e) and out_edge is None:
                out_edge = e
    assert in_edge and out_edge

    def dropped(e):
        e = canon_edge(*e)
        return member(e) and e != in_edge

    def added(e):
        e = canon_edge(*e)
        return member(e) or e == out_edge

    assert not verify_candidate_circle(lg, dropped, range(0, 4))
    assert not verify_candidate_circle(lg, added, range(0, 4))


def test_limit_circle_edges_are_limit_graph_edges_of_degree_two():
    lg = section5_graph()
    for d in range(8):
        edges = limit_circle_edges(d)
        for a, b in edges:
            assert b in lg.neighbors(a), (d, a, b)
        for v in lg.hint.region(d):
            used = [y for y in lg.neighbors(v) if canon_edge(v, y) in edges]
            assert len(used) == 2, (d, v, used)


def test_limit_circle_past_the_vertex_budget():
    # copies of depth <= 13 hold 212,980 vertices, over the 200,000 budget
    with pytest.raises(BudgetError, match="over the vertex budget"):
        limit_circle_edges(13)


def test_verify_candidate_circle_needs_a_level():
    with pytest.raises(GraphError, match="no levels"):
        verify_candidate_circle(double_ladder(), ladder_rails_member(), range(1, 1))


def test_dp_series_rejects_levels_outside_the_builds():
    for bad, error, msg in ((-1, GraphError, "nonnegative"), (9, BudgetError, "exceeds the cap 8")):
        with pytest.raises(error, match=msg):
            dp_series(bad)
