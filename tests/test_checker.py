import re
from functools import lru_cache

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import DIFF
from hamcircle.checker import (
    PathPattern,
    QuotientVerdict,
    TransferTable,
    dp_series,
    fragment_tree_dp,
    ladder_rails_member,
    limit_certificate,
    limit_circle_edges,
    quotient_hamilton,
    quotient_multigraph,
    section5_circle_member,
    stabilized_viable,
    transfer_table,
    verify_candidate_circle,
)
from hamcircle.fragment import (
    ROLES,
    build_gn,
    copy_paths,
    load_tutte_fragment,
    section5_graph,
)
from hamcircle.graphs import GraphError, InvariantError, canon_edge
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
        {**tt.patterns, "l": tt.patterns["l"] + (p,)},
    )
    cert = limit_certificate(doctored)
    assert cert["pattern_counts"] == {"u": 0, "l": 1, "r": 1}
    assert cert["limit_count"] == 2


def test_dp_counts_and_stabilization():
    series = dp_series(8)
    assert [v.count for v in series] == [6, 4] + [2 ** (2**n) for n in range(2, 9)]
    assert [len(v.forced) for v in series] == [2, 30, 72, 156, 324, 660, 1332, 2676, 5364]
    assert [v.stable for v in series] == [None, None] + [True] * 7


# References for the per-depth table: round-by-round pruning of pattern
# lists, and a DP with one count table per copy that intersects the limit
# images of each copy's live patterns.


def reference_viable(tt, depth):
    """Patterns that survive `depth` rounds of child-compatibility pruning."""
    cur = {m: list(tt.patterns[m]) for m in ROLES}
    for _ in range(depth):
        cur = {
            m: [p for p in cur[m] if cur[p.c_child_missing] and cur[p.v_child_missing]]
            for m in cur
        }
    return cur


def reference_stabilized(tt):
    prev = reference_viable(tt, 0)
    for d in range(1, 11):
        cur = reference_viable(tt, d)
        if cur == prev:
            if all(not cur[m] for m in cur):
                raise InvariantError("viability fixed point is empty: no circle")
            if len(cur["r"]) != 1:
                raise InvariantError(
                    "stabilized missing-r list does not have exactly one entry"
                )
            return cur, d - 1
        prev = cur
    raise InvariantError("viability did not stabilize within depth 10")


def reference_tree_dp(tt, level, region):
    frag = tt.fragment
    paths = copy_paths(frag, level)
    f = {}
    for path in reversed(paths):
        if len(path) == level:
            f[path] = {m: len(tt.patterns[m]) for m in ROLES}
        else:
            f[path] = {
                m: sum(
                    f[path + "c"][p.c_child_missing] * f[path + "v"][p.v_child_missing]
                    for p in tt.patterns[m]
                )
                for m in ROLES
            }
    reachable = {"": {m for m in ROLES if f[""][m] > 0}}
    forced = set()
    for path in paths:
        leaf = len(path) == level
        reach_c, reach_v = set(), set()
        node_forced = None
        for m in reachable[path]:
            for p in tt.patterns[m]:
                if not leaf:
                    if (
                        f[path + "c"][p.c_child_missing] == 0
                        or f[path + "v"][p.v_child_missing] == 0
                    ):
                        continue
                    reach_c.add(p.c_child_missing)
                    reach_v.add(p.v_child_missing)
                images = {frag.edge(path, a, b) for a, b in p.edges}
                node_forced = images if node_forced is None else node_forced & images
        forced |= node_forced or set()
        if not leaf:
            reachable[path + "c"], reachable[path + "v"] = reach_c, reach_v
    inside = frozenset(e for e in forced if set(e) <= region)
    return QuotientVerdict(level, sum(f[""].values()), inside, None)


@lru_cache(maxsize=None)
def section5_region(level):
    return section5_graph().hint.region(level)


@st.composite
def transfer_tables(draw):
    """Up to three patterns per missing contact, each with random child
    states and a random subset of the fragment's real edges."""
    frag = load_tutte_fragment()
    edges = frag.graph.sorted_edges()
    states = st.sampled_from(ROLES)
    patterns = {
        m: tuple(
            PathPattern(frozenset(draw(st.sets(st.sampled_from(edges)))),
                        draw(states), draw(states))
            for _ in range(draw(st.integers(0, 3)))
        )
        for m in ROLES
    }
    return TransferTable(frag, patterns)


@DIFF
@given(transfer_tables(), st.integers(0, 4))
def test_per_depth_table_matches_the_per_copy_reference(tt, level):
    region = section5_region(level)
    got, want = fragment_tree_dp(tt, level, region), reference_tree_dp(tt, level, region)
    assert (got.count, got.forced) == (want.count, want.forced)
    try:
        fixed, depth = reference_stabilized(tt)
    except InvariantError as e:
        for run in (stabilized_viable, limit_certificate):
            with pytest.raises(InvariantError, match=re.escape(str(e))):
                run(tt)
    else:
        assert stabilized_viable(tt) == (fixed, depth)
        counts = {m: len(fixed[m]) for m in ROLES}
        assert limit_certificate(tt) == {
            "limit_count": sum(counts.values()),
            "stabilization_depth": depth,
            "pattern_counts": counts,
        }


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
    for n in range(9):
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
    # level 13's copies hold 212,980 vertices, over the 200,000 budget
    for bad, error, msg in ((-1, GraphError, "nonnegative"),
                            (13, BudgetError, "over the vertex budget")):
        with pytest.raises(error, match=msg):
            dp_series(bad)


def test_negative_depth_is_an_error():
    # copy_paths is the one gate on depth; nothing answers empty below zero
    f = load_tutte_fragment()
    for read in (lambda: copy_paths(f, -3), lambda: limit_circle_edges(-1),
                 lambda: build_gn(-1), lambda: section5_graph().hint.region(-1)):
        with pytest.raises(GraphError, match="level must be nonnegative"):
            read()
