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
    quotient_cuts,
    quotient_hamilton,
    quotient_multigraph,
    quotient_series,
    section5_circle_member,
    stabilized_viable,
    transfer_table,
    verify_candidate_circle,
)
from hamcircle.fragment import (
    ROLES,
    Fragment,
    build_gn,
    copy_paths,
    load_tutte_fragment,
    section5_graph,
)
from hamcircle.graphs import GraphError, InvariantError, canon_edge, enumerate_hamilton_cycles
from hamcircle.lazy import (
    BudgetError,
    LazyGraph,
    _DoubleLadder,
    double_ladder,
    quotient_window,
    window_multigraph,
)


def test_transfer_table_shape():
    tt = transfer_table()
    assert len(tt.patterns["u"]) == 0
    assert len(tt.patterns["r"]) == 2
    assert len(tt.patterns["l"]) == 4
    for m in ("l", "r"):
        for p in tt.patterns[m]:
            assert p.c_child_missing in ("u", "l", "r")
            assert p.v_child_missing in ("u", "l", "r")


def test_transfer_table_child_states():
    # each pattern's (c child, v child) missing contacts, per missing contact
    tt = transfer_table()
    states = {m: sorted((p.c_child_missing, p.v_child_missing) for p in tt.patterns[m])
              for m in ROLES}
    assert states == {
        "u": [],
        "l": [("u", "l"), ("u", "l"), ("u", "r"), ("u", "u")],
        "r": [("r", "r"), ("r", "u")],
    }


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


def doctored_table(children):
    """The real fragment with one edgeless pattern per (c-child state,
    v-child state) pair listed under each missing contact."""
    tt = transfer_table()
    return TransferTable(tt.fragment, {
        m: tuple(PathPattern(frozenset(), c, v) for c, v in children.get(m, ()))
        for m in ROLES
    })


def test_viability_fixed_at_depth_zero():
    # every state has a pattern, so the first round keeps them all
    tt = doctored_table({"u": ["uu"], "l": ["lr"], "r": ["rr"]})
    fixed, depth = stabilized_viable(tt)
    assert (fixed, depth) == reference_stabilized(tt)
    assert depth == 0
    assert fixed == {m: list(tt.patterns[m]) for m in ROLES}


def test_viability_fixed_point_empty():
    # l's pattern needs u, which has none, so round 1 drops it; r's needs
    # l, so round 2 drops it; round 3 repeats round 2's empty lists
    tt = doctored_table({"l": ["ul"], "r": ["lr"]})
    for run in (reference_stabilized, stabilized_viable):
        with pytest.raises(InvariantError, match="viability fixed point is empty"):
            run(tt)


def test_viability_keeps_one_missing_r_pattern_at_depth_two():
    tt = doctored_table({"l": ["ul"], "r": ["lr", "rr"]})
    fixed, depth = stabilized_viable(tt)
    assert (fixed, depth) == reference_stabilized(tt)
    assert depth == 2
    assert fixed == {"u": [], "l": [], "r": [PathPattern(frozenset(), "r", "r")]}


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


def test_quotient_cycles_equal_a_search_without_cuts():
    # the parity rule changes no quotient cycle, so the DP's cross-check
    # does not rest on it
    for lg, levels in ((section5_graph(), range(4)), (double_ladder(), range(1, 7))):
        for r in levels:
            m, cycles = quotient_hamilton(lg, r)
            assert cycles == enumerate_hamilton_cycles(m)


def forced_by_queries(level):
    """The region edges of the level-`level` Section-5 quotient, named as
    edges of the limit graph, that every Hamilton cycle uses: those for
    which a search with the quotient's cuts, the edge forced out and limit
    1 finds no cycle."""
    lg = section5_graph()
    window = quotient_window(lg, level)
    region, _, records = window
    m = window_multigraph(*window)
    cuts = quotient_cuts(lg, level, records)
    return {e for i, (_, b, e) in enumerate(records)
            if b in region and not enumerate_hamilton_cycles(m, forced_out=[i], limit=1, cuts=cuts)}


def test_forced_set_by_queries_level_2():
    # level 3 (156 edges) is a CI step
    forced = forced_by_queries(2)
    assert len(forced) == 72
    assert forced == dp_series(2)[2].forced


class _WrongLadder(_DoubleLadder):
    """The double ladder, but its hint gives the right tail at radius 0
    the cut edges `right`."""

    def __init__(self, right):
        self.right = right

    def components(self, r):
        comps = super().components(r)
        return comps if r else [comps[0], ("right", self.right)]


@pytest.mark.parametrize("right, match", [
    ((("L:0:top", "L:1:top"),), "cut 1 is not the set of edges leaving"),
    ((("L:0:top", "L:1:top"), ("L:0:bot", "L:2:bot")), "not in the level-1 window"),
], ids=["one-of-two-edges", "a-non-edge"])
def test_a_wrong_cut_from_the_hint_is_refused(right, match):
    # never a silent prune: a level-0 cut that leaves no vertex set, or
    # names an edge the level-1 window lacks, is an error
    ladder = _WrongLadder(right)
    lg = LazyGraph("L:0:top", ladder.neighbors, hint=ladder)
    with pytest.raises(GraphError, match=match):
        quotient_hamilton(lg, 1)


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


def _ladder_edges(*pairs):
    """A member predicate holding the ladder edges given as pairs of
    (column, side) ends."""
    edges = {canon_edge(f"L:{i}:{s}", f"L:{j}:{t}") for (i, s), (j, t) in pairs}
    return lambda e: canon_edge(*e) in edges


def _rectangle(k):
    """Rails between columns -k and k and the rungs at both, as pairs."""
    rails = [((i, s), (i + 1, s)) for i in range(-k, k) for s in ("top", "bot")]
    return rails + [((i, "top"), (i, "bot")) for i in (-k, k)]


def _loop(i, step):
    """Rails from column i one step outward, and the rung at column i."""
    return [((i, s), (i + step, s)) for s in ("top", "bot")] + [((i, "top"), (i, "bot"))]


_SNAKE = [(-2, "top"), (-1, "top"), (-1, "bot"), (0, "bot"), (0, "top"), (1, "top"),
          (1, "bot"), (2, "bot")]


@pytest.mark.parametrize("pairs, level", [
    # every region vertex has degree 2, both surrogates degree 0
    (_rectangle(1), 1),
    # every region vertex has degree 2, both surrogates odd degree 1 (so
    # also below 2; the odd rule alone is pinned on Section 5 below)
    (list(zip(_SNAKE, _SNAKE[1:])), 1),
    # every degree is right, but the member edges form three components
    (_rectangle(1) + _loop(-2, -1) + _loop(2, 1), 2),
], ids=["surrogate-degree-0", "surrogate-odd-degree", "disconnected"])
def test_verify_ladder_rejects_each_rule_alone(pairs, level):
    assert not verify_candidate_circle(double_ladder(), _ladder_edges(*pairs), [level])


class _ZP4:
    """Z x P4 as its own oracle and hint: four rails Z:<i>:<j>, rungs
    between neighbouring rails, exhausted by whole columns."""

    def neighbors(self, v):
        _, i, j = v.split(":")
        i, j = int(i), int(j)
        out = [f"Z:{i - 1}:{j}", f"Z:{i + 1}:{j}"]
        return sorted(out + [f"Z:{i}:{k}" for k in (j - 1, j + 1) if 0 <= k < 4])

    def region(self, r):
        return frozenset(f"Z:{i}:{j}" for i in range(-r, r + 1) for j in range(4))

    def components(self, r):
        return [("left", tuple((f"Z:{-r}:{j}", f"Z:{-r - 1}:{j}") for j in range(4))),
                ("right", tuple((f"Z:{r}:{j}", f"Z:{r + 1}:{j}") for j in range(4)))]

    def component_class(self, comp_id):
        return comp_id


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the finite-level checks pass "
                   "four rails that meet at two ends of degree 4")
def test_four_rails_of_z_times_p4_are_not_a_circle():
    strip = _ZP4()
    zp4 = LazyGraph("Z:0:0", strip.neighbors, hint=strip)

    def rails(e):
        a, b = e
        return a.split(":")[2] == b.split(":")[2]

    assert not verify_candidate_circle(zp4, rails, range(1, 6))


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


def test_verify_section5_rejects_odd_surrogate_degree_alone():
    # the ladder's cuts have two edges, so an odd surrogate there has
    # degree 1 < 2; Section 5's have three.  The level-0 quotient minus a
    # perfect matching of its region: every region vertex has degree 2,
    # both surrogates degree 3, and the member edges are connected
    matching = {canon_edge(*e) for e in [
        ("F::p1", "Z"), ("F::p2", "F::t"), ("F::p3", "F::p4"), ("F::p5", "F::w"),
        ("F::p6", "F::p8"), ("F::p7", "F::p9"), ("F::s", "F::y")]}
    lg = section5_graph()
    assert set().union(*matching) == lg.hint.region(0)
    assert not verify_candidate_circle(lg, lambda e: canon_edge(*e) not in matching, [0])


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


def test_dp_series_builds_each_region_once(monkeypatch):
    # the deepest first, as the budget check, then the others in order;
    # the stability windows reuse them
    calls = []
    region = Fragment.region

    def spy(self, r):
        calls.append(r)
        return region(self, r)

    monkeypatch.setattr(Fragment, "region", spy)
    dp_series(6)
    assert calls == [6, 0, 1, 2, 3, 4, 5]


def test_quotient_engines_build_each_region_once(monkeypatch):
    # the deepest first, so a level over the budget is refused before any
    # check, then each shallower one
    calls = []
    region = Fragment.region

    def spy(self, r):
        calls.append(r)
        return region(self, r)

    monkeypatch.setattr(Fragment, "region", spy)
    lg = section5_graph()
    assert verify_candidate_circle(lg, section5_circle_member(3), range(0, 4))
    assert calls == [3, 2, 1, 0]
    calls.clear()
    assert [v.count for v in quotient_series(lg, 2)] == [4, 16]
    assert calls == [2, 1]


def test_quotient_series_matches_its_levels():
    # the series runs deepest first but answers in level order, each level
    # as a call of its own would
    for lg, top in ((double_ladder(), 6), (section5_graph(), 2)):
        alone = []
        for r in range(1, top + 1):
            _, cycles = quotient_hamilton(lg, r)
            alone.append((r, len(cycles), frozenset.intersection(*cycles)))
        for level in range(1, top + 1):
            series = quotient_series(lg, level)
            assert [(v.level, v.count, v.forced) for v in series] == alone[:level]


def test_quotient_series_needs_a_level():
    for lg, bad in ((double_ladder(), 0), (double_ladder(), -1), (section5_graph(), 0)):
        with pytest.raises(GraphError, match="no levels to check"):
            quotient_series(lg, bad)
    # a negative depth may also be refused as such
    with pytest.raises(GraphError, match="no levels to check|level must be nonnegative"):
        quotient_series(section5_graph(), -1)


def test_negative_depth_is_an_error():
    # copy_paths is the one gate on depth; nothing answers empty below zero
    f = load_tutte_fragment()
    for read in (lambda: copy_paths(f, -3), lambda: limit_circle_edges(-1),
                 lambda: build_gn(-1), lambda: section5_graph().hint.region(-1)):
        with pytest.raises(GraphError, match="level must be nonnegative"):
            read()
