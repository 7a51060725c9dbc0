import itertools
from collections import defaultdict

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    DIFF,
    complete_graph,
    contract_subgraph,
    cycle_graph,
    graph,
    multigraph,
    path_graph,
    simple_graphs,
    two_connected_by_definition,
)
from hamcircle.corpus import connected_graphs_upto
from hamcircle.graphs import (
    FiniteGraph,
    GraphError,
    MultiGraph,
    blocks,
    canon_edge,
    cut_edges,
    enumerate_hamilton_cycles,
    enumerate_hamilton_paths,
    eulerian_v_splits,
    is_eulerian,
    is_two_connected,
    kth_power,
    v_split,
    vkey,
)


def test_build_rejects_loops():
    with pytest.raises(GraphError):
        FiniteGraph.build(["a"], [("a", "a")])


def test_power_of_path():
    p4 = path_graph(4)
    sq = kth_power(p4, 2)
    assert canon_edge("v0", "v2") in sq.edges
    assert canon_edge("v0", "v3") not in sq.edges
    cube = kth_power(p4, 3)
    assert canon_edge("v0", "v3") in cube.edges


def test_square_of_c5_is_k5():
    assert kth_power(cycle_graph(5), 2).edges == complete_graph(5).edges


def test_power_k1_is_identity():
    g = cycle_graph(6)
    assert kth_power(g, 1) == g


def test_two_connectivity():
    assert is_two_connected(cycle_graph(4))
    assert not is_two_connected(path_graph(4))
    # two triangles sharing a cutvertex
    bowtie = graph(
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("e", "c")]
    )
    assert not is_two_connected(bowtie)


def check_two_connectivity(g):
    assert is_two_connected(g) == two_connected_by_definition(g)
    h = nx.Graph(list(g.edges))
    assert sorted(blocks(g), key=sorted) == sorted(
        (frozenset(b) for b in nx.biconnected_components(h)), key=sorted
    )


def test_two_connectivity_matches_definition_on_small_graphs():
    for g in connected_graphs_upto(7):
        check_two_connectivity(g)


@DIFF
@given(simple_graphs())
def test_two_connectivity_matches_definition(g):
    check_two_connectivity(g)


def test_cut_edges_and_parity():
    c6 = cycle_graph(6)
    s = {"v0", "v1", "v2"}
    cut = cut_edges(c6, s)
    assert len(cut) == 2


def test_contract_subgraph():
    c6 = cycle_graph(6)
    q = contract_subgraph(c6, {"v0", "v1", "v2"})
    assert len(q.vertices) == 4
    assert is_two_connected(q)


# frozen enumeration oracles


def test_hamilton_path_counts():
    assert len(enumerate_hamilton_paths(path_graph(4))) == 1
    assert len(enumerate_hamilton_paths(complete_graph(4))) == 12
    star = graph([("c", "a"), ("c", "b"), ("c", "d")])
    assert enumerate_hamilton_paths(star) == []


def test_hamilton_cycle_counts():
    assert len(enumerate_hamilton_cycles(cycle_graph(5))) == 1
    assert len(enumerate_hamilton_cycles(complete_graph(4))) == 3
    assert len(enumerate_hamilton_cycles(complete_graph(5))) == 12
    assert enumerate_hamilton_cycles(path_graph(4)) == []


def test_petersen_has_no_hamilton_cycle(petersen):
    assert enumerate_hamilton_cycles(petersen) == []


def test_forced_edges_prune_cycles():
    k4 = complete_graph(4)
    e = canon_edge("v0", "v1")
    with_e = enumerate_hamilton_cycles(k4, forced_in=[e])
    assert len(with_e) == 2
    without_e = enumerate_hamilton_cycles(k4, forced_out=[e])
    assert len(without_e) == 1


def test_multigraph_theta_cycles():
    theta = multigraph([(0, "a", "b"), (1, "a", "b"), (2, "a", "b")])
    cycles = enumerate_hamilton_cycles(theta)
    assert len(cycles) == 3
    assert all(len(c) == 2 for c in cycles)


def _bowtie_multigraph():
    return multigraph(
        [
            (0, "a", "b"),
            (1, "b", "c"),
            (2, "c", "a"),
            (3, "c", "d"),
            (4, "d", "e"),
            (5, "e", "c"),
        ]
    )


def test_eulerian_recognition():
    assert is_eulerian(_bowtie_multigraph())
    path = multigraph([(0, "a", "b"), (1, "b", "c")])
    assert not is_eulerian(path)


def test_v_split_replaces_vertex():
    m = _bowtie_multigraph()
    res = v_split(m, "c", (1, 2), (3, 5))
    assert "c" not in res.multigraph.vertices
    assert {res.v1, res.v2} <= res.multigraph.vertices
    degs = sorted(len(res.multigraph.incidence[v]) for v in res.multigraph.vertices)
    assert degs == [2, 2, 2, 2, 2, 2]


def test_bowtie_has_two_eulerian_splits():
    splits = eulerian_v_splits(_bowtie_multigraph(), "c")
    assert len(splits) == 2


def test_k5_has_three_eulerian_splits():
    import itertools

    vs = [f"v{i}" for i in range(5)]
    edges = [(i, a, b) for i, (a, b) in enumerate(itertools.combinations(vs, 2))]
    m = multigraph(edges)
    assert len(eulerian_v_splits(m, "v0")) == 3


def test_eulerian_split_preconditions():
    m = _bowtie_multigraph()
    with pytest.raises(GraphError):
        eulerian_v_splits(m, "a")  # degree 2, not 4
    path = multigraph([(0, "a", "b"), (1, "b", "c")])
    with pytest.raises(GraphError):
        eulerian_v_splits(path, "b")


# differential checks of the kernel against permutation brute force

@st.composite
def edge_lists(draw, simple):
    """(vertex names, [(edge id, a, b)]) on 2..8 vertices; a multigraph adds
    parallel copies of some edges, so two vertices can carry digons."""
    n = draw(st.integers(2, 8))
    names = draw(st.permutations([f"x{i}" for i in range(n)]))
    pairs = list(itertools.combinations(names, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    if not simple and chosen:
        chosen += draw(st.lists(st.sampled_from(chosen), max_size=6))
    return names, [(i, a, b) for i, (a, b) in enumerate(chosen)]


def brute_cycles(names, edges):
    """Hamilton cycles as edge-id sets, from every vertex order with the
    first vertex fixed and every choice among parallel edges."""
    vs = sorted(names, key=vkey)
    between = defaultdict(list)
    for eid, a, b in edges:
        between[frozenset((a, b))].append(eid)
    if len(vs) == 2:
        return {frozenset(p) for p in itertools.combinations(between[frozenset(vs)], 2)}
    out = set()
    for rest in itertools.permutations(vs[1:]):
        order = (vs[0],) + rest
        steps = [between[frozenset((x, y))] for x, y in zip(order, order[1:] + order[:1])]
        if all(steps):
            out.update(frozenset(c) for c in itertools.product(*steps))
    return out


def brute_paths(g):
    vs = g.sorted_vertices()
    out = set()
    for order in itertools.permutations(vs):
        if all(g.has_edge(x, y) for x, y in zip(order, order[1:])):
            out.add(min(order, order[::-1], key=lambda p: [vkey(v) for v in p]))
    return out


def forced_and_limit(draw, ids):
    fin = draw(st.lists(st.sampled_from(ids), max_size=2, unique=True)) if ids else []
    fout = draw(st.lists(st.sampled_from(ids), max_size=2, unique=True)) if ids else []
    limit = draw(st.one_of(st.none(), st.integers(1, 4)))
    return fin, fout, limit


@DIFF
@given(st.data())
def test_multigraph_cycles_match_brute_force(data):
    names, edges = data.draw(edge_lists(simple=False))
    m = MultiGraph.build(names, edges)
    fin, fout, limit = forced_and_limit(data.draw, [e[0] for e in edges])
    full = {
        c for c in brute_cycles(names, edges) if set(fin) <= c and not set(fout) & c
    }
    got = enumerate_hamilton_cycles(m, forced_in=fin, forced_out=fout, limit=limit)
    if limit is None:
        assert got == sorted(full, key=sorted)
    else:
        assert len(got) == len(set(got)) == min(limit, len(full))
        assert set(got) <= full


@DIFF
@given(st.data())
def test_simple_graph_cycles_match_brute_force(data):
    names, edges = data.draw(edge_lists(simple=True))
    g = FiniteGraph.build(names, [(a, b) for _, a, b in edges])
    pairs = g.sorted_edges()
    fin, fout, limit = forced_and_limit(data.draw, pairs)
    by_id = {eid: canon_edge(a, b) for eid, a, b in edges}
    full = set()
    for c in brute_cycles(names, edges):
        c = frozenset(by_id[e] for e in c)
        if set(fin) <= c and not set(fout) & c:
            full.add(c)
    got = enumerate_hamilton_cycles(g, forced_in=fin, forced_out=fout, limit=limit)
    if limit is None:
        assert got == sorted(full, key=lambda c: sorted(map(sorted, c)))
    else:
        assert len(got) == len(set(got)) == min(limit, len(full))
        assert set(got) <= full


@DIFF
@given(edge_lists(simple=True))
def test_apex_paths_match_brute_force(drawn):
    names, edges = drawn
    g = FiniteGraph.build(names, [(a, b) for _, a, b in edges])
    expect = brute_paths(g)
    assert enumerate_hamilton_paths(g) == sorted(expect, key=lambda p: [vkey(v) for v in p])


def test_search_node_count_on_level_2():
    # the incremental propagation prunes exactly like a full re-sweep: the
    # same 2807 search nodes on G2 as the sweeping kernel it replaced
    from hamcircle.fragment import build_gn
    from hamcircle.graphs import _CycleSearch

    g = build_gn(2)[0]
    vs = g.sorted_vertices()
    index = {v: i for i, v in enumerate(vs)}
    search = _CycleSearch(len(vs), [(index[a], index[b]) for a, b in g.sorted_edges()])
    assert len(search.run()) == 16
    assert search.nodes == 2807


def test_deep_search_is_not_bounded_by_recursion():
    # the cube of a long path needs a branching level per few vertices
    n = 1500
    names = [f"v{i:04d}" for i in range(n)]
    cube = kth_power(graph(list(zip(names, names[1:]))), 3)
    (cycle,) = enumerate_hamilton_cycles(cube, limit=1)
    assert len(cycle) == n
