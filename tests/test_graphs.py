import itertools
import random
from collections import defaultdict
from unittest import mock

import networkx as nx
import pytest
from hypothesis import example, given
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
    zigzag_triangulation,
)
from hamcircle import graphs
from hamcircle.corpus import connected_graphs_upto, random_eulerian_multigraph
from hamcircle.graphs import (
    FiniteGraph,
    GraphError,
    MultiGraph,
    _CycleSearch,
    _eulerian_pairings,
    blocks,
    canon_edge,
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
    h = nx.Graph(list(g.edges))
    h.add_nodes_from(g.vertices)
    assert g.is_connected() == (len(g.components()) <= 1)
    assert (
        is_two_connected(g)
        == two_connected_by_definition(g)
        == (len(g.vertices) >= 3 and nx.is_biconnected(h))
    )
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


def _int_labelings(edges, n):
    """(graph, root) for the graph on 0..n-1 relabelled by each permutation,
    where root is the original vertex that came first in ``adj``, the DFS
    root of ``is_two_connected`` (small ints hash to themselves, so 0 comes
    first in their sets)."""
    for perm in itertools.permutations(range(n)):
        g = FiniteGraph.build(perm, [(perm[a], perm[b]) for a, b in edges])
        yield g, perm.index(next(iter(g.adj))) if n else None


@pytest.mark.parametrize(
    "n, edges",
    [
        (0, []),
        (1, []),
        (2, []),
        (2, [(0, 1)]),
        (3, [(0, 1), (1, 2), (2, 0)]),
        (4, [(0, 1), (1, 2), (2, 0)]),  # a triangle and an isolated vertex
        (4, [(0, 1), (2, 3)]),  # disconnected
        (5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),  # bowtie: cut vertex 2
        (4, [(0, 1), (1, 2), (2, 3)]),  # a path: two cut vertices
        (5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 2)]),  # K2,3: none
    ],
    ids=["empty", "K1", "2K1", "K2", "K3", "K3+K1", "2K2", "bowtie", "P4", "K23"],
)
def test_two_connectivity_edge_cases(n, edges):
    roots = set()
    for g, root in _int_labelings(edges, n):
        roots.add(root)
        check_two_connectivity(g)
    assert roots == (set(range(n)) or {None})  # every vertex was the root once


# blocks before it sorted the vertex set once: every neighbour set sorted
# on its own; the reference for the order of the block list
def reference_blocks(g):
    disc, low = {}, {}
    out = []
    for root in g.sorted_vertices():
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, None, iter(g.neighbors(root)))]
        edges = []
        while stack:
            v, parent, nbrs = stack[-1]
            for w in nbrs:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    edges.append((v, w))
                    stack.append((w, v, iter(g.neighbors(w))))
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
                    comp = set()
                    while True:
                        e = edges.pop()
                        comp.update(e)
                        if e == (parent, v):
                            break
                    out.append(frozenset(comp))
    return out


def test_block_order_matches_reference_on_small_graphs():
    for g in connected_graphs_upto(7):
        assert blocks(g) == reference_blocks(g)


@DIFF
@given(simple_graphs(), st.booleans())
def test_block_order_matches_reference(g, int_ids):
    if int_ids:  # x10 sorts before x2 as a name, and 10 before 2 as a str
        g = FiniteGraph.build(
            [int(v[1:]) for v in g.vertices], [(int(a[1:]), int(b[1:])) for a, b in g.edges]
        )
    assert blocks(g) == reference_blocks(g)


@pytest.mark.parametrize("n", [5, 8, 13, 30])
def test_block_order_matches_reference_on_crossed_zigzags(n):
    z = zigzag_triangulation(n)
    crossed = FiniteGraph.build(z.vertices, set(z.edges) | {("p00", f"p{n // 2:02d}")})
    # a bridge to a triangle and a pendant path hung on the polygon, named
    # to sort after and before its vertices
    tail = [("p01", "q0"), ("q0", "q1"), ("q1", "q2"), ("q2", "q0")]
    tail += [("p03", "a0"), ("a0", "a1")]
    hung = graph(list(crossed.edges) + tail)
    for g in (z, crossed, hung):
        assert blocks(g) == reference_blocks(g)


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
    split = v_split(m, "c", (1, 2), (3, 5))
    assert m.vertices - split.vertices == {"c"}
    assert len(split.vertices - m.vertices) == 2  # the two new vertices
    degs = sorted(len(split.incidence[v]) for v in split.vertices)
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


# the Eulerian-split fast path against the rebuilt split and is_eulerian


def _rebuilt_eulerian_pairings(m, v):
    """The pairings, in (ab|cd), (ac|bd), (ad|bc) order of the sorted edge
    ids, whose split, rebuilt by MultiGraph.build, passes is_eulerian."""
    a, b, c, d = sorted(eid for eid, _ in m.incidence[v])
    out = []
    for e1, e2 in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
        split = v_split(m, v, e1, e2)
        assert MultiGraph.build(split.vertices, split.edges) == split
        if is_eulerian(split):
            out.append((e1, e2))
    return out


def check_eulerian_pairings(m):
    for v in m.sorted_vertices():
        if m.degree(v) == 4:
            expect = _rebuilt_eulerian_pairings(m, v)
            assert _eulerian_pairings(m, v) == expect
            assert eulerian_v_splits(m, v) == [v_split(m, v, *p) for p in expect]


def test_eulerian_pairings_match_rebuilt_splits_on_criterion_6_corpus():
    rng = random.Random(20260823)  # the seed of test_acceptance.py
    vertices = 0
    for _ in range(1000):
        m = random_eulerian_multigraph(rng)
        check_eulerian_pairings(m)
        vertices += sum(m.degree(v) == 4 for v in m.vertices)
    assert vertices > 1000


@st.composite
def closed_walk_multigraphs(draw):
    """The multigraph of a random closed walk on at most 5 vertices, so that
    parallel edges are common, plus up to 2 isolated vertices; edge ids are
    permuted against the walk order."""
    names = draw(st.permutations([f"w{i}" for i in range(7)]))
    used = names[: draw(st.integers(2, 5))]
    walk = [draw(st.sampled_from(used))]
    for _ in range(draw(st.integers(2, 12))):
        walk.append(draw(st.sampled_from([x for x in used if x != walk[-1]])))
    if walk[-1] == walk[0]:
        walk.pop()
    ids = draw(st.permutations(range(len(walk))))
    edges = [(ids[i], walk[i], walk[(i + 1) % len(walk)]) for i in range(len(walk))]
    isolated = names[5 : 5 + draw(st.integers(0, 2))]
    return multigraph(edges, extra_vertices=isolated)


@DIFF
@given(closed_walk_multigraphs())
# a digon c-a and a digon c-b: only (ab|cd) is refused; isolated z
@example(multigraph([(0, "c", "a"), (1, "a", "c"), (2, "c", "b"), (3, "b", "c")], ["z"]))
# a digon c-a and a triangle c-b-d with out-of-order ids
@example(multigraph([(3, "c", "a"), (0, "a", "c"), (2, "c", "b"), (1, "b", "d"), (4, "d", "c")]))
# four parallel edges: every pairing is accepted at both ends
@example(multigraph([(i, "a", "b") for i in range(4)], ["y", "z"]))
def test_eulerian_pairings_match_rebuilt_splits(m):
    check_eulerian_pairings(m)


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


class _Unpruned(_CycleSearch):
    """The kernel with the cut check switched off."""

    def _bridged(self):
        return False


def search_with(kernel, g, fin, fout, limit):
    """enumerate_hamilton_cycles run on `kernel`, with the search nodes it
    took."""
    made = []

    class Spy(kernel):
        def run(self, *args):
            made.append(self)
            return super().run(*args)

    with mock.patch.object(graphs, "_CycleSearch", Spy):
        got = enumerate_hamilton_cycles(g, forced_in=fin, forced_out=fout, limit=limit)
    (search,) = made
    return got, search.nodes


@DIFF
@given(st.data())
def test_cut_check_changes_no_result(data):
    # it only fails nodes whose subtree holds no cycle, so the same cycles
    # are found in the same order, and the first `limit` of them are too
    simple = data.draw(st.booleans())
    names, edges = data.draw(edge_lists(simple=simple))
    if simple:
        g = FiniteGraph.build(names, [(a, b) for _, a, b in edges])
        ids = g.sorted_edges()
    else:
        g = MultiGraph.build(names, edges)
        ids = [e[0] for e in edges]
    fin, fout, limit = forced_and_limit(data.draw, ids)
    got, nodes = search_with(_CycleSearch, g, fin, fout, limit)
    want, unpruned = search_with(_Unpruned, g, fin, fout, limit)
    assert got == want
    assert nodes <= unpruned


def test_two_triangles_without_one_of_their_two_links_have_no_cycle():
    tt = graph([("a1", "a2"), ("a2", "a3"), ("a3", "a1"), ("b1", "b2"), ("b2", "b3"),
                ("b3", "b1"), ("a1", "b1"), ("a2", "b2")])
    assert len(enumerate_hamilton_cycles(tt)) == 1
    assert enumerate_hamilton_cycles(tt, forced_out=[("a2", "b2")]) == []


def test_cut_check_fails_what_propagation_leaves():
    # two K4s on 0..3 and 4..7 joined by edges 12 and 13: with 13 out, no
    # vertex is forced but 12 is a bridge; with both out, no bridge is left
    # but the live graph is split
    ends = [(a, b) for k in (0, 4) for a, b in itertools.combinations(range(k, k + 4), 2)]
    ends += [(0, 4), (1, 5)]
    for out, fails in (((), False), ((13,), True), ((12, 13), True)):
        search = _CycleSearch(8, ends)
        search._arm()
        assert all(search._set_out(e) for e in out) and search._propagate()
        assert search._bridged() == fails


def level_search(level, limit=None):
    """The kernel on the level graph G_level, run; returns it and its
    cycles."""
    from hamcircle.fragment import build_gn

    g = build_gn(level)[0]
    vs = g.sorted_vertices()
    index = {v: i for i, v in enumerate(vs)}
    search = _CycleSearch(len(vs), [(index[a], index[b]) for a, b in g.sorted_edges()], limit)
    return search, search.run()


def test_search_node_count_on_level_2():
    # degree forcing alone takes 2807 nodes for all 16 cycles of G2; the
    # cut check, armed by the first backtrack, fails every node whose live
    # graph has a bridge and leaves 478
    search, cycles = level_search(2)
    assert len(cycles) == 16
    assert search.nodes == 478


@pytest.mark.parametrize("level, nodes", [(2, 333), (3, 5083)])
def test_search_node_count_to_a_first_cycle(level, nodes):
    # 1937 and 51029 nodes with degree forcing alone
    search, cycles = level_search(level, limit=1)
    assert len(cycles) == 1
    assert search.nodes == nodes


def test_deep_search_is_not_bounded_by_recursion():
    # the cube of a long path needs a branching level per few vertices
    n = 1500
    names = [f"v{i:04d}" for i in range(n)]
    cube = kth_power(graph(list(zip(names, names[1:]))), 3)
    (cycle,) = enumerate_hamilton_cycles(cube, limit=1)
    assert len(cycle) == n
