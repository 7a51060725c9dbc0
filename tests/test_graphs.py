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
    comps = g.components()
    assert len(comps) == len(set(comps))
    assert set(comps) == {frozenset(c) for c in nx.connected_components(h)}
    assert comps == sorted(comps, key=lambda c: min(map(vkey, c)))
    assert g.is_connected() == (len(comps) <= 1)
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
    """The kernel with the cut check switched off: neither the labels nor
    the low-link pass ever run, so no node fails on a cut."""

    def _bridged(self):
        return False


class _Checked(_CycleSearch):
    """The kernel with the exact low-link pass run at every armed node: at
    each node the labels skip, the pass must find the live graph
    2-edge-connected.  The extra passes set no anchor and count as neither
    passes nor skips, so the search itself is the kernel's."""

    def _proven(self):
        proven = super()._proven()
        if proven:
            assert self._low_link() is not None, "the labels skipped a split or bridged node"
        return proven


def search_with(kernel, g, fin, fout, limit, cuts=()):
    """enumerate_hamilton_cycles run on `kernel`, with the search object."""
    made = []

    class Spy(kernel):
        def run(self, *args):
            made.append(self)
            return super().run(*args)

    with mock.patch.object(graphs, "_CycleSearch", Spy):
        got = enumerate_hamilton_cycles(g, forced_in=fin, forced_out=fout, limit=limit,
                                        cuts=cuts)
    (search,) = made
    return got, search


@st.composite
def search_inputs(draw):
    """A drawn simple graph or multigraph, with forced edges and a limit."""
    simple = draw(st.booleans())
    names, edges = draw(edge_lists(simple=simple))
    if simple:
        g = FiniteGraph.build(names, [(a, b) for _, a, b in edges])
        ids = g.sorted_edges()
    else:
        g = MultiGraph.build(names, edges)
        ids = [e[0] for e in edges]
    return (g,) + forced_and_limit(draw, ids)


def counts(search):
    return search.nodes, search.cut_passes, search.cut_skips


@DIFF
@given(search_inputs())
def test_cut_check_changes_no_result(args):
    # it only fails nodes whose subtree holds no cycle, so the same cycles
    # are found in the same order, and the first `limit` of them are too
    got, search = search_with(_CycleSearch, *args)
    want, unpruned = search_with(_Unpruned, *args)
    assert got == want
    assert search.nodes <= unpruned.nodes
    assert unpruned.cut_passes == unpruned.cut_skips == 0


# a multigraph whose search skips a node with a 2-edge cut {d, g} when the
# labels test only for subsets of OUT edges that XOR to 0
TRIPLE_LINK = multigraph([
    (i, a, b) for i, (a, b) in enumerate([
        ("x0", "x1"), ("x0", "x2"), ("x1", "x2"), ("x1", "x6"), ("x2", "x3"), ("x2", "x4"),
        ("x2", "x5"), ("x4", "x5"), ("x0", "x6"), ("x2", "x6"), ("x3", "x4"), ("x3", "x5"),
        ("x0", "x1"), ("x0", "x1"),
    ])
])


@DIFF
@given(search_inputs())
@example((TRIPLE_LINK, [], [], None))
def test_label_skips_are_two_edge_connected(args):
    got, checked = search_with(_Checked, *args)
    want, search = search_with(_CycleSearch, *args)
    assert got == want
    assert counts(checked) == counts(search)


class _Contracted(_Checked):
    """The checked kernel, which may skip the pass only at nodes with no
    edge set OUT since the anchor: a contraction of its live graph."""

    def _proven(self):
        proven = super()._proven()
        if proven:
            assert all(self.state[e] == self.IN for e in self.trail[self.anchor[0]:])
        return proven


@DIFF
@given(search_inputs())
@example((TRIPLE_LINK, [], [], None))
def test_colliding_labels_change_no_result(args):
    # equal labels make every nonempty set of OUT edges hit, so the pass
    # runs at every check but those after IN decisions alone
    want, search = search_with(_CycleSearch, *args)
    labels = [1] * 64  # more than the drawn graphs' at most 34 edges
    with mock.patch.object(graphs, "_CUT_LABELS", labels):
        got, collided = search_with(_Contracted, *args)
    assert labels == [1] * 64
    assert got == want
    assert collided.nodes == search.nodes
    assert collided.cut_passes + collided.cut_skips == search.cut_passes + search.cut_skips


def test_two_triangles_without_one_of_their_two_links_have_no_cycle():
    tt = graph([("a1", "a2"), ("a2", "a3"), ("a3", "a1"), ("b1", "b2"), ("b2", "b3"),
                ("b3", "b1"), ("a1", "b1"), ("a2", "b2")])
    assert len(enumerate_hamilton_cycles(tt)) == 1
    assert enumerate_hamilton_cycles(tt, forced_out=[("a2", "b2")]) == []


# two K4s on 0..3 and 4..7 (edges 0..5 and 6..11) joined by edges 12 and 13
TWO_K4 = [(a, b) for k in (0, 4) for a, b in itertools.combinations(range(k, k + 4), 2)]
TWO_K4 += [(0, 4), (1, 5)]


def test_cut_check_fails_what_propagation_leaves():
    # with 13 out, no vertex is forced but 12 is a bridge; with both out,
    # no bridge is left but the live graph is split.  With no anchor yet,
    # each check is one low-link pass.
    for out, fails in (((), False), ((13,), True), ((12, 13), True)):
        search = _CycleSearch(8, TWO_K4)
        search._arm()
        assert all(search._set_out(e) for e in out) and search._propagate()
        assert search._bridged() == fails
        assert (search.cut_passes, search.cut_skips) == (1, 0)


@pytest.mark.parametrize("out, hit", [(13, True), (0, False)])
def test_labels_hit_a_real_two_edge_cut(out, hit):
    # anchored at out=(), setting 13 OUT leaves 12 a bridge: {12, 13} is a
    # 2-edge cut, its labels XOR to 0, and the pass runs and fails the node;
    # without the K4 edge 0-1 the graph stays 2-edge-connected and the
    # labels skip the pass
    search = _CycleSearch(8, TWO_K4)
    search._arm()
    assert not search._bridged() and search.anchor is not None
    assert search._set_out(out) and search._propagate()
    assert search._proven() is not hit
    assert search._bridged() is hit
    assert (search.cut_passes, search.cut_skips) == (1 + hit, 1 - hit)


# cuts: the parity rule against the search without it, on drawn cuts

def named_edges(g):
    """g's edges as the kernel's callers name them (endpoint pairs, or edge
    ids), each with its two ends."""
    if isinstance(g, FiniteGraph):
        return [(e, e) for e in g.sorted_edges()]
    return [(eid, (a, b)) for eid, a, b in g.edges]


def leaving(g, side):
    """The edges of g with exactly one end in `side`."""
    return [e for e, (a, b) in named_edges(g) if (a in side) != (b in side)]


def cut_space(g):
    """Every edge set that leaves a nonempty proper vertex set of g, by
    brute force over the vertex sets."""
    vs = g.sorted_vertices()
    return {frozenset(leaving(g, set(side)))
            for k in range(1, len(vs)) for side in itertools.combinations(vs, k)}


@st.composite
def cut_inputs(draw):
    """`search_inputs` plus up to three cuts, each the edges leaving a drawn
    nonempty proper vertex set; a set that no edge leaves is dropped."""
    g, fin, fout, limit = draw(search_inputs())
    vs = g.sorted_vertices()
    sides = draw(st.lists(st.sets(st.sampled_from(vs), min_size=1, max_size=len(vs) - 1),
                          max_size=3))
    cuts = [cut for cut in (leaving(g, side) for side in sides) if cut]
    return g, fin, fout, limit, cuts


# the two K4s joined by the three edges 12, 13 and 14 of one cut, which no
# degree rule decides
LINKED_K4 = TWO_K4[:12] + [(0, 4), (1, 5), (2, 6)]
LINKS = [12, 13, 14]


@DIFF
@given(cut_inputs())
@example((multigraph([(i, *map(str, e)) for i, e in enumerate(LINKED_K4)]), [], [], None,
          [LINKS]))
@example((multigraph([(i, *map(str, e)) for i, e in enumerate(LINKED_K4)]), [12], [13], None,
          [LINKS]))
def test_cuts_change_no_cycle(args):
    # with cuts the search decides edges by parity, so it may branch on
    # other edges and find the first `limit` cycles in another order; the
    # labels' skips must still hold, and without cuts nothing is decided
    g, fin, fout, limit, cuts = args
    full, plain = search_with(_CycleSearch, g, fin, fout, None)
    got, parity = search_with(_Checked, g, fin, fout, limit, cuts)
    if limit is None:
        assert got == full
    else:
        assert len(got) == len(set(got)) == min(limit, len(full))
        assert set(got) <= set(full)
    assert plain.cut_forced == 0


class _Accepted(Exception):
    """Raised by `_Unrun`: the cuts were accepted."""


class _Unrun(_CycleSearch):
    """A kernel that stops where the search would start."""

    def run(self, *args):
        raise _Accepted


@DIFF
@given(st.data())
def test_only_cuts_are_accepted(data):
    # a set is accepted iff it is nonempty and some nonempty proper vertex
    # set leaves exactly its edges; anything else, a non-edge among them
    # too, is refused before the search starts
    g, fin, fout, limit = data.draw(search_inputs())
    names = [e for e, _ in named_edges(g)]
    drawn = data.draw(st.sets(st.sampled_from(names), min_size=1)) if names else set()
    cuts = cut_space(g)
    missing = ("nowhere", g.sorted_vertices()[0]) if isinstance(g, FiniteGraph) else len(names)
    for cut in ([], [missing], [*drawn, missing], list(drawn)):
        accepted = bool(cut) and frozenset(cut) in cuts
        with mock.patch.object(graphs, "_CycleSearch", _Unrun):
            with pytest.raises(_Accepted if accepted else GraphError):
                enumerate_hamilton_cycles(g, fin, fout, limit, cuts=[cut])


IN, OUT, UNDEC = _CycleSearch.IN, _CycleSearch.OUT, _CycleSearch.UNDEC


@pytest.mark.parametrize("fin, fout, decided", [
    ((12, 13), (), {14: OUT}),
    ((), (12,), {13: IN, 14: IN}),
])
def test_parity_decides_a_three_edge_cut(fin, fout, decided):
    # two links IN force the third OUT; one link OUT forces the other two
    # IN; no degree rule decides these, so without the cut they stay open
    for cuts, want in (([LINKS], decided), ((), dict.fromkeys(decided, UNDEC))):
        search = _CycleSearch(8, LINKED_K4, cuts=cuts)
        assert all(search._set_in(e) for e in fin) and all(search._set_out(e) for e in fout)
        assert search._propagate()
        assert {e: search.state[e] for e in decided} == want
        assert search.cut_forced == (len(decided) if cuts else 0)


def test_parity_fails_a_cut_crossed_oddly_or_at_most_once():
    search = _CycleSearch(8, LINKED_K4, cuts=[LINKS])
    assert search._set_out(12)
    assert not search._set_out(13)  # one edge left: crossed at most once
    search = _CycleSearch(8, LINKED_K4, cuts=[LINKS])
    assert search._set_in(12) and search._set_in(13)
    assert not search._set_in(14)  # three IN: crossed oddly
    search._undo(0)
    assert (search.cut_in, search.cut_undec, search.trail) == ([0], [3], [])
    assert search.state == [UNDEC] * len(LINKED_K4)


def test_an_exclusion_that_breaks_a_cut_fails_its_decision():
    # with link 13 OUT and 12 IN, joining the segment 2-0-4 to 6 by K4
    # edge 7 excludes link 14, which would close a short cycle; that
    # leaves the cut one IN edge and none undecided, so the IN decision
    # itself fails
    search = _CycleSearch(8, LINKED_K4, cuts=[LINKS])
    assert search._set_out(13) and search._set_in(1) and search._set_in(12)
    assert not search._set_in(7)
    assert search.state[14] == OUT


def test_a_bridge_given_as_a_cut_fails_the_root():
    # two K4s joined by the bridge 3-4: its one-edge cut fails the root
    # before any node, where the search alone needs some
    g = graph([(str(a), str(b)) for a, b in TWO_K4[:12] + [(3, 4)]])
    got, search = search_with(_CycleSearch, g, (), (), None, [[("3", "4")]])
    assert got == [] and search.nodes == 0
    got, search = search_with(_CycleSearch, g, (), (), None)
    assert got == [] and search.nodes > 0


def level_search(level, limit=None, kernel=_CycleSearch):
    """The kernel on the level graph G_level, run; returns it and its
    cycles."""
    from hamcircle.fragment import build_gn

    g = build_gn(level)[0]
    vs = g.sorted_vertices()
    index = {v: i for i, v in enumerate(vs)}
    search = kernel(len(vs), [(index[a], index[b]) for a, b in g.sorted_edges()], limit)
    return search, search.run()


def test_search_node_count_on_level_2():
    # degree forcing alone takes 2807 nodes for all 16 cycles of G2; the
    # cut check, armed by the first backtrack, fails every node whose live
    # graph has a bridge and leaves 478.  Of its 538 checks, the labels
    # settle 338 and 200 run the low-link pass.
    search, cycles = level_search(2)
    assert len(cycles) == 16
    assert search.nodes == 478
    assert (search.cut_passes, search.cut_skips) == (200, 338)


@pytest.mark.parametrize("level, nodes, passes, skips", [
    pytest.param(2, 333, 135, 243, id="2-333"),
    pytest.param(3, 5083, 1835, 4030, id="3-5083"),
])
def test_search_node_count_to_a_first_cycle(level, nodes, passes, skips):
    # 1937 and 51029 nodes with degree forcing alone
    search, cycles = level_search(level, limit=1)
    assert len(cycles) == 1
    assert search.nodes == nodes
    assert (search.cut_passes, search.cut_skips) == (passes, skips)


@pytest.mark.parametrize("level, limit", [(2, None), (3, 1)])
def test_label_skips_are_two_edge_connected_on_level_graphs(level, limit):
    checked, got = level_search(level, limit, _Checked)
    search, want = level_search(level, limit)
    assert got == want
    assert counts(checked) == counts(search)


@pytest.mark.parametrize("level, limit", [(2, None), (2, 1), (3, 1)])
def test_colliding_labels_run_the_pass_at_every_check(level, limit):
    # with every label equal every set of OUT edges hits, and on the level
    # graphs every node has an OUT edge since its anchor: so no check is
    # skipped, and the cycles and nodes stay the same
    search, want = level_search(level, limit)
    with mock.patch.object(graphs, "_CUT_LABELS", [1] * len(search.ends)):
        collided, got = level_search(level, limit)
    assert got == want
    assert collided.nodes == search.nodes
    assert collided.cut_skips == 0
    assert collided.cut_passes == search.cut_passes + search.cut_skips


def quotient_search(level, limit=None):
    """The kernel on the level-`level` Section-5 quotient with the cuts of
    its shallower levels, as `checker.quotient_hamilton` runs it; returns
    the search and its cycles."""
    from hamcircle.checker import quotient_cuts
    from hamcircle.fragment import section5_graph
    from hamcircle.lazy import quotient_window, window_multigraph

    lg = section5_graph()
    window = quotient_window(lg, level)
    got, search = search_with(_CycleSearch, window_multigraph(*window), (), (), limit,
                              quotient_cuts(lg, level, window[2]))
    return search, got


@pytest.mark.parametrize("level, limit, cycles, nodes, passes, skips, forced", [
    pytest.param(1, None, 4, 48, 17, 28, 14, id="1-48"),
    pytest.param(2, None, 16, 218, 83, 146, 76, id="2-218"),
    pytest.param(3, 1, 1, 400, 188, 280, 268, id="3-400"),
])
def test_search_node_count_with_cuts(level, limit, cycles, nodes, passes, skips, forced):
    # without the cuts the same searches take 69, 501 and 5,225 nodes
    search, got = quotient_search(level, limit)
    assert len(got) == cycles
    assert (search.nodes, search.cut_passes, search.cut_skips) == (nodes, passes, skips)
    assert search.cut_forced == forced


def test_deep_search_is_not_bounded_by_recursion():
    # the cube of a long path needs a branching level per few vertices
    n = 1500
    names = [f"v{i:04d}" for i in range(n)]
    cube = kth_power(graph(list(zip(names, names[1:]))), 3)
    (cycle,) = enumerate_hamilton_cycles(cube, limit=1)
    assert len(cycle) == n
