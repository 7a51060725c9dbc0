import itertools
import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    DIFF,
    complete_graph,
    cycle_graph,
    graph,
    k23,
    path_graph,
    simple_graphs,
    zigzag_triangulation,
)
from hamcircle import minors
from hamcircle.corpus import connected_graphs_upto, random_dissection
from hamcircle.graphs import (
    FiniteGraph,
    GraphError,
    InvariantError,
    canon_edge,
    is_two_connected,
)
from hamcircle.minors import (
    circle_order,
    circular_ordering_oracle,
    find_k4_subgraph,
    find_minor,
    has_k4_minor,
    has_k23_minor,
    internally_disjoint_paths,
    is_outerplanar,
    k4_minor_equals_subgraph,
    validate_witness,
)
from hamcircle.outerplanar import two_contractible_edges


def k4_subdivided():
    # subdivide one edge of K4
    g = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    return graph(g + [("c", "m"), ("m", "d")])


def test_k4_subgraph_detection():
    assert find_k4_subgraph(complete_graph(4)) is not None
    assert find_k4_subgraph(cycle_graph(6)) is None
    assert find_k4_subgraph(k23()) is None


def test_disjoint_paths_menger():
    three = internally_disjoint_paths(k23(), "a1", "a2", 3)
    assert len(three) == 3
    interiors = [frozenset(p[1:-1]) for p in three]
    assert len(set(interiors)) == 3
    # C5 separates v0 and v2 by two vertices, so the packing stops at 2
    assert len(internally_disjoint_paths(cycle_graph(5), "v0", "v2", 3)) == 2
    # K6 has five disjoint v0-v1 paths; the packing stops at the 2 asked for
    assert len(internally_disjoint_paths(complete_graph(6), "v0", "v1", 2)) == 2


def test_k23_minor_detection():
    assert has_k23_minor(k23())
    assert has_k23_minor(complete_graph(5))
    assert not has_k23_minor(complete_graph(4))
    assert not has_k23_minor(cycle_graph(8))
    # subdividing a K4 edge creates a K2,3 (hubs = the other two vertices)
    assert has_k23_minor(k4_subdivided())


def test_minor_witnesses_validate():
    for g, pattern in [
        (complete_graph(4), "K4"),
        (k4_subdivided(), "K4"),
        (k23(), "K23"),
        (complete_graph(5), "K23"),
    ]:
        w = find_minor(g, pattern)
        assert w is not None
        validate_witness(g, w)


def test_k4_minor_without_subgraph():
    g = k4_subdivided()
    assert find_k4_subgraph(g) is None
    assert find_minor(g, "K4") is not None


def test_minor_equivalence_runner():
    assert k4_minor_equals_subgraph(complete_graph(4))
    with pytest.raises(GraphError):
        k4_minor_equals_subgraph(k23())


def test_outerplanarity_basics():
    assert is_outerplanar(cycle_graph(7))
    assert is_outerplanar(path_graph(5))
    assert not is_outerplanar(complete_graph(4))
    assert not is_outerplanar(k23())


def test_circular_oracle_matches():
    for g in (cycle_graph(6), complete_graph(4), k23(), path_graph(4)):
        assert (circular_ordering_oracle(g) is not None) == is_outerplanar(g)


def test_circular_oracle_order_is_valid():
    diamond = graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")])
    order = circular_ordering_oracle(diamond)
    assert order is not None
    pos = {v: i for i, v in enumerate(order)}
    chords = [tuple(sorted((pos[a], pos[b]))) for a, b in diamond.edges]
    for (i, j), (p, q) in itertools.combinations(chords, 2):
        assert not (i < p < j < q or p < i < q < j)


def test_oracle_size_limit():
    big = cycle_graph(11)
    with pytest.raises(GraphError):
        circular_ordering_oracle(big)


# differential checks of the linear-time decisions against the searches
# they replaced, kept here as references


def k4_subgraph_by_scan(g):
    for quad in itertools.combinations(g.sorted_vertices(), 4):
        if all(g.has_edge(a, b) for a, b in itertools.combinations(quad, 2)):
            return frozenset(quad)
    return None


def k23_hubs_by_all_pairs(g):
    """The first vertex pair joined by three internally disjoint paths of
    length at least 2, with those paths, or None."""
    for a, b in itertools.combinations(g.sorted_vertices(), 2):
        h = FiniteGraph(g.vertices, g.edges - {canon_edge(a, b)})
        paths = internally_disjoint_paths(h, a, b, 3)
        if len(paths) >= 3:
            return a, b, paths[:3]
    return None


def _route_paths(g, branch, pedges, used, idx, routes):
    """Backtracking router: realize pattern edges by internally disjoint
    host paths avoiding other branch vertices."""
    if idx == len(pedges):
        return True
    x, y = pedges[idx]
    a, b = branch[x], branch[y]
    blocked = (set(branch.values()) - {a, b}) | used

    def dfs(path):
        for nb in g.neighbors(path[-1]):
            if nb == b:
                routes[idx] = path + [b]
                newly = set(path[1:])
                used.update(newly)
                if _route_paths(g, branch, pedges, used, idx + 1, routes):
                    return True
                used.difference_update(newly)
                routes[idx] = None
            elif nb not in blocked and nb not in path and nb != a:
                if dfs(path + [nb]):
                    return True
        return False

    return dfs([a])


def k4_subdivision_by_routing(g):
    """The first four branch vertices, in ``vkey`` order, whose six pairs
    can be joined by internally disjoint paths, or None.  Exponential: it
    gives up only after every 4-set of vertices of degree at least 3."""
    vs = [v for v in g.sorted_vertices() if g.degree(v) >= 3]
    pedges = list(itertools.combinations("abcd", 2))
    for quad in itertools.combinations(vs, 4):
        routes = [None] * len(pedges)
        if _route_paths(g, dict(zip("abcd", quad)), pedges, set(), 0, routes):
            return quad
    return None


DECISIONS = {"K4": has_k4_minor, "K23": has_k23_minor}


def check_minimal_subgraph(g, pattern):
    """The witness helper's subgraph keeps the minor, loses it without any
    one of its edges, and is a subdivision: 4 (K4) or 2 (K2,3) vertices of
    degree 3 and all others of degree 2."""
    decide = DECISIONS[pattern]
    sub = minors._minimal_subgraph(g, decide)
    assert sub.edges <= g.edges
    assert decide(sub)
    for e in sub.edges:
        assert not decide(FiniteGraph(sub.vertices, sub.edges - {e}))
    degrees = sorted(sub.degree(v) for v in sub.vertices)
    hubs = 4 if pattern == "K4" else 2
    assert degrees == [2] * (len(degrees) - hubs) + [3] * hubs


def check_decisions(g):
    k4 = k4_subgraph_by_scan(g)
    assert find_k4_subgraph(g) == k4
    assert has_k4_minor(g) == (k4_subdivision_by_routing(g) is not None)
    hubs = k23_hubs_by_all_pairs(g)
    assert has_k23_minor(g) == (hubs is not None)
    assert is_outerplanar(g) == (k4 is None and hubs is None)
    for pattern, decide in DECISIONS.items():
        w = find_minor(g, pattern)
        assert (w is not None) == decide(g)
        if w is not None:
            validate_witness(g, w)
            check_minimal_subgraph(g, pattern)


def test_decisions_match_searches_on_small_graphs():
    for g in connected_graphs_upto(7):
        check_decisions(g)


@DIFF
@given(simple_graphs())
def test_decisions_match_searches(g):
    check_decisions(g)


def circular_order_by_edge_scan(g):
    """Reference oracle: each placement scans every placed chord."""
    vs = g.sorted_vertices()
    n = len(vs)
    if n <= 3:
        return list(vs)

    def place(order, pos):
        if len(order) == n:
            return list(order)
        for v in vs:
            if v in pos:
                continue
            p = len(order)
            qs = [pos[u] for u in g.adj[v] if u in pos]
            crossed = any(
                min(pos[x], pos[y]) < q < max(pos[x], pos[y])
                for q in qs
                for x, y in g.edges
                if x in pos and y in pos
            )
            if not crossed:
                order.append(v)
                pos[v] = p
                res = place(order, pos)
                if res is not None:
                    return res
                order.pop()
                del pos[v]
        return None

    return place([vs[0]], {vs[0]: 0})


def test_circular_oracle_orders_match_edge_scan():
    for g in connected_graphs_upto(7):
        assert circular_ordering_oracle(g) == circular_order_by_edge_scan(g)


def test_no_minor_in_a_triangulated_40_gon():
    g = zigzag_triangulation(40)
    assert len(g.edges) == 2 * 40 - 3
    assert find_minor(g, "K4") is None
    assert find_minor(g, "K23") is None


def test_witnesses_on_a_crossed_40_gon():
    # a crossing chord gives both minors but no K4 subgraph, so the K4
    # witness has to be a proper subdivision
    g = zigzag_triangulation(40)
    g = FiniteGraph(g.vertices, g.edges | {("p00", "p20")})
    assert find_k4_subgraph(g) is None
    for pattern in ("K4", "K23"):
        w = find_minor(g, pattern)
        assert w is not None
        validate_witness(g, w)


@pytest.mark.parametrize("pattern", ["K4", "K23"])
def test_witness_is_shrunk_inside_one_block(monkeypatch, pattern):
    # a triangulated 12-gon (21 edges, no minor) shares a cut vertex with the
    # pattern itself; only the pattern's block is shrunk, at most one
    # decision per edge of it
    polygon = zigzag_triangulation(12)
    hub = "p00" if pattern == "K4" else "p05"
    if pattern == "K4":
        block = graph(list(itertools.combinations((hub, "q1", "q2", "q3"), 2)))
    else:
        block = graph([(a, b) for a in (hub, "q1") for b in ("q2", "q3", "q4")])
    g = FiniteGraph(polygon.vertices | block.vertices, polygon.edges | block.edges)
    name = {"K4": "has_k4_minor", "K23": "has_k23_minor"}[pattern]
    real, calls = getattr(minors, name), []
    monkeypatch.setattr(minors, name, lambda h: calls.append(h) or real(h))
    w = find_minor(g, pattern)
    validate_witness(g, w)
    assert set().union(*w.branch_sets.values()) <= block.vertices
    # the decision on g, at most one per block, then at most one per block
    # edge (every edge of the pattern is needed, so no batch is tried)
    assert len(calls) <= 1 + 2 + len(block.edges) < 1 + len(g.edges)


def shrink_one_edge_at_a_time(g, present):
    """Reference for _minimal_subgraph: each edge in canonical order is
    deleted alone when the decision stays true without it."""
    edges = set(g.edges)
    for e in g.sorted_edges():
        edges.remove(e)
        if not present(FiniteGraph(g.vertices, frozenset(edges))):
            edges.add(e)
    return FiniteGraph(frozenset(v for e in edges for v in e), frozenset(edges))


@st.composite
def crossed_zigzags(draw):
    """A zigzag-triangulated n-gon (n = 8..40) plus one chord, which crosses
    another since the triangulation is maximal outerplanar, with permuted
    vertex names."""
    g = zigzag_triangulation(draw(st.integers(8, 40)))
    vs = g.sorted_vertices()
    missing = [e for e in itertools.combinations(vs, 2) if canon_edge(*e) not in g.edges]
    chord = draw(st.sampled_from(missing))
    name = dict(zip(vs, draw(st.permutations(vs))))
    return FiniteGraph.build(vs, [(name[a], name[b]) for a, b in g.edges | {chord}])


@pytest.mark.parametrize("pattern", ["K4", "K23"])
@DIFF
@given(st.data())
def test_galloping_shrink_matches_one_edge_at_a_time(pattern, data):
    decide = DECISIONS[pattern]
    g = data.draw(st.one_of(simple_graphs().filter(decide), crossed_zigzags()))
    assert decide(g)
    assert minors._minimal_subgraph(g, decide) == shrink_one_edge_at_a_time(g, decide)


def test_decision_without_witness_raises(monkeypatch):
    monkeypatch.setattr(minors, "_subdivision_witness", lambda *_: None)
    with pytest.raises(InvariantError):
        find_minor(complete_graph(4), "K4")


def test_invalid_witness_raises(monkeypatch):
    w = find_minor(k23(), "K23")
    swapped = dict(w.branch_sets, a1=w.branch_sets["b1"], b1=w.branch_sets["a1"])
    bad = minors.MinorWitness("K23", swapped, w.edges)
    monkeypatch.setattr(minors, "_subdivision_witness", lambda *_: bad)
    with pytest.raises(InvariantError, match="witness is invalid"):
        find_minor(k23(), "K23")


# differential checks of the degree-2 elimination against networkx's
# planarity test, the independent oracle: g is outerplanar iff g plus a
# vertex joined to every vertex is planar


def outerplanar_by_apex_planarity(g):
    h = nx.Graph(list(g.edges))
    h.add_nodes_from(g.vertices)
    h.add_edges_from((("apex",), v) for v in g.vertices)
    return nx.check_planarity(h)[0]


def check_outerplanarity(g):
    """The verdict matches the oracle; on a 2-connected g so does
    ``circle_order``, and its cycle is the set of 2-contractible edges (a
    triangle is its own cycle)."""
    expect = outerplanar_by_apex_planarity(g)
    assert is_outerplanar(g) == expect
    if not is_two_connected(g):
        return
    order = circle_order(g)
    assert (order is not None) == expect
    if order is not None:
        cyc = {canon_edge(a, b) for a, b in zip(order, order[1:] + order[:1])}
        assert cyc == (g.edges if len(g.vertices) == 3 else two_contractible_edges(g))


def test_outerplanarity_matches_apex_planarity_on_all_graphs_to_8_vertices():
    for g in connected_graphs_upto(8):
        check_outerplanarity(g)


@DIFF
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3))
def test_outerplanarity_matches_apex_planarity_on_perturbed_dissections(seed, adds, cuts):
    rng = random.Random(seed)
    g = random_dissection(rng, max_n=40)
    edges = set(g.edges)
    vs = g.sorted_vertices()
    for _ in range(adds):
        edges.add(canon_edge(*rng.sample(vs, 2)))
    for _ in range(cuts):
        edges.discard(rng.choice(sorted(edges)))
    check_outerplanarity(FiniteGraph(g.vertices, frozenset(edges)))


def polygon_edges(n):
    names = [f"p{i:02d}" for i in range(n)]
    return {canon_edge(names[i - 1], names[i]) for i in range(n)}


@pytest.mark.parametrize(
    "g, cycle",
    [
        (complete_graph(4), None),
        (k23(), None),
        (graph(k23().edges | {("a1", "a2")}), None),
        (cycle_graph(3), cycle_graph(3).edges),
        (zigzag_triangulation(1000), polygon_edges(1000)),
        (graph(zigzag_triangulation(1000).edges | {("p00", "p500")}), None),
    ],
    ids=["K4", "K23", "K23-plus-a1a2", "triangle", "zigzag-1000", "zigzag-1000-crossed"],
)
def test_circle_order_named_cases(g, cycle):
    outer = cycle is not None
    assert is_outerplanar(g) == outerplanar_by_apex_planarity(g) == outer
    assert has_k23_minor(g) == (not outer and len(g.vertices) > 4)
    order = circle_order(g)
    if outer:
        assert {canon_edge(a, b) for a, b in zip(order, order[1:] + order[:1])} == cycle
    else:
        assert order is None


def test_crossing_chords_fail_the_certificate(monkeypatch):
    # a Hamilton cycle of K4 leaves its two diagonals crossing
    monkeypatch.setattr(minors, "_eliminate", lambda g: ["v0", "v1", "v2", "v3"])
    with pytest.raises(InvariantError, match="cross"):
        circle_order(complete_graph(4))
