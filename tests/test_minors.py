import itertools

import pytest
from hypothesis import given

from conftest import DIFF, complete_graph, cycle_graph, graph, path_graph, simple_graphs
from hamcircle import minors
from hamcircle.corpus import connected_graphs_upto
from hamcircle.graphs import GraphError
from hamcircle.minors import (
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


def k23():
    return graph([(a, b) for a in ("a1", "a2") for b in ("b1", "b2", "b3")])


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
        paths = internally_disjoint_paths(g, a, b, 3, forbid_edge_ab=True)
        if len(paths) >= 3:
            return a, b, paths[:3]
    return None


def check_decisions(g):
    k4 = k4_subgraph_by_scan(g)
    assert find_k4_subgraph(g) == k4
    # the exhaustive router, which gives up only after every 4-set
    k4_minor = minors._k4_minor(g)
    assert has_k4_minor(g) == (k4_minor is not None)
    w = find_minor(g, "K4")
    assert (w is None) == (k4_minor is None)
    hubs = k23_hubs_by_all_pairs(g)
    assert has_k23_minor(g) == (hubs is not None)
    assert is_outerplanar(g) == (k4 is None and hubs is None)
    w = find_minor(g, "K23")
    if hubs is None:
        assert w is None
    else:
        a, b, paths = hubs
        expect = {"a1": frozenset([a]), "a2": frozenset([b])}
        expect.update((f"b{i + 1}", frozenset(p[1:-1])) for i, p in enumerate(paths))
        assert w.branch_sets == expect


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


def zigzag_triangulation(n):
    """An n-gon triangulated by a zigzag of n - 3 chords."""
    names = [f"p{i:02d}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    lo, hi = 0, n - 1
    while hi - lo > 2:
        if (hi - lo) % 2:
            lo += 1
        else:
            hi -= 1
        edges.append((names[lo], names[hi]))
    return graph(edges)


def test_no_minor_in_a_triangulated_40_gon():
    g = zigzag_triangulation(40)
    assert len(g.edges) == 2 * 40 - 3
    assert find_minor(g, "K4") is None
    assert find_minor(g, "K23") is None


def test_decision_without_witness_raises(monkeypatch):
    monkeypatch.setattr(minors, "_k4_minor", lambda g: None)
    with pytest.raises(GraphError):
        find_minor(complete_graph(4), "K4")
