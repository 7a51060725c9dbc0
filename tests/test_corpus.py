import random
from importlib import resources

import networkx as nx
import pytest

from hamcircle import corpus
from hamcircle.corpus import (
    CONNECTED_COUNTS,
    connected_atlas,
    connected_graphs_8,
    connected_graphs_upto,
    random_connected_subset,
    random_dissection,
    random_eulerian_multigraph,
    random_two_connected,
    random_two_four_multigraph,
    trees_range,
    two_connected_outerplanar,
)
from hamcircle.graphs import FiniteGraph, GraphError, is_eulerian, is_two_connected
from hamcircle.minors import has_k23_minor, is_outerplanar

# ---------------------------------------------------------------------------
# reference generators: the straightforward versions the corpus replaced


def from_nx(g):
    """A networkx graph on v0, v1, ..., named in the ``str`` order of its
    nodes."""
    name = {v: f"v{i}" for i, v in enumerate(sorted(g.nodes(), key=str))}
    return FiniteGraph.build(name.values(), [(name[a], name[b]) for a, b in g.edges()])


def dedup_by_vf2(graphs):
    """The first networkx graph of each isomorphism class, in list order
    (degree buckets, then VF2 within a bucket)."""
    buckets = {}
    out = []
    for g in graphs:
        deg = dict(g.degree())
        key = tuple(sorted((deg[v], tuple(sorted(deg[u] for u in g[v]))) for v in g))
        bucket = buckets.setdefault(key, [])
        if any(nx.is_isomorphic(g, h) for h in bucket):
            continue
        bucket.append(g)
        out.append(g)
    return out


def dissections_by_vf2(n_min, n_max):
    out = []
    for n in range(n_min, n_max + 1):
        candidates = []
        for chords in corpus._noncrossing_chord_subsets(n):
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from((i, (i + 1) % n) for i in range(n))
            g.add_edges_from(chords)
            candidates.append(g)
        out.extend(from_nx(g) for g in dedup_by_vf2(candidates))
    return out


def atlas_by_scan(n):
    """The connected n-vertex graphs, from a scan of the whole atlas."""
    return [
        from_nx(g)
        for g in nx.graph_atlas_g()
        if g.number_of_nodes() == n and nx.is_connected(g)
    ]


def graph6_by_networkx(text):
    return [from_nx(nx.from_graph6_bytes(line)) for line in text.split()]


# A001004: dissections of a polygon up to rotations and reflections
DISSECTIONS = {3: 1, 4: 2, 5: 3, 6: 9, 7: 20, 8: 75, 9: 262, 10: 1117}


def test_dissections_match_vf2_reference():
    # equal as lists: the same graphs, order and representatives
    assert two_connected_outerplanar(3, 9) == dissections_by_vf2(3, 9)


def test_dissection_counts():
    counts = {}
    for g in two_connected_outerplanar(3, 10):
        counts[len(g.vertices)] = counts.get(len(g.vertices), 0) + 1
    assert counts == DISSECTIONS


def test_connected_graphs_upto_matches_atlas_scan():
    expected = [[]]
    for k in range(1, 8):
        expected.append(expected[-1] + atlas_by_scan(k))
        assert connected_graphs_upto(k) == expected[k]
    assert connected_graphs_upto(0) == []


def test_connected8_matches_networkx_decoding():
    text = resources.files("hamcircle.data").joinpath("connected8.g6").read_bytes()
    assert connected_graphs_8() == graph6_by_networkx(text)


def test_graph6_names_vertices_as_networkx_does():
    # past 10 vertices the names follow the string order of the indices
    rng = random.Random(5)
    for n in range(1, 16):
        for _ in range(5):
            g = nx.gnp_random_graph(n, rng.random(), seed=rng.randrange(10**6))
            text = nx.to_graph6_bytes(g, header=False)
            assert corpus._read_graph6(text, n) == graph6_by_networkx(text)


@pytest.mark.parametrize("n", [0, 8])
def test_atlas_range_is_checked(n):
    with pytest.raises(GraphError):
        connected_atlas(n)


def test_atlas_counts():
    for n in (4, 5, 6, 7):
        assert len(connected_atlas(n)) == CONNECTED_COUNTS[n]


def test_connected8_cache():
    graphs = connected_graphs_8()
    assert len(graphs) == CONNECTED_COUNTS[8]
    assert all(len(g.vertices) == 8 for g in graphs[:50])
    assert all(g.is_connected() for g in graphs[:50])


def test_two_connected_outerplanar_corpus():
    corpus = two_connected_outerplanar(4, 7)
    assert corpus
    for g in corpus:
        assert is_two_connected(g)
        assert is_outerplanar(g)
    # on 4 vertices: the 4-cycle and the diamond (K4 is not outerplanar)
    assert sum(1 for g in corpus if len(g.vertices) == 4) == 2


def test_tree_counts():
    # numbers of non-isomorphic trees on 3..10 vertices
    counts = {}
    for t in trees_range(3, 10):
        counts[len(t.vertices)] = counts.get(len(t.vertices), 0) + 1
    assert counts == {3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


def test_random_eulerian_sources_are_valid():
    rng = random.Random(7)
    for _ in range(50):
        m = random_eulerian_multigraph(rng)
        assert is_eulerian(m)
        assert any(len(m.incidence[v]) == 4 for v in m.vertices)
        m2 = random_two_four_multigraph(rng)
        assert is_eulerian(m2)
        degs = {len(m2.incidence[v]) for v in m2.vertices}
        assert degs <= {2, 4} and 4 in degs


def test_random_structured_sources():
    rng = random.Random(11)
    for _ in range(30):
        g = random_two_connected(rng)
        assert is_two_connected(g)
        d = random_dissection(rng)
        assert is_two_connected(d) and not has_k23_minor(d)
        k = random_connected_subset(rng, g, 3)
        assert len(k) >= 3
        sub = g.subgraph(k)
        assert sub.is_connected()
