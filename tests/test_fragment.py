import pytest

from hamcircle.fragment import (
    ORACLE_LEVEL_CAP,
    FragmentTree,
    _depth_of,
    _fragment_local_edges,
    audit_tree,
    build_g0,
    build_gn,
    expand,
    fragment_t_minus_l_count,
    load_tutte_fragment,
    section5_graph,
)
from hamcircle.graphs import (
    FiniteGraph,
    GraphError,
    canon_edge,
    cut_edges,
    enumerate_hamilton_paths,
)
from hamcircle.lazy import deep_components, end_degree_bound, end_nesting


def test_fragment_loads_and_validates():
    f = load_tutte_fragment()
    assert f.graph.degree(f.roles["u"]) == 1
    assert f.graph.degree(f.roles["c"]) == 3
    assert len(f.graph.vertices) == 18


def test_fragment_defining_counts():
    f = load_tutte_fragment()
    g = f.graph
    assert enumerate_hamilton_paths(g.without_vertex(f.roles["u"])) == []
    minus_r = enumerate_hamilton_paths(g.without_vertex(f.roles["r"]))
    assert len(minus_r) == 2
    pu, pl = f.pendant_edge("u"), f.pendant_edge("l")
    for p in minus_r:
        es = {canon_edge(a, b) for a, b in zip(p, p[1:])}
        assert pu in es and pl in es


def test_missing_l_count_is_computed():
    # this count is derived, never hard-wired into the logic
    assert fragment_t_minus_l_count(load_tutte_fragment()) == 4


def test_level_sizes_and_audits():
    expected = {0: 16, 1: 44, 2: 100, 3: 212}
    for n, size in expected.items():
        g, ft = build_gn(n)
        assert len(g.vertices) == size
        audit_tree(ft)


def test_all_degrees_three():
    g, _ = build_gn(3)
    assert all(g.degree(v) == 3 for v in g.vertices)


def test_marked_subtree_cuts_are_three():
    g, ft = build_gn(2)
    for path in ft.marked:
        assert len(cut_edges(g, ft.subtree_vertices(path))) == 3


def test_level_cap():
    with pytest.raises(GraphError):
        build_gn(99)


def test_limit_oracle_matches_finite_builds():
    lg = section5_graph()
    g2, _ = build_gn(2)
    # depth <= 0 vertices already have their final adjacency at level 2
    for v in g2.vertices:
        depth = 0 if v == "Z" else len(v.split(":", 2)[1])
        if depth == 0:
            assert set(lg.neighbors(v)) == g2.adj[v]


def test_limit_deep_components():
    lg = section5_graph()
    comps = deep_components(lg, 1)
    assert len(comps) == 4
    assert sorted(c.comp_id for c in comps) == ["cc", "cv", "vc", "vv"]
    for c in comps:
        assert len(c.cut_edges) == 3


def test_limit_nesting():
    lg = section5_graph()
    mapping = end_nesting(lg, 1, 2)
    assert len(mapping) == 8
    for deep, shallow in mapping.items():
        assert deep.comp_id.startswith(shallow.comp_id)


def test_limit_end_degree_bounds():
    lg = section5_graph()
    c = deep_components(lg, 1)[0]
    assert end_degree_bound(lg, c, "vertex", depth=6) == (3, 3)
    assert end_degree_bound(lg, c, "edge", depth=6) == (3, 3)


def reference_expand(ft):
    """The expansion step with the whole-edge-set filter per dead vertex."""
    f = ft.fragment
    interior_edges, pendants = _fragment_local_edges(f)
    vertices = set(ft.graph.vertices)
    edges = set(ft.graph.edges)
    nodes = dict(ft.nodes)
    new_marked = []
    for path in ft.marked:
        for role in ("c", "v"):
            dead = ft.node_vertex(path, f.roles[role])
            vertices.discard(dead)
            edges = {e for e in edges if dead not in e}
        c_contacts = {
            "u": ft.nodes[path]["l"],
            "l": ft.node_vertex(path, f.roles["s"]),
            "r": ft.node_vertex(path, f.roles["t"]),
        }
        v_contacts = {
            "u": ft.node_vertex(path, f.roles["w"]),
            "l": ft.node_vertex(path, f.roles["x"]),
            "r": ft.node_vertex(path, f.roles["y"]),
        }
        for tag, contacts in (("c", c_contacts), ("v", v_contacts)):
            child = path + tag
            vertices |= {f"F:{child}:{x}" for x in f.interior}
            edges |= {canon_edge(f"F:{child}:{a}", f"F:{child}:{b}") for a, b in interior_edges}
            edges |= {canon_edge(contacts[r], f"F:{child}:{x}") for r, x in pendants.items()}
            nodes[child] = contacts
            new_marked.append(child)
    g = FiniteGraph(frozenset(vertices), frozenset(edges))
    return FragmentTree(f, ft.level + 1, g, nodes, tuple(sorted(new_marked)))


def test_expand_matches_reference_filter():
    ft = build_g0()
    for level in range(7):
        new, old = expand(ft), reference_expand(ft)
        assert new.level == old.level == level + 1
        assert new.graph.vertices == old.graph.vertices
        assert new.graph.edges == old.graph.edges
        assert new.nodes == old.nodes
        assert new.marked == old.marked
        ft = new


def test_section5_regions_and_components_once_per_radius():
    lg = section5_graph()
    hint = lg.hint
    radii = [5, 2, 0, 3, 1, 4]
    first = {r: (hint.region(r), hint.components(r)) for r in radii}
    for r in sorted(radii):
        region, comps = first[r]
        # later calls return the kept objects
        assert hint.region(r) is region and hint.components(r) is comps
        # a fresh graph computes the same
        fresh = section5_graph().hint
        assert fresh.region(r) == region and fresh.components(r) == comps
        # the region is every vertex of depth <= r, already final one level on
        g, _ = build_gn(r + 1, cap=ORACLE_LEVEL_CAP)
        assert region == {x for x in g.vertices if _depth_of(x) <= r}
        # the component cuts are exactly the oracle's edges leaving the region
        cut = {(v, y) for v in region for y in lg.neighbors(v) if y not in region}
        assert {e for _, _, es in comps for e in es} == cut
        assert len(comps) == 2 ** (r + 1)
