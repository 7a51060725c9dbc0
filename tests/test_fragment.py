from functools import lru_cache

import pytest

from conftest import subtree_vertices

from hamcircle.fragment import (
    ROLES,
    FragmentTree,
    audit_tree,
    build_gn,
    copy_paths,
    load_tutte_fragment,
    section5_graph,
)
from hamcircle.graphs import (
    FiniteGraph,
    GraphError,
    InvariantError,
    canon_edge,
    cut_edges,
    enumerate_hamilton_paths,
)
from hamcircle.lazy import BudgetError, deep_components, end_degree_bound, end_nesting


def depth(vertex_id):
    """Fragment depth of a vertex id: the length of its copy's path."""
    return 0 if vertex_id == "Z" else len(vertex_id.split(":", 2)[1])


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
    assert len(load_tutte_fragment().hamilton_paths["l"]) == 4


def test_level_sizes_and_audits():
    expected = {
        0: 16, 1: 44, 2: 100, 3: 212, 4: 436, 5: 884, 6: 1780, 7: 3572, 8: 7156, 9: 14324
    }
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
        assert len(cut_edges(g, subtree_vertices(ft, path))) == 3


def test_limit_oracle_matches_finite_builds():
    # a copy of depth d has its children's children from level d + 2 on,
    # so its vertices' adjacency in every such build is the limit's
    lg = section5_graph()
    for n in range(9):
        g, _ = build_gn(n)
        for v in g.vertices:
            if depth(v) <= n - 2:
                assert set(lg.neighbors(v)) == g.adj[v], (n, v)
                assert len(lg.neighbors(v)) == 3


def test_limit_oracle_is_cubic_and_symmetric_past_the_builds():
    lg = section5_graph()
    region = lg.hint.region(9)
    assert len(region) == 1 + 13 * (2**10 - 1)
    for v in region:
        nbrs = lg.neighbors(v)
        assert len(set(nbrs)) == 3 and v not in nbrs
        for y in nbrs:
            assert v in lg.neighbors(y)


@pytest.mark.parametrize("v", ["", "F", "F:c", "F:x:p1", "F:c:c", "F:v:v", "F:c:u",
                               "F:cv:p1:", "G:c:p1", ("F", "c", "p1"), 7])
def test_limit_oracle_rejects_unknown_ids(v):
    # c and v of every copy are replaced in the limit; contacts are not ids
    with pytest.raises(GraphError, match="unknown vertex"):
        section5_graph().neighbors(v)


def test_section5_radius_past_the_vertex_budget():
    # region(r) holds 1 + 13 * (2^(r+1) - 1) vertices: 106,484 at r = 12,
    # 212,980 at r = 13; the check runs before anything is built
    hint = section5_graph().hint
    for r in (13, 40, 10**9):
        with pytest.raises(BudgetError, match="over the vertex budget"):
            hint.region(r)
        with pytest.raises(BudgetError, match="over the vertex budget"):
            hint.components(r)


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


def reference_attach(f, path, contacts, vertices, edges):
    """Add the interior of a fresh copy at `path`, its pendant edges wired
    to `contacts` (role -> id)."""
    local = {a: f"F:{path}:{a}" for a in f.interior}
    local.update(zip(f.contacts, (contacts[m] for m in ROLES)))
    vertices |= {local[x] for x in f.interior}
    edges |= {canon_edge(local[a], local[b]) for a, b in f.graph.edges}


def reference_expand(f, level):
    """One expansion step with the whole-edge-set filter per dead vertex,
    on a level given as (vertices, edges, contacts per copy, marked)."""
    vertices, edges, nodes, marked = level
    vertices, edges, nodes = set(vertices), set(edges), dict(nodes)
    new_marked = []
    for path in marked:
        for role in ("c", "v"):
            dead = f"F:{path}:{f.roles[role]}"
            vertices.discard(dead)
            edges = {e for e in edges if dead not in e}
        c_contacts = {
            "u": nodes[path]["l"],
            "l": f"F:{path}:{f.roles['s']}",
            "r": f"F:{path}:{f.roles['t']}",
        }
        v_contacts = {m: f"F:{path}:{f.roles[x]}" for m, x in zip(ROLES, "wxy")}
        for tag, contacts in (("c", c_contacts), ("v", v_contacts)):
            child = path + tag
            reference_attach(f, child, contacts, vertices, edges)
            nodes[child] = contacts
            new_marked.append(child)
    return vertices, edges, nodes, tuple(sorted(new_marked))


@lru_cache(maxsize=None)
def reference_level(n):
    """Level n of the construction by repeated expansion of the closed
    base level: one copy with its three contacts merged into Z."""
    f = load_tutte_fragment()
    if n > 0:
        return reference_expand(f, reference_level(n - 1))
    vertices, edges, contacts = {"Z"}, set(), dict.fromkeys(ROLES, "Z")
    reference_attach(f, "", contacts, vertices, edges)
    return vertices, edges, {"": contacts}, ("",)


def test_build_gn_matches_reference_expand():
    f = load_tutte_fragment()
    for n in range(9):
        vertices, edges, nodes, marked = reference_level(n)
        g, ft = build_gn(n)
        assert ft.level == n
        assert g.vertices == vertices
        assert g.edges == edges
        assert ft.marked == marked
        assert {p: {m: f.contact(p, m) for m in ROLES} for p in copy_paths(f, n)} == nodes


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
        g, _ = build_gn(r + 1)
        assert region == {x for x in g.vertices if depth(x) <= r}
        # the component cuts are exactly the oracle's edges leaving the region
        cut = {(v, y) for v in region for y in lg.neighbors(v) if y not in region}
        assert {e for _, _, es in comps for e in es} == cut
        assert len(comps) == 2 ** (r + 1)


def reference_region_and_components(r):
    """The level-r region and deep components scanned off the reference
    level-(r + 3) build: each copy of depth r + 1 roots a component, cut
    off by the edges from its contacts into its subtree, in role order."""
    vertices, edges, nodes, _ = reference_level(r + 3)
    adj = FiniteGraph(frozenset(vertices), frozenset(edges)).adj
    region = frozenset(x for x in vertices if depth(x) <= r)
    out = []
    for path in sorted(p for p in nodes if len(p) == r + 1):
        cut = []
        for m in ROLES:
            inside = nodes[path][m]
            assert inside in region
            (outside,) = (
                y for y in adj[inside] if depth(y) > r and y.split(":", 2)[1].startswith(path)
            )
            cut.append((inside, outside))
        out.append((path, frozenset(x for _, x in cut), tuple(cut)))
    return region, tuple(out)


def test_section5_hint_matches_a_scan_of_the_builds():
    hint = section5_graph().hint
    for r in range(6):
        region, comps = reference_region_and_components(r)
        assert hint.region(r) == region
        assert hint.components(r) == comps


def _swap_ends(g, e, f):
    """g with edges a-b and c-d replaced by a-d and c-b: every degree stays."""
    (a, b), (c, d) = e, f
    new = {canon_edge(a, d), canon_edge(c, b)}
    assert len({a, b, c, d}) == 4 and not new & g.edges
    return FiniteGraph(g.vertices, (g.edges - {e, f}) | new)


def _outside_edge(g, ft, avoid):
    """An edge with no end in a marked subtree, disjoint from `avoid` and
    from their neighbours."""
    inside = set().union(*(subtree_vertices(ft, p) for p in ft.marked))
    near = set(avoid).union(*(g.adj[x] for x in avoid))
    return next(
        e for e in g.sorted_edges() if not set(e) & inside and not set(e) & near
    )


@pytest.mark.parametrize("pendant", [True, False])
def test_audit_catches_a_changed_cut(pendant):
    g, ft = build_gn(2)
    first = ft.marked[0]
    sub = subtree_vertices(ft, first)
    if pendant:
        # move the copy's first pendant edge onto another outside vertex:
        # still three cut edges, but not the pendant ones
        e = ft.cut_edges_of(first)[0]
        expect = "differs from its pendant edges"
    else:
        # tie an interior edge to the outside: five cut edges
        e = next(e for e in g.sorted_edges() if set(e) <= sub)
        expect = "has a 5-edge boundary cut"
    bad = _swap_ends(g, e, _outside_edge(g, ft, e))
    assert all(bad.degree(x) == 3 for x in bad.vertices)
    with pytest.raises(InvariantError, match=expect):
        audit_tree(FragmentTree(ft.fragment, ft.level, bad))
