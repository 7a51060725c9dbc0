import re
from functools import lru_cache

import pytest

from conftest import cut_edges, subtree_vertices

from hamcircle.fragment import (
    ROLES,
    Fragment,
    FragmentTree,
    _validate_fragment,
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
    enumerate_hamilton_paths,
)
from hamcircle.lazy import BudgetError, deep_components, end_degree_bound


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
    assert enumerate_hamilton_paths(g.subgraph(g.vertices - {f.roles["u"]})) == []
    minus_r = enumerate_hamilton_paths(g.subgraph(g.vertices - {f.roles["r"]}))
    assert len(minus_r) == 2
    pu, pl = f.pendant_edge("u"), f.pendant_edge("l")
    for p in minus_r:
        es = {canon_edge(a, b) for a, b in zip(p, p[1:])}
        assert pu in es and pl in es


def test_missing_l_count_is_computed():
    # this count is derived, never hard-wired into the logic
    assert len(load_tutte_fragment().patterns["l"]) == 4


def test_patterns_are_the_hamilton_paths_as_edge_sets():
    # the cycles of the closed graph H are the gadget's paths without each
    # contact, edge for edge
    f = load_tutte_fragment()
    g = f.graph
    for m in ROLES:
        paths = enumerate_hamilton_paths(g.subgraph(g.vertices - {f.roles[m]}))
        assert set(f.patterns[m]) == {
            frozenset(canon_edge(a, b) for a, b in zip(p, p[1:])) for p in paths
        }, m
        assert len(f.patterns[m]) == len(paths)


def _gadget(drop=(), add=(), rename=None, **roles):
    """The Tutte gadget with edges dropped and added, vertices renamed and
    roles reassigned, not yet validated."""
    f = load_tutte_fragment()
    rename = rename or {}
    edges = (f.graph.edges - {canon_edge(*e) for e in drop}) | set(add)
    return Fragment(
        FiniteGraph.build({rename.get(x, x) for e in edges for x in e},
                          ([rename.get(x, x) for x in e] for e in edges)),
        {**f.roles, **roles},
    )


@pytest.mark.parametrize(
    "doctor, message",
    [
        ({"add": [("u", "p3")]}, "contact 'u' must have degree 1"),
        # p4-p5 subdivided by q
        ({"drop": [("p4", "p5")], "add": [("p4", "q"), ("q", "p5")]},
         "interior vertex 'q' must have degree 3"),
        ({"s": "p3"}, "c must be adjacent to exactly l, p3, t"),
        ({"rename": {"p9": "Z"}}, "no gadget vertex may be named 'Z'"),
        # r moved onto u's pendant p1, with p1-p9 swapped for p2-p9 so that
        # every interior vertex keeps degree 3
        ({"drop": [("r", "p2"), ("p1", "p9")], "add": [("r", "p1"), ("p2", "p9")]},
         "the contacts' pendants must be distinct"),
    ],
)
def test_malformed_gadgets_are_refused(doctor, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        _validate_fragment(_gadget(**doctor))


@pytest.mark.parametrize(
    "role, doctor, message",
    [
        ("u", lambda f: f.patterns["l"][:1], "expected 0 Hamilton paths without u, got 1"),
        ("r", lambda f: f.patterns["r"][:1], "expected 2 Hamilton paths without r, got 1"),
        ("r", lambda f: f.patterns["r"] + f.patterns["l"][:1],
         "expected 2 Hamilton paths without r, got 3"),
        ("r", lambda f: [f.patterns["r"][0], f.patterns["r"][1] - {f.pendant_edge("l")}],
         "a Hamilton path without r misses a pendant edge"),
    ],
)
def test_gadgets_with_wrong_patterns_are_refused(role, doctor, message):
    f = load_tutte_fragment()
    doctored = Fragment(f.graph, f.roles)
    # `patterns` is a cached property: an entry in the instance's dict
    # stands in for the cycle queries
    doctored.__dict__["patterns"] = {**f.patterns, role: doctor(f)}
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        _validate_fragment(doctored)


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


def test_limit_end_degree_bounds():
    lg = section5_graph()
    c = deep_components(lg, 1)[0]
    assert end_degree_bound(lg, c, "vertex", depth=6) == (3, 3)
    assert end_degree_bound(lg, c, "edge", depth=6) == (3, 3)


def reference_descend(f, path, x, via):
    """Where the copy's local edge via-x ends at x in the limit graph, as
    (copy path, local vertex), walked on every call: a c or v hands the
    edge on to its child's pendant."""
    while x in f.children:
        tag, nbrs = f.children[x]
        role = ROLES[nbrs.index(via)]
        path, via, x = path + tag, f.roles[role], f.pendants[role]
    return path, x


def reference_vertex(f, path, x):
    """Graph id of local vertex x of the copy at `path`; a contact is the
    vertex it stands for: Z at the root, else the parent's neighbour of the
    replaced c or v."""
    if x not in f.contacts:
        return f"F:{path}:{x}"
    if not path:
        return "Z"
    _, nbrs = f.children[f.roles[path[-1]]]
    return reference_vertex(f, path[:-1], nbrs[f.contacts.index(x)])


def reference_end(f, path, x, via):
    """The graph id where the copy's local edge via-x ends at x."""
    return reference_vertex(f, *reference_descend(f, path, x, via))


def test_edge_end_table_matches_the_walk():
    # both ends of all 24 local edges: a contact end names its role, any
    # other end is the walk from the root copy
    f = load_tutte_fragment()
    entries = [(a, b) for a in f.ends for b in f.ends[a]]
    assert len(f.graph.edges) == 24 and len(entries) == 48
    assert {frozenset(e) for e in entries} == {frozenset(e) for e in f.graph.edges}
    for a, b in entries:
        if b in f.contacts:
            assert f.ends[a][b] == (None, ROLES[f.contacts.index(b)])
        else:
            assert f.ends[a][b] == reference_descend(f, "", b, a)


def test_wiring_matches_the_walk():
    # the oracle on every vertex of region(6), and the edges, landings and
    # contacts of every copy of depth <= 4
    f = load_tutte_fragment()
    lg = section5_graph()
    for v in lg.hint.region(6):
        if v == "Z":
            want = [reference_end(f, "", f.pendants[m], f.roles[m]) for m in ROLES]
        else:
            _, path, x = v.split(":")
            want = [reference_end(f, path, y, x) for y in f.graph.adj[x]]
        assert lg.neighbors(v) == sorted(want), v
    for path in copy_paths(f, 4):
        for a, b in f.graph.edges:
            want = canon_edge(reference_end(f, path, a, b), reference_end(f, path, b, a))
            assert f.edge(path, a, b) == want
        for m in ROLES:
            assert f.land(path, m) == reference_end(f, path, f.pendants[m], f.roles[m])
            assert f.contact(path, m) == reference_vertex(f, path, f.roles[m])


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


def test_build_gn_asks_for_its_deep_components_once(monkeypatch):
    # the level window builds them, and the surrogates are named from it
    calls = []
    components = Fragment.components

    def spy(self, r):
        calls.append(r)
        return components(self, r)

    monkeypatch.setattr(Fragment, "components", spy)
    build_gn.cache_clear()
    for n in range(5):
        build_gn(n)
    assert calls == [0, 1, 2, 3, 4]


def test_section5_regions_and_components_in_any_order():
    lg = section5_graph()
    hint = lg.hint
    radii = [5, 2, 0, 3, 1, 4]
    first = {r: (hint.region(r), hint.components(r)) for r in radii}
    for r in sorted(radii):
        region, comps = first[r]
        # a fresh graph computes the same
        fresh = section5_graph().hint
        assert fresh.region(r) == region and fresh.components(r) == comps
        # the region is every vertex of depth <= r, already final one level on
        g, _ = build_gn(r + 1)
        assert region == {x for x in g.vertices if depth(x) <= r}
        # the component cuts are exactly the oracle's edges leaving the region
        cut = {(v, y) for v in region for y in lg.neighbors(v) if y not in region}
        assert {e for _, es in comps for e in es} == cut
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
        out.append((path, tuple(cut)))
    return region, tuple(out)


def test_section5_hint_matches_a_scan_of_the_builds():
    hint = section5_graph().hint
    for r in range(6):
        region, comps = reference_region_and_components(r)
        assert hint.region(r) == region
        assert hint.components(r) == comps


def _translate_form(lg, r, comp, depth):
    """A deep component at radius r explored to `depth` from its fingers,
    stopping at the level-r region, with every vertex ``F:<P><w>:<x>`` of
    the component at path P renamed (w, x): the explored vertices, the
    edges among them, each one's count of region neighbours, and the
    fingers in role order.  A neighbour that is neither in the region nor
    in P's subtree fails the renaming."""
    region = lg.hint.region(r)
    prefix = comp.comp_id

    def rename(v):
        tag, path, x = v.split(":", 2)
        assert tag == "F" and path.startswith(prefix), (v, prefix)
        return path[len(prefix):], x

    fingers = [b for _, b in comp.cut_edges]
    seen, level = set(fingers), fingers
    for _ in range(depth):
        level = [y for x in level for y in lg.neighbors(x) if y not in region and y not in seen]
        seen.update(level)
    names = {v: rename(v) for v in seen}
    assert len(set(names.values())) == len(names)  # one-to-one
    edges = {frozenset((names[x], names[y])) for x in seen for y in lg.neighbors(x) if y in seen}
    to_region = {names[x]: sum(y in region for y in lg.neighbors(x)) for x in seen}
    for x in seen:
        for y in lg.neighbors(x):
            if y not in region:
                rename(y)
    return frozenset(names.values()), frozenset(edges), to_region, tuple(map(rename, fingers))


def test_section5_deep_components_are_translates_of_one_another():
    # the check behind `component_class`, made without the classes' bounds:
    # at radii 0-4, the renaming P -> Q maps each component's exploration
    # onto every other's, so forms equal to the first one's are pairwise equal
    lg = section5_graph()
    hint = lg.hint
    comps = [(r, c) for r in range(5) for c in deep_components(lg, r)]
    assert len(comps) == 2 + 4 + 8 + 16 + 32
    assert {hint.component_class(c.comp_id) for _, c in comps} == {"subtree"}
    first = _translate_form(lg, *comps[0], 6)
    assert len(first[0]) > 3 and len(first[1]) >= len(first[0])
    for r, c in comps:
        assert _translate_form(lg, r, c, 6) == first, c.comp_id
        assert (len(c.cut_edges), len(c.fingers)) == (3, 3)


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
