import json
import math
import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    DIFF,
    complete_graph,
    contract_subgraph,
    cycle_graph,
    graph,
    k23,
    path_graph,
    simple_graphs,
    two_connected_by_definition,
    zigzag_triangulation,
)
from hamcircle import cli, minors
from hamcircle.corpus import (
    connected_graphs_upto,
    random_dissection,
    random_two_connected,
    two_connected_outerplanar,
)
from hamcircle.graphs import (
    GraphError,
    InvariantError,
    canon_edge,
    ekey,
    enumerate_hamilton_cycles,
    vkey,
)
from hamcircle.jsonio import graph_to_obj
from hamcircle.outerplanar import (
    DiskLayout,
    check_quotient_two_connected,
    check_struct1,
    contraction_quotient,
    disk_layout,
    layout_to_svg,
    positions_cross,
    two_contractible_edges,
    unique_hamilton_cycle_outerplanar,
)


def diamond():
    return graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")])


def fan5():
    return graph(
        [("a", "b"), ("b", "c"), ("c", "d"), ("h", "a"), ("h", "b"), ("h", "c"), ("h", "d")]
    )


def test_two_contractible_c5():
    c5 = cycle_graph(5)
    assert two_contractible_edges(c5) == c5.edges


def test_two_contractible_diamond():
    got = two_contractible_edges(diamond())
    expect = {
        canon_edge("a", "b"),
        canon_edge("b", "c"),
        canon_edge("c", "d"),
        canon_edge("d", "a"),
    }
    assert got == frozenset(expect)


def test_two_contractible_triangle_empty():
    assert two_contractible_edges(cycle_graph(3)) == frozenset()


def test_two_contractible_requires_two_connected():
    with pytest.raises(GraphError):
        two_contractible_edges(graph([("a", "b"), ("b", "c")]))


def two_contractible_by_contraction(g):
    """Reference: contract each edge and test the result by definition."""
    return frozenset(
        e for e in g.edges if two_connected_by_definition(contract_subgraph(g, set(e)))
    )


def check_two_contractible(g):
    if two_connected_by_definition(g):
        assert two_contractible_edges(g) == two_contractible_by_contraction(g)
    else:
        with pytest.raises(GraphError):
            two_contractible_edges(g)


def test_two_contractible_matches_contraction_on_small_graphs():
    for g in connected_graphs_upto(7):
        check_two_contractible(g)


@DIFF
@given(simple_graphs())
def test_two_contractible_matches_contraction(g):
    check_two_contractible(g)


def two_contractible_by_deletion(g):
    """Reference: the edges ab with g - {a, b} connected (n >= 4)."""
    return frozenset(e for e in g.edges if g.subgraph(g.vertices - set(e)).is_connected())


def test_two_contractible_matches_deletion_on_dissections():
    for g in two_connected_outerplanar(4, 8):
        assert two_contractible_edges(g) == two_contractible_by_deletion(g)


def test_two_contractible_matches_deletion_on_random_two_connected_graphs():
    rng = random.Random(11)
    for _ in range(300):
        g = random_two_connected(rng, 12)
        assert two_contractible_edges(g) == two_contractible_by_deletion(g)


def test_unique_cycle_triangle_exception():
    c3 = cycle_graph(3)
    assert unique_hamilton_cycle_outerplanar(c3) == c3.edges


def test_unique_cycle_diamond_and_fan():
    for g in (diamond(), fan5(), cycle_graph(6)):
        got = frozenset(unique_hamilton_cycle_outerplanar(g))
        cycles = enumerate_hamilton_cycles(g)
        assert len(cycles) == 1
        assert cycles[0] == got


def reference_cycle_and_layout(g):
    """Reference for the cycle and the layout, built from the paper's
    characterisation: the 2-contractible edges (a triangle is its own
    cycle), walked from the least vertex toward its lesser neighbour."""
    cyc = g.edges if len(g.vertices) == 3 else two_contractible_edges(g)
    nbr = {v: [] for v in g.vertices}
    for a, b in cyc:
        nbr[a].append(b)
        nbr[b].append(a)
    start = min(g.vertices, key=vkey)
    order = [start, min(nbr[start], key=vkey)]
    while len(order) < len(g.vertices):
        prev, cur = order[-2:]
        order.append(next(x for x in nbr[cur] if x != prev))
    n = len(order)
    layout = DiskLayout(
        tuple((v, 2 * math.pi * i / n) for i, v in enumerate(order)),
        tuple(sorted(cyc, key=ekey)),
        tuple(sorted(g.edges - cyc, key=ekey)),
    )
    return cyc, layout


def check_against_reference(g):
    cyc, layout = reference_cycle_and_layout(g)
    assert unique_hamilton_cycle_outerplanar(g) == cyc
    assert disk_layout(g) == layout


def test_cycle_and_layout_match_reference_on_dissections():
    for g in two_connected_outerplanar(3, 9):
        check_against_reference(g)


@DIFF
@given(st.integers(0, 2**32 - 1))
def test_cycle_and_layout_match_reference_on_random_dissections(seed):
    check_against_reference(random_dissection(random.Random(seed)))


@pytest.mark.parametrize("n", [100, 400])
def test_cycle_and_layout_match_reference_on_zigzags(n):
    check_against_reference(zigzag_triangulation(n))


@pytest.mark.parametrize(
    "g, message",
    [
        (path_graph(4), "graph is not 2-connected"),
        (complete_graph(4), "graph is not outerplanar"),
        (k23(), "graph is not outerplanar"),
    ],
    ids=["path", "K4", "K23"],
)
def test_cycle_and_layout_reject_other_graphs(g, message):
    for f in (unique_hamilton_cycle_outerplanar, disk_layout):
        with pytest.raises(GraphError, match=message):
            f(g)


def swap_first_two(order):
    return [order[1], order[0]] + order[2:]


def twice_round(order):
    return order + order


@pytest.mark.parametrize("doctor", [swap_first_two, twice_round])
def test_rotation_that_is_no_hamilton_cycle_is_an_invariant_failure(
    monkeypatch, tmp_path, capsys, doctor
):
    real = minors._eliminate
    monkeypatch.setattr(minors, "_eliminate", lambda g: doctor(real(g)))
    c5 = cycle_graph(5)
    for f in (unique_hamilton_cycle_outerplanar, disk_layout):
        with pytest.raises(InvariantError, match="not a Hamilton cycle"):
            f(c5)
    path = tmp_path / "c5.json"
    path.write_text(json.dumps(graph_to_obj(c5)))
    code = cli.main(["outerplanar", str(path), "--cycle"])
    captured = capsys.readouterr()
    assert code == cli.INVARIANT == 4
    assert captured.out == ""
    assert "not a Hamilton cycle" in captured.err


def test_contraction_quotient_examples():
    c6 = cycle_graph(6)
    q = contraction_quotient(c6, {"v0", "v1", "v2"})
    assert len(q.vertices) == 4 and len(q.edges) == 4
    assert contraction_quotient(c6, c6.vertices) == c6
    # chord endpoints: b and d become singleton components, diamond returns
    d = diamond()
    q2 = contraction_quotient(d, {"a", "c"})
    assert len(q2.vertices) == 4 and len(q2.edges) == 5


def test_quotient_two_connected_examples():
    assert check_quotient_two_connected(cycle_graph(6), {"v0", "v1", "v2"})
    assert check_quotient_two_connected(complete_graph(4), {"v0", "v1", "v2"})
    with pytest.raises(GraphError):
        check_quotient_two_connected(cycle_graph(6), {"v0", "v2", "v4"})


def test_quotient_two_connected_refuses_non_vertices():
    with pytest.raises(GraphError, match="contains non-vertices"):
        check_quotient_two_connected(cycle_graph(6), {"v0", "v1", "zz"})


def test_struct1_refuses_non_vertices():
    with pytest.raises(GraphError, match="contains non-vertices"):
        check_struct1(cycle_graph(4), {"zz"})


def test_struct1_examples():
    assert check_struct1(cycle_graph(8), {"v0"}) == []
    assert check_struct1(diamond(), {"c"}) == []
    k23 = graph([(a, b) for a in ("a1", "a2") for b in ("b1", "b2", "b3")])
    with pytest.raises(GraphError):
        check_struct1(k23, {"a1"})


def test_disk_layout_c4():
    layout = disk_layout(cycle_graph(4))
    assert len(layout.chords) == 0
    assert len(layout.boundary) == 4


def test_disk_layout_diamond_and_fan():
    lay = disk_layout(diamond())
    assert len(lay.chords) == 1
    lay2 = disk_layout(fan5())
    assert len(lay2.chords) == 2
    # angles strictly increasing and uniform
    angles = [a for _, a in lay2.placements]
    assert all(b > a for a, b in zip(angles, angles[1:]))
    step = 2 * math.pi / len(angles)
    assert all(abs(a - i * step) < 1e-9 for i, a in enumerate(angles))


def test_chords_do_not_cross():
    lay = disk_layout(fan5())
    pos = {v: i for i, (v, _) in enumerate(lay.placements)}
    spans = [sorted((pos[a], pos[b])) for a, b in lay.chords]
    for i, p in enumerate(spans):
        for q in spans[i + 1 :]:
            assert not positions_cross(p, q)


def test_svg_output():
    svg = layout_to_svg(disk_layout(diamond()))
    assert svg.startswith("<svg") or "<svg" in svg
    assert "512" in svg and "line" in svg


@pytest.mark.parametrize(
    "names",
    [
        ["a<b", "c&d", "e", "f"],
        ['x"y', "p>q", "</text><script>", "&amp;"],
    ],
    ids=["lt-amp", "quote-gt-markup"],
)
def test_svg_labels_are_escaped(names):
    # the SVG parses as XML and every label reads back as its vertex id
    g = graph(list(zip(names, names[1:] + names[:1])))
    root = ET.fromstring(layout_to_svg(disk_layout(g)))
    labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert sorted(labels) == sorted(names)
    assert not list(root.iter("{http://www.w3.org/2000/svg}script"))
