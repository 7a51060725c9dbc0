import json

import pytest

from conftest import cycle_graph, multigraph
from hamcircle.graphs import GraphError
from hamcircle.jsonio import graph_from_obj, graph_to_obj, load_graph

NAN, INF = float("nan"), float("inf")


def test_simple_roundtrip(tmp_path):
    g = cycle_graph(5)
    p = tmp_path / "g.json"
    p.write_text(json.dumps(graph_to_obj(g)))
    assert load_graph(p) == g


@pytest.mark.parametrize(
    "edges",
    [
        [[0, "a", "b"], [1, "a", "b"], [2, "b", "c"]],
        [[0, "a", "b"], ["x", "a", "b"]],
        [["a", "b"], [0, "a", "z"]],
    ],
    ids=["digon", "string-edge-id", "malformed-edges"],
)
def test_multigraph_documents_are_refused(tmp_path, edges):
    # refused before the vertices and edges are read, so a malformed
    # document gets the same refusal as a well-formed one
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"multi": True, "vertices": ["a", "b", "c"], "edges": edges}))
    with pytest.raises(GraphError, match="^multigraphs are not supported here$"):
        load_graph(p)


def test_multigraphs_are_not_written():
    with pytest.raises(GraphError, match="not a simple graph"):
        graph_to_obj(multigraph([(0, "a", "b"), (1, "a", "b")]))


def test_unknown_field_rejected():
    with pytest.raises(GraphError):
        graph_from_obj({"multi": False, "vertices": ["a"], "edges": [], "color": 1})


def test_missing_vertex_rejected():
    with pytest.raises(GraphError):
        graph_from_obj({"multi": False, "vertices": ["a"], "edges": [["a", "b"]]})


def test_obj_is_deterministic():
    g = cycle_graph(4)
    assert graph_to_obj(g) == graph_to_obj(g)
    assert graph_to_obj(g)["vertices"] == sorted(graph_to_obj(g)["vertices"])


@pytest.mark.parametrize(
    "obj",
    [
        {"vertices": [[1]], "edges": []},
        {"vertices": ["a", "b"], "edges": [["a", ["b"]]]},
        {"vertices": [1, "1", "x"], "edges": [[1, "x"], ["1", "x"], [1, "1"]]},
        {"vertices": [1, 1.0, 2], "edges": [[1, 2], [1.0, 2]]},
        {"vertices": [0.0, -0.0, 2], "edges": [[0.0, 2]]},
        {"vertices": [1, 2], "edges": [[1.0, 2]]},
        {"vertices": [NAN, INF, 2], "edges": [[NAN, 2], [INF, 2]]},
        {"vertices": [2, -INF], "edges": [[2, -INF]]},
    ],
    ids=[
        "unhashable-vertex",
        "list-endpoint",
        "ids-alike-as-strings",
        "ids-equal-as-values",
        "signed-zeros",
        "endpoint-spelled-as-another-number",
        "non-finite-ids",
        "minus-infinity-endpoint",
    ],
)
def test_malformed_ids_rejected(obj):
    with pytest.raises(GraphError):
        graph_from_obj(obj)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]}, "edge must be [a, b]"),
        ({"vertices": ["a", "b"], "edges": ["ab"]}, "edge must be [a, b]"),
        ({"vertices": "ab", "edges": []}, '"vertices" and "edges" must be lists'),
        ({"vertices": ["a", "b"]}, '"vertices" and "edges" must be lists'),
        ({"multi": 0, "vertices": [], "edges": []}, '"multi" must be a boolean'),
    ],
    ids=["three-element-edge", "string-edge", "vertices-not-a-list", "edges-missing",
         "multi-not-a-boolean"],
)
def test_malformed_documents_rejected_by_message(obj, message):
    with pytest.raises(GraphError) as info:
        graph_from_obj(obj)
    assert str(info.value).startswith(message)
