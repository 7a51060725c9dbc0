import json

import pytest

from conftest import cycle_graph, multigraph
from hamcircle.graphs import GraphError, MultiGraph
from hamcircle.jsonio import graph_from_obj, graph_to_obj, load_graph


def test_simple_roundtrip(tmp_path):
    g = cycle_graph(5)
    p = tmp_path / "g.json"
    p.write_text(json.dumps(graph_to_obj(g)))
    assert load_graph(p) == g


def test_multigraph_roundtrip(tmp_path):
    m = multigraph([(0, "a", "b"), (1, "a", "b"), (2, "b", "c")])
    p = tmp_path / "m.json"
    p.write_text(json.dumps(graph_to_obj(m)))
    back = load_graph(p)
    assert isinstance(back, MultiGraph)
    assert set(back.edges) == set(m.edges)


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
        {"multi": True, "vertices": ["a", "b"], "edges": [[0, "a", "b"], ["x", "a", "b"]]},
        {"vertices": [1, "1", "x"], "edges": [[1, "x"], ["1", "x"], [1, "1"]]},
    ],
    ids=["unhashable-vertex", "list-endpoint", "string-edge-id", "ids-alike-as-strings"],
)
def test_malformed_ids_rejected(obj):
    with pytest.raises(GraphError):
        graph_from_obj(obj)
