"""The JSON graph interchange format.

Simple graphs::

    {"multi": false, "vertices": ["a", "b"], "edges": [["a", "b"]]}

Multigraphs set ``"multi": true`` and each edge is ``[id, "a", "b"]`` with a
unique integer id.  Vertex ids are JSON strings or numbers, no two of them
alike as strings: the library orders and names vertices by ``str``.  Unknown
top-level fields are rejected so that typos fail loudly instead of being
ignored.
"""

from __future__ import annotations

import json

from .graphs import FiniteGraph, GraphError, MultiGraph

_ALLOWED = {"multi", "vertices", "edges"}


def _vertex_id(x):
    # JSON strings and numbers only: anything else is unhashable or, like
    # true and false (of type bool), aliases a number
    if type(x) not in (str, int, float):
        raise GraphError(f"vertex id must be a string or a number: {x!r}")
    return x


def graph_from_obj(obj):
    if not isinstance(obj, dict):
        raise GraphError("graph document must be a JSON object")
    unknown = set(obj) - _ALLOWED
    if unknown:
        raise GraphError(f"unknown fields in graph document: {sorted(unknown)}")
    multi = obj.get("multi", False)
    if not isinstance(multi, bool):
        raise GraphError('"multi" must be a boolean')
    verts = obj.get("vertices")
    edges = obj.get("edges")
    if not isinstance(verts, list) or not isinstance(edges, list):
        raise GraphError('"vertices" and "edges" must be lists')
    verts = [_vertex_id(v) for v in verts]
    alike = {}
    for v in verts:
        w = alike.setdefault(str(v), v)
        if w is not v and w != v:
            raise GraphError(f"vertex ids {w!r} and {v!r} are alike as strings")
    if multi:
        recs = []
        for e in edges:
            if not isinstance(e, list) or len(e) != 3:
                raise GraphError(f"multigraph edge must be [id, a, b]: {e!r}")
            if type(e[0]) is not int:
                raise GraphError(f"multigraph edge id must be an integer: {e!r}")
            recs.append((e[0], _vertex_id(e[1]), _vertex_id(e[2])))
        return MultiGraph.build(verts, recs)
    pairs = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 2:
            raise GraphError(f"edge must be [a, b]: {e!r}")
        pairs.append((_vertex_id(e[0]), _vertex_id(e[1])))
    return FiniteGraph.build(verts, pairs)


def graph_to_obj(g):
    if isinstance(g, FiniteGraph):
        return {
            "multi": False,
            "vertices": g.sorted_vertices(),
            "edges": [[a, b] for a, b in g.sorted_edges()],
        }
    if isinstance(g, MultiGraph):
        return {
            "multi": True,
            "vertices": g.sorted_vertices(),
            "edges": [[eid, a, b] for eid, a, b in g.edges],
        }
    raise GraphError(f"not a graph: {g!r}")


def load_graph(path):
    with open(path) as fh:
        return graph_from_obj(json.load(fh))
