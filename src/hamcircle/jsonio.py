"""The JSON graph interchange format.

Simple graphs::

    {"multi": false, "vertices": ["a", "b"], "edges": [["a", "b"]]}

A multigraph document (``"multi": true``) is refused before its vertices
and edges are read: every reader works on simple graphs, and the CLI exits
2 on it.  Vertex ids are JSON strings or numbers, no two of them alike as
strings or equal as values, and each edge endpoint is written as the id it
names: the library orders and names vertices by ``str``.  The non-standard
constants ``NaN``, ``Infinity`` and ``-Infinity`` that Python's `json`
parses are refused.
Unknown top-level fields are rejected so that typos fail loudly instead of
being ignored.
"""

from __future__ import annotations

import json
import math

from .graphs import FiniteGraph, GraphError

_ALLOWED = {"multi", "vertices", "edges"}


def _vertex_id(x):
    # JSON strings and numbers only: anything else is unhashable or, like
    # true and false (of type bool), aliases a number; NaN and the
    # infinities are not JSON numbers, and NaN is not even equal to itself
    if type(x) not in (str, int, float):
        raise GraphError(f"vertex id must be a string or a number: {x!r}")
    if type(x) is float and not math.isfinite(x):
        raise GraphError(f"vertex id must be a finite number: {x!r}")
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
    if multi:
        raise GraphError("multigraphs are not supported here")
    verts = obj.get("vertices")
    edges = obj.get("edges")
    if not isinstance(verts, list) or not isinstance(edges, list):
        raise GraphError('"vertices" and "edges" must be lists')
    if all(type(v) is str for v in verts):
        # str ids are alike as strings exactly when they are equal as
        # values, and then they are the same id, so neither rule below can
        # refuse them, and an edge of two str endpoints passes every
        # endpoint check.  Any other document is read the long way, which
        # words each refusal.
        pairs = [(e[0], e[1]) for e in edges
                 if type(e) is list and len(e) == 2 and type(e[0]) is str and type(e[1]) is str]
        if len(pairs) == len(edges):
            return FiniteGraph.build(verts, pairs)
    verts = [_vertex_id(v) for v in verts]
    by_str, by_value = {}, {}
    for v in verts:
        w = by_str.setdefault(str(v), v)
        if w is not v and w != v:
            raise GraphError(f"vertex ids {w!r} and {v!r} are alike as strings")
        w = by_value.setdefault(v, v)
        if str(w) != str(v):
            raise GraphError(f"vertex ids {w!r} and {v!r} are equal as values")

    def endpoint(x):
        x = _vertex_id(x)
        w = by_value.get(x, x)
        if str(w) != str(x):
            raise GraphError(f"edge endpoint {x!r} differs from the vertex id {w!r}")
        return x

    pairs = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 2:
            raise GraphError(f"edge must be [a, b]: {e!r}")
        pairs.append((endpoint(e[0]), endpoint(e[1])))
    return FiniteGraph.build(verts, pairs)


def graph_to_obj(g):
    if not isinstance(g, FiniteGraph):
        raise GraphError(f"not a simple graph: {type(g).__name__}")
    return {
        "multi": False,
        "vertices": g.sorted_vertices(),
        "edges": [[a, b] for a, b in g.sorted_edges()],
    }


def load_graph(path):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise GraphError("graph document is nested too deeply") from None
    return graph_from_obj(obj)
