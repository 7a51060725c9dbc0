import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from hamcircle.graphs import FiniteGraph, MultiGraph


def graph(edges, extra_vertices=()):
    vs = set(extra_vertices)
    for a, b in edges:
        vs |= {a, b}
    return FiniteGraph.build(vs, edges)


def path_graph(n):
    return graph([(f"v{i}", f"v{i+1}") for i in range(n - 1)])


def cycle_graph(n):
    return graph([(f"v{i}", f"v{(i+1) % n}") for i in range(n)])


def complete_graph(n):
    vs = [f"v{i}" for i in range(n)]
    return graph(list(itertools.combinations(vs, 2)))


def two_connected_by_definition(g):
    """Reference for is_two_connected: at least 3 vertices, connected, and
    connected after removing any one vertex."""
    if len(g.vertices) < 3 or not g.is_connected():
        return False
    return all(g.without_vertex(v).is_connected() for v in g.vertices)


# differential tests of a fast path against its reference: reproducible runs
DIFF = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def simple_graphs(draw, max_n=9):
    """Simple graphs on 1..max_n vertices with permuted vertex names, so
    that name order and structure vary independently."""
    n = draw(st.integers(1, max_n))
    names = draw(st.permutations([f"x{i}" for i in range(n)]))
    pairs = list(itertools.combinations(names, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return FiniteGraph.build(names, chosen)


def multigraph(edges, extra_vertices=()):
    vs = set(extra_vertices)
    for _, a, b in edges:
        vs |= {a, b}
    return MultiGraph.build(vs, edges)


@pytest.fixture
def diamond():
    return graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")])


@pytest.fixture
def petersen():
    outer = [(f"o{i}", f"o{(i+1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i+2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    return graph(outer + inner + spokes)
