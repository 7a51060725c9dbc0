import dataclasses
import random

import pytest

from conftest import cycle_graph, graph, multigraph, path_graph
from hamcircle import caterpillar as cat
from hamcircle.caterpillar import (
    _assert_partition_properties,
    _assert_square_path,
    caterpillar_partition,
    find_s_k13,
    hamilton_cycle_of_square,
    is_caterpillar,
    split_to_cycle,
    square_string,
)
from hamcircle.corpus import random_two_four_multigraph, trees_range
from hamcircle.graphs import (
    GraphError,
    InvariantError,
    enumerate_hamilton_cycles,
    eulerian_v_splits,
    is_eulerian,
    kth_power,
    v_split,
    vkey,
)


def sk13():
    return graph(
        [("z", "a1"), ("a1", "a2"), ("z", "b1"), ("b1", "b2"), ("z", "c1"), ("c1", "c2")]
    )


def k13():
    return graph([("z", "a"), ("z", "b"), ("z", "c")])


def test_is_caterpillar_examples():
    assert is_caterpillar(path_graph(5)) == ["v1", "v2", "v3"]
    assert is_caterpillar(k13()) == ["z"]
    assert is_caterpillar(sk13()) is None
    assert is_caterpillar(graph([("a", "b")])) == []
    with pytest.raises(GraphError):
        is_caterpillar(cycle_graph(4))


def test_find_s_k13_examples():
    assert find_s_k13(sk13()) is not None
    assert find_s_k13(path_graph(8)) is None
    spider221 = graph([("z", "a1"), ("a1", "a2"), ("z", "b1"), ("b1", "b2"), ("z", "c1")])
    assert find_s_k13(spider221) is None


def test_find_s_k13_refuses_a_non_tree():
    # contains the subdivided 3-star c-a-y, c-b-x, c-d-z, but a-x-b closes
    # a cycle: the witness search is defined on trees only
    g = graph([("c", "a"), ("c", "b"), ("c", "d"), ("a", "x"), ("a", "y"),
               ("b", "x"), ("d", "z")])
    with pytest.raises(GraphError, match="not a tree"):
        find_s_k13(g)


def test_partition_examples():
    t = graph([("v1", "v2"), ("v2", "v3"), ("v1", "l1"), ("v2", "l2")])
    part = caterpillar_partition(t)
    assert [sorted(c) for c in part.classes] == [["v1"], ["l1", "v2"], ["l2", "v3"]]
    assert part.jumping == ("v1", "v2", None)

    p3 = graph([("a", "b"), ("b", "c")])
    part3 = caterpillar_partition(p3)
    assert [sorted(c) for c in part3.classes] == [["b"], ["a", "c"]]

    part13 = caterpillar_partition(k13())
    assert [sorted(c) for c in part13.classes] == [["z"], ["a", "b", "c"]]


def test_spine_starts_at_its_lesser_end():
    # the partition's head class is the spine's first vertex, so the
    # orientation is pinned where is_caterpillar builds the spine
    seen = 0
    for t in trees_range(3, 10):
        spine = is_caterpillar(t)
        if spine is None:
            continue
        seen += 1
        assert vkey(spine[0]) <= vkey(spine[-1])
        part = caterpillar_partition(t)
        assert part.classes[0] == {spine[0]} and part.jumping[0] == spine[0]
        assert [j for j in part.jumping if j is not None] == spine
    # caterpillars on 3..10 vertices, up to isomorphism: 1 + 2 + 3 + 6 + 10
    # + 20 + 36 + 72 (OEIS A005418)
    assert seen == 150


def test_partition_distance_invariants():
    # every caterpillar partition asserts the order lemma internally;
    # here we re-check distances explicitly for one instance
    t = graph([("v1", "v2"), ("v2", "v3"), ("v2", "l1"), ("v3", "l2"), ("v3", "l3")])
    part = caterpillar_partition(t)
    for cls in part.classes:
        for a in cls:
            d = t.distances_from(a)
            assert all(d[b] == 2 for b in cls if b != a)


def _partition_check_by_search(part):
    """The partition certificate by definition, the reference for the
    linear one: the classes cover the vertices, one radius-2 search from
    each member finds every other member of its class at distance exactly
    2, and each jumping vertex is adjacent to all of the next class."""
    t = part.tree
    covered = set()
    for cls in part.classes:
        covered |= cls
    if covered != set(t.vertices):
        raise InvariantError("classes do not partition the vertex set")
    for cls in part.classes:
        for a in cls:
            dist = t.distances_from(a, limit=2)
            for b in cls:
                if a != b and dist.get(b) != 2:
                    raise InvariantError(f"{a},{b} not at distance 2")
    for i in range(len(part.classes) - 1):
        j = part.jumping[i]
        if j is None:
            raise InvariantError(f"class {i} has no jumping vertex")
        for b in part.classes[i + 1]:
            if b not in t.adj[j]:
                raise InvariantError(f"jumping vertex {j} not adjacent to {b}")


def _doctored(part):
    """Partitions one slip away from `part`: a member moved to another
    class (moved into the head, it may share no neighbour there), two
    neighbouring classes merged, a class split in two, a jumping vertex
    swapped for another vertex or None, a class dropped."""
    classes, jumping = list(part.classes), list(part.jumping)
    k = len(classes)
    out = []
    for i, cls in enumerate(classes):
        for v in sorted(cls, key=vkey):
            for n in range(k):
                if n != i:
                    moved = classes[:]
                    moved[i], moved[n] = cls - {v}, classes[n] | {v}
                    out.append((moved, jumping))
    for i in range(k - 1):
        merged = classes[:i] + [classes[i] | classes[i + 1]] + classes[i + 2:]
        for j in (jumping[i], jumping[i + 1]):
            out.append((merged, jumping[:i] + [j] + jumping[i + 2:]))
    for i, cls in enumerate(classes):
        members = sorted(cls, key=vkey)
        for cut in range(1, len(members)):
            for a, b in ((members[:cut], members[cut:]), (members[cut:], members[:cut])):
                j = jumping[i] if jumping[i] in a else a[0]
                out.append((classes[:i] + [frozenset(a), frozenset(b)] + classes[i + 1:],
                            jumping[:i] + [j, jumping[i]] + jumping[i + 1:]))
    for i in range(k):
        for v in part.tree.sorted_vertices() + [None]:
            if v != jumping[i]:
                out.append((classes, jumping[:i] + [v] + jumping[i + 1:]))
        out.append((classes[:i] + classes[i + 1:], jumping[:i] + jumping[i + 1:]))
    return [dataclasses.replace(part, classes=tuple(c), jumping=tuple(j)) for c, j in out]


def _refuses(check, part):
    try:
        check(part)
    except InvariantError:
        return True
    return False


def test_partition_certificate_agrees_with_distance_searches():
    # the linear certificate (independent classes with a common neighbour)
    # refuses exactly the partitions that the radius-2 searches refuse,
    # on every caterpillar of 3..10 vertices and each slip from its
    # partition
    trees = checked = refused = 0
    for t in trees_range(3, 10):
        if is_caterpillar(t) is None:
            continue
        trees += 1
        part = caterpillar_partition(t)
        _partition_check_by_search(part)
        for bad in _doctored(part):
            verdict = _refuses(_partition_check_by_search, bad)
            assert _refuses(_assert_partition_properties, bad) == verdict, bad
            checked += 1
            refused += verdict
    # both verdicts occur: 2,319 of the slips still pass
    assert (trees, checked, refused) == (150, 15333, 13014)


@pytest.mark.parametrize("classes, jumping, message", [
    (({"a", "b"}, {"c", "d"}), ("a", None), "^(a,b|b,a) not at distance 2$"),
    (({"a", "d"}, {"b"}, {"c"}), ("a", "b", None), "has no common neighbour"),
    (({"a"}, {"b", "d"}, {"c"}), ("a", "b", None), "jumping vertex a not adjacent to d"),
], ids=["adjacent-members", "head-without-common-neighbour", "member-past-the-jump"])
def test_partition_certificate_names_the_slip(classes, jumping, message):
    path = graph([("a", "b"), ("b", "c"), ("c", "d")])
    part = cat.OrderedCaterpillarPartition(path, tuple(map(frozenset, classes)), jumping)
    with pytest.raises(InvariantError, match=message):
        _assert_partition_properties(part)


def test_square_string_single_class():
    t = graph([("v1", "v2"), ("v2", "v3"), ("v1", "l1"), ("v2", "l2")])
    part = caterpillar_partition(t)
    # the middle class {v2, l1} as a closed-closed clique path
    s = square_string(part, "l1", "v2", True, True)
    assert set(s) == {"l1", "v2"}


def test_square_string_parity_error():
    part = caterpillar_partition(path_graph(6))
    members = [min(c) for c in part.classes]
    with pytest.raises(GraphError):
        square_string(part, members[0], members[1], True, True)


def test_square_string_contract():
    # every caterpillar on 3..9 vertices, every endpoint pair, all four
    # closure flags: a refusal is a GraphError; a string runs from v to w
    # on the classes of their parity between them, covers the inner ones
    # and each closed end class fully, an open end class only at its
    # endpoint, and steps to vertices within distance 2
    made = 0
    for t in trees_range(3, 9):
        if is_caterpillar(t) is None:
            continue
        part = caterpillar_partition(t)
        idx = part.index_of
        for v in t.vertices:
            for w in t.vertices:
                for left, right in [(False, False), (False, True), (True, False), (True, True)]:
                    try:
                        path = square_string(part, v, w, left, right)
                    except GraphError:
                        continue
                    made += 1
                    iv, iw = idx[v], idx[w]
                    assert path[0] == v and (path[-1] == w or v == w)
                    assert len(set(path)) == len(path)
                    for i, cls in enumerate(part.classes):
                        on = set(path) & cls
                        if i < iv or i > iw or (i - iv) % 2:
                            assert not on
                        elif iv < i < iw or (i == iv and left) or (i == iw and right):
                            assert on == cls
                        else:
                            assert on == {v, w} & cls
                    for a, b in zip(path, path[1:]):
                        assert t.distances_from(a, limit=2).get(b, 3) <= 2
    # the refusals are pinned too: 8,038 of the 20,072 requests are strings
    assert made == 8038


def test_square_path_check():
    # the check inside every square string: distance 1 or 2, no repeats
    part = caterpillar_partition(path_graph(6))
    _assert_square_path(part, ["v1", "v2", "v4", "v3"])
    for bad in (["v1", "v4"], ["v1", "v3", "v1"]):
        with pytest.raises(InvariantError):
            _assert_square_path(part, bad)


def test_square_cycle_p3_triangle():
    c = hamilton_cycle_of_square(path_graph(3))
    assert len(c) == 3


def test_square_cycle_k13():
    c = hamilton_cycle_of_square(k13())
    assert len(c) == 4


def test_square_cycle_on_all_small_paths():
    for n in range(3, 9):
        t = path_graph(n)
        cyc = hamilton_cycle_of_square(t)
        sq = kth_power(t, 2)
        assert cyc <= sq.edges
        assert len(cyc) == n


@pytest.mark.parametrize(
    "doctor, message",
    [(lambda seq: seq[:-1], "every vertex once"), (lambda seq: seq[::-1], "not an edge")],
    ids=["drops-a-vertex", "reversed-sweep"],
)
def test_square_cycle_certificate_catches_a_bad_sweep(monkeypatch, doctor, message):
    # the cycle is certified as a permutation of the vertices whose
    # cyclically consecutive pairs lie within distance 2
    real = cat.square_string
    monkeypatch.setattr(cat, "square_string", lambda *args: doctor(real(*args)))
    with pytest.raises(InvariantError, match=message):
        hamilton_cycle_of_square(path_graph(7))


def test_square_of_sk13_not_hamiltonian():
    assert enumerate_hamilton_cycles(kth_power(sk13(), 2)) == []
    with pytest.raises(GraphError):
        hamilton_cycle_of_square(sk13())


@pytest.mark.parametrize(
    "edges, m, cycle",
    [
        (
            [("v1", "v2"), ("v2", "v3"), ("v1", "a"), ("v2", "b"), ("v2", "c"),
             ("v3", "d"), ("v3", "e")],
            3,
            [["a", "v1"], ["a", "v2"], ["b", "c"], ["b", "v1"], ["c", "v3"],
             ["d", "e"], ["d", "v3"], ["e", "v2"]],
        ),
        (
            [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v1", "a"), ("v2", "b"),
             ("v2", "c"), ("v3", "d"), ("v4", "e"), ("v4", "f")],
            4,
            [["a", "v1"], ["a", "v2"], ["b", "c"], ["b", "v1"], ["c", "v3"],
             ["d", "v2"], ["d", "v4"], ["e", "f"], ["e", "v3"], ["f", "v4"]],
        ),
    ],
    ids=["odd-last-class", "even-last-class"],
)
def test_square_cycle_is_pinned(edges, m, cycle):
    # the exact cycle is part of the CLI's output: the outward sweep over
    # the even classes and the return over the odd ones must not change it
    t = graph(edges)
    assert len(caterpillar_partition(t).classes) - 1 == m
    assert sorted(sorted(e) for e in hamilton_cycle_of_square(t)) == cycle


def _bowtie_multigraph():
    return multigraph(
        [
            (0, "a", "b"),
            (1, "b", "c"),
            (2, "c", "a"),
            (3, "c", "d"),
            (4, "d", "e"),
            (5, "e", "c"),
        ]
    )


def test_split_to_cycle_c5():
    c5 = multigraph([(i, f"v{i}", f"v{(i+1) % 5}") for i in range(5)])
    cyc, hist = split_to_cycle(c5)
    assert hist == []
    assert set(cyc.edges) == set(c5.edges)


def test_split_to_cycle_bowtie():
    cyc, hist = split_to_cycle(_bowtie_multigraph())
    assert len(hist) == 1
    assert len(cyc.vertices) == 6
    assert all(len(cyc.incidence[v]) == 2 for v in cyc.vertices)
    assert is_eulerian(cyc)


def test_split_to_cycle_two_degree_four_vertices():
    # four parallel edges: both vertices have degree 4
    m = multigraph([(0, "a", "b"), (1, "a", "b"), (2, "a", "b"), (3, "a", "b")])
    cyc, hist = split_to_cycle(m)
    assert all(len(cyc.incidence[v]) == 2 for v in cyc.vertices)
    assert len(hist) == 2
    assert is_eulerian(cyc)


def test_split_to_cycle_rejects_bad_inputs():
    # degree 6 at the center
    m = multigraph(
        [(0, "a", "b"), (1, "a", "b"), (2, "a", "c"), (3, "a", "c"), (4, "a", "d"), (5, "a", "d")]
    )
    with pytest.raises(GraphError):
        split_to_cycle(m)
    with pytest.raises(GraphError):
        split_to_cycle(multigraph([(0, "a", "b"), (1, "b", "c")]))


def test_split_to_cycle_takes_the_first_eulerian_split_at_each_step():
    rng = random.Random(7)
    for _ in range(200):
        m = random_two_four_multigraph(rng)
        cyc, hist = split_to_cycle(m)
        fours = sorted((v for v in m.vertices if m.degree(v) == 4), key=vkey)
        assert len(hist) == len(fours)
        cur = m
        for v, split in zip(fours, hist):
            assert split == eulerian_v_splits(cur, v)[0]
            # the same split from the first pairing whose rebuilt split is
            # Eulerian, in (ab|cd), (ac|bd), (ad|bc) order
            a, b, c, d = sorted(eid for eid, _ in cur.incidence[v])
            pairings = (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))
            splits = (v_split(cur, v, *p) for p in pairings)
            assert split == next(s for s in splits if is_eulerian(s))
            cur = split
        assert cyc == cur


def test_split_to_cycle_names_a_vertex_without_eulerian_split(monkeypatch):
    monkeypatch.setattr(cat, "_eulerian_pairings", lambda m, v: [])
    with pytest.raises(InvariantError, match="'c'"):
        split_to_cycle(_bowtie_multigraph())
