"""Acceptance gate: one test per acceptance criterion, exact checks.

Each test prints a single CRITERION line so a `pytest -v` run reads as a
per-criterion pass/fail report.
"""

import random
import sys
import time

from conftest import cut_edges, subtree_vertices
from hamcircle import caterpillar as cat
from hamcircle import checker, corpus, minors, outerplanar
from hamcircle.fragment import (
    audit_tree,
    build_gn,
    load_tutte_fragment,
    section5_graph,
)
from hamcircle.graphs import (
    canon_edge,
    enumerate_hamilton_cycles,
    enumerate_hamilton_paths,
    eulerian_v_splits,
    kth_power,
)
from hamcircle.lazy import deep_components, double_ladder, end_degree_bound

SEED = 20260823


def report(num, label, elapsed):
    print(f"CRITERION {num} ({label}): PASS in {elapsed:.1f}s", file=sys.stderr)


def test_criterion_01_fragment_path_counts():
    t0 = time.time()
    f = load_tutte_fragment()
    g = f.graph
    minus_u = enumerate_hamilton_paths(g.subgraph(g.vertices - {f.roles["u"]}))
    minus_r = enumerate_hamilton_paths(g.subgraph(g.vertices - {f.roles["r"]}))
    assert len(minus_u) == 0
    assert len(minus_r) == 2
    pu, pl = f.pendant_edge("u"), f.pendant_edge("l")
    for p in minus_r:
        es = {canon_edge(a, b) for a, b in zip(p, p[1:])}
        assert pu in es and pl in es
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, "gadget path counts", elapsed)


def test_criterion_02_caterpillar_equivalence():
    t0 = time.time()
    for t in corpus.trees_range(3, 10):
        is_cat = cat.is_caterpillar(t) is not None
        no_star = cat.find_s_k13(t) is None
        square_ham = len(enumerate_hamilton_cycles(kth_power(t, 2), limit=1)) > 0
        assert is_cat == no_star == square_ham
        if is_cat:
            cycle = cat.hamilton_cycle_of_square(t)
            assert cycle <= kth_power(t, 2).edges
            assert len(cycle) == len(t.vertices)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(2, "caterpillar three-way equivalence, trees 3-10", elapsed)


def test_criterion_03_outerplanar_equivalence():
    t0 = time.time()
    for g in corpus.connected_graphs_upto(8):
        assert minors.is_outerplanar(g) == (
            minors.circular_ordering_oracle(g) is not None
        )
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(3, "outerplanar iff crossing-free circular order, n<=8", elapsed)


def test_criterion_04_unique_cycle_equals_contractible():
    t0 = time.time()
    for g in corpus.two_connected_outerplanar(4, 9):
        cycles = enumerate_hamilton_cycles(g)
        assert len(cycles) == 1
        expect = frozenset(outerplanar.unique_hamilton_cycle_outerplanar(g))
        assert cycles[0] == expect
        if len(g.vertices) > 3:
            assert expect == outerplanar.two_contractible_edges(g)
    report(4, "unique Hamilton cycle = 2-contractible edges", time.time() - t0)


def test_criterion_05_k4_minor_subgraph_equivalence():
    t0 = time.time()
    for g in corpus.connected_graphs_upto(7):
        if minors.has_k23_minor(g):
            continue
        assert minors.k4_minor_equals_subgraph(g)
    report(5, "K4 minor iff K4 subgraph on K2,3-free", time.time() - t0)


def test_criterion_06_eulerian_splits():
    t0 = time.time()
    rng = random.Random(SEED)
    for _ in range(1000):
        m = corpus.random_eulerian_multigraph(rng)
        v = next(x for x in sorted(m.vertices) if len(m.incidence[x]) == 4)
        assert len(eulerian_v_splits(m, v)) >= 2
    for _ in range(200):
        m = corpus.random_two_four_multigraph(rng)
        cyc, _history = cat.split_to_cycle(m)
        assert all(len(cyc.incidence[v]) == 2 for v in cyc.vertices)
    report(6, "Eulerian v-splits and split-to-cycle", time.time() - t0)


def test_criterion_07_structure_and_quotient():
    t0 = time.time()
    rng = random.Random(SEED)
    for _ in range(500):
        g = corpus.random_two_connected(rng)
        k = corpus.random_connected_subset(rng, g, 3)
        assert outerplanar.check_quotient_two_connected(g, k)
    for _ in range(500):
        g = corpus.random_dissection(rng)
        k0 = corpus.random_connected_subset(rng, g, 1)
        assert outerplanar.check_struct1(g, k0) == []
    report(7, "structure lemma and quotient 2-connectivity", time.time() - t0)


def test_criterion_08_level_graphs_and_end_degrees():
    t0 = time.time()
    for n in range(4):
        g, ft = build_gn(n)
        audit_tree(ft)
        assert all(g.degree(v) == 3 for v in g.vertices)
        for path in ft.marked:
            assert len(cut_edges(g, subtree_vertices(ft, path))) == 3
    lg = section5_graph()
    for c in deep_components(lg, 1):
        assert end_degree_bound(lg, c, "vertex", depth=6) == (3, 3)
        assert end_degree_bound(lg, c, "edge", depth=6) == (3, 3)
    report(8, "cubic level graphs, 3-cuts, end degree (3,3)", time.time() - t0)


def test_criterion_09_unique_circle_certification():
    t0 = time.time()
    cert = checker.limit_certificate()
    assert cert["limit_count"] == 1
    assert cert["stabilization_depth"] <= 3
    series = checker.dp_series(3)
    assert series[2].stable is True and series[3].stable is True
    lg = section5_graph()
    for r in (1, 2):
        _, cycles = checker.quotient_hamilton(lg, r)
        assert len(cycles) == series[r].count
    lad = double_ladder()
    for r in range(1, 7):
        _, cycles = checker.quotient_hamilton(lad, r)
        assert len(cycles) == 1
    member = checker.section5_circle_member(6)
    levels = range(0, 4)
    assert checker.verify_candidate_circle(lg, member, levels)
    region = sorted(lg.hint.region(1))
    in_edge = out_edge = None
    for v in region:
        for y in lg.neighbors(v):
            e = canon_edge(v, y)
            if member(e) and in_edge is None:
                in_edge = e
            if not member(e) and out_edge is None:
                out_edge = e
    assert not checker.verify_candidate_circle(
        lg, lambda e: member(canon_edge(*e)) and canon_edge(*e) != in_edge, levels
    )
    assert not checker.verify_candidate_circle(
        lg, lambda e: member(canon_edge(*e)) or canon_edge(*e) == out_edge, levels
    )
    report(9, "unique-circle certification and perturbation rejection", time.time() - t0)


def test_criterion_10_disk_layouts_crossing_free():
    t0 = time.time()
    for g in corpus.two_connected_outerplanar(4, 9):
        layout = outerplanar.disk_layout(g)
        pos = {v: i for i, (v, _) in enumerate(layout.placements)}
        spans = [sorted((pos[a], pos[b])) for a, b in layout.chords]
        for i, p in enumerate(spans):
            for q in spans[i + 1 :]:
                assert not outerplanar.positions_cross(p, q)
    report(10, "crossing-free disk layouts, n<=9", time.time() - t0)
