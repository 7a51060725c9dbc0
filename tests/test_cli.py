import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import path_graph

import hamcircle
from hamcircle import checker, cli, corpus, fragment, jsonio, lazy, minors, outerplanar
from hamcircle.cli import main
from hamcircle.fragment import build_gn
from hamcircle.graphs import FiniteGraph
from hamcircle.lazy import deep_components, end_degree_bound


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def k4_file(tmp_path):
    vs = ["a", "b", "c", "d"]
    es = [[a, b] for i, a in enumerate(vs) for b in vs[i + 1 :]]
    return write_graph(tmp_path, "k4.json", {"multi": False, "vertices": vs, "edges": es})


def diamond_file(tmp_path):
    return write_graph(
        tmp_path,
        "diamond.json",
        {
            "multi": False,
            "vertices": ["a", "b", "c", "d"],
            "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"], ["a", "c"]],
        },
    )


def test_tutte_verify(capsys):
    code, out, _ = run(capsys, "tutte-verify")
    assert code == 0
    report = json.loads(out)
    assert report["t_minus_u"] == 0
    assert report["t_minus_r"] == 2


@pytest.mark.parametrize("argv", [
    ("tutte-verify", "--out", "x.json"),
    ("outerplanar", "GRAPH", "--layout", "g.svg"),
], ids=["tutte-verify-out", "outerplanar-layout"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    # the output goes into a directory that does not exist
    target = str(tmp_path / "missing" / argv[-1])
    argv = [diamond_file(tmp_path) if a == "GRAPH" else a for a in argv[:-1]] + [target]
    code, out, err = run(capsys, *argv)
    assert code == cli.USAGE == 2
    assert out == ""
    assert err == f"cannot write {target}: No such file or directory\n"


def test_outerplanar_rejects_k4(tmp_path, capsys):
    code, out, _ = run(capsys, "outerplanar", k4_file(tmp_path))
    assert code == 1
    assert json.loads(out)["reason"] == "K4 subgraph"


def test_outerplanar_diamond_full(tmp_path, capsys):
    svg = tmp_path / "d.svg"
    code, out, _ = run(
        capsys,
        "outerplanar",
        diamond_file(tmp_path),
        "--cycle",
        "--contractible",
        "--layout",
        str(svg),
    )
    assert code == 0
    report = json.loads(out)
    assert report["outerplanar"] is True
    assert len(report["hamilton_cycle"]) == 4
    assert svg.read_text().lstrip().startswith("<svg")


def test_minor_exit_codes(tmp_path, capsys):
    code, out, _ = run(capsys, "minor", k4_file(tmp_path), "--pattern", "k4")
    assert code == 0
    assert json.loads(out)["found"] is True
    code, out, _ = run(capsys, "minor", diamond_file(tmp_path), "--pattern", "k23")
    assert code == 1


def test_minor_without_witness_is_invariant_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.minors, "_subdivision_witness", lambda *_: None)
    code, out, err = run(capsys, "minor", k4_file(tmp_path), "--pattern", "k4")
    assert code == cli.INVARIANT == 4
    assert out == ""
    assert "internal invariant failed" in err and "no witness" in err


def test_caterpillar_square_cycle(tmp_path, capsys):
    p = write_graph(
        tmp_path,
        "p4.json",
        {
            "multi": False,
            "vertices": ["a", "b", "c", "d"],
            "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
        },
    )
    code, out, _ = run(capsys, "caterpillar", p, "--square-cycle")
    assert code == 0
    report = json.loads(out)
    assert report["caterpillar"] is True
    assert len(report["square_cycle"]) == 4


def test_caterpillar_reports_the_subdivided_star(tmp_path, capsys):
    # a spider with three legs of length two is no caterpillar
    legs = [("a1", "a2"), ("b1", "b2"), ("d1", "d2")]
    p = write_graph(
        tmp_path,
        "spider.json",
        {
            "multi": False,
            "vertices": ["c"] + [x for leg in legs for x in leg],
            "edges": [e for x, y in legs for e in (["c", x], [x, y])],
        },
    )
    code, out, _ = run(capsys, "caterpillar", p)
    assert code == 1
    report = json.loads(out)
    assert report["caterpillar"] is False
    assert report["subdivided_star"] == [
        ["a1", "a2"], ["a1", "c"], ["b1", "b2"], ["b1", "c"], ["c", "d1"], ["d1", "d2"]
    ]


def test_outerplanar_cycle_with_mixed_id_types(tmp_path, capsys):
    p = write_graph(
        tmp_path,
        "mixed.json",
        {"multi": False, "vertices": [1, "a", "b"], "edges": [[1, "a"], ["a", "b"], ["b", 1]]},
    )
    code, out, _ = run(capsys, "outerplanar", p, "--cycle")
    assert code == 0
    # pairs and list in the ids' str order, as the library orders edges
    assert json.loads(out)["hamilton_cycle"] == [[1, "a"], [1, "b"], ["a", "b"]]


def test_power_roundtrip(tmp_path, capsys):
    p = write_graph(
        tmp_path,
        "p3.json",
        {"multi": False, "vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]},
    )
    code, out, _ = run(capsys, "power", p, "-k", "2")
    assert code == 0
    obj = json.loads(out)
    assert ["a", "c"] in obj["edges"]


def test_unique_circle_double_ladder(capsys):
    code, out, _ = run(capsys, "unique-circle", "--generator", "double-ladder", "--levels", "3")
    assert code == 0
    report = json.loads(out)
    assert all(level["count"] == 1 for level in report["levels"])


def test_verify_circle_rails(capsys):
    code, out, _ = run(
        capsys, "verify-circle", "--generator", "double-ladder", "--member", "rails", "--levels", "4"
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


@pytest.mark.parametrize("generator, member, owner", [
    ("section5", "rails", "the double ladder"),
    ("double-ladder", "viable-pattern", "section5"),
])
def test_verify_circle_member_of_another_generator_is_usage_error(capsys, generator, member,
                                                                  owner):
    code, out, err = run(capsys, "verify-circle", "--generator", generator, "--member", member)
    assert code == cli.USAGE == 2
    assert out == ""
    assert err == f"member {member!r} needs {owner}\n"


def test_outerplanar_path_is_not_two_connected(tmp_path, capsys):
    # outerplanar, but no Hamilton cycle, contractible edges or layout
    g = path_graph(4)
    p = write_graph(tmp_path, "path.json", jsonio.graph_to_obj(g))
    svg = tmp_path / "x.svg"
    code, out, _ = run(capsys, "outerplanar", p, "--cycle", "--contractible",
                       "--layout", str(svg))
    assert code == cli.VIOLATED == 1
    report = json.loads(out)
    assert report["outerplanar"] is True
    assert report["error"] == "graph is not 2-connected"
    assert not svg.exists()


def test_bad_input_is_usage_error(tmp_path, capsys):
    p = write_graph(tmp_path, "bad.json", {"multi": False, "vertices": [], "edges": [], "x": 1})
    code, _, err = run(capsys, "outerplanar", p)
    assert code == 2


def test_non_finite_ids_are_usage_errors(tmp_path, capsys):
    # Python's json parses NaN and Infinity; they must not come back out bare
    p = write_graph(tmp_path, "nan.json", {"vertices": [float("nan"), float("inf"), 2],
                                           "edges": [[float("nan"), 2], [float("inf"), 2]]})
    code, out, err = run(capsys, "power", p)
    assert code == cli.USAGE == 2
    assert out == ""
    assert "finite" in err


def test_reports_are_strict_json(capsys):
    with pytest.raises(ValueError):
        cli._emit(None, {"x": float("nan")})
    assert capsys.readouterr().out == ""


_SCALARS = st.one_of(
    st.text(),
    st.sampled_from(["", "\"\\/\b\f\n\r\t", "caf\u00e9", "\u2028", "\U0001f600", "\x00\x1f"]),
    st.integers(),
    st.sampled_from([2 ** 64, -(2 ** 70), -1, 0, -0.0, 1e22, 1e-7, 0.1, True, False, None]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_VALUES = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=3), inner, max_size=4),
    st.dictionaries(st.integers(-12, 12), inner, max_size=4),
    st.dictionaries(st.booleans(), inner, max_size=2),
), max_leaves=24)


@given(_VALUES)
@example({9: "nine", 10: ["ten", []], 11: {}})
@example({"a": [["x", "y"], ["\u00e9", "\n"]], "b": (), "c": {"d": -0.0, "e": 1e22}})
def test_report_text_is_the_indented_dump(obj):
    # the writer behind every report writes what json.dumps writes
    assert cli._json_text(obj) == json.dumps(obj, indent=1, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("obj", [
    float("nan"), [1, float("inf")], {"x": -float("inf")}, {float("nan"): 1},
    {"x": object()}, [object()], {(1, 2): 3}, {1: "a", "b": 2},
], ids=["nan", "inf-in-a-list", "minus-inf-value", "nan-key", "object-value", "object-item",
        "tuple-key", "unsortable-keys"])
def test_report_text_refuses_as_json_does(obj):
    with pytest.raises((ValueError, TypeError)) as want:
        json.dumps(obj, indent=1, sort_keys=True, allow_nan=False)
    with pytest.raises(want.type) as got:
        cli._json_text(obj)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("argv", [["power"], ["outerplanar"], ["caterpillar"],
                                  ["minor", "--pattern", "k23"]],
                         ids=["power", "outerplanar", "caterpillar", "minor"])
def test_multigraph_input_is_usage_error(tmp_path, capsys, argv):
    # the finite-graph subcommands read simple graphs only; a digon must not
    # crash (power, minor) or pass as outerplanar, and a malformed
    # multigraph document gets the same refusal
    for edges in ([[0, "a", "b"], [1, "a", "b"]], [[0, "a", "b"], ["x", "a", "b"]]):
        p = write_graph(tmp_path, "multi.json", {"multi": True, "vertices": ["a", "b"],
                                                 "edges": edges})
        code, out, err = run(capsys, argv[0], p, *argv[1:])
        assert code == 2
        assert out == ""
        assert err == "cannot read graph: multigraphs are not supported here\n"


def test_deeply_nested_document_is_usage_error(tmp_path, capsys):
    # too deep for the JSON parser's recursion: an input error, not a
    # crash that would exit 1 as if a property were violated
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "outerplanar", str(p))
    assert code == cli.USAGE == 2
    assert out == ""
    assert err.startswith("cannot read graph: ")


def test_determinism(tmp_path, capsys):
    f = diamond_file(tmp_path)
    _, out1, _ = run(capsys, "outerplanar", f, "--cycle")
    _, out2, _ = run(capsys, "outerplanar", f, "--cycle")
    assert out1 == out2


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # one parser serves every call in a process; the same sequence with a
    # parser built afresh for each call gives the same codes, output and files
    g = write_graph(tmp_path, "g.json", {
        "multi": False,
        "vertices": ["a1", "a2", "b1", "b2", "b3"],
        "edges": [[a, b] for a in ("a1", "a2") for b in ("b1", "b2", "b3")],
    })

    def sequence(fresh, out_dir):
        out_dir.mkdir()
        f = str(out_dir / "w.json")
        results = []
        for argv in (("minor", g, "--pattern", "k5"),
                     ("minor", g, "--pattern", "k23", "--out", f),
                     ("minor", g, "--pattern", "k23"),
                     ("outerplanar", g, "--cycle")):
            if fresh:
                cli.build_parser.cache_clear()
            results.append(run(capsys, *argv))
        return results, sorted((p.name, p.read_text()) for p in out_dir.iterdir())

    cached = sequence(False, tmp_path / "cached")
    fresh = sequence(True, tmp_path / "fresh")
    assert cached == fresh
    assert [code for code, _, _ in cached[0]] == [cli.USAGE, 0, 0, 1]
    assert cached[0][1][1] == "" and json.loads(cached[0][2][1])["found"] is True
    assert [name for name, _ in cached[1]] == ["w.json"]


def test_corpus_rejects_unknown_suite(capsys):
    code, out, _ = run(capsys, "corpus", "--suite", "typo")
    assert code == 2
    assert out == ""


def test_unique_circle_section5_exit_codes(capsys, monkeypatch):
    code, out, _ = run(capsys, "unique-circle", "--generator", "section5", "--levels", "3")
    assert code == 0
    report = json.loads(out)
    assert [level["count"] for level in report["levels"]] == [6, 4, 16, 256]
    assert report["limit_claim"] == "unique (fragment-tree exact)"

    from hamcircle import checker

    real = checker.limit_certificate
    monkeypatch.setattr(
        checker, "limit_certificate", lambda: {**real(), "limit_count": 2}
    )
    code, out, _ = run(capsys, "unique-circle", "--generator", "section5", "--levels", "3")
    assert code == 1
    assert json.loads(out)["limit_claim"] == "open"


def test_unique_circle_section5_unstable_level_is_violation(capsys, monkeypatch):
    from hamcircle import checker

    real = checker.dp_series

    def unstable(levels):
        series = real(levels)
        return series[:-1] + [checker.QuotientVerdict(
            series[-1].level, series[-1].count, series[-1].forced, False
        )]

    monkeypatch.setattr(checker, "dp_series", unstable)
    code, out, _ = run(capsys, "unique-circle", "--generator", "section5", "--levels", "3")
    assert code == 1
    assert json.loads(out)["limit_claim"] == "open"


def _components(count):
    def check(report):
        assert len(report["components"]) == count
        assert {
            (c["degree_lower"], c["degree_upper"], c["cut_size"])
            for c in report["components"]
        } == {(3, 3, 3)}

    return check


def _verified(report):
    assert report["verified"] is True


def _level_12_series(report):
    levels = report["levels"]
    assert [x["count"] for x in levels] == [6, 4] + [2 ** 2 ** n for n in range(2, 13)]
    assert levels[-1]["forced"] == 86_004
    assert [x["stable"] for x in levels] == [None, None] + [True] * 11


def _level_9_graph(report):
    assert len(report["vertices"]) == 14_324


@pytest.mark.parametrize(
    "argv, check",
    [
        (("ends", "--generator", "section5", "--radius", "7"), _components(256)),
        (("ends", "--generator", "section5", "--radius", "8"), _components(512)),
        (("verify-circle", "--generator", "section5", "--member", "viable-pattern",
          "--levels", "5"), _verified),
        (("verify-circle", "--generator", "section5", "--member", "viable-pattern",
          "--levels", "10"), _verified),
        (("unique-circle", "--generator", "section5", "--levels", "12"), _level_12_series),
        (("construct-gn", "-n", "9"), _level_9_graph),
    ],
    ids=["ends-radius-7", "ends-radius-8", "verify-circle-levels-5", "verify-circle-levels-10",
         "unique-circle-levels-12", "construct-gn-9"],
)
def test_section5_deep_requests_answer(capsys, argv, check):
    # the limit graph is read off the vertex ids, so only the vertex
    # budget bounds depth
    code, out, _ = run(capsys, *argv)
    assert code == 0
    check(json.loads(out))


@pytest.mark.parametrize("generator", ["section5", "double-ladder"])
@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_ends_matches_a_flow_per_component(capsys, generator, mode):
    # `ends` runs one flow per component class; the report must be the one
    # built from a flow on every component
    for radius in range(7):
        for depth in (1, 3, 8):
            lg = cli.GENERATORS[generator].graph()
            comps = []
            for c in deep_components(lg, radius):
                lo, hi = end_degree_bound(lg, c, mode, depth=depth)
                comps.append({"id": str(c.comp_id), "cut_size": len(c.cut_edges),
                              "degree_lower": lo, "degree_upper": hi})
            want = {"budgets": cli._budgets(), "radius": radius, "components": comps}
            code, out, _ = run(capsys, "ends", "--generator", generator, "--radius", str(radius),
                               "--mode", mode, "--depth", str(depth))
            assert code == 0
            assert out == json.dumps(want, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("generator, flows", [("section5", 1), ("double-ladder", 2)])
def test_ends_runs_one_flow_per_component_class(capsys, monkeypatch, generator, flows):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].comp_id)
        return end_degree_bound(*args, **kwargs)

    monkeypatch.setattr(cli, "end_degree_bound", counted)
    code, out, _ = run(capsys, "ends", "--generator", generator, "--radius", "5")
    assert code == 0
    assert len(calls) == flows
    assert len(json.loads(out)["components"]) == (64 if generator == "section5" else 2)


@pytest.mark.parametrize("generator, hint_class", [("section5", fragment.Fragment),
                                                   ("double-ladder", lazy._DoubleLadder)],
                         ids=["section5", "double-ladder"])
def test_ends_never_builds_a_region(capsys, monkeypatch, generator, hint_class):
    # the exploration stops at the component's cut edges, so no region is
    # needed to know which neighbours to skip
    calls = []
    region = hint_class.region

    def spy(self, r):
        calls.append(r)
        return region(self, r)

    monkeypatch.setattr(hint_class, "region", spy)
    for radius in range(7):
        for mode in ("vertex", "edge"):
            code, out, _ = run(capsys, "ends", "--generator", generator, "--radius", str(radius),
                               "--mode", mode)
            assert code == 0 and json.loads(out)["components"]
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ("ends", "--generator", "section5", "--radius", "13"),
        # the circle's copies of depth <= 13 hold 212,980 vertices
        ("verify-circle", "--generator", "section5", "--member", "viable-pattern",
         "--levels", "13"),
        ("unique-circle", "--generator", "section5", "--levels", "13"),
        ("construct-gn", "-n", "13"),
    ],
)
def test_section5_past_the_vertex_budget_is_a_budget_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == cli.BUDGET == 3
    assert out == ""
    assert "over the vertex budget" in err


def spy_windows(monkeypatch):
    """Record the level of every quotient window attempted, and of every
    one built, through either binding: the circle check reads checker's,
    the quotient search reaches lazy's through quotient_multigraph.  A
    level counts as built only once the real window returns."""
    attempts, built = [], []
    real = lazy.quotient_window

    def spy(lg, r):
        attempts.append(r)
        window = real(lg, r)
        built.append(r)
        return window

    for module in (checker, lazy):
        monkeypatch.setattr(module, "quotient_window", spy)
    return attempts, built


@pytest.mark.parametrize(
    "argv, attempted",
    [
        (("ends", "--generator", "double-ladder", "--radius", "50000"), []),
        (("unique-circle", "--generator", "double-ladder", "--levels", "50000"), [50000]),
        (("verify-circle", "--generator", "double-ladder", "--member", "rails",
          "--levels", "50000"), [50000]),
    ],
    ids=["ends", "unique-circle", "verify-circle"],
)
def test_double_ladder_past_the_vertex_budget_is_a_budget_error(capsys, monkeypatch, argv,
                                                                 attempted):
    # columns -50,000..50,000 hold 200,002 vertices; the deepest level is
    # tried first and refused before any level's window is built
    attempts, built = spy_windows(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == cli.BUDGET == 3
    assert out == ""
    assert "over the vertex budget" in err
    assert attempts == attempted
    assert built == []


@pytest.mark.parametrize(
    "argv",
    [
        ("unique-circle", "--generator", "double-ladder", "--levels", "3"),
        ("verify-circle", "--generator", "double-ladder", "--member", "rails",
         "--levels", "3"),
    ],
    ids=["unique-circle", "verify-circle"],
)
def test_window_spy_sees_every_level_inside_the_budget(capsys, monkeypatch, argv):
    # the control for the test above: the same spy records each level
    # built, the deepest first
    _, built = spy_windows(monkeypatch)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert built == [3, 2, 1]


def test_double_ladder_just_inside_the_vertex_budget_answers(capsys):
    # columns -49,999..49,999 hold 199,998 vertices
    code, out, _ = run(capsys, "ends", "--generator", "double-ladder", "--radius", "49999",
                       "--depth", "2")
    assert code == 0
    report = json.loads(out)
    assert [(c["id"], c["cut_size"], c["degree_lower"], c["degree_upper"])
            for c in report["components"]] == [("left", 2, 2, 2), ("right", 2, 2, 2)]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("ends", "--generator", "section5", "--radius", "-1"),
         "radius must be nonnegative"),
        (("ends", "--generator", "double-ladder", "--radius", "-1"),
         "radius must be nonnegative"),
        (("ends", "--generator", "section5", "--depth", "0"), "depth must be positive"),
        (("verify-circle", "--generator", "double-ladder", "--member", "rails",
          "--levels", "0"), "no levels"),
        (("unique-circle", "--generator", "section5", "--levels", "-1"),
         "level must be nonnegative"),
        (("unique-circle", "--generator", "double-ladder", "--levels", "0"),
         "no levels to check"),
        (("construct-gn", "-n", "-1"), "level must be nonnegative"),
        (("ends", "--generator", "bogus"), "invalid choice: 'bogus'"),
        (("unique-circle", "--generator", "bogus"), "invalid choice: 'bogus'"),
        (("verify-circle", "--generator", "double-ladder", "--member", "bogus"),
         "invalid choice: 'bogus'"),
        (("corpus", "--suite", "trees", "--tree-max", "2"), "suite trees checks no graph"),
        (("corpus", "--suite", "outerplanar", "--graph-max", "0"),
         "suite outerplanar checks no graph"),
        (("corpus", "--suite", "unique-cycle", "--outer-max", "3"),
         "suite unique-cycle checks no graph"),
    ],
)
def test_requests_that_check_nothing_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == cli.USAGE == 2
    assert out == ""
    assert message in err


def test_outerplanar_layout_reads_the_cycle_off_one_embedding(tmp_path, monkeypatch, capsys):
    g = corpus.random_dissection(random.Random(7))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(jsonio.graph_to_obj(g)))
    calls = []
    real = minors.circle_order
    for module in (minors, outerplanar):
        monkeypatch.setattr(module, "circle_order", lambda h: calls.append(1) or real(h))
    svg = str(tmp_path / "g.svg")
    code, out, _ = run(capsys, "outerplanar", str(path), "--cycle", "--contractible",
                       "--layout", svg)
    assert code == 0
    # one circle order for the verdict, one for the layout and its cycle
    assert len(calls) == 2
    cycle = json.loads(out)["hamilton_cycle"]
    assert cycle == sorted(
        sorted(e) for e in outerplanar.unique_hamilton_cycle_outerplanar(g)
    )


def _doctored_level_1(level):
    # level 1 with one edge removed: two vertices of degree 2
    g, ft = build_gn(level)
    cut = FiniteGraph(g.vertices, g.edges - {g.sorted_edges()[0]})
    return cut, dataclasses.replace(ft, graph=cut)


def test_invariant_failure_has_its_own_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_gn", _doctored_level_1)
    code, out, err = run(capsys, "construct-gn", "-n", "1")
    assert code == cli.INVARIANT == 4
    assert out == ""
    assert "internal invariant failed" in err and "has degree 2" in err


def test_invariant_checks_survive_optimize():
    # under -O bare asserts vanish; these checks are explicit raises
    script = (
        "import dataclasses\n"
        "from hamcircle.caterpillar import _assert_partition_properties, caterpillar_partition\n"
        "from hamcircle.fragment import audit_tree, build_gn\n"
        "from hamcircle.graphs import FiniteGraph, InvariantError\n"
        "assert False, 'asserts are stripped under -O'\n"
        "caught = []\n"
        "part = caterpillar_partition(FiniteGraph.build('abc', [('a', 'b'), ('b', 'c')]))\n"
        "try:\n"
        "    _assert_partition_properties(dataclasses.replace(part, classes=part.classes[:-1]))\n"
        "except InvariantError as e:\n"
        "    caught.append(str(e))\n"
        "g, ft = build_gn(1)\n"
        "cut = FiniteGraph(g.vertices, g.edges - {g.sorted_edges()[0]})\n"
        "try:\n"
        "    audit_tree(dataclasses.replace(ft, graph=cut))\n"
        "except InvariantError as e:\n"
        "    caught.append(str(e))\n"
        "print(__debug__, len(caught), caught[0])\n"
    )
    src = str(Path(hamcircle.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().split(maxsplit=2) == ["False", "2", "classes do not partition the vertex set"]
