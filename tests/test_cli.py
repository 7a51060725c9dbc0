import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hamcircle
from hamcircle import cli
from hamcircle.cli import main
from hamcircle.fragment import build_gn
from hamcircle.graphs import FiniteGraph


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


def test_bad_input_is_usage_error(tmp_path, capsys):
    p = write_graph(tmp_path, "bad.json", {"multi": False, "vertices": [], "edges": [], "x": 1})
    code, _, err = run(capsys, "outerplanar", p)
    assert code == 2


def test_determinism(tmp_path, capsys):
    f = diamond_file(tmp_path)
    _, out1, _ = run(capsys, "outerplanar", f, "--cycle")
    _, out2, _ = run(capsys, "outerplanar", f, "--cycle")
    assert out1 == out2


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


def _doctored_level_1(level, cap=None):
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
        "from hamcircle.caterpillar import _check_cover\n"
        "from hamcircle.fragment import audit_tree, build_gn\n"
        "from hamcircle.graphs import FiniteGraph, InvariantError\n"
        "assert False, 'asserts are stripped under -O'\n"
        "caught = []\n"
        "try:\n"
        "    _check_cover({1, 2, 3}, [1], [2], disjoint=True)\n"
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
    assert proc.stdout.strip().split(maxsplit=2) == ["False", "2", "cover misses vertices"]
