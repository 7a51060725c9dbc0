import json

import pytest

from hamcircle.cli import main


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
