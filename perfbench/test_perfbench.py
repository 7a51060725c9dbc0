"""Self-test of the benchmark's client and tracer.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layertrace  # noqa: E402
import run  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402
from hamcircle import checker, cli, graphs, lazy  # noqa: E402
from hamcircle.graphs import FiniteGraph  # noqa: E402


def _boom():
    raise RuntimeError("boom")


def test_wrong_answer_and_exception_count_as_failed():
    tutte = workloads._cli(["tutte-verify"])
    requests = [
        workloads.Request("right answer", tutte, workloads._tutte_ok),
        workloads.Request("wrong expected value", tutte,
                          lambda r: workloads._report(r, 0)["t_minus_r"] == 3),
        workloads.Request("raises", _boom, lambda r: True),
        workloads.Request("after the exception", tutte, workloads._tutte_ok),
    ]
    one_pass = run.run_pass(requests)
    result = run._result(run._consistent([one_pass]), [one_pass], {})
    assert (result["attempted"], result["failed"]) == (4, 2)
    assert result["correct"] is False


def test_tracer_sees_calls_between_modules_and_restores_them():
    kernel = graphs.enumerate_hamilton_cycles
    neighbors = lazy.LazyGraph.neighbors
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert checker.enumerate_hamilton_cycles is graphs.enumerate_hamilton_cycles
        assert cli.enumerate_hamilton_cycles is not kernel
        _, cycles = checker.quotient_hamilton(lazy.double_ladder(), 2)
    finally:
        tracer.uninstall()
    assert checker.enumerate_hamilton_cycles is kernel
    assert lazy.LazyGraph.neighbors is neighbors
    counts, self_s, spans = tracer.take()
    assert counts["checker.quotient_hamilton.calls"] == 1
    assert counts["graphs.enumerate_hamilton_cycles.calls"] == 1
    assert counts["graphs.enumerate_hamilton_cycles.solutions"] == len(cycles) == 1
    assert counts["lazy.LazyGraph.neighbors.calls"] > 0
    names = [s[0] for s in spans]
    top = names.index("checker.quotient_hamilton")
    inner = names.index("graphs.enumerate_hamilton_cycles")
    assert spans[inner][3] == top  # parent span
    top_s = spans[top][2] - spans[top][1]
    children = sum(s[2] - s[1] for s in spans if s[3] == top)
    assert abs(self_s["checker.quotient_hamilton.self_s"] - (top_s - children)) < 1e-9


def test_apex_oracle_known_cases():
    def graph(edges):
        return FiniteGraph.build({v for e in edges for v in e}, edges)

    k4 = graph([(a, b) for a in "abcd" for b in "abcd" if a < b])
    k23 = graph([(a, b) for a in "xy" for b in "pqr"])
    c5 = graph([(str(i), str((i + 1) % 5)) for i in range(5)])
    assert [workloads._apex_planar(g) for g in (k4, k23, c5)] == [False, False, True]


def test_scaled_times_use_the_probes_around_each_request():
    one_pass = run.Pass(times=[1.0, 2.0], digests=["a", "b"], failed=0,
                        probes=[run.PROBE_REF_S, 3 * run.PROBE_REF_S, run.PROBE_REF_S])
    assert one_pass.scaled() == [0.5, 1.0]
    assert run.pass_wall([one_pass], scaled=True) == 1.5
    assert run.pass_wall([one_pass]) == 3.0
