"""Benchmark of hamcircle: run one workload and print its metrics.

    python3 perfbench/run.py --workload tree-squares --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from any directory; the program is imported from ``src/`` next to this
directory, never from an installed copy.  One client sends requests back to
back (a closed loop, one process, no threads).  Before each pass over a
workload's requests the program's memo caches are cleared, so every pass
pays for the builds they hold; only the import and the inputs (set-up) are
shared between passes.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: a fresh interpreter's import of hamcircle plus building the
  workload's inputs; the median of several fresh interpreters;
* ``wall_s``: one pass over the workload's requests, as the sum over the
  requests of each one's median time across the passes of the run;
* ``peak_rss_mb``: the process's peak resident memory.

Both times are given at a fixed machine speed.  The speed of a small shared
machine drifts by up to twofold over seconds to minutes, so a run measures
it: a fixed piece of pure-Python work (the probe, which never calls
hamcircle) runs before the first request of a pass and after every request,
and each request's time is scaled by ``PROBE_REF_S`` over the mean of the two
probe times around it.  Set-up is scaled by the median of three probes run
right after it.  The unscaled times are printed too.

``--trace 1`` prints the per-layer metrics of ``layertrace.py`` instead: spans
around hamcircle's public functions, over the set-up plus one pass (self
times are medians over the traced passes), and ``trace.overhead_s``, the
traced minus the untraced pass time.  Every run checks each verdict against
its known answer; a wrong verdict, a wrong exit code or an exception counts
as a failed request.  The last line of standard output is the JSON result.
"""

import time

T0 = time.perf_counter()  # set-up is timed from before hamcircle's import

import argparse
import array
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # fresh interpreters whose set-up time is measured
PROBE_SLOTS = 1 << 20  # entries of the probe's table (8 MB)
PROBE_REF_S = 0.03  # about the probe's time in a quiet phase of a 2-core sandbox

sys.path.insert(0, str(SRC))
try:
    import hamcircle
except ImportError as e:
    sys.exit(f"cannot import hamcircle from {SRC}: {e}")
if Path(hamcircle.__file__).resolve().parent.parent != SRC:
    sys.exit(f"hamcircle was imported from {hamcircle.__file__}, not {SRC}")

import layertrace  # noqa: E402  (both need src/ on sys.path)
import workloads  # noqa: E402


def clear_caches():
    """Clear every functools cache bound in a hamcircle module (through any
    wrapper the tracer put around it)."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if name != "hamcircle" and not name.startswith("hamcircle."):
            continue
        for obj in list(vars(mod).values()):
            while callable(obj) and id(obj) not in seen:
                seen.add(id(obj))
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
                    break
                obj = getattr(obj, "__wrapped__", None)


_table = None


def probe():
    """Time a fixed piece of pure-Python work: random reads over a table
    larger than a core's cache, then a depth-first search over the paths of
    K8.  Slow phases of the machine slow it as they slow hamcircle."""
    global _table
    if _table is None:
        _table = array.array("q", range(PROBE_SLOTS))
    start = time.perf_counter()
    x = total = 0
    for _ in range(40_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += _table[x & (PROBE_SLOTS - 1)]
    path, seen = [0], {0}

    def extend(v):
        nonlocal total
        if len(path) == 8:
            total += 1
            return
        for u in range(8):
            if u not in seen:
                seen.add(u)
                path.append(u)
                extend(u)
                path.pop()
                seen.discard(u)

    extend(0)
    return time.perf_counter() - start


def scaled_setup(setup_s):
    """Set-up time at the probe's reference speed."""
    return setup_s * PROBE_REF_S / statistics.median(probe() for _ in range(3))


class Pass(NamedTuple):
    times: list  # seconds per request
    digests: list  # verdict digest per request
    failed: int
    trace: tuple = None  # (counts, self times, spans) of a traced pass
    probes: list = None  # probe time before the first request and after each

    def scaled(self):
        """Each request's time at the probe's reference speed."""
        return [t * 2 * PROBE_REF_S / (a + b)
                for t, a, b in zip(self.times, self.probes, self.probes[1:])]


def _check(req, result):
    try:
        return bool(req.check(result))
    except Exception:  # a malformed report fails the request
        return False


def run_pass(requests, tracer=None, probing=False):
    """One closed-loop pass over `requests`, with probes around each request
    when `probing`."""
    times, digests, failed = [], [], 0
    probes = [probe()] if probing else None
    clear_caches()
    for i, req in enumerate(requests):
        if tracer:
            tracer.request = i
        start = time.perf_counter()
        try:
            result, raised = req.call(), False
        except Exception as e:  # counted as a failed request, not fatal
            result, raised = f"raised {type(e).__name__}: {e}", True
        times.append(time.perf_counter() - start)
        if probing:
            probes.append(probe())
        if tracer:
            tracer.request = None
        failed += raised or not _check(req, result)
        digests.append(hashlib.sha1(repr(result).encode()).hexdigest())
    return Pass(times, digests, failed, tracer.take() if tracer else None, probes)


def measure(requests, seconds, min_passes=1, tracer=None, probing=False):
    """Passes until another one would overrun `seconds` (at least
    `min_passes`); returns the per-pass results."""
    passes = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(run_pass(requests, tracer, probing))
        took = time.perf_counter() - t
        if len(passes) >= min_passes and time.perf_counter() - start + took > seconds:
            return passes


def pass_wall(passes, scaled=False):
    """Sum over requests of each request's median time across passes."""
    per_pass = [p.scaled() if scaled else p.times for p in passes]
    return sum(statistics.median(ts) for ts in zip(*per_pass))


def _child(args, flag, env=None):
    """Run this script in a fresh interpreter; returns its last stdout line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), flag]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, env=env)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def _result(correct, passes, metrics):
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    return {"correct": bool(correct) and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _consistent(passes):
    """True when every request gave the same verdict in every pass."""
    return all(len(set(ds)) == 1 for ds in zip(*(p.digests for p in passes)))


def end_to_end(args, requests, setup_s):
    samples = [scaled_setup(setup_s)] + [float(_child(args, "--setup-only"))
                                         for _ in range(SETUP_SAMPLES - 1)]
    passes = measure(requests, args.seconds, probing=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": {"value": statistics.median(samples), "unit": "s"},
        "wall_s": {"value": pass_wall(passes, scaled=True), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return _result(_consistent(passes), passes, metrics), passes


def per_layer(args, requests, tracer, setup_record):
    setup_counts, setup_times, setup_spans = setup_record
    plain = measure(requests, args.seconds / 2)
    tracer.install()
    try:
        traced = measure(requests, args.seconds / 2, min_passes=2, tracer=tracer)
    finally:
        tracer.uninstall()
    records = [{k: setup_counts[k] + v for k, v in p.trace[0].items()} for p in traced]
    hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    records.append(json.loads(_child(
        args, "--counts-only", env=dict(os.environ, PYTHONHASHSEED=hash_seed))))
    varying = sorted(k for k in records[0] if len({r[k] for r in records}) > 1)
    counts = records[0]
    values = {k: v for k, v in counts.items() if k != "lazy.distinct_neighbor_args"}
    values.update(layertrace.ratios(counts))
    for k in setup_times:
        values[k] = setup_times[k] + statistics.median(p.trace[1][k] for p in traced)
    values["trace.overhead_s"] = pass_wall(traced) - pass_wall(plain)
    values["trace.varying_counts"] = len(varying)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in layertrace.METRICS}
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    layertrace.write_spans(out / f"spans-{args.workload}-seed{args.seed}.jsonl",
                        [("setup", setup_spans), ("pass", traced[0].trace[2])])
    if varying:
        print("counts that varied: " + ", ".join(varying))
    print(f"traced passes {len(traced)}, untraced passes {len(plain)}")
    return _result(_consistent(plain + traced), plain + traced, metrics)


def run_all(args):
    """Each workload in a fresh interpreter; then all results as one JSON line."""
    rows = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"workload {name} failed:\n{done.stderr}")
        print("\n".join(lines[:-1]))
        rows[name] = json.loads(lines[-1])
    print(json.dumps(rows))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: what one fresh interpreter measures for the parent run
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(workloads.WORKLOADS)} or all")

    workdir = ROOT / ".perfbench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tracer = layertrace.Tracer()
        if args.trace or args.counts_only:
            tracer.install()
        requests = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T0
        tracer.uninstall()
        setup_record = tracer.take()
        if args.setup_only:
            print(scaled_setup(setup_s))
            return
        if args.counts_only:
            tracer.install()
            counts = run_pass(requests, tracer).trace[0]
            tracer.uninstall()
            print(json.dumps({k: setup_record[0][k] + v for k, v in counts.items()}))
            return
        if args.trace:
            result = per_layer(args, requests, tracer, setup_record)
        else:
            result, passes = end_to_end(args, requests, setup_s)
            m = result["metrics"]
            print(f"{args.workload}: seed {args.seed}, {len(requests)} requests "
                  f"x {len(passes)} passes of "
                  + " ".join(f"{sum(p.times):.3f}" for p in passes) + " s")
            for name in ("setup_s", "wall_s", "peak_rss_mb"):
                print(f"  {name:12s} {m[name]['value']:.4f} {m[name]['unit']}")
            probes = [t for p in passes for t in p.probes]
            print(f"  unscaled: setup {setup_s:.4f} s, wall {pass_wall(passes):.4f} s; "
                  f"probe median {statistics.median(probes) * 1000:.1f} ms "
                  f"(reference {PROBE_REF_S * 1000:.0f} ms)")
            print(f"  failed_ratio {result['failed'] / result['attempted']:.4f} "
                  f"({result['failed']} of {result['attempted']} requests)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
