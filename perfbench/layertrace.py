"""Spans around hamcircle's public functions, recorded from outside the
program.

Each traced function is rebound at every place a hamcircle module binds it
(``enumerate_hamilton_cycles`` lives in ``graphs`` and is imported into
``checker``, ``cli`` and the package), so calls between layers are seen as
well as calls from the benchmark.  A span records name, start, end, parent
span and request.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPANNED = (
    "graphs.enumerate_hamilton_cycles",
    "graphs.enumerate_hamilton_paths",
    "graphs.is_two_connected",
    "graphs.kth_power",
    "caterpillar.is_caterpillar",
    "caterpillar.find_s_k13",
    "caterpillar.hamilton_cycle_of_square",
    "caterpillar.split_to_cycle",
    "minors.is_outerplanar",
    "minors.has_k23_minor",
    "minors.internally_disjoint_paths",
    "minors.circular_ordering_oracle",
    "minors.find_k4_subgraph",
    "minors.find_minor",
    "outerplanar.unique_hamilton_cycle_outerplanar",
    "outerplanar.two_contractible_edges",
    "outerplanar.disk_layout",
    "outerplanar.check_quotient_two_connected",
    "outerplanar.check_struct1",
    "fragment.build_gn",
    "fragment.load_tutte_fragment",
    "fragment.audit_tree",
    "checker.dp_series",
    "checker.fragment_tree_dp",
    "checker.quotient_multigraph",
    "checker.quotient_hamilton",
    "checker.verify_candidate_circle",
    "checker.limit_circle_edges",
    "lazy.ball",
    "lazy.deep_components",
    "lazy.end_degree_bound",
    "corpus.trees_range",
    "corpus.connected_graphs_upto",
    "corpus.connected_graphs_8",
    "corpus.two_connected_outerplanar",
    "cli.main",
    "jsonio.load_graph",
)
# Called too often for a span each; only counted.
NEIGHBORS = "lazy.LazyGraph.neighbors"

# (metric, unit) of everything a traced run reports, in report order.
METRICS = (
    [(f"{n}.calls", "count") for n in SPANNED]
    + [(f"{n}.self_s", "s") for n in SPANNED]
    + [
        ("graphs.enumerate_hamilton_cycles.solutions", "count"),
        ("graphs.existence_useful_ratio", "ratio"),
        ("fragment.build_gn.misses", "count"),
        (f"{NEIGHBORS}.calls", "count"),
        ("lazy.oracle_distinct_ratio", "ratio"),
        ("trace.overhead_s", "s"),
        ("trace.varying_counts", "count"),
    ]
)


def _module(short):
    return sys.modules[f"hamcircle.{short}"]


class Tracer:
    """Rebinds the traced functions while installed and records spans."""

    def __init__(self):
        self._saved = []  # (owner, attribute, original)
        self._stack = []
        self._build_gn = _module("fragment").build_gn
        self.request = None
        self._reset()

    def _reset(self):
        self.spans = []  # (name, start, end, parent index or -1, request)
        self.solutions = 0
        self.neighbor_calls = 0
        self.neighbor_args = set()

    # -- binding ---------------------------------------------------------

    def install(self):
        owners = [m for name, m in sorted(sys.modules.items())
                  if name == "hamcircle" or name.startswith("hamcircle.")]
        for full in SPANNED:
            mod, attr = full.split(".")
            orig = getattr(_module(mod), attr)
            wrapper = self._wrap(full, orig)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        self._saved.append((owner, key, orig))
                        setattr(owner, key, wrapper)
        cls = _module("lazy").LazyGraph
        orig = cls.neighbors

        def neighbors(lg, v):
            self.neighbor_calls += 1
            self.neighbor_args.add((lg, v))
            return orig(lg, v)

        self._saved.append((cls, "neighbors", orig))
        cls.neighbors = neighbors

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved = []

    def _wrap(self, name, fn):
        stack = self._stack
        counts_solutions = name == "graphs.enumerate_hamilton_cycles"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if counts_solutions:
                self.solutions += len(result)
            return result

        return wrapper

    # -- per-request and per-phase bookkeeping ----------------------------

    def take(self):
        """Counts and self times since the last take, and the spans."""
        calls = dict.fromkeys(SPANNED, 0)
        self_s = dict.fromkeys(SPANNED, 0.0)
        child = [0.0] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        counts = {f"{n}.calls": c for n, c in calls.items()}
        counts.update({
            "graphs.enumerate_hamilton_cycles.solutions": self.solutions,
            # the caches are cleared before each pass, so this is the pass's
            "fragment.build_gn.misses": self._build_gn.cache_info().misses,
            f"{NEIGHBORS}.calls": self.neighbor_calls,
            "lazy.distinct_neighbor_args": len(self.neighbor_args),
        })
        times = {f"{n}.self_s": s for n, s in self_s.items()}
        spans = self.spans
        self._reset()
        return counts, times, spans


def ratios(counts):
    """The derived ratios of a count record (0 where the base is 0)."""
    sols = counts["graphs.enumerate_hamilton_cycles.solutions"]
    calls = counts[f"{NEIGHBORS}.calls"]
    return {
        "graphs.existence_useful_ratio":
            counts["graphs.enumerate_hamilton_cycles.calls"] / sols if sols else 0.0,
        "lazy.oracle_distinct_ratio":
            counts["lazy.distinct_neighbor_args"] / calls if calls else 0.0,
    }


def write_spans(path, phases):
    """Write spans as JSON lines: one header, then one line per span."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"fields": ["phase", "name", "start", "end",
                                        "parent", "request"]}) + "\n")
        for phase, spans in phases:
            for name, start, end, parent, request in spans:
                fh.write(json.dumps([phase, name, round(start, 7), round(end, 7),
                                     parent, request]) + "\n")
