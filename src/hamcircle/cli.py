"""Command-line interface.

One binary, subcommand style.  Exit codes: 0 success/verified, 1 property
violated, 2 usage or input error, 3 budget exceeded, 4 internal invariant
failed (``InvariantError``: a bug, not a verdict).  Diagnostics go to
stderr; data goes to stdout or --out.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from dataclasses import dataclass
from typing import Callable

from . import caterpillar as cat
from . import checker, corpus, jsonio, lazy, minors, outerplanar
from .fragment import audit_tree, build_gn, load_tutte_fragment, section5_graph
from .graphs import (GraphError, InvariantError, canon_edge, ekey, enumerate_hamilton_cycles,
                     eulerian_v_splits, is_two_connected, kth_power)
from .lazy import BudgetError, deep_components, double_ladder, end_degree_bound

OK, VIOLATED, USAGE, BUDGET, INVARIANT = 0, 1, 2, 3, 4


def _budgets():
    return {"max_vertices": lazy.DEFAULT_VERTEX_BUDGET}


def _edge_list(edges):
    """Edges as [a, b] pairs, ordered as the library orders them: each
    pair and the list by the ids' `str` forms."""
    return [list(canon_edge(*e)) for e in sorted(edges, key=ekey)]


_encode_str = json.encoder.encode_basestring_ascii  # the C encoder where there is one


def _scalar_text(o):
    """The JSON text of a str, None, bool, int or float, as `json.dumps`
    writes it.  NaN and the infinities raise the ValueError of
    ``allow_nan=False``, and any other object the TypeError of `json`."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o or o in (math.inf, -math.inf):
            raise ValueError("Out of range float values are not JSON compliant: " + repr(o))
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key_text(k):
    """A dict key as `json` writes it: a str, or a scalar's JSON text, in
    quotes."""
    if isinstance(k, str):
        return _encode_str(k)
    if k is None or isinstance(k, (int, float)):
        return _encode_str(_scalar_text(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


_CONTAINERS = (list, tuple, dict)


def _json_text(o, newline="\n"):
    """The text ``json.dumps(o, indent=1, sort_keys=True, allow_nan=False)``
    writes, where `newline` is a line break plus the indent of the line
    that `o` starts on.  Python's `json` formats indented text in pure
    Python, a generator step per token; this writer makes one call per
    container, joins a list of strings at once and leaves each string to
    the C encoder.  Dict items are sorted by their keys as given, then the
    keys are written as `json` writes them, so 9 comes before 10."""
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + " "
        sep = "," + inner
        try:  # a list of strings; the encoder refuses anything else
            body = sep.join(map(_encode_str, o))
        except TypeError:
            body = sep.join([_json_text(x, inner) if isinstance(x, _CONTAINERS)
                             else _scalar_text(x) for x in o])
        return "[" + inner + body + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = newline + " "
        return "{" + inner + ("," + inner).join([
            _key_text(k) + ": "
            + (_json_text(x, inner) if isinstance(x, _CONTAINERS) else _scalar_text(x))
            for k, x in sorted(o.items())]) + newline + "}"
    return _scalar_text(o)


def _emit(args, obj):
    # strict JSON: NaN or an infinity raises instead of printing bare
    text = _json_text(obj)
    if getattr(args, "out", None):
        _write(args.out, text + "\n")
    else:
        print(text)


def _write(path, text):
    """Write an output file; a path that cannot be written is a usage
    error, not a verdict."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise SystemExit_(USAGE, f"cannot write {path}: {e.strerror or e}")


def _load(path):
    """A simple graph from a JSON file; every subcommand that reads one
    works on simple graphs only."""
    try:
        return jsonio.load_graph(path)
    except (OSError, ValueError, GraphError) as e:
        raise SystemExit_(USAGE, f"cannot read graph: {e}")


class SystemExit_(Exception):
    def __init__(self, code, message=None):
        self.code = code
        self.message = message


def _fragment_uniqueness(graph, levels):
    """Exact: the DP's series, stable from level 2, and a one-pattern limit."""
    series = checker.dp_series(levels)
    ok = checker.limit_certificate()["limit_count"] == 1 and all(
        v.stable for v in series if v.level >= 2
    )
    return series, "unique (fragment-tree exact)" if ok else "open", ok


def _quotient_uniqueness(graph, levels):
    """Level-bounded: one Hamilton cycle in each quotient from level 1 on."""
    series = checker.quotient_series(graph(), levels)
    ok = all(v.count == 1 for v in series)
    return series, "unique at tested levels (level-bounded)" if ok else "not unique", ok


@dataclass(frozen=True)
class Generator:
    """One infinite input: its graph, its candidate circle (the --member
    name, a builder from the deepest level to the membership predicate,
    and the first level checked), and its uniqueness engine, which maps
    (graph, deepest level) to (verdicts, claim, whether the claim holds).
    `title` names the input in a member's usage error."""

    title: str
    graph: Callable
    member: str
    circle: Callable
    first_level: int
    uniqueness: Callable


GENERATORS = {
    "double-ladder": Generator("the double ladder", double_ladder, "rails",
                               lambda levels: checker.ladder_rails_member(), 1,
                               _quotient_uniqueness),
    "section5": Generator("section5", section5_graph, "viable-pattern",
                          checker.section5_circle_member, 0, _fragment_uniqueness),
}


def cmd_power(args):
    g = _load(args.graph)
    out = kth_power(g, args.k)
    _emit(args, jsonio.graph_to_obj(out))
    return OK


def cmd_outerplanar(args):
    g = _load(args.graph)
    report = {"budgets": _budgets()}
    outer = minors.is_outerplanar(g)
    report["outerplanar"] = outer
    if not outer:
        k4 = minors.find_k4_subgraph(g)
        report["reason"] = "K4 subgraph" if k4 is not None else "K23 minor"
        _emit(args, report)
        return VIOLATED
    if args.cycle or args.contractible or args.layout:
        if not is_two_connected(g):
            report["error"] = "graph is not 2-connected"
            _emit(args, report)
            return VIOLATED
        if args.contractible:
            report["two_contractible"] = _edge_list(outerplanar.two_contractible_edges(g))
        if args.layout:
            layout = outerplanar.disk_layout(g)
            _write(args.layout, outerplanar.layout_to_svg(layout))
            report["layout"] = args.layout
            # the layout's boundary is the cycle: one circle order serves both
            report["hamilton_cycle"] = _edge_list(layout.boundary)
        elif args.cycle:
            cyc = outerplanar.unique_hamilton_cycle_outerplanar(g)
            report["hamilton_cycle"] = _edge_list(cyc)
    _emit(args, report)
    return OK


def cmd_caterpillar(args):
    g = _load(args.graph)
    report = {"budgets": _budgets()}
    spine = cat.is_caterpillar(g)
    report["caterpillar"] = spine is not None
    if spine is None:
        witness = cat.find_s_k13(g)
        if witness is not None:
            report["subdivided_star"] = _edge_list(witness.edges)
        _emit(args, report)
        return VIOLATED
    report["spine"] = list(spine)
    if args.square_cycle:
        cycle = cat._square_cycle(g, spine)
        report["square_cycle"] = _edge_list(cycle)
    _emit(args, report)
    return OK


def cmd_minor(args):
    g = _load(args.graph)
    pattern = args.pattern.upper()
    w = minors.find_minor(g, pattern)
    report = {"budgets": _budgets(), "pattern": pattern, "found": w is not None}
    if w is not None:
        report["witness"] = w.to_obj()
    _emit(args, report)
    return OK if w is not None else VIOLATED


def cmd_tutte_verify(args):
    # loading validates the counts and the pendant edges; a fragment that
    # fails is an input error
    f = load_tutte_fragment()
    counts = {f"t_minus_{m}": len(p) for m, p in f.patterns.items()}
    _emit(args, {"budgets": _budgets(), **counts, "pendant_edges_used": True})
    return OK


def cmd_construct_gn(args):
    g, ft = build_gn(args.level)
    audit_tree(ft)
    report = jsonio.graph_to_obj(g)
    _emit(args, report)
    print(
        f"level {args.level}: {len(g.vertices)} vertices, "
        f"{len(g.edges)} edges, audit passed",
        file=sys.stderr,
    )
    return OK


def cmd_ends(args):
    lg = GENERATORS[args.generator].graph()
    comps = deep_components(lg, args.radius)
    report = {"budgets": _budgets(), "radius": args.radius, "components": []}
    # components of one class (named by the hint) have the same bounds
    bounds = {}
    for c in comps:
        key = lg.hint.component_class(c.comp_id)
        if key not in bounds:
            bounds[key] = end_degree_bound(lg, c, args.mode, depth=args.depth)
        lo, hi = bounds[key]
        report["components"].append({"id": str(c.comp_id), "cut_size": len(c.cut_edges),
                                     "degree_lower": lo, "degree_upper": hi})
    _emit(args, report)
    return OK


def cmd_unique_circle(args):
    gen = GENERATORS[args.generator]
    series, claim, ok = gen.uniqueness(gen.graph, args.levels)
    levels = [{"level": v.level, "count": v.count, "forced": len(v.forced), "stable": v.stable}
              for v in series]
    _emit(args, {"budgets": _budgets(), "levels": levels, "limit_claim": claim})
    return OK if ok else VIOLATED


def cmd_verify_circle(args):
    gen = GENERATORS[args.generator]
    owner = {g.member: g for g in GENERATORS.values()}[args.member]
    if owner is not gen:
        raise SystemExit_(USAGE, f"member {args.member!r} needs {owner.title}")
    levels = range(gen.first_level, args.levels + 1)
    member = gen.circle(args.levels)
    ok = checker.verify_candidate_circle(gen.graph(), member, levels)
    _emit(args, {"budgets": _budgets(), "member": args.member, "levels": list(levels),
                 "verified": ok})
    return OK if ok else VIOLATED


def _checked(suite, graphs):
    """A suite's graphs; none is a usage error, since nothing is checked."""
    if not graphs:
        raise SystemExit_(USAGE, f"suite {suite} checks no graph")
    return graphs


def _suite_trees(args, rng):
    bad = 0
    for t in _checked("trees", corpus.trees_range(3, args.tree_max)):
        spine = cat.is_caterpillar(t)
        is_cat = spine is not None
        no_star = cat.find_s_k13(t) is None
        sq = len(enumerate_hamilton_cycles(kth_power(t, 2), limit=1)) > 0
        if not (is_cat == no_star == sq):
            bad += 1
        if is_cat:
            cat._square_cycle(t, spine)
    return bad


def _suite_outerplanar(args, rng):
    bad = 0
    for g in _checked("outerplanar", corpus.connected_graphs_upto(args.graph_max)):
        if minors.is_outerplanar(g) != (minors.circular_ordering_oracle(g) is not None):
            bad += 1
    return bad


def _suite_unique_cycle(args, rng):
    bad = 0
    for g in _checked("unique-cycle", corpus.two_connected_outerplanar(4, args.outer_max)):
        cycles = enumerate_hamilton_cycles(g, limit=2)
        # the layout's boundary is the unique Hamilton cycle; building
        # it also checks that no two chords cross.  The paper's claim
        # is that the cycle is the set of 2-contractible edges.
        expect = frozenset(outerplanar.disk_layout(g).boundary)
        if (len(cycles) != 1 or cycles[0] != expect
                or outerplanar.two_contractible_edges(g) != expect):
            bad += 1
    return bad


def _suite_k4(args, rng):
    bad = 0
    for g in corpus.connected_graphs_upto(7):
        if minors.has_k23_minor(g):
            continue
        if not minors.k4_minor_equals_subgraph(g):
            bad += 1
    return bad


def _suite_euler(args, rng):
    bad = 0
    for _ in range(1000):
        m = corpus.random_eulerian_multigraph(rng)
        v = next(x for x in sorted(m.vertices) if len(m.incidence[x]) == 4)
        if len(eulerian_v_splits(m, v)) < 2:
            bad += 1
    for _ in range(200):
        m = corpus.random_two_four_multigraph(rng)
        cat.split_to_cycle(m)
    return bad


def _suite_quotient(args, rng):
    bad = 0
    for _ in range(500):
        g = corpus.random_two_connected(rng)
        k = corpus.random_connected_subset(rng, g, 3)
        if not outerplanar.check_quotient_two_connected(g, k):
            bad += 1
    for _ in range(500):
        g = corpus.random_dissection(rng)
        k0 = corpus.random_connected_subset(rng, g, 1)
        if outerplanar.check_struct1(g, k0):
            bad += 1
    return bad


# the corpus suites in the order they run, each returning its number of
# violations; "--suite all" runs every one of them on one seeded
# generator, so the order fixes each suite's draws
SUITES = {
    "trees": _suite_trees,
    "outerplanar": _suite_outerplanar,
    "unique-cycle": _suite_unique_cycle,
    "k4": _suite_k4,
    "euler": _suite_euler,
    "quotient": _suite_quotient,
}


def cmd_corpus(args):
    rng = random.Random(args.seed)
    results = {}
    for name, suite in SUITES.items():
        if args.suite in ("all", name):
            print(f"suite {name} ...", file=sys.stderr)
            results[name] = {"violations": suite(args, rng)}
    total = sum(r["violations"] for r in results.values())
    _emit(args, {"budgets": _budgets(), "seed": args.seed, "suites": results})
    return OK if total == 0 else VIOLATED


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="hamcircle",
        description="Hamilton cycles in powers, outerplanar certification, "
        "minors, and unique Hamilton circles of lazy infinite graphs.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--out", help="write JSON output to this file")
        return sp

    sp = add("power", cmd_power, help="k-th power of a finite graph")
    sp.add_argument("graph")
    sp.add_argument("-k", type=int, default=2)

    sp = add("outerplanar", cmd_outerplanar, help="outerplanarity verdict")
    sp.add_argument("graph")
    sp.add_argument("--cycle", action="store_true")
    sp.add_argument("--contractible", action="store_true")
    sp.add_argument("--layout", help="write an SVG chord diagram here")

    sp = add("caterpillar", cmd_caterpillar, help="caterpillar recognition")
    sp.add_argument("graph")
    sp.add_argument("--square-cycle", action="store_true")

    sp = add("minor", cmd_minor, help="forbidden-minor search")
    sp.add_argument("graph")
    sp.add_argument("--pattern", required=True, choices=["k4", "k23", "K4", "K23"])

    add("tutte-verify", cmd_tutte_verify, help="validate the cubic gadget counts")

    sp = add("construct-gn", cmd_construct_gn, help="build and audit a level graph")
    sp.add_argument("-n", "--level", type=int, default=2)

    sp = add("ends", cmd_ends, help="deep components and end degree bounds")
    sp.add_argument("--generator", required=True, choices=GENERATORS)
    sp.add_argument("--radius", type=int, default=2)
    sp.add_argument("--mode", choices=["vertex", "edge"], default="vertex")
    sp.add_argument("--depth", type=int, default=8)

    sp = add("unique-circle", cmd_unique_circle, help="quotient uniqueness report")
    sp.add_argument("--generator", required=True, choices=GENERATORS)
    sp.add_argument("--levels", type=int, default=3)

    sp = add("verify-circle", cmd_verify_circle, help="check a candidate circle")
    sp.add_argument("--generator", required=True, choices=GENERATORS)
    sp.add_argument("--member", required=True, choices=[g.member for g in GENERATORS.values()])
    sp.add_argument("--levels", type=int, default=3)

    sp = add("corpus", cmd_corpus, help="run the exhaustive property suites")
    sp.add_argument(
        "--suite",
        default="all",
        choices=["all", *SUITES],
    )
    sp.add_argument("--seed", type=int, default=20260823)
    sp.add_argument("--graph-max", type=int, default=8)
    sp.add_argument("--outer-max", type=int, default=9)
    sp.add_argument("--tree-max", type=int, default=10)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code not in (0,) else 0
    try:
        return args.fn(args)
    except SystemExit_ as e:
        if e.message:
            print(e.message, file=sys.stderr)
        return e.code
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return BUDGET
    except GraphError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except InvariantError as e:
        print(f"internal invariant failed: {e}", file=sys.stderr)
        return INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
