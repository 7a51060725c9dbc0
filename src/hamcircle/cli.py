"""Command-line interface.

One binary, subcommand style.  Exit codes: 0 success/verified, 1 property
violated, 2 usage or input error, 3 budget exceeded, 4 internal invariant
failed (``InvariantError``: a bug, not a verdict).  Diagnostics go to
stderr; data goes to stdout or --out.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import caterpillar as cat
from . import checker, corpus, jsonio, lazy, minors, outerplanar
from .fragment import (
    build_gn,
    audit_tree,
    load_tutte_fragment,
    section5_graph,
)
from .graphs import (
    GraphError,
    InvariantError,
    MultiGraph,
    canon_edge,
    ekey,
    enumerate_hamilton_cycles,
    eulerian_v_splits,
    kth_power,
)
from .lazy import (
    BudgetError,
    deep_components,
    double_ladder,
    end_degree_bound,
)

OK, VIOLATED, USAGE, BUDGET, INVARIANT = 0, 1, 2, 3, 4


def _budgets():
    return {"max_vertices": lazy.DEFAULT_VERTEX_BUDGET}


def _edge_list(edges):
    """Edges as [a, b] pairs, ordered as the library orders them: each
    pair and the list by the ids' `str` forms."""
    return [list(canon_edge(*e)) for e in sorted(edges, key=ekey)]


def _emit(args, obj):
    text = json.dumps(obj, indent=1, sort_keys=True)
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
        g = jsonio.load_graph(path)
    except (OSError, ValueError, GraphError) as e:
        raise SystemExit_(USAGE, f"cannot read graph: {e}")
    if isinstance(g, MultiGraph):
        raise SystemExit_(USAGE, "cannot read graph: multigraphs are not supported here")
    return g


class SystemExit_(Exception):
    def __init__(self, code, message=None):
        self.code = code
        self.message = message


GENERATORS = {"double-ladder": double_ladder, "section5": section5_graph}


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
        from .graphs import is_two_connected

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
        cycle = cat.hamilton_cycle_of_square(g)
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
    report = {
        "budgets": _budgets(),
        "t_minus_u": len(f.hamilton_paths["u"]),
        "t_minus_r": len(f.hamilton_paths["r"]),
        "t_minus_l": len(f.hamilton_paths["l"]),
        "pendant_edges_used": True,
    }
    _emit(args, report)
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
    lg = GENERATORS[args.generator]()
    comps = deep_components(lg, args.radius)
    report = {"budgets": _budgets(), "radius": args.radius, "components": []}
    for c in comps:
        lo, hi = end_degree_bound(lg, c, args.mode, depth=args.depth)
        report["components"].append(
            {
                "id": str(c.comp_id),
                "cut_size": len(c.cut_edges),
                "degree_lower": lo,
                "degree_upper": hi,
            }
        )
    _emit(args, report)
    return OK


def cmd_unique_circle(args):
    lg = GENERATORS[args.generator]()
    levels = []
    all_one = True
    if args.generator == "section5":
        series = checker.dp_series(args.levels)
        for v in series:
            levels.append(
                {
                    "level": v.level,
                    "count": v.count,
                    "forced": len(v.forced),
                    "stable": v.stable,
                }
            )
        limit = checker.limit_certificate()
        all_one = limit["limit_count"] == 1 and all(
            v.stable for v in series if v.level >= 2
        )
        claim = "unique (fragment-tree exact)" if all_one else "open"
    else:
        if args.levels < 1:
            raise SystemExit_(USAGE, "no levels to check")
        for r in range(1, args.levels + 1):
            m, cycles = checker.quotient_hamilton(lg, r)
            if len(cycles) != 1:
                all_one = False
            forced = set(cycles[0]) if cycles else set()
            for c in cycles[1:]:
                forced &= c
            levels.append(
                {"level": r, "count": len(cycles), "forced": len(forced), "stable": None}
            )
        claim = (
            "unique at tested levels (level-bounded)" if all_one else "not unique"
        )
    report = {"budgets": _budgets(), "levels": levels, "limit_claim": claim}
    _emit(args, report)
    return OK if all_one else VIOLATED


def cmd_verify_circle(args):
    lg = GENERATORS[args.generator]()
    if args.member == "rails":
        if args.generator != "double-ladder":
            raise SystemExit_(USAGE, "member 'rails' needs the double ladder")
        member = checker.ladder_rails_member()
        levels = range(1, args.levels + 1)
    else:
        if args.generator != "section5":
            raise SystemExit_(USAGE, "member 'viable-pattern' needs section5")
        member = checker.section5_circle_member(args.levels)
        levels = range(0, args.levels + 1)
    ok = checker.verify_candidate_circle(lg, member, levels)
    _emit(
        args,
        {
            "budgets": _budgets(),
            "member": args.member,
            "levels": list(levels),
            "verified": ok,
        },
    )
    return OK if ok else VIOLATED


def cmd_corpus(args):
    rng = random.Random(args.seed)
    results = {}

    def run(name, fn):
        print(f"suite {name} ...", file=sys.stderr)
        results[name] = fn()

    if args.suite in ("all", "trees"):
        def trees():
            bad = 0
            for t in corpus.trees_range(3, args.tree_max):
                is_cat = cat.is_caterpillar(t) is not None
                no_star = cat.find_s_k13(t) is None
                sq = len(enumerate_hamilton_cycles(kth_power(t, 2), limit=1)) > 0
                if not (is_cat == no_star == sq):
                    bad += 1
                if is_cat:
                    cat.hamilton_cycle_of_square(t)
            return {"violations": bad}

        run("trees", trees)
    if args.suite in ("all", "outerplanar"):
        def outer():
            bad = 0
            for g in corpus.connected_graphs_upto(args.graph_max):
                if minors.is_outerplanar(g) != (
                    minors.circular_ordering_oracle(g) is not None
                ):
                    bad += 1
            return {"violations": bad}

        run("outerplanar", outer)
    if args.suite in ("all", "unique-cycle"):
        def uniq():
            bad = 0
            for g in corpus.two_connected_outerplanar(4, args.outer_max):
                cycles = enumerate_hamilton_cycles(g, limit=2)
                # the layout's boundary is the unique Hamilton cycle; building
                # it also checks that no two chords cross.  The paper's claim
                # is that the cycle is the set of 2-contractible edges.
                expect = frozenset(outerplanar.disk_layout(g).boundary)
                if (len(cycles) != 1 or cycles[0] != expect
                        or outerplanar.two_contractible_edges(g) != expect):
                    bad += 1
            return {"violations": bad}

        run("unique-cycle", uniq)
    if args.suite in ("all", "k4"):
        def k4():
            bad = 0
            for g in corpus.connected_graphs_upto(7):
                if minors.has_k23_minor(g):
                    continue
                if not minors.k4_minor_equals_subgraph(g):
                    bad += 1
            return {"violations": bad}

        run("k4", k4)
    if args.suite in ("all", "euler"):
        def euler():
            bad = 0
            for _ in range(1000):
                m = corpus.random_eulerian_multigraph(rng)
                v = next(
                    x for x in sorted(m.vertices) if len(m.incidence[x]) == 4
                )
                if len(eulerian_v_splits(m, v)) < 2:
                    bad += 1
            for _ in range(200):
                m = corpus.random_two_four_multigraph(rng)
                cat.split_to_cycle(m)
            return {"violations": bad}

        run("euler", euler)
    if args.suite in ("all", "quotient"):
        def quo():
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
            return {"violations": bad}

        run("quotient", quo)
    total = sum(r["violations"] for r in results.values())
    _emit(args, {"budgets": _budgets(), "seed": args.seed, "suites": results})
    return OK if total == 0 else VIOLATED


def build_parser():
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
    sp.add_argument("--member", required=True, choices=["rails", "viable-pattern"])
    sp.add_argument("--levels", type=int, default=3)

    sp = add("corpus", cmd_corpus, help="run the exhaustive property suites")
    sp.add_argument(
        "--suite",
        default="all",
        choices=["all", "trees", "outerplanar", "unique-cycle", "k4", "euler", "quotient"],
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
