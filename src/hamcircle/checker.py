"""Certification of unique Hamilton circles through finite quotients.

Two engines:

* a transfer-table dynamic program over the fragment recursion tree
  (exact per level, and exact in the limit via the 3-edge-cut
  factorization: every Hamilton circle crosses each fragment boundary
  exactly twice and therefore induces a Hamilton path missing one
  contact in every copy);
* a generic quotient enumerator that contracts the deep components of a
  lazy graph to surrogate vertices and runs the multigraph Hamilton
  search (used for the double ladder, and to cross-check the DP).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .fragment import (
    Fragment,
    FragmentTree,
    ORACLE_LEVEL_CAP,
    _fragment_local_edges,
    build_gn,
    load_tutte_fragment,
)
from .graphs import (
    InvariantError,
    MultiGraph,
    canon_edge,
    enumerate_hamilton_cycles,
    enumerate_hamilton_paths,
    vkey,
)
from .lazy import LazyGraph, _region, deep_components


@dataclass(frozen=True)
class PathPattern:
    missing: str  # which contact the path avoids
    edges: frozenset  # fragment edges (endpoint pairs)
    c_child_missing: str  # missing contact induced on the c-child
    v_child_missing: str  # ... and on the v-child


@dataclass(frozen=True)
class TransferTable:
    fragment: Fragment
    patterns: dict  # missing contact -> tuple of PathPattern


def _annotate(f: Fragment, missing, path):
    es = frozenset(canon_edge(a, b) for a, b in zip(path, path[1:]))
    c, v = f.roles["c"], f.roles["v"]
    c_missing = _unused_child(f, es, c, {"s": "l", "t": "r"}, l_side=True)
    v_missing = _unused_child(f, es, v, {"w": "u", "x": "l", "y": "r"}, l_side=False)
    return PathPattern(missing, es, c_missing, v_missing)


def _unused_child(f, es, center, roles, l_side):
    g = f.graph
    unused = [n for n in g.adj[center] if canon_edge(center, n) not in es]
    if len(unused) != 1:
        raise InvariantError(f"expected exactly one unused edge at {center}")
    (only,) = unused
    if l_side and only == f.roles["l"]:
        return "u"
    for role, child in roles.items():
        if f.roles[role] == only:
            return child
    raise InvariantError(f"unused neighbor {only} of {center} has no role")


def transfer_table(f: Fragment = None) -> TransferTable:
    if f is None:
        f = load_tutte_fragment()
    pats = {}
    for missing in ("u", "l", "r"):
        paths = enumerate_hamilton_paths(f.graph.without_vertex(f.roles[missing]))
        entries = []
        for p in paths:
            others = {f.roles[m] for m in ("u", "l", "r") if m != missing}
            if {p[0], p[-1]} != others:
                raise InvariantError("Hamilton path does not end at the contacts")
            entries.append(_annotate(f, missing, p))
        pats[missing] = tuple(entries)
    if len(pats["u"]) != 0 or len(pats["r"]) != 2:
        raise InvariantError("transfer table counts contradict the fragment lemma")
    return TransferTable(f, pats)


def viable_patterns(tt: TransferTable, depth: int):
    """Patterns that survive `depth` rounds of child-compatibility pruning."""
    cur = {m: list(tt.patterns[m]) for m in ("u", "l", "r")}
    for _ in range(depth):
        nxt = {
            m: [
                p
                for p in cur[m]
                if cur[p.c_child_missing] and cur[p.v_child_missing]
            ]
            for m in cur
        }
        cur = nxt
    return cur


def stabilized_viable(tt: TransferTable, depth_bound: int = 10):
    """The fixed point of the viability pruning, its depth, and the unique
    surviving missing-r pattern."""
    prev = viable_patterns(tt, 0)
    for d in range(1, depth_bound + 1):
        cur = viable_patterns(tt, d)
        if all(cur[m] == prev[m] for m in cur):
            if all(not cur[m] for m in cur):
                raise InvariantError("viability fixed point is empty: no circle")
            if len(cur["r"]) != 1:
                raise InvariantError(
                    "stabilized missing-r list does not have exactly one entry"
                )
            return cur, d - 1
        prev = cur
    raise InvariantError(f"viability did not stabilize within depth {depth_bound}")


@dataclass(frozen=True)
class QuotientVerdict:
    level: int
    count: int
    forced: frozenset  # forced edges, restricted to persistent edges
    stable: Optional[bool]  # None when no previous level to compare against


def persistent_edges(ft: FragmentTree) -> frozenset:
    """Edges of the level graph that survive into all later levels: all
    but those touching a marked copy's c or v."""
    f = ft.fragment
    dead = set()
    for path in ft.marked:
        dead.add(ft.node_vertex(path, f.roles["c"]))
        dead.add(ft.node_vertex(path, f.roles["v"]))
    return frozenset(e for e in ft.graph.edges if e[0] not in dead and e[1] not in dead)


def _pattern_global_edges(ft: FragmentTree, path, pattern, leaf: bool):
    """Map a fragment path pattern into level-graph edge ids."""
    f = ft.fragment
    g = f.graph
    roles = f.roles
    contacts = ft.nodes[path]
    _, pendants = _fragment_local_edges(f)
    contact_ids = {roles[m]: m for m in ("u", "l", "r")}
    c_loc, v_loc = roles["c"], roles["v"]
    out = set()
    for a, b in pattern.edges:
        if not leaf and c_loc in (a, b) and v_loc not in (a, b):
            other = b if a == c_loc else a
            if other == roles["l"]:
                child_role = "u"
            elif other == roles["s"]:
                child_role = "l"
            else:
                child_role = "r"
            cut = ft.cut_edges_of(path + "c")
            out.add(cut[("u", "l", "r").index(child_role)])
        elif not leaf and v_loc in (a, b):
            other = b if a == v_loc else a
            if other == roles["w"]:
                child_role = "u"
            elif other == roles["x"]:
                child_role = "l"
            else:
                child_role = "r"
            cut = ft.cut_edges_of(path + "v")
            out.add(cut[("u", "l", "r").index(child_role)])
        elif a in contact_ids or b in contact_ids:
            contact = a if a in contact_ids else b
            inner = b if a in contact_ids else a
            role = contact_ids[contact]
            out.add(canon_edge(contacts[role], ft.node_vertex(path, inner)))
        else:
            out.add(
                canon_edge(ft.node_vertex(path, a), ft.node_vertex(path, b))
            )
    return out


def fragment_tree_dp(ft: FragmentTree, tt: TransferTable) -> QuotientVerdict:
    """Count Hamilton cycles of the closed level graph by composing
    per-copy path patterns across the recursion tree, and compute the
    edges common to all of them (restricted to persistent edges)."""
    level = ft.level
    paths_by_depth = {}
    for p in ft.nodes:
        paths_by_depth.setdefault(len(p), []).append(p)
    # bottom-up counts f[node][missing]
    f = {}
    for d in range(level, -1, -1):
        for path in paths_by_depth.get(d, ()):
            leaf = d == level
            fm = {}
            for m in ("u", "l", "r"):
                total = 0
                for pat in tt.patterns[m]:
                    if leaf:
                        total += 1
                    else:
                        total += (
                            f[path + "c"][pat.c_child_missing]
                            * f[path + "v"][pat.v_child_missing]
                        )
                fm[m] = total
            f[path] = fm
    count = sum(f[""][m] for m in ("u", "l", "r"))
    # top-down reachability and forced-edge intersection
    reachable = {"": {m for m in ("u", "l", "r") if f[""][m] > 0}}
    forced = None
    for d in range(0, level + 1):
        for path in sorted(paths_by_depth.get(d, ())):
            leaf = d == level
            child_reach_c, child_reach_v = set(), set()
            node_forced = None
            for m in sorted(reachable.get(path, ())):
                for pat in tt.patterns[m]:
                    if not leaf:
                        if (
                            f[path + "c"][pat.c_child_missing] == 0
                            or f[path + "v"][pat.v_child_missing] == 0
                        ):
                            continue
                        child_reach_c.add(pat.c_child_missing)
                        child_reach_v.add(pat.v_child_missing)
                    ge = _pattern_global_edges(ft, path, pat, leaf)
                    node_forced = ge if node_forced is None else node_forced & ge
            if node_forced:
                forced = node_forced if forced is None else forced | node_forced
            if not leaf:
                reachable[path + "c"] = child_reach_c
                reachable[path + "v"] = child_reach_v
    forced = frozenset(forced or ())
    return QuotientVerdict(level, count, forced & persistent_edges(ft), None)


def dp_series(max_level: int, cap: int = ORACLE_LEVEL_CAP):
    """Verdicts for levels 0..max_level with stabilization flags.

    The stabilization window at level n is the persistent edge set two
    levels down (edges whose copies are fully settled at both compared
    levels); the flag says the forced set no longer changes there.
    """
    tt = transfer_table()
    verdicts = []
    trees = []
    for n in range(max_level + 1):
        g, ft = build_gn(n, cap=cap)
        trees.append(ft)
        verdicts.append(fragment_tree_dp(ft, tt))
    out = []
    for n, v in enumerate(verdicts):
        stable = None
        if n >= 2:
            window = persistent_edges(trees[n - 2])
            stable = (v.forced & window) == (verdicts[n - 1].forced & window)
        out.append(QuotientVerdict(v.level, v.count, v.forced, stable))
    return out


def limit_certificate(tt: TransferTable = None):
    """The limit uniqueness claim: the viability fixed point leaves one
    compatible assignment per fragment, hence one Hamilton circle.
    `limit_count` is the number of patterns left over all missing-contact
    states; the claim holds when it is 1."""
    if tt is None:
        tt = transfer_table()
    fixed, depth = stabilized_viable(tt)
    counts = {m: len(fixed[m]) for m in ("u", "l", "r")}
    return {
        "limit_count": sum(counts.values()),
        "stabilization_depth": depth,
        "pattern_counts": counts,
    }


# ---------------------------------------------------------------------------
# generic quotient engine


def quotient_multigraph(lg: LazyGraph, r: int):
    """Region plus one surrogate vertex per deep component; parallel cut
    edges preserved."""
    region = _region(lg, r)
    comps = deep_components(lg, r)
    records = []
    for v in sorted(region, key=vkey):
        for y in lg.neighbors(v):
            if y in region and vkey(v) < vkey(y):
                records.append((v, y))
    for comp in comps:
        surrogate = f"end:{comp.comp_id}"
        for inside, _finger in sorted(comp.cut_edges, key=lambda e: (vkey(e[0]), vkey(e[1]))):
            records.append((inside, surrogate))
    vertices = set(region) | {f"end:{c.comp_id}" for c in comps}
    edges = [(i, a, b) for i, (a, b) in enumerate(records)]
    return MultiGraph.build(vertices, edges)


def quotient_hamilton(lg: LazyGraph, r: int):
    """All Hamilton cycles of the level-r quotient (edge-id sets), with the
    quotient multigraph itself."""
    m = quotient_multigraph(lg, r)
    cycles = enumerate_hamilton_cycles(m)
    return m, cycles


def verify_candidate_circle(lg: LazyGraph, member, levels) -> bool:
    """Necessary finite-level checks for a candidate Hamilton circle given
    as an edge membership predicate: degree two at every region vertex,
    even crossing count (at least 2) of every deep-component cut, and
    connectivity of the member set on the quotient."""
    for r in levels:
        region = _region(lg, r)
        comps = deep_components(lg, r)
        used = {}
        for v in sorted(region, key=vkey):
            cnt = 0
            for y in lg.neighbors(v):
                if member(canon_edge(v, y)):
                    cnt += 1
            if cnt != 2:
                return False
        # cut parity and connectivity on the quotient
        qverts = set(region) | {f"end:{c.comp_id}" for c in comps}
        qadj = {v: set() for v in qverts}
        for v in region:
            for y in lg.neighbors(v):
                if y in region and member(canon_edge(v, y)):
                    qadj[v].add(y)
                    qadj[y].add(v)
        for c in comps:
            surrogate = f"end:{c.comp_id}"
            crossing = [e for e in c.cut_edges if member(canon_edge(*e))]
            k = len(crossing)
            if k % 2 != 0 or k < 2 or k > len(c.cut_edges):
                return False
            for inside, _ in crossing:
                qadj[inside].add(surrogate)
                qadj[surrogate].add(inside)
        start = min(qverts, key=vkey)
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in qadj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != qverts:
            return False
    return True


# the canonical candidate circle for the fragment limit graph


@lru_cache(maxsize=None)
def limit_circle_edges(max_depth: int) -> frozenset:
    """The unique circle's edges on all copies of depth <= max_depth,
    mapped to persistent global edges."""
    tt = transfer_table()
    fixed, _ = stabilized_viable(tt)
    (p1,) = fixed["r"]
    level = min(max_depth + 3, ORACLE_LEVEL_CAP)
    _, ft = build_gn(level, cap=ORACLE_LEVEL_CAP)
    out = set()
    for path in ft.nodes:
        if len(path) <= max_depth:
            out |= _pattern_global_edges(ft, path, p1, leaf=False)
    return frozenset(out)


def section5_circle_member(max_depth: int = 6):
    edges = limit_circle_edges(max_depth)

    def member(e):
        return canon_edge(*e) in edges

    return member


def ladder_rails_member():
    def member(e):
        a, b = e
        return a.split(":")[2] == b.split(":")[2]

    return member
