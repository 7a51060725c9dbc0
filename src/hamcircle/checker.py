"""Certification of unique Hamilton circles through finite quotients.

The finite window at level r is the quotient of a hinted lazy graph
(`lazy.quotient_multigraph`): the region plus one surrogate vertex per
deep component.  Two engines:

* a transfer-table dynamic program on one per-depth table f[d][m], the
  number of compositions of a copy with d levels below it that miss
  contact m (exact per level, and exact in the limit via the 3-edge-cut
  factorization: every Hamilton circle crosses each fragment boundary
  exactly twice and therefore induces a Hamilton path missing one
  contact in every copy).  The counts and the forced edges read off its
  rows; edges are named by the limit graph's wiring and kept inside the
  level's region;
* a generic quotient enumerator that runs the multigraph Hamilton search
  on the window (used for the double ladder, and to cross-check the DP).

The candidate-circle check reads its member edges off the same window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .fragment import (
    ROLES,
    Fragment,
    copy_paths,
    load_tutte_fragment,
    section5_graph,
)
from .graphs import (
    GraphError,
    InvariantError,
    MultiGraph,
    canon_edge,
    enumerate_hamilton_cycles,
)
from .lazy import LazyGraph, quotient_multigraph, quotient_window


@dataclass(frozen=True)
class PathPattern:
    edges: frozenset  # fragment edges (endpoint pairs)
    c_child_missing: str  # missing contact induced on the c-child
    v_child_missing: str  # ... and on the v-child


@dataclass(frozen=True)
class TransferTable:
    fragment: Fragment
    patterns: dict  # missing contact -> tuple of PathPattern


def _annotate(f: Fragment, es):
    # the child replacing c (then v) misses the contact wired to the
    # neighbour whose edge the pattern leaves unused
    child_missing = []
    for center, (_, nbrs) in f.children.items():
        unused = [n for n in nbrs if canon_edge(center, n) not in es]
        if len(unused) != 1:
            raise InvariantError(f"expected exactly one unused edge at {center}")
        child_missing.append(ROLES[nbrs.index(unused[0])])
    return PathPattern(es, *child_missing)


def transfer_table() -> TransferTable:
    """The gadget's patterns with their children's missing contacts."""
    f = load_tutte_fragment()
    return TransferTable(f, {m: tuple(_annotate(f, es) for es in f.patterns[m]) for m in ROLES})


def _ways(below, p: PathPattern) -> int:
    """Compositions of p's two children, from their depth's row."""
    return below[p.c_child_missing] * below[p.v_child_missing]


def _rows(tt: TransferTable, depth: int):
    """The per-depth table f[d][m], d = 0..depth: the number of compositions
    of a copy with d levels of copies below it that miss contact m.  Every
    copy of one depth composes alike."""
    rows = [{m: len(tt.patterns[m]) for m in ROLES}]
    for _ in range(depth):
        below = rows[-1]
        rows.append({m: sum(_ways(below, p) for p in tt.patterns[m]) for m in ROLES})
    return rows


def _live(tt: TransferTable, rows, d: int, m: str):
    """The patterns missing m that a copy with d levels below it can use:
    all at d = 0, else those whose children count above zero at d - 1."""
    return [p for p in tt.patterns[m] if d == 0 or _ways(rows[d - 1], p)]


def stabilized_viable(tt: TransferTable):
    """The fixed point of the child-compatibility pruning, its depth, and
    the unique surviving missing-r pattern.

    Round d keeps the patterns whose child states both lie in S_(d-1):
    S_0 holds the states with a pattern, S_d those with one kept in round
    d.  By induction on d, S_d holds the states that count above zero at
    depth d of the DP's table, and lies inside S_(d-1).  So this chain of
    subsets of ROLES either stops, S_(k-1) = S_k with k <= len(ROLES), and
    round k + 1 repeats round k, or S_len(ROLES) and the rounds from
    len(ROLES) on are empty: two rounds agree by round len(ROLES) + 1."""
    bound = len(ROLES) + 1
    prev = {m: list(tt.patterns[m]) for m in ROLES}
    for d in range(1, bound + 1):
        states = {m for m in ROLES if prev[m]}
        cur = {m: [p for p in tt.patterns[m] if {p.c_child_missing, p.v_child_missing} <= states]
               for m in ROLES}
        if cur == prev:
            if all(not cur[m] for m in cur):
                raise InvariantError("viability fixed point is empty: no circle")
            if len(cur["r"]) != 1:
                raise InvariantError(
                    "stabilized missing-r list does not have exactly one entry"
                )
            return cur, d - 1
        prev = cur
    else:
        raise InvariantError(f"viability did not stabilize within depth {bound}")


@dataclass(frozen=True)
class QuotientVerdict:
    level: int
    count: int
    forced: frozenset  # forced edges with both ends in the level's region
    stable: Optional[bool]  # None when no previous level to compare against


def _inside(edges, region) -> frozenset:
    """The edges with both ends in `region`."""
    return frozenset(e for e in edges if e[0] in region and e[1] in region)


def fragment_tree_dp(tt: TransferTable, level: int, region: frozenset) -> QuotientVerdict:
    """Count Hamilton cycles of the closed level graph from the per-depth
    table, and compute the edges common to all of them: limit edges (those
    at c and v map through the children's pendants) with both ends in the
    level's `region`.  Top-down, a copy's reachable contacts give its live
    patterns and those its children's; `Fragment.edge` is injective on one
    copy's local edges, so their common edges are named once."""
    frag = tt.fragment
    rows = _rows(tt, level)
    reach = {"": {m for m in ROLES if rows[level][m]}}
    forced = set()
    for path in copy_paths(frag, level):  # shallowest first
        d = level - len(path)
        live = [p for m in reach.pop(path) for p in _live(tt, rows, d, m)]
        if d:
            reach[path + "c"] = {p.c_child_missing for p in live}
            reach[path + "v"] = {p.v_child_missing for p in live}
        if live:
            common = frozenset.intersection(*(p.edges for p in live))
            forced.update(frag.edge(path, a, b) for a, b in common)
    return QuotientVerdict(level, sum(rows[level].values()), _inside(forced, region), None)


def dp_series(max_level: int):
    """Verdicts for levels 0..max_level with stabilization flags.

    The stabilization window at level n is the region two levels down
    (edges whose copies are fully settled at both compared levels); the
    flag says the forced set no longer changes there.  Each level's region
    is built once, the deepest first, so `copy_paths` rejects a level
    before any DP runs.
    """
    hint = section5_graph().hint
    deepest = hint.region(max_level)
    regions = [hint.region(n) for n in range(max_level)] + [deepest]
    tt = transfer_table()
    out = []
    for n, region in enumerate(regions):
        v = fragment_tree_dp(tt, n, region)
        stable = None
        if n >= 2:
            window = regions[n - 2]
            stable = _inside(v.forced, window) == _inside(out[n - 1].forced, window)
        out.append(QuotientVerdict(n, v.count, v.forced, stable))
    return out


def limit_certificate(tt: TransferTable = None):
    """The limit uniqueness claim: the viability fixed point leaves one
    compatible assignment per fragment, hence one Hamilton circle.
    `limit_count` is the number of patterns left over all missing-contact
    states; the claim holds when it is 1."""
    if tt is None:
        tt = transfer_table()
    fixed, depth = stabilized_viable(tt)
    counts = {m: len(fixed[m]) for m in ROLES}
    return {
        "limit_count": sum(counts.values()),
        "stabilization_depth": depth,
        "pattern_counts": counts,
    }


# ---------------------------------------------------------------------------
# generic quotient engine


def quotient_hamilton(lg: LazyGraph, r: int):
    """All Hamilton cycles of the level-r quotient (edge-id sets), with the
    quotient multigraph itself."""
    m = quotient_multigraph(lg, r)
    cycles = enumerate_hamilton_cycles(m)
    return m, cycles


def quotient_series(lg: LazyGraph, max_level: int):
    """Verdicts for levels 1..max_level from the quotient enumerator, in
    level order: each level's cycle count and the edge ids common to all
    its cycles.  No levels is an error.  The levels are checked deepest
    first, so a level over the vertex budget is refused before any
    search."""
    if max_level < 1:
        raise GraphError("no levels to check")
    out = []
    for r in range(max_level, 0, -1):
        _, cycles = quotient_hamilton(lg, r)
        forced = frozenset.intersection(*cycles) if cycles else frozenset()
        out.append(QuotientVerdict(r, len(cycles), forced, None))
    return out[::-1]


def verify_candidate_circle(lg: LazyGraph, member, levels) -> bool:
    """Necessary finite-level checks on each level's quotient for a
    candidate Hamilton circle given as an edge membership predicate:
    degree two at every region vertex, an even crossing count (at least 2)
    at every surrogate, and the member edges connected.  This relies on
    the hint listing every edge that leaves the region as a cut edge, as
    the quotient does.  No levels is an error; the levels are checked
    deepest first, so a level over the vertex budget is refused before any
    check."""
    levels = sorted(levels, reverse=True)
    if not levels:
        raise GraphError("no levels to check")
    for r in levels:
        region, comps, records = quotient_window(lg, r)
        surrogates = [c.surrogate for c in comps]
        m = MultiGraph.build(
            region.union(surrogates),
            [(i, a, b) for i, (a, b, e) in enumerate(records) if member(e)],
        )
        if any(m.degree(v) != 2 for v in region):
            return False
        if any(m.degree(s) % 2 or m.degree(s) < 2 for s in surrogates):
            return False
        if not m.is_connected_on_support():
            return False
    return True


# the canonical candidate circle for the fragment limit graph


@lru_cache(maxsize=None)
def limit_circle_edges(max_depth: int) -> frozenset:
    """The unique circle's edges on all copies of depth <= max_depth, as
    edges of the limit graph: each copy's missing-r pattern, its edges at
    c and v mapped through the children's pendants."""
    tt = transfer_table()
    fixed, _ = stabilized_viable(tt)
    (p1,) = fixed["r"]
    f = tt.fragment
    return frozenset(
        f.edge(path, a, b) for path in copy_paths(f, max_depth) for a, b in p1.edges
    )


def section5_circle_member(max_depth: int):
    """The unique circle's edges on the copies of depth <= max_depth."""
    edges = limit_circle_edges(max_depth)
    return lambda e: canon_edge(*e) in edges


def ladder_rails_member():
    """The double ladder's rails: the edges with both ends on one side."""
    return lambda e: e[0].split(":")[2] == e[1].split(":")[2]
