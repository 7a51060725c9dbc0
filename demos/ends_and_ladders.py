"""Ends of infinite graphs through finite windows: the double ladder.

Run:  python demos/ends_and_ladders.py
"""

from hamcircle.checker import ladder_rails_member, quotient_hamilton, verify_candidate_circle
from hamcircle.lazy import ball, deep_components, double_ladder, end_degree_bound


def main():
    lad = double_ladder()
    print("Ball sizes around the root:", [len(ball(lad, r).vertices) for r in range(5)])

    comps = deep_components(lad, 3)
    print("Removing the radius-3 region leaves", len(comps), "infinite components:")
    for c in comps:
        lo, hi = end_degree_bound(lad, c, "edge", depth=8)
        print(f"  {c.comp_id}: cut size {len(c.cut_edges)}, end edge-degree in [{lo}, {hi}]")

    print()
    for r in (1, 3, 6):
        _, cycles = quotient_hamilton(lad, r)
        print(f"Level-{r} quotient has {len(cycles)} Hamilton cycle(s).")
    ok = verify_candidate_circle(lad, ladder_rails_member(), range(1, 7))
    print("The two rails form the unique Hamilton circle; verified:", ok)


if __name__ == "__main__":
    main()
