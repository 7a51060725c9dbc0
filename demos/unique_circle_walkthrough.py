"""Walk through the unique-Hamilton-circle certification pipeline.

Run:  python demos/unique_circle_walkthrough.py
"""

from hamcircle.checker import (
    dp_series,
    limit_certificate,
    quotient_hamilton,
    section5_circle_member,
    stabilized_viable,
    transfer_table,
    verify_candidate_circle,
)
from hamcircle.fragment import build_gn, load_tutte_fragment, section5_graph


def main():
    f = load_tutte_fragment()
    print("The cubic gadget has 18 vertices; contacts:", f.contacts)
    for role in ("u", "l", "r"):
        print(f"  Hamilton paths avoiding contact {role}: {len(f.patterns[role])}")
    print()

    print("Recursive levels (each marked copy spawns two children):")
    for n in range(4):
        g, _ = build_gn(n)
        print(f"  level {n}: {len(g.vertices)} vertices, all of degree 3")
    print()

    tt = transfer_table()
    fixed, depth = stabilized_viable(tt)
    print(
        "Viability pruning of per-copy path patterns stabilizes at depth",
        depth,
        "leaving",
        {m: len(fixed[m]) for m in fixed},
    )
    print()

    print("Tree DP vs. brute-force quotient enumeration:")
    lg = section5_graph()
    for verdict in dp_series(2):
        _, cycles = quotient_hamilton(lg, verdict.level)
        print(
            f"  level {verdict.level}: DP count {verdict.count}, "
            f"enumerated {len(cycles)}, stable={verdict.stable}"
        )
    print()

    cert = limit_certificate(tt)
    print("Limit certificate:", cert)
    member = section5_circle_member(6)
    ok = verify_candidate_circle(lg, member, range(0, 4))
    print("Candidate circle passes all finite-level cut/degree checks:", ok)


if __name__ == "__main__":
    main()
