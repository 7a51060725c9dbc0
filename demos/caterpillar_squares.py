"""Caterpillars and Hamilton cycles in squares of trees.

Run:  python demos/caterpillar_squares.py
"""

from hamcircle.caterpillar import (
    caterpillar_partition,
    find_s_k13,
    hamilton_cycle_of_square,
    is_caterpillar,
    split_to_cycle,
)
from hamcircle.corpus import trees_range
from hamcircle.graphs import FiniteGraph, MultiGraph, enumerate_hamilton_cycles, kth_power


def main():
    counts = {"caterpillar": 0, "other": 0}
    for t in trees_range(3, 9):
        if is_caterpillar(t) is not None:
            counts["caterpillar"] += 1
            cycle = hamilton_cycle_of_square(t)
            assert len(cycle) == len(t.vertices)
        else:
            counts["other"] += 1
            assert find_s_k13(t) is not None
            assert enumerate_hamilton_cycles(kth_power(t, 2), limit=1) == []
    print("Trees on 3..9 vertices:", counts)
    print("Every caterpillar square got a constructive Hamilton cycle;")
    print("every non-caterpillar contains a subdivided 3-star and has none.")
    print()

    t = FiniteGraph.build(
        ["a", "b", "c", "d", "x", "y"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("b", "x"), ("c", "y")],
    )
    part = caterpillar_partition(t)
    print("Example caterpillar classes:", [sorted(c) for c in part.classes])
    print("Square Hamilton cycle:", sorted(hamilton_cycle_of_square(t)))
    print()

    bowtie = MultiGraph.build(
        {"a", "b", "c", "d", "e"},
        [
            (0, "a", "b"),
            (1, "b", "c"),
            (2, "c", "a"),
            (3, "c", "d"),
            (4, "d", "e"),
            (5, "e", "c"),
        ],
    )
    cycle, history = split_to_cycle(bowtie)
    print(
        "Bowtie resolves to a single cycle after",
        len(history),
        "Eulerian split(s):",
        sorted(cycle.vertices),
    )


if __name__ == "__main__":
    main()
