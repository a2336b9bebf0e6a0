"""FIG2 — Figure 2: the thirteen temporal relationships.

Claims reproduced:

* the thirteen operators are exactly syntactic sugar for their explicit
  endpoint constraints (classifier == desugared predicate, everywhere);
* exactly one relation holds per interval pair (they partition the
  space);
* every one of the thirteen relations occurs over a dense interval
  universe.
"""

from itertools import combinations

from repro.allen import ALL_RELATIONS, classify, constraint_for
from repro.model import Interval

from .conftest import print_table

UNIVERSE = [Interval(a, b) for a, b in combinations(range(14), 2)]


def classify_universe():
    counts = {relation: 0 for relation in ALL_RELATIONS}
    for x in UNIVERSE:
        for y in UNIVERSE:
            counts[classify(x, y)] += 1
    return counts


def test_fig2_partition_and_sugar():
    counts = classify_universe()

    # Partition: every pair classified, all 13 relations realised.
    total_pairs = len(UNIVERSE) ** 2
    assert sum(counts.values()) == total_pairs
    assert all(count > 0 for count in counts.values())

    # Syntactic sugar: the desugared constraints agree exactly.
    small = [Interval(a, b) for a, b in combinations(range(6), 2)]
    for relation in ALL_RELATIONS:
        conjunction = constraint_for(relation)
        for x in small:
            for y in small:
                assert conjunction.evaluate({"X": x, "Y": y}) == (
                    classify(x, y) is relation
                )

    rows = [
        f"{relation.value:16s} {count:8d} {count / total_pairs:8.2%}"
        for relation, count in sorted(
            counts.items(), key=lambda kv: -kv[1]
        )
    ]
    print_table(
        f"Figure 2 reproduced: relation frequencies over {total_pairs} "
        "interval pairs",
        f"{'relation':16s} {'pairs':>8s} {'share':>8s}",
        rows,
    )
