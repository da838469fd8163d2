"""Bounded-exhaustive check of the fixpoint solver against the oracles.

Every instance of three small sets (`helpers.small_instances`):

- 1 state, weights -3..3, at most 3 edges;
- 2 states, weights -2..2, at most 3 edges;
- 3 states, weights -1..1, at most 2 edges.

For each, `decide_unboundedness` from every state is compared with
`oracle_unbounded`, and `decide_coverability` for every pair of states with
`oracle_cover` (`helpers.oracle_queries`).  It prints the counts and exits
1 on any disagreement or unknown oracle verdict.  It takes a minute or two,
so pytest does not collect it; run it from the repository root with

    PYTHONPATH=src python tests/exhaustive.py
"""

from __future__ import annotations

import sys
import time

from helpers import oracle_queries, small_instances

SETS = ((1, 3, 3), (2, 2, 3), (3, 1, 2))  # (states, max weight, max edges)


def main() -> int:
    t0 = time.perf_counter()
    instances = unbounded = cover = 0
    bad = []
    for n, max_weight, max_edges in SETS:
        for v in small_instances(n, max_weight, max_edges):
            instances += 1
            for query, answer, verdict in oracle_queries(v):
                if len(query) == 1:
                    unbounded += 1
                else:
                    cover += 1
                if not verdict.definite or answer != (verdict.answer == "yes"):
                    bad.append((v, query, answer, verdict.answer))
    for v, query, answer, want in bad[:20]:
        print(f"{query}: solver {answer}, oracle {want}: {v}")
    print(f"{instances} instances, {unbounded} unboundedness and {cover} "
          f"coverability queries, {len(bad)} disagreements or unknown "
          f"verdicts, {time.perf_counter() - t0:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
