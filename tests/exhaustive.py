"""Bounded-exhaustive check of the fixpoint solver against the oracles.

Every instance of three small sets (`helpers.small_instances`):

- 1 state, weights -3..3, at most 3 edges;
- 2 states, weights -2..2, at most 3 edges;
- 3 states, weights -1..1, at most 2 edges.

For each, `decide_unboundedness` from every state is compared with
`oracle_unbounded`, and `decide_coverability` for every pair of states with
`oracle_cover` (`helpers.oracle_queries`).  On the guard-free instances
the lasso test answers the same queries against the same verdicts
(`helpers.pareto_answer`).  The saturated set itself is
checked too: at every pumpable state ``q`` of the split instance, each
non-guard counter ``z`` from the floor up to 11 above it is in the set
``unbounded_core(analyze(...))`` returns iff `oracle_unbounded` finds
``(q, z)`` unbounded.  An instance that holds a multi-guard state gets a
second, native pass: the same check, and the forced-core check below, on
the instance as given, whose states carry their guard sets unsplit.  The answers alone cannot show which chain maxima the
round raised, since a query reaches the saturated set iff it reaches the
seed set (`unbounded_core`, step (b)), and a NO runs no round at all.
The membership tests raise only the chains they look up; each core is then
forced and its ``per_chain_max`` compared with a fresh eager round,
`helpers.eager_round`: `saturate_step` over every chain from the seed set.
The split instance's `select_cycles` is also compared with the full
leveled DP, `helpers.select_cycles_reference`: `oracle_unbounded` builds
its pumping test from `select_cycles`, so the oracles share its ring
branch and cannot arbitrate it.  It prints the counts and exits 1 on any
disagreement or unknown oracle verdict.  It takes about two minutes, so pytest does not collect it; run
it from the repository root with

    PYTHONPATH=src python tests/exhaustive.py
"""

from __future__ import annotations

import sys
import time

from helpers import (eager_round, oracle_queries, pareto_answer,
                     select_cycles_reference, small_instances)
from vass import (Configuration, USet, analyze, normalize_guards,
                  select_cycles, unbounded_core, with_start_counter)
from vass.fixpoint import DEFAULT_NODE_CAP, Budget
from vass.oracle import oracle_unbounded

SETS = ((1, 3, 3), (2, 2, 3), (3, 1, 2))  # (states, max weight, max edges)
ABOVE_FLOOR = 12  # counters checked per pumpable state: floor .. floor + 11


def membership(core):
    """``(q, z, member, verdict)`` for every counter the set check tests in
    the instance of ``core``."""
    vn = core.analysis.vass
    for q, sa in sorted(core.analysis.states.items()):
        for z in range(sa.floor, sa.floor + ABOVE_FLOOR):
            if z not in vn.guards[q]:
                yield (q, z, core.contains(Configuration(q, z)),
                       oracle_unbounded(*with_start_counter(vn, z, q)))


def fresh_round(analysis) -> tuple[dict, bool]:
    """``(per_chain_max, truncated)`` of one eager round over every chain."""
    out = eager_round(USet(analysis), Budget(DEFAULT_NODE_CAP))
    return out.uset.per_chain_max, out.truncated


def main() -> int:
    t0 = time.perf_counter()
    instances = unbounded = cover = lasso = members = selections = cores = 0
    native = 0
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
                if not v.has_guards:
                    lasso += 1
                    got = pareto_answer(v, query)
                    if got != (verdict.answer == "yes"):
                        bad.append((v, ("lasso",) + query, got, verdict.answer))
            vn = normalize_guards(v)
            sels = select_cycles(vn)
            selections += len(sels)
            if sels != select_cycles_reference(vn):
                bad.append((v, ("select_cycles",), sels, "the full DP"))
            solved = (vn,) if vn is v else (vn, v)
            native += len(solved) - 1
            for w in solved:  # the split instance, then the native pass
                core = unbounded_core(analyze(w))
                for q, z, member, verdict in membership(core):
                    members += 1
                    if not verdict.definite or member != (verdict.answer == "yes"):
                        bad.append((w, ("member", q, z), member, verdict.answer))
                maxima, truncated = fresh_round(core.analysis)
                forced = (core.per_chain_max, core.status == "incomplete")
                cores += 1
                if forced != (maxima, truncated) or truncated:
                    bad.append((w, ("per_chain_max",), forced, maxima))
    for v, query, answer, want in bad[:20]:
        print(f"{query}: solver {answer}, oracle {want}: {v}")
    print(f"{instances} instances, {unbounded} unboundedness and {cover} "
          f"coverability queries, {lasso} of them also by the lasso test, "
          f"{members} memberships, {cores} forced cores ({native} of them "
          f"of a multi-guard instance as given), {selections} "
          f"selections, {len(bad)} disagreements or unknown verdicts, "
          f"{time.perf_counter() - t0:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
