"""Brute-force ground truth: explicit-state closure at desk scale.

The oracle exists to be obviously correct, not fast.  Verdicts are
three-valued so truncation is never confused with a real answer: "no" is
only reported when the reachable set closed completely under the caps, and
"unknown" whenever a cap cut the search before a positive witness appeared.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from . import cycles
from .model import (UNKNOWN_SOURCE, UNKNOWN_STATE, Configuration, Vass,
                    require_states)
from .objectives import DiseqObjective, objective_contains

DEFAULT_NODE_CAP = 500_000


@dataclass(frozen=True)
class OracleVerdict:
    answer: str  # "yes" | "no" | "unknown"
    states_explored: int
    reason: str = ""

    @property
    def definite(self) -> bool:
        return self.answer in ("yes", "no")


def default_counter_cap(v: Vass) -> int:
    max_guard = max((g for gs in v.guards for g in gs), default=0)
    max_w = max((abs(t.weight) for t in v.transitions), default=0)
    return max_guard + v.n_states * v.n_states * max_w + 64


def _closure(
    v: Vass,
    init: Configuration,
    counter_cap: int,
    node_cap: int,
    stop: Optional[Callable[[Configuration], bool]] = None,
) -> tuple[set[Configuration], str, Optional[Configuration]]:
    """Breadth-first closure of the valid ``init`` under valid steps,
    discarding counters above ``counter_cap``.

    Returns ``(seen, outcome, hit)``.  ``outcome`` is "hit" when a newly
    found configuration ``hit`` satisfies ``stop`` (it is not added to
    ``seen``), "capped" when a new configuration would exceed ``node_cap``,
    "truncated" when the closure finished but the counter cap discarded
    something, and "closed" when it finished untouched by either cap.
    """
    seen = {init}
    queue = deque([init])
    truncated = False
    while queue:
        q, z = queue.popleft()
        for _, t in v.out_edges(q):
            y = z + t.weight
            if y < 0 or y in v.guards[t.dst]:
                continue
            if y > counter_cap:
                truncated = True
                continue
            c = Configuration(t.dst, y)
            if c in seen:
                continue
            if stop is not None and stop(c):
                return seen, "hit", c
            if len(seen) >= node_cap:
                return seen, "capped", None
            seen.add(c)
            queue.append(c)
    return seen, ("truncated" if truncated else "closed"), None


def _verdict(seen: set, outcome: str, yes: str, no: str) -> OracleVerdict:
    if outcome == "hit":
        return OracleVerdict("yes", len(seen) + 1, yes)
    if outcome == "capped":
        return OracleVerdict("unknown", len(seen), "node cap exhausted")
    if outcome == "truncated":
        return OracleVerdict("unknown", len(seen), "counter cap exceeded")
    return OracleVerdict("no", len(seen), no)


def _graph_reaches(v: Vass, s: int, t: int) -> bool:
    """Does some path of the underlying graph, counters and guards
    ignored, lead from ``s`` to ``t``?"""
    seen = {s}
    stack = [s]
    while stack:
        for _, e in v.out_edges(stack.pop()):
            if e.dst == t:
                return True
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return False


def oracle_cover(
    v: Vass,
    s: int,
    t: int,
    counter_cap: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> OracleVerdict:
    """Can ``(s, 0)`` reach state ``t`` by a valid run?

    A ``t`` that no path of the graph reaches from ``s`` is "no" before the
    closure, so neither cap can leave it "unknown" (a ``node_cap`` of 0
    still gives "unknown")."""
    require_states(v, UNKNOWN_STATE, s, t)
    cap = default_counter_cap(v) if counter_cap is None else counter_cap
    if node_cap <= 0:
        return OracleVerdict("unknown", 0, "node cap exhausted")
    init = Configuration(s, 0)
    if not v.is_valid(init):
        return OracleVerdict("no", 0, "initial configuration is invalid")
    if s == t:
        return OracleVerdict("yes", 1, "empty run")
    if not _graph_reaches(v, s, t):
        return OracleVerdict("no", 1, "target unreachable in the graph")
    seen, outcome, _ = _closure(v, init, cap, node_cap,
                                lambda c: c.state == t)
    return _verdict(seen, outcome, "target reached",
                    "closure complete, target unreached")


def oracle_unbounded(
    v: Vass,
    s: int,
    counter_cap: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> OracleVerdict:
    """Is the set of configurations reachable from ``(s, 0)`` infinite?

    Fires "yes" as soon as the closure reaches a configuration from which
    the state's selected cycle pumps forever (counter outside its
    `cycles.blocked_omega`); reports "no" only when the closure finished
    untruncated, which by itself certifies a finite reachable set.
    """
    require_states(v, UNKNOWN_SOURCE, s)
    cap = default_counter_cap(v) if counter_cap is None else counter_cap
    if node_cap <= 0:
        return OracleVerdict("unknown", 0, "node cap exhausted")
    init = Configuration(s, 0)
    if not v.is_valid(init):
        return OracleVerdict("no", 0, "initial configuration is invalid")
    blocked = {q: cycles.blocked_omega(v, sel)
               for q, sel in cycles.select_cycles(v).items()}

    def pumps(c: Configuration) -> bool:
        b = blocked.get(c.state)
        return b is not None and c.counter not in b

    if pumps(init):
        return OracleVerdict("yes", 1, "initial configuration pumps")
    seen, outcome, hit = _closure(v, init, cap, node_cap, pumps)
    yes = f"pumpable at {v.names[hit.state]}:{hit.counter}" if hit else ""
    return _verdict(seen, outcome, yes, "reachable set is finite")


def oracle_bounded_cover(
    v: Vass, init: Configuration, o: DiseqObjective, steps: int
) -> bool:
    """Exhaustive layered search for the bounded-coverability question; the
    unpruned counterpart of :func:`vass.objectives.decide_bounded_cover`."""
    require_states(v, UNKNOWN_STATE, init.state, o.target_state)
    if not v.is_valid(init):
        return False
    frontier = {init}
    seen = {init}
    if any(objective_contains(o, c) for c in frontier):
        return True
    for _ in range(steps):
        nxt = set()
        for q, z in frontier:
            for _, t in v.out_edges(q):
                y = z + t.weight
                if y < 0 or y in v.guards[t.dst]:
                    continue
                c = Configuration(t.dst, y)
                if c not in seen:
                    seen.add(c)
                    nxt.add(c)
        if any(objective_contains(o, c) for c in nxt):
            return True
        frontier = nxt
        if not frontier:
            break
    return False
