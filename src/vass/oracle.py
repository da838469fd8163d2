"""Brute-force ground truth: explicit-state closure at desk scale.

The oracle exists to be obviously correct, not fast.  One breadth-first
search, `_closure`, walks configurations for every question: coverability
and unboundedness run it under a counter and a node cap, bounded cover
under a bound on the number of steps.  Verdicts are three-valued so
truncation is never confused with a real answer: "no" is only reported
when the reachable set closed completely under the caps, and "unknown"
whenever a cap cut the search before a positive witness appeared.
"""

from __future__ import annotations

import math
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
    counter_cap: float,
    node_cap: float,
    stop: Optional[Callable[[Configuration], bool]] = None,
    steps: float = math.inf,
) -> tuple[set[Configuration], str, Optional[Configuration]]:
    """Breadth-first closure of the valid ``init`` under valid steps,
    discarding counters above ``counter_cap``: the oracle's one search over
    configurations.  It expands one layer per step, at most ``steps``
    layers, each in the order the layer before it found its members.

    Returns ``(seen, outcome, hit)``.  ``outcome`` is "hit" when a newly
    found configuration ``hit`` satisfies ``stop`` (it is not added to
    ``seen``), "capped" when a new configuration would exceed ``node_cap``,
    "truncated" when the search finished but the counter cap discarded
    something or the step bound left a layer unexpanded, and "closed" when
    it finished untouched by any of them.
    """
    seen = {init}
    layer = [init]
    truncated = False
    while layer and steps > 0:
        steps -= 1
        nxt = []
        for q, z in layer:
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
                nxt.append(c)
        layer = nxt
    return seen, ("truncated" if truncated or layer else "closed"), None


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
    """Exhaustive search, at most ``steps`` steps deep, for the
    bounded-coverability question; the unpruned counterpart of
    :func:`vass.objectives.decide_bounded_cover`."""
    require_states(v, UNKNOWN_STATE, init.state, o.target_state)
    if not v.is_valid(init):
        return False
    if objective_contains(o, init):
        return True
    _, outcome, _ = _closure(v, init, math.inf, math.inf,
                             stop=lambda c: objective_contains(o, c),
                             steps=steps)
    return outcome == "hit"
