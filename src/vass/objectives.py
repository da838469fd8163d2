"""Length-bounded coverability of disequality objectives.

An objective fixes a target state and accepts counter values ``x >= ell``
that avoid a set of residues modulo a period and a finite set of exact
values.  The decision procedure runs a layered forward search whose per-state
sets are pruned to polynomial size: among same-residue values only the
largest ``n + L`` survive, and per state only the largest ``(n+L)(m+1)``
overall -- enough, provably, to preserve some value that can still follow
any path a deleted value could have followed to the objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import UNKNOWN_STATE, Configuration, Path, Vass, require_states


@dataclass(frozen=True)
class DiseqObjective:
    target_state: int
    ell: int
    period: int
    forbidden_residues: frozenset[int] = frozenset()
    forbidden_values: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.ell < 0:
            raise ValueError("lower bound must be nonnegative")
        if any(not (0 <= a < self.period) for a in self.forbidden_residues):
            raise ValueError("forbidden residues must lie in [0, period)")
        if any(b < 0 for b in self.forbidden_values):
            raise ValueError("forbidden values must be nonnegative")

    @property
    def empty(self) -> bool:
        return len(self.forbidden_residues) >= self.period


def objective_contains(o: DiseqObjective, c: Configuration) -> bool:
    return (
        c.state == o.target_state
        and c.counter >= o.ell
        and c.counter % o.period not in o.forbidden_residues
        and c.counter not in o.forbidden_values
    )


@dataclass(frozen=True)
class BoundedCoverResult:
    reachable: bool
    witness: Optional[Path] = None
    max_layer: int = 0


def decide_bounded_cover(
    v: Vass,
    init: Configuration,
    o: DiseqObjective,
    steps: int,
    want_witness: bool = False,
) -> BoundedCoverResult:
    """Is the objective reachable from ``init`` by a valid run of at most
    ``steps`` transitions?

    Exact despite pruning; ``max_layer`` reports the largest per-state set
    ever kept, which never exceeds ``(n + steps) * (m + 1)`` for ``n``
    forbidden values and ``m`` forbidden residues.  With ``want_witness`` the
    accepting run is reconstructed from back-pointers (costs memory linear
    in layers x kept values).
    """
    if steps < 0:
        raise ValueError("step bound must be nonnegative")
    require_states(v, UNKNOWN_STATE, init.state, o.target_state)
    if o.empty or not v.is_valid(init):
        return BoundedCoverResult(False)

    n = len(o.forbidden_values)
    m = len(o.forbidden_residues)
    per_residue = n + steps
    per_state = (n + steps) * (m + 1)
    W = o.period

    layers: dict[int, list[int]] = {init.state: [init.counter]}
    parents: list[dict[tuple[int, int], tuple[int, int, int]]] = [{}]
    max_layer = 0  # largest pruned layer; the seed layer is not pruned

    def accepted() -> Optional[Configuration]:  # in the current layer
        for x in layers.get(o.target_state, ()):
            c = Configuration(o.target_state, x)
            if objective_contains(o, c):
                return c
        return None

    def build_witness(k: int, c: Configuration) -> Path:
        rev = []
        cur = (c.state, c.counter)
        for depth in range(k, 0, -1):
            src, x, ti = parents[depth][cur]
            rev.append(ti)
            cur = (src, x)
        return Path(cur[0], tuple(reversed(rev)))

    hit = accepted()
    if hit is not None:
        return BoundedCoverResult(True, Path(init.state) if want_witness else None, 0)

    for k in range(1, steps + 1):
        raw: dict[int, set[int]] = {}
        back: dict[tuple[int, int], tuple[int, int, int]] = {}
        for q, xs in layers.items():
            for ti, t in v.out_edges(q):
                for x in xs:
                    y = x + t.weight
                    if y < 0 or y in v.guards[t.dst]:
                        continue
                    key = (t.dst, y)
                    if key not in back:
                        back[key] = (q, x, ti)
                        raw.setdefault(t.dst, set()).add(y)
        pruned: dict[int, list[int]] = {}
        for q, ys in raw.items():
            vals = sorted(ys, reverse=True)
            by_residue: dict[int, int] = {}
            stage1 = []
            for y in vals:  # descending: count strictly larger same-residue
                r = y % W
                c = by_residue.get(r, 0)
                if c < per_residue:
                    stage1.append(y)
                    by_residue[r] = c + 1
            kept = sorted(stage1[:per_state])
            pruned[q] = kept
            max_layer = max(max_layer, len(kept))
        layers = pruned
        if want_witness:
            parents.append(back)
        if not layers:
            break
        hit = accepted()
        if hit is not None:
            w = build_witness(k, hit) if want_witness else None
            return BoundedCoverResult(True, w, max_layer)

    return BoundedCoverResult(False, None, max_layer)
