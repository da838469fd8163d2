"""Positive-cycle analysis: pumping cycles, residue classes, and chains.

For every state lying on a positive-weight cycle we fix one reference cycle
``gamma_q``.  Its weight ``W_q`` becomes the period of the counter residues
at ``q``; iterating the cycle from a value either climbs forever or is cut
off by a guard somewhere along the loop.  The guard cut-offs partition each
residue class into finitely many bounded *chains* plus one unbounded tail,
which is the combinatorial backbone of the fixpoint solver.  `chain_bounds`
walks that decomposition; the saturation, `fixpoint.bounded_chains` and
``vass inspect --chains`` all read it from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Optional

from .model import BlockedSet, ModelError, Path, Vass


@dataclass(frozen=True)
class CycleSelection:
    """The reference positive cycle chosen at one state."""

    state: int
    gamma: Path
    period: int  # weight of gamma, >= 1
    pmin: int    # least prefix weight of gamma, <= 0


@dataclass(frozen=True)
class Chain:
    """A bounded chain: the arithmetic progression ``lo, lo+W, ..., hi``
    within one residue class."""

    state: int
    residue: int
    lo: int
    hi: int


@dataclass(frozen=True)
class StateAnalysis:
    """Pumping the selected cycle from ``z >= floor`` dies iff ``z`` is a
    cut-off in ``splits`` less a multiple of the period (`blocked_omega`)."""

    selection: CycleSelection
    floor: int    # -pmin: least counter admitted at this state
    splits: dict  # residue -> ascending guard cut-offs in the class


@dataclass(frozen=True)
class CycleAnalysis:
    vass: Vass
    states: dict[int, StateAnalysis]  # domain: states with a positive cycle


def _strongly_connected_components(v: Vass) -> list[list[int]]:
    """Tarjan's SCC, iterative to stay clear of recursion limits."""
    n = v.n_states
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 1
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            q, ei = work.pop()
            if ei == 0:
                visited[q] = True
                index[q] = low[q] = counter
                counter += 1
                stack.append(q)
                on_stack[q] = True
            edges = v.out_edges(q)
            advanced = False
            while ei < len(edges):
                _, t = edges[ei]
                ei += 1
                if not visited[t.dst]:
                    work.append((q, ei))
                    work.append((t.dst, 0))
                    advanced = True
                    break
                if on_stack[t.dst]:
                    low[q] = min(low[q], index[t.dst])
            if advanced:
                continue
            if low[q] == index[q]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == q:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[q])
    return sccs


def _prune_frontier(elems: list[tuple[int, int, int, tuple[int, ...]]]) -> list:
    """Keep the undominated (pmin, weight) pairs, deterministically.

    An element is ``(-pmin, -weight, length, transitions)``, so its natural
    tuple order is the prune order: pmin descending, then weight descending
    (equivalently smax), then shorter then lexicographically smaller
    witness.  A later element survives only if its negated weight is
    strictly lower than that of everything kept so far.  The order is
    total on distinct elements and dominance is transitive, so pruning in
    stages changes nothing: ``prune(A + B) == prune(prune(A) + B)``.
    """
    kept: list[tuple[int, int, int, tuple[int, ...]]] = []
    least = math.inf  # least negated weight kept so far
    for e in sorted(elems):
        if e[1] < least:
            kept.append(e)
            least = e[1]
    return kept


def _select_ring(comp: list[int], out_by_src: dict, selections: dict) -> None:
    """`select_cycles` on a ring: ``out_by_src[q]`` is the one edge
    ``(i, dst, w)`` leaving each state of ``comp`` inside it."""
    at: dict[int, int] = {}  # state -> its position on the ring
    edges, weights = [], []
    q = comp[0]
    while q not in at:
        (i, q_next, w), = out_by_src[q]
        at[q] = len(edges)
        edges.append(i)
        weights.append(w)
        q = q_next
    period = sum(weights)
    if period < 1:
        return
    for q in sorted(comp):
        k = at[q]
        selections[q] = CycleSelection(
            state=q, gamma=Path(q, tuple(edges[k:] + edges[:k])),
            period=period,
            pmin=min(accumulate(weights[k:] + weights[:k], initial=0)))


def select_cycles(v: Vass) -> dict[int, CycleSelection]:
    """Pick, per state, a positive cycle of at most ``|Q|`` transitions whose
    minimal prefix weight is maximal among all such cycles.

    A strongly connected component in which every state has exactly one
    out-edge inside the component is one simple cycle, a ring.  The only
    cycle of at most ``|comp|`` transitions through a state of a ring is
    the ring rotated to start there (its powers are longer), so
    `_select_ring` sets every selection in closed form: the rotated ring,
    the ring's weight as period and its least prefix sum as pmin, or
    nothing when the weight is below 1.  That is exactly what the program
    below returns on a ring, where its frontier holds one path per level.
    The guard split makes a ring of every multi-guard state with a
    self-loop.

    Every other component runs a leveled Pareto dynamic program: after
    level ``l``, ``frontier[p]`` holds, for every state reachable from the
    source, the undominated (pmin, weight) summaries over paths of at most
    ``l`` transitions.  The cycle reported for a state is
    the one achieving the best pmin at the earliest level, which favours a
    single loop over its own powers (the powers only appear at later levels
    and never improve pmin).  Guards play no role here: selection reads
    weights only.

    The program is semi-naive: level ``l`` extends only ``delta``, the
    elements that entered the frontier at level ``l - 1`` (their witnesses
    have exactly ``l - 1`` transitions), and stops once ``delta`` is empty.
    This is exact.  An older element had its extensions taken when it was
    new, and they were pruned into the frontier then; since ``prune(A + B)
    == prune(prune(A) + B)``, offering them again changes no frontier.
    Only ``delta[q]`` is scanned for the source's own cycle: ``best`` rises
    only on a strictly greater pmin, so an element scanned at an earlier
    level can never replace it later.

    The search is also cut at the best cycle found so far.  Once the source
    has a best cycle with pmin ``b``, an extension whose pmin is at most
    ``b`` is not taken, ``delta`` keeps only elements above ``b``, and the
    source's levels end when ``delta`` is empty; a best cycle with pmin 0
    ends them at once.  This is exact too.  An extension's pmin is
    ``min(pmin, weight + w) <= pmin``, so an element at or below ``b``
    never closes a cycle above ``b``, and only such a cycle can replace
    ``best``.  The prune orders elements by pmin descending, so whether an
    element above ``b`` is kept depends only on the elements before it, all
    above ``b`` as well: the frontier above ``b`` is the same with or
    without the cut, and so are ``best`` and its tie-breaks.

    A frontier element is the tuple ``(-pmin, -weight, length,
    transitions)``, so plain ``sorted`` puts a frontier in prune order (see
    `_prune_frontier`) with no key function; ``floor`` is the negated pmin
    of ``best``, and an extension is taken only while its negated pmin
    stays below it.
    """
    selections: dict[int, CycleSelection] = {}
    for comp in _strongly_connected_components(v):
        comp_set = set(comp)
        out_by_src: dict[int, list[tuple[int, int, int]]] = {
            q: [(i, t.dst, t.weight) for i, t in v.out_edges(q)
                if t.dst in comp_set]
            for q in comp
        }
        if not any(out_by_src.values()):
            continue
        if all(len(out) == 1 for out in out_by_src.values()):
            _select_ring(comp, out_by_src, selections)
            continue
        levels = len(comp)
        for q in sorted(comp):
            # frontier[p]: undominated (-pmin, -weight, length, transitions)
            # over q->p paths of at most `level` transitions; delta[p]: those
            # of exactly `level` transitions.
            frontier: dict[int, list[tuple[int, int, int, tuple[int, ...]]]] = {
                q: [(0, 0, 0, ())]
            }
            delta = frontier
            best: Optional[tuple[int, int, int, tuple[int, ...]]] = None
            floor = math.inf  # -pmin of best: nothing at or above it can win
            for level in range(1, levels + 1):
                ext: dict[int, list] = {}
                for p, elems in delta.items():
                    for i, dst, w in out_by_src[p]:
                        out = ext.setdefault(dst, [])
                        for npmin, nwt, _, path in elems:
                            # npmin is below the floor already; the negated
                            # sum may not be
                            ns = nwt - w
                            if ns < floor:
                                out.append((npmin if npmin > ns else ns, ns,
                                            level, path + (i,)))
                delta = {}
                for dst, es in ext.items():
                    if not es:
                        continue
                    kept = _prune_frontier(frontier.get(dst, []) + es)
                    frontier[dst] = kept
                    fresh = [e for e in kept if e[2] == level]
                    if fresh:
                        delta[dst] = fresh
                # delta[q] is sorted by pmin descending: the first positive
                # cycle above the floor is the best one of this level
                for cyc in delta.get(q, ()):
                    if cyc[1] <= -1 and cyc[0] < floor:
                        best = cyc
                        floor = cyc[0]
                        delta = {p: above for p, es in delta.items()
                                 if (above := [e for e in es if e[0] < floor])}
                        break
                if not delta:
                    break
            if best is not None:
                npmin, nwt, _, path = best
                selections[q] = CycleSelection(
                    state=q, gamma=Path(q, path), period=-nwt, pmin=-npmin
                )
    return selections


def _cutoff_caps(v: Vass, sel: CycleSelection) -> set[int]:
    """Guard cut-off values at the cycle head: pumping from ``z`` rests on a
    guard iff ``z`` lies on a downward period-progression below some cap
    ``guard - offset`` taken over the guard occurrences along the cycle."""
    low = -sel.pmin
    caps = set()
    q, prefix = sel.gamma.start, 0
    # One occurrence per cycle position; the closing return to the head
    # repeats position 0 one period up and adds nothing new.
    for ti in sel.gamma.transitions:
        t = v.transitions[ti]
        if t.src != q:
            raise ModelError("path transitions are not contiguous")
        for g in v.guards[q]:
            if g - prefix >= low:
                caps.add(g - prefix)
        q = t.dst
        prefix += t.weight
    return caps


def blocked_omega(v: Vass, sel: CycleSelection) -> BlockedSet:
    """Counter values from which iterating ``gamma`` forever is not valid.

    Closed form: everything below ``-pmin`` dies by negativity; above that,
    pumping from ``z`` rests on a guard iff ``z`` sits on one of the downward
    period-progressions hanging from a guard cut-off.  No enumeration: the
    raw set has on the order of ``guard / period`` members.
    """
    fams = tuple((cap, sel.period) for cap in sorted(_cutoff_caps(v, sel)))
    return BlockedSet(low_all=-sel.pmin, families=fams)


def analyze(v: Vass) -> CycleAnalysis:
    """Per state on a positive cycle: its selected cycle, floor ``-pmin`` and
    guard cut-offs grouped by residue class, ascending in each class."""
    states: dict[int, StateAnalysis] = {}
    for q, sel in select_cycles(v).items():
        splits: dict[int, list[int]] = {}
        for cap in sorted(_cutoff_caps(v, sel)):
            splits.setdefault(cap % sel.period, []).append(cap)
        states[q] = StateAnalysis(selection=sel, floor=-sel.pmin, splits=splits)
    return CycleAnalysis(vass=v, states=states)


def class_floor(sa: StateAnalysis, residue: int) -> int:
    """Least counter value of the residue class admitted at the state."""
    w = sa.selection.period
    delta = (residue - sa.floor) % w
    return sa.floor + delta


def chain_bounds(analysis: CycleAnalysis) -> Iterator[tuple]:
    """Every chain as ``(state, period, lo, hi)``, ``hi = None`` for the
    unbounded tail: states ascending, then residues ascending, then up each
    class from its floor.

    Every guard cut-off in a class is its own singleton chain (pumping from
    it is immediately cut, whether or not the value may still be entered
    from below); the stretches between cut-offs are the remaining bounded
    chains; everything above the last cut-off climbs forever.  A trivial
    class, with no cut-off, is one tail from its floor and is left out.
    """
    for q, sa in sorted(analysis.states.items()):
        w = sa.selection.period
        for r, caps in sorted(sa.splits.items()):
            start = class_floor(sa, r)
            for cap in caps:
                if cap - w >= start:
                    yield q, w, start, cap - w
                yield q, w, cap, cap
                start = cap + w
            yield q, w, start, None
