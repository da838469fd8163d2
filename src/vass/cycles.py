"""Positive-cycle analysis: pumping cycles, residue classes, and chains.

For every state lying on a positive-weight cycle we fix one reference cycle
``gamma_q``.  Its weight ``W_q`` becomes the period of the counter residues
at ``q``; iterating the cycle from a value either climbs forever or is cut
off by a guard somewhere along the loop.  The guard cut-offs partition each
residue class into finitely many bounded *chains* plus one unbounded tail,
which is the combinatorial backbone of the fixpoint solver.  `chain_bounds`
walks that decomposition; the saturation, `fixpoint.bounded_chains` and
``vass inspect --chains`` all read it from there.

The analysis is made on demand.  `select_cycles` and `analyze` return
`OnDemand` mappings that make a state's reference cycle and cut-offs on
its first lookup, so a decision pays only for the states its run search
reads.  Iterating a mapping makes every entry, in ascending state order.
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator, Optional

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
    states: OnDemand  # state -> StateAnalysis, over states with a positive cycle


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


class _Made(dict):
    """``state -> entry`` (``None``: no entry), each made by ``make`` when
    it is first missing; a key that is not in ``states`` has none."""

    __slots__ = ("make", "states")

    def __missing__(self, q):
        e = self[q] = self.make(q) if q in self.states else None
        return e


class OnDemand(Mapping):
    """A read-only ``state -> entry`` mapping over the states ``0 .. n - 1``
    of one instance.  ``make(q)`` builds the entry of ``q``, ``None`` if it
    has none, on the first lookup of ``q`` by ``get``, ``in`` or ``[]``; a
    later lookup reads it back from a dict.  Iteration, ``len``, the views
    and ``==`` make every entry first, in ascending state order, so they
    see the dict of every entry."""

    __slots__ = ("_made",)

    def __init__(self, n: int, make: Callable[[int], object]):
        self._made = _Made()
        self._made.make, self._made.states = make, range(n)

    def get(self, q, default=None):
        e = self._made[q]
        return default if e is None else e

    def __getitem__(self, q):
        e = self._made[q]
        if e is None:
            raise KeyError(q)
        return e

    def __contains__(self, q) -> bool:
        return self._made[q] is not None

    def _all(self) -> dict:
        made = self._made
        return {q: e for q in made.states if (e := made[q]) is not None}

    def __iter__(self):
        return iter(self._all())

    def __len__(self) -> int:
        return len(self._all())

    def __repr__(self) -> str:
        return repr(self._all())


def _ring(out_by_src: dict) -> tuple:
    """``(position, transitions, sums)`` of a ring walked twice from its
    first state, ``sums`` the prefix weights of that double walk:
    ``out_by_src[q]`` is the one edge ``(i, dst, w)`` leaving each state
    ``q`` of the ring inside it."""
    at: dict[int, int] = {}  # state -> its position on the walk
    edges, weights = [], []
    q = next(iter(out_by_src))
    while q not in at:
        (i, q_next, w), = out_by_src[q]
        at[q] = len(edges)
        edges.append(i)
        weights.append(w)
        q = q_next
    return at, edges * 2, list(accumulate(weights * 2, initial=0))


def _select_at(q: int, out_by_src: dict, levels: int) -> Optional[CycleSelection]:
    """The leveled Pareto program of `select_cycles` from ``q``, over the
    edges ``out_by_src`` of its component, for at most ``levels`` levels."""
    # frontier[p]: undominated (-pmin, -weight, length, transitions) over
    # q->p paths of at most `level` transitions; delta[p]: those of exactly
    # `level` transitions.
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
                    # npmin is below the floor already; the negated sum may
                    # not be
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
        # delta[q] is sorted by pmin descending: the first positive cycle
        # above the floor is the best one of this level
        for cyc in delta.get(q, ()):
            if cyc[1] <= -1 and cyc[0] < floor:
                best = cyc
                floor = cyc[0]
                delta = {p: above for p, es in delta.items()
                         if (above := [e for e in es if e[0] < floor])}
                break
        if not delta:
            break
    if best is None:
        return None
    npmin, nwt, _, path = best
    return CycleSelection(state=q, gamma=Path(q, path), period=-nwt, pmin=-npmin)


def select_cycles(v: Vass) -> OnDemand:
    """Pick, per state, a positive cycle of at most ``|Q|`` transitions whose
    minimal prefix weight is maximal among all such cycles.

    The result is an `OnDemand` mapping over the states with such a cycle.
    The strongly connected components are found at once; a state's
    selection, and its component's edges, are made on its first lookup, so
    a caller pays only for the states it reads, and iterating the mapping
    makes them all.

    A strongly connected component in which every state has exactly one
    out-edge inside the component is one simple cycle, a ring.  The only
    cycle of at most ``|comp|`` transitions through a state of a ring is
    the ring rotated to start there (its powers are longer), so a ring
    state's selection is set in closed form: the rotated ring, the ring's
    weight as period and its least prefix sum as pmin, or nothing when the
    weight is below 1.  The ring is walked once, on the first lookup of one
    of its states (`_ring`).  That is exactly what the program below returns
    on a ring, where its frontier holds one path per level.  The guard
    split makes a ring of every multi-guard state with a self-loop.

    Every other component runs a leveled Pareto dynamic program per state
    (`_select_at`): after level ``l``, ``frontier[p]`` holds, for every
    state reachable from the source, the undominated (pmin, weight)
    summaries over paths of at most ``l`` transitions.  The cycle reported
    for a state is the one achieving the best pmin at the earliest level,
    which favours a single loop over its own powers (the powers only appear
    at later levels and never improve pmin).  Guards play no role here:
    selection reads weights only.

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
    comps = _strongly_connected_components(v)
    comp_of = [0] * v.n_states
    for c, comp in enumerate(comps):
        for q in comp:
            comp_of[q] = c
    # component -> (its edges by source, its ring walk or None)
    inner: dict[int, tuple] = {}

    def select(q: int) -> Optional[CycleSelection]:
        c = comp_of[q]
        found = inner.get(c)
        if found is None:
            out_by_src = {p: [(i, t.dst, t.weight) for i, t in v.out_edges(p)
                              if comp_of[t.dst] == c]
                          for p in comps[c]}
            # a ring iff one edge per state: in a component of two states
            # or more, every state has one at least
            ring = _ring(out_by_src) if sum(
                map(len, out_by_src.values())) == len(out_by_src) else None
            found = inner[c] = (out_by_src, ring)
        out_by_src, ring = found
        if ring is not None:  # the ring rotated to start at q
            at, edges, sums = ring
            n = len(at)
            k = at[q]
            period = sums[n]
            if period < 1:
                return None
            return CycleSelection(
                state=q, gamma=Path(q, tuple(edges[k:k + n])), period=period,
                pmin=min(sums[k:k + n + 1]) - sums[k])
        if not out_by_src[q]:  # no edge: a trivial component
            return None
        return _select_at(q, out_by_src, len(out_by_src))

    return OnDemand(v.n_states, select)


def _cutoff_caps(v: Vass, sel: CycleSelection) -> dict[int, list[int]]:
    """Guard cut-off values at the cycle head, grouped by residue class
    modulo the period and ascending in each class, made in one pass over
    the cycle: pumping from ``z`` rests on a guard iff ``z`` lies on a
    downward period-progression below some cap ``guard - offset`` taken
    over the guard occurrences along the cycle."""
    low, w = -sel.pmin, sel.period
    splits: dict[int, list[int]] = {}
    transitions, guards = v.transitions, v.guards
    q, prefix = sel.gamma.start, 0
    # One occurrence per cycle position; the closing return to the head
    # repeats position 0 one period up and adds nothing new.
    for ti in sel.gamma.transitions:
        t = transitions[ti]
        if t.src != q:
            raise ModelError("path transitions are not contiguous")
        for g in guards[q]:
            cap = g - prefix
            if cap >= low:
                r = cap % w
                caps = splits.get(r)
                if caps is None:
                    splits[r] = [cap]
                elif cap not in caps:
                    insort(caps, cap)
        q = t.dst
        prefix += t.weight
    return splits


def blocked_omega(v: Vass, sel: CycleSelection) -> BlockedSet:
    """Counter values from which iterating ``gamma`` forever is not valid.

    Closed form: everything below ``-pmin`` dies by negativity; above that,
    pumping from ``z`` rests on a guard iff ``z`` sits on one of the downward
    period-progressions hanging from a guard cut-off.  No enumeration: the
    raw set has on the order of ``guard / period`` members.
    """
    caps = sorted(c for cs in _cutoff_caps(v, sel).values() for c in cs)
    return BlockedSet(low_all=-sel.pmin,
                      families=tuple((cap, sel.period) for cap in caps))


def analyze(v: Vass) -> CycleAnalysis:
    """Per state on a positive cycle: its selected cycle, floor ``-pmin`` and
    guard cut-offs grouped by residue class, ascending in each class.

    ``states`` is an `OnDemand` mapping: a state's entry, with its
    selection (`select_cycles`) and its cut-offs (`_cutoff_caps`), is made
    on its first lookup, so a decision analyses only the states its run
    search reads.  Iterating the mapping, as `chain_bounds` does, makes
    every entry."""
    sels = select_cycles(v)

    def state_analysis(q: int) -> Optional[StateAnalysis]:
        sel = sels.get(q)
        if sel is None:
            return None
        return StateAnalysis(selection=sel, floor=-sel.pmin,
                             splits=_cutoff_caps(v, sel))

    return CycleAnalysis(vass=v, states=OnDemand(v.n_states, state_analysis))


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
