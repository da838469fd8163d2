"""Unboundedness and coverability for guarded systems via chain saturation.

The solver maintains a compact set ``U`` of configurations known to be
unbounded: implicitly every unbounded chain tail and trivial residue class,
plus a downward-closed prefix of each bounded chain, stored as one maximum
per chain.  Seeded with the unbounded tails alone, one round of saturation
adds every bounded-chain element (and, soundly, everything below it in its
chain, which can climb to it by pumping) that can reach the seed by a valid
run.  That round is already the fixpoint: exactly the set of unbounded
configurations in the pumpable region (see `unbounded_core`), and the final
source query asks whether the source reaches it.  Reachability of ``U`` is
searched over arithmetic runs of configurations, each bounded chain crossed
in one step (`_reach_uset`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from heapq import merge
from math import gcd
from typing import Iterator, Optional

from . import model, reductions
from .cycles import (
    Chain,
    CycleAnalysis,
    analyze,
    chains_of,
    class_floor,
)
from .model import Configuration, Path, Vass
from .objectives import DiseqObjective

DEFAULT_NODE_CAP = 500_000  # pieces per solve (see `Budget`)


@dataclass(frozen=True)
class WorstCaseBounds:
    """The chain of pessimistic polynomial bounds behind the paper's
    termination argument, which counts saturation rounds because its escape
    runs have bounded length.  They are astronomically loose, and the
    solver needs none of them: its probe is an exact run search, so one
    round is already the fixpoint (see `unbounded_core`).
    """

    gap_window: int        # consecutive chain elements forcing an escape
    class_step: int        # per-round growth of a class defect
    defect_bound: int      # missing elements per class, any round
    prefix_pool: int       # pigeonhole pool for run shortening
    run_length_bound: int  # length of a shortest escape run
    round_bound: int       # the paper's rounds until saturation stabilizes


def worstcase_bounds(n_states: int) -> WorstCaseBounds:
    if n_states < 1:
        raise ValueError("need at least one state")
    x = n_states
    gap_window = (x * x + 2) * (x + 1) + 1
    class_step = 2 * x * x * (x * x + 2) * (x + 1) + 2 * x * (
        (x * x + 2) + (2 * x + 1) * x * gap_window
    )
    defect_bound = 2 * x * x * class_step
    prefix_pool = x * x + x + 3 + x * defect_bound
    run_length_bound = x * prefix_pool * prefix_pool + x * x + 4
    return WorstCaseBounds(
        gap_window=gap_window,
        class_step=class_step,
        defect_bound=defect_bound,
        prefix_pool=prefix_pool,
        run_length_bound=run_length_bound,
        round_bound=defect_bound,
    )


@dataclass(frozen=True)
class USet:
    """Downward-closed-per-chain configuration set over a cycle analysis.

    Membership: every unbounded chain and trivial residue class implicitly,
    plus ``[chain.lo .. per_chain_max[chain]]`` for bounded chains.
    """

    analysis: CycleAnalysis
    per_chain_max: dict = field(default_factory=dict)  # (state, lo) -> max

    def contains(self, c: Configuration) -> bool:
        """Is ``c`` a member?  The one-element run at ``c`` holds one."""
        return self.laps(c.state, c.counter, c.counter, 1) is None

    def laps(self, q: int, lo: int, hi: int,
             step: int) -> Optional[list[tuple[int, int, int]]]:
        """The run ``lo, lo + step, ..., hi`` at state ``q`` with every
        element of a bounded chain lapped up to the top of its chain, as
        runs ``(lo, hi, step)``; ``None`` if the run holds a member.  ``hi``
        must be an element of the run.

        From an element ``z`` of a bounded chain one lap of the reference
        cycle validly reaches ``z + W`` (see `unbounded_core`), so the
        chain from ``z`` up to its top is reachable and replaces the run's
        elements in that chain.  Its members are a prefix of the chain, so
        ``z``, the run's lowest element there, decides whether it holds
        one.  Elements below the floor or at a state without a positive
        cycle are members of no ``USet`` and pass as they are.
        """
        sa = self.analysis.states.get(q)
        if sa is None or hi < sa.floor:
            return [(lo, hi, step)]
        out = []
        if lo < sa.floor:
            k = (sa.floor - lo + step - 1) // step
            out.append((lo, lo + (k - 1) * step, step))
            lo += k * step
        w = sa.selection.period
        if lo == hi or step % w == 0:
            classes = ((lo, hi, step),)
        else:  # one run per residue class the run meets
            g = gcd(step, w)
            big = step // g * w
            classes = [(x, x + (hi - x) // big * big, big)
                       for x in range(lo, min(hi, lo + (w // g - 1) * step) + 1,
                                      step)]
        for lo, hi, step in classes:
            caps = sa.splits.get(lo % w)
            if not caps or hi > caps[-1]:
                return None  # a trivial class, or the run reaches the tail
            i = bisect_left(caps, lo)
            while True:
                cap = caps[i]
                if lo == cap:  # a cut-off: no lap from it
                    if self.per_chain_max.get((q, cap)) == cap:
                        return None
                    out.append((cap, cap, step))
                    lo += step
                else:
                    clo = class_floor(sa, lo % w) if i == 0 else caps[i - 1] + w
                    m = self.per_chain_max.get((q, clo))
                    if m is not None and lo <= m:
                        return None
                    out.append((lo, cap - w, w))
                    lo += (cap - lo + step - 1) // step * step
                if lo > hi:
                    break
                i = bisect_left(caps, lo, i)
        return out

    def with_additions(self, additions: dict) -> "USet":
        merged = dict(self.per_chain_max)
        for key, x in additions.items():
            if key not in merged or merged[key] < x:
                merged[key] = x
        return USet(self.analysis, merged)

    def members_at(self, q: int, limit: int) -> list[int]:
        """Counter values of members at one state, up to ``limit`` (tests)."""
        return [z for z in range(limit + 1) if self.contains(Configuration(q, z))]


def seed_uset(analysis: CycleAnalysis) -> USet:
    """The starting set: exactly the unbounded chains (all of every trivial
    class, the climbing tail of every other)."""
    return USet(analysis, {})


def u_contains(u: USet, c: Configuration) -> bool:
    return u.contains(c)


def _chain_bounds(analysis: CycleAnalysis) -> Iterator[tuple[int, int, int, int]]:
    """Every bounded chain as ``(state, period, lo, hi)``, read straight off
    ``StateAnalysis.splits``: states ascending, then residues ascending,
    then up each class from its floor, the stretch below each cut-off (if
    it is non-empty) before the cut-off's singleton.  The unbounded tails
    are left out, and no `Chain` is built."""
    states = analysis.states
    for q in sorted(states):
        sa = states[q]
        w = sa.selection.period
        splits = sa.splits
        for r in sorted(splits):
            start = class_floor(sa, r)
            for cap in splits[r]:
                if cap - w >= start:
                    yield q, w, start, cap - w
                yield q, w, cap, cap
                start = cap + w


def bounded_chains(analysis: CycleAnalysis) -> Iterator[Chain]:
    """Every bounded chain of ``chains_of``, in the order `saturate_step`
    walks them: one walk over ``splits`` (`_chain_bounds`), each chain
    built from its bounds."""
    for q, w, lo, hi in _chain_bounds(analysis):
        yield Chain(q, lo % w, lo, hi)


def decompose_objectives(u: USet, q: int) -> list[DiseqObjective]:
    """Write ``{z : (q, z) in u}`` as at most ``|Q| + 1`` disequality
    objectives: one for the trivial residue classes, one per non-trivial
    class listing its finitely many missing values explicitly."""
    sa = u.analysis.states.get(q)
    if sa is None:
        raise ValueError("state has no positive cycle")
    w = sa.selection.period
    nontrivial = frozenset(sa.splits)
    objs = [DiseqObjective(q, sa.floor, w, nontrivial)]
    for r in sorted(nontrivial):
        chains = chains_of(sa, r)
        ell = None
        for ch in chains:
            if not ch.bounded or u.per_chain_max.get((q, ch.lo)) is not None:
                ell = ch.lo
                break
        missing = []
        for ch in chains:
            if not ch.bounded:
                continue
            m = u.per_chain_max.get((q, ch.lo))
            start = ch.lo if m is None else m + w
            for x in range(max(start, ell), ch.hi + 1, w):
                missing.append(x)
        objs.append(
            DiseqObjective(q, ell, w, nontrivial - {r}, frozenset(missing))
        )
    return objs


class Budget:
    """The node budget of one solve.

    `unbounded_core` makes one; every probe of its round, the final
    query's run search and its depth walk draw from it, one unit per piece
    (a run, or a configuration of the walk) they admit.  Once it is spent,
    each later probe answers "capped", so the cap bounds the work of the
    whole solve.
    """

    __slots__ = ("cap", "spent")

    def __init__(self, cap: int):
        self.cap = cap
        self.spent = 0


class RunSet:
    """A set of configurations stored as runs.

    The run ``(q, lo, hi, step)`` is ``(q, lo), (q, lo + step), ..., (q,
    hi)``.  A one-element run is kept as the int ``counter * n_states +
    state``; a longer one as an interval of its bucket ``(q, step, lo %
    step)``, which holds disjoint intervals sorted by their ends and merges
    them on insertion.
    """

    def __init__(self, n_states: int):
        self.n = n_states
        self.ints: set[int] = set()
        self.buckets: dict = {}  # (state, step, residue) -> ([lo], [hi])
        self.keys_at: dict = {}  # state -> its bucket keys

    def __bool__(self) -> bool:
        return bool(self.ints or self.buckets)

    def has(self, q: int, z: int) -> bool:
        if z * self.n + q in self.ints:
            return True
        for key in self.keys_at.get(q, ()):
            if z % key[1] == key[2]:
                los, his = self.buckets[key]
                i = bisect_right(los, z) - 1
                if i >= 0 and z <= his[i]:
                    return True
        return False

    def add(self, q: int, lo: int, hi: int, step: int) -> None:
        if lo == hi:
            self.ints.add(lo * self.n + q)
            return
        key = (q, step, lo % step)
        b = self.buckets.get(key)
        if b is None:
            self.buckets[key] = ([lo], [hi])
            self.keys_at.setdefault(q, []).append(key)
            return
        los, his = b
        i = bisect_left(his, lo - step)  # first interval touching lo
        j = i
        while j < len(los) and los[j] <= hi + step:
            lo, hi = min(lo, los[j]), max(hi, his[j])
            j += 1
        los[i:j] = [lo]
        his[i:j] = [hi]

    def update(self, other: "RunSet") -> None:
        self.ints |= other.ints
        for (q, step, _), (los, his) in other.buckets.items():
            for lo, hi in zip(los, his):
                self.add(q, lo, hi, step)

    def configurations(self) -> Iterator[Configuration]:
        """Every member, singletons first (tests)."""
        n = self.n
        for key in sorted(self.ints):
            yield Configuration(key % n, key // n)
        for (q, step, _), (los, his) in sorted(self.buckets.items()):
            for lo, hi in zip(los, his):
                for z in range(lo, hi + 1, step):
                    yield Configuration(q, z)


def _uncovered(sets: tuple, q: int, lo: int, hi: int,
               step: int) -> list[tuple[int, int]]:
    """The maximal sub-runs of the run ``lo .. hi`` (``lo < hi``) at ``q``
    that the run's own bucket misses in each of ``sets``.  An element held
    only as a singleton or in another step's bucket may come back: that
    re-explores reachable configurations, and the run's bucket then holds
    it."""
    pieces = [(lo, hi)]
    key = (q, step, lo % step)
    for rs in sets:
        b = rs.buckets.get(key)
        if b is None:
            continue
        los, his = b
        cut = []
        for a, e in pieces:
            i = bisect_left(his, a)
            while i < len(los) and los[i] <= e:
                if los[i] > a:
                    cut.append((a, los[i] - step))
                a = his[i] + step
                i += 1
            if a <= e:
                cut.append((a, e))
        pieces = cut
    return pieces


def _reach_uset(
    v: Vass,
    u: USet,
    start: Configuration,
    budget: Budget,
    dead: RunSet,
) -> tuple[str, int]:
    """Search forward from ``start`` for any member of ``u``, run by run.

    Returns ``("hit", pieces)``, ``("no", pieces)`` or ``("capped",
    pieces)``.  The search visits runs ``(state, lo, hi, step)``.  An edge
    shifts a run by its weight, drops what falls below 0 and splits the
    rest at the guards of its destination.  What is left of it after the
    visited and dead runs of its own bucket is tested against ``u``, and its
    elements in bounded chains lap up to the tops of their chains in one
    step (`USet.laps`), so the cost of a probe does not grow with the guard
    values.  Every configuration in a run is reachable and every reachable
    one is covered by a run, so the answer is that of a walk over single
    configurations.  Absent a hit the closure is finite: an infinite cone
    pumps some positive cycle arbitrarily high and therefore enters an
    unbounded chain, all of which lie in every ``USet``.  So "no"
    certifies a finite reachable set.

    ``dead`` memoises failed probes against this same ``u``.  A "no"
    proves that every configuration of its runs has a closure missing
    ``u``, so it adds all its runs; later probes subtract the dead runs
    from theirs (and answer "no" at once from a dead start).  No run into
    ``u`` passes through a dead configuration, so the subtraction changes
    no answer.  The memo is valid only while ``u`` is unchanged.

    Every piece admitted draws one unit from ``budget``; once it is spent
    the probe answers "capped" (at once, if it was spent before).
    """
    if budget.spent >= budget.cap:
        return ("capped", 0)
    q0, z0 = start
    if not v.is_valid(start) or dead.has(q0, z0):
        return ("no", 0)
    n = v.n_states
    seen = RunSet(n)
    sets = (seen, dead)
    seen_ints, dead_ints = seen.ints, dead.ints
    queue: deque = deque()
    pieces = 0

    def admit(q: int, lo: int, hi: int, step: int) -> Optional[str]:
        """Queue what is new of a run; "hit", "capped" or None."""
        nonlocal pieces
        if lo == hi:
            key = lo * n + q
            if key in seen_ints or key in dead_ints or (
                    (q in seen.keys_at or q in dead.keys_at)
                    and any(rs.has(q, lo) for rs in sets)):
                return None
            new = ((lo, lo),)
        else:
            new = _uncovered(sets, q, lo, hi, step)
        for a, e in new:
            runs = u.laps(q, a, e, step)
            if runs is None:
                return "hit"
            for a, e, s in runs:
                if a == e:
                    # One of the run's own elements: new, unless the lap
                    # of an earlier piece took it.
                    key = a * n + q
                    if key in seen_ints or (q in seen.keys_at
                                            and seen.has(q, a)):
                        continue
                    fresh = ((a, a),)
                else:  # a lap may have added known elements
                    fresh = _uncovered(sets, q, a, e, s)
                for a, e in fresh:
                    if budget.spent >= budget.cap:
                        return "capped"
                    budget.spent += 1
                    pieces += 1
                    seen.add(q, a, e, s)
                    queue.append((q, a, e, s))
        return None

    out = admit(q0, z0, z0, 1)
    guards = v.guards
    while out is None and queue:
        q, lo, hi, s = queue.popleft()
        for _, t in v.out_edges(q):
            p = t.dst
            a, e = lo + t.weight, hi + t.weight
            if a == e:
                if a >= 0 and a not in guards[p]:
                    out = admit(p, a, a, s)
            elif e >= 0:
                if a < 0:
                    a += (s - 1 - a) // s * s
                for g in sorted(guards[p]):  # cut at every guard on it
                    if a <= g <= e and (g - a) % s == 0:
                        if g > a:
                            out = admit(p, a, g - s, s)
                            if out is not None:
                                break
                        a = g + s
                else:
                    if a <= e:
                        out = admit(p, a, e, s)
            if out is not None:
                break
    if out is not None:
        return (out, pieces)
    dead.update(seen)
    return ("no", pieces)


def _walk_uset(
    v: Vass,
    u: USet,
    start: Configuration,
    budget: Budget,
    dead: RunSet,
    want_witness: bool = False,
) -> tuple[str, int, Optional[Path]]:
    """Breadth-first walk over single configurations from ``start`` to the
    nearest member of ``u``: ``("hit", depth, path)``, ``("no", nodes,
    None)`` or ``("capped", nodes, None)``.

    It measures the depth the final query reports, so it runs only after
    `_reach_uset` found a hit.  With ``want_witness`` it keeps a parent
    pointer (previous configuration and transition index) per
    configuration admitted, and ``path`` is the shortest run into ``u``
    that they spell, of exactly ``depth`` transitions; otherwise it is
    ``None``.  It skips ``dead`` configurations: no run into ``u`` passes
    through one, so skipping changes neither the answer nor the depth.
    Each configuration admitted draws one unit from ``budget``.
    """
    if budget.spent >= budget.cap:
        return ("capped", 0, None)
    if not v.is_valid(start) or dead.has(start.state, start.counter):
        return ("no", 0, None)
    if u.contains(start):
        return ("hit", 0, Path(start.state) if want_witness else None)
    n = v.n_states
    root = start.counter * n + start.state
    seen = {root}
    parents: Optional[dict] = {} if want_witness else None
    budget.spent += 1
    queue = deque([(start.state, start.counter, 0)])
    guards = v.guards
    while queue:
        q, z, d = queue.popleft()
        for ti, t in v.out_edges(q):
            y = z + t.weight
            if y < 0 or y in guards[t.dst]:
                continue
            key = y * n + t.dst
            if key in seen or dead.has(t.dst, y):
                continue
            if u.contains(Configuration(t.dst, y)):
                if parents is None:
                    return ("hit", d + 1, None)
                steps, at = [ti], z * n + q
                while at != root:
                    at, tj = parents[at]
                    steps.append(tj)
                return ("hit", d + 1, Path(start.state, tuple(reversed(steps))))
            if budget.spent >= budget.cap:
                return ("capped", len(seen), None)
            budget.spent += 1
            seen.add(key)
            if parents is not None:
                parents[key] = (z * n + q, ti)
            queue.append((t.dst, y, d + 1))
    return ("no", len(seen), None)


class AddedValues(Sequence):
    """The counter values one round added at one state, in increasing
    order.  They are kept as one range per chain (its old maximum plus one
    period up to its new one), so the round record does not grow with the
    guard values; the ranges are merged when the values are read.  Equal to
    every sequence of the same values.
    """

    __slots__ = ("ranges",)

    def __init__(self, ranges: list[range]):
        self.ranges = ranges

    def __len__(self) -> int:
        return sum(map(len, self.ranges))

    def __iter__(self) -> Iterator[int]:
        return merge(*self.ranges)

    def __getitem__(self, i):
        return list(self)[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass(frozen=True)
class SaturateOutcome:
    uset: USet
    added: dict      # state -> AddedValues
    truncated: bool
    dead: RunSet     # runs whose closures miss the input set


def saturate_step(
    v: Vass, analysis: CycleAnalysis, u: USet, budget: Optional[Budget] = None,
) -> SaturateOutcome:
    """One synchronous round: against the frozen ``u``, raise the maximum
    of every bounded chain to its largest element that reaches ``u``, which
    closes downward soundly because lower chain elements pump up to it.
    The result always contains ``u``.

    The elements of a chain that reach ``u`` form a prefix of it: one lap
    of the reference cycle validly takes an element ``z`` to ``z + W`` (see
    `unbounded_core`), so whatever ``z + W`` reaches, ``z`` reaches too.
    Hence the round probes the lowest missing element first; a "no" there
    ends the chain for the round.  After a hit it probes the top, and if
    that misses, bisects between the two for the last element that hits.
    A "capped" probe counts as a miss and marks the round ``truncated``.
    The chains are walked as plain bounds straight off ``splits``
    (`_chain_bounds`), in the order of `bounded_chains`; no `Chain` is
    built.

    The probes of a round share one dead run set (see `_reach_uset`): the
    runs of a "no" cover a finite closure that misses ``u``, so later
    probes of the round subtract them from their own runs, and a candidate
    that is already dead is skipped without a probe.  The set is made
    fresh here, against the frozen ``u``, and returned as ``dead``; when
    ``u`` is the seed set it holds for ``uset`` too (see
    `unbounded_core`).
    The probes draw from ``budget``, a fresh `DEFAULT_NODE_CAP` if none
    is given.
    """
    if budget is None:
        budget = Budget(DEFAULT_NODE_CAP)
    truncated = False
    additions: dict[tuple[int, int], int] = {}
    ranges: dict[int, list[range]] = {}
    dead = RunSet(v.n_states)

    def hits(q: int, x: int) -> bool:
        nonlocal truncated
        if x in v.guards[q] or dead.has(q, x):
            return False  # heads no valid run, or its closure misses u
        status, _ = _reach_uset(v, u, Configuration(q, x), budget, dead)
        truncated = truncated or status == "capped"
        return status == "hit"

    chain_max = u.per_chain_max
    for q, w, clo, chi in _chain_bounds(analysis):
        cmax = chain_max.get((q, clo))
        first_missing = clo if cmax is None else cmax + w
        if first_missing > chi or not hits(q, first_missing):
            continue
        x = chi  # the chain's new maximum, if the top hits
        if first_missing < x and not hits(q, x):
            lo, hi = first_missing, x
            while hi - lo > w:  # lo hits, hi misses
                mid = lo + (hi - lo) // (2 * w) * w
                if hits(q, mid):
                    lo = mid
                else:
                    hi = mid
            x = lo
        additions[(q, clo)] = x
        ranges.setdefault(q, []).append(range(first_missing, x + 1, w))

    added = {q: AddedValues(r) for q, r in ranges.items()}
    return SaturateOutcome(uset=u.with_additions(additions), added=added,
                           truncated=truncated, dead=dead)


@dataclass(frozen=True)
class CoreResult:
    analysis: CycleAnalysis
    uset: USet
    rounds: list  # the round's {state: AddedValues}, if it added anything
    status: str   # "complete" | "incomplete"
    dead: RunSet  # dead runs of the round: their closures miss ``uset``
    budget: Budget  # the node budget of the solve


def unbounded_core(v: Vass) -> CoreResult:
    """Saturate to the set of unbounded configurations in the pumpable
    region in one round of `saturate_step` from the seed set.

    One round is the fixpoint.  A bounded chain holds no guard cut-off
    except as a singleton chain, so from any element ``z`` of a chain one
    lap of the reference cycle validly reaches ``z + W``, staying at or
    above the floor.  The same lap argument lets a probe take a whole
    chain in one step (see `USet.laps`).  Then:

    (a) Absent a cap, the round adds exactly the prefix of each chain that
        reaches the seed set.  Those elements are a prefix, since whatever
        ``z + W`` reaches ``z`` reaches too; the round probes the lowest
        element first, and its bisection between a hit and a miss is exact.
    (b) A second round adds nothing: an element added in (a) reaches the
        seed set, so a chain element that reaches an added one reaches the
        seed set too, and (a) already added it.
    (c) The round's dead runs (see `_reach_uset`) have closures that miss
        the seed set.  By (b) a closure that meets an added element meets
        the seed set as well, so they miss the final set too, and
        ``CoreResult.dead`` carries them to the final query.

    One `Budget` of `DEFAULT_NODE_CAP` pieces serves every probe and the
    final query (``CoreResult.budget``).  A spent budget degrades the
    status to "incomplete"; the set itself stays sound.
    """
    _require_normalized(v)
    analysis = analyze(v)
    budget = Budget(DEFAULT_NODE_CAP)
    out = saturate_step(v, analysis, seed_uset(analysis), budget)
    return CoreResult(analysis, out.uset, [out.added] if out.added else [],
                      "incomplete" if out.truncated else "complete",
                      out.dead, budget)


@dataclass(frozen=True)
class Decision:
    answer: Optional[bool]      # None: could not decide under the caps
    status: str                 # "complete" | "incomplete"
    witness: Optional[Path] = None
    reason: str = ""
    core: Optional[CoreResult] = None  # the saturation decided against


def _require_normalized(v: Vass) -> None:
    if any(len(g) > 1 for g in v.guards):
        raise ValueError("multi-guard states present: apply normalize_guards first")


def _decide_config(
    v: Vass, core: CoreResult, c: Configuration, want_witness: bool = False,
) -> Decision:
    if not v.is_valid(c):
        return Decision(False, "complete", reason="initial configuration is invalid")
    if core.uset.contains(c):
        w = Path(c.state) if want_witness else None
        return Decision(True, "complete", witness=w,
                        reason="initial configuration is unbounded")
    status, _ = _reach_uset(v, core.uset, c, core.budget, core.dead)
    if status == "no":
        return Decision(False, "complete", reason="reachable set is finite")
    if status == "hit":
        status, depth, witness = _walk_uset(v, core.uset, c, core.budget,
                                            core.dead, want_witness)
        if status == "no":  # both searches answer reachability exactly
            raise AssertionError("the walk missed a run the search found")
    if status == "capped":
        return Decision(None, "incomplete", reason="node cap exhausted")
    return Decision(True, "complete", witness=witness,
                    reason=f"reaches the unbounded core in {depth} steps")


def decide_unboundedness(v: Vass, s: int, want_witness: bool = False) -> Decision:
    """Is ``(s, 0)`` unbounded?

    Multi-guard states are split first (`model.normalize_guards_with_maps`)
    and the question is asked at the entry of the chain that replaces ``s``.
    ``Decision.core`` is the saturation of the split instance.  A witness is
    a path of the split instance, so ``want_witness`` requires single-guard
    input.
    """
    model.require_states(v, model.UNKNOWN_SOURCE, s)
    if want_witness:
        _require_normalized(v)
    vn, entry, _ = model.normalize_guards_with_maps(v)
    core = unbounded_core(vn)
    dec = _decide_config(vn, core, Configuration(entry[s], 0), want_witness)
    return Decision(dec.answer, dec.status, dec.witness, dec.reason, core)


def decide_coverability(v: Vass, s: int, t: int) -> Decision:
    """Can ``(s, 0)`` reach state ``t``?  Decided by reduction to
    unboundedness (prune states that cannot reach ``t``, then let ``t`` feed
    an unguarded +1 self-loop); ``Decision.core`` is the saturation of the
    reduced instance."""
    reduced, s1 = reductions.reduce_cov_to_unbound(v, s, t)
    return decide_unboundedness(reduced, s1)


@dataclass(frozen=True)
class DefectStats:
    per_chain: dict   # Chain -> size of its defect interval
    per_class: dict   # (state, residue) -> total over active chains


def defect_stats(u: USet, analysis: Optional[CycleAnalysis] = None) -> DefectStats:
    """Sizes of the per-chain defect sets: configurations missing from ``u``
    between the extremes of each active chain's missing part, including the
    off-chain configurations caught in between.  Diagnostics for the
    polynomial defect bounds; no decision depends on it."""
    analysis = analysis or u.analysis
    per_chain: dict[Chain, int] = {}
    per_class: dict[tuple[int, int], int] = {}
    for q in sorted(analysis.states):
        sa = analysis.states[q]
        w = sa.selection.period
        for r in sorted(sa.splits):
            chains = chains_of(sa, r)
            min_u = None
            for ch in chains:
                if not ch.bounded or u.per_chain_max.get((q, ch.lo)) is not None:
                    min_u = ch.lo
                    break
            total = 0
            for ch in chains:
                if not ch.bounded:
                    continue
                cmax = u.per_chain_max.get((q, ch.lo))
                m1 = ch.lo if cmax is None else cmax + w
                if m1 > ch.hi:
                    continue
                if min_u is None or min_u > ch.hi:
                    continue  # not active: nothing in u sits below this chain
                size = sum(
                    1
                    for x in range(m1, ch.hi + 1)
                    if x >= sa.floor and not u.contains(Configuration(q, x))
                )
                per_chain[ch] = size
                total += size
            per_class[(q, r)] = total
    return DefectStats(per_chain=per_chain, per_class=per_class)
