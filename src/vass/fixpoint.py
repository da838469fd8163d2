"""Unboundedness and coverability for guarded systems via chain saturation.

The solver maintains a compact set ``U`` of configurations known to be
unbounded: implicitly every unbounded chain tail and trivial residue class,
plus a downward-closed prefix of each bounded chain, stored as one maximum
per chain.  Seeded with the unbounded tails alone, rounds of saturation add
a bounded-chain element (and, soundly, everything below it in its chain,
which can climb to it by pumping) whenever it can reach the current ``U`` by
a valid run.  The fixpoint is exactly the set of unbounded configurations in
the pumpable region, and the final source query reduces to bounded
coverability of the fixpoint's disequality-objective decomposition.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import model, reductions
from .cycles import (
    Chain,
    CycleAnalysis,
    analyze,
    chains_of,
    class_floor,
)
from .model import Configuration, Path, Vass
from .objectives import DiseqObjective, decide_bounded_cover

DEFAULT_NODE_CAP = 500_000
DEFAULT_MAX_ROUNDS = 100_000


@dataclass(frozen=True)
class WorstCaseBounds:
    """The chain of pessimistic polynomial bounds behind the termination
    argument.  They certify convergence but are astronomically loose.  The
    solver needs none of them, because its first round that adds nothing is
    already the fixpoint (see `unbounded_core`).
    """

    gap_window: int        # consecutive chain elements forcing an escape
    class_step: int        # per-round growth of a class defect
    defect_bound: int      # missing elements per class, any round
    prefix_pool: int       # pigeonhole pool for run shortening
    run_length_bound: int  # length of a shortest escape run
    round_bound: int       # rounds until the saturation stabilizes


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
class FixpointParams:
    candidates_per_chain: int

    @staticmethod
    def adaptive(v: Vass) -> "FixpointParams":
        n = v.n_states
        return FixpointParams(candidates_per_chain=max(64, 4 * n * n))


@dataclass(frozen=True)
class USet:
    """Downward-closed-per-chain configuration set over a cycle analysis.

    Membership: every unbounded chain and trivial residue class implicitly,
    plus ``[chain.lo .. per_chain_max[chain]]`` for bounded chains.
    """

    analysis: CycleAnalysis
    per_chain_max: dict = field(default_factory=dict)  # (state, lo) -> max

    def contains(self, c: Configuration) -> bool:
        sa = self.analysis.states.get(c.state)
        if sa is None or c.counter < sa.floor:
            return False
        w = sa.selection.period
        caps = sa.splits.get(c.counter % w)
        if not caps or c.counter > caps[-1]:
            return True
        i = bisect_left(caps, c.counter)
        cap = caps[i]
        if cap == c.counter:
            return self.per_chain_max.get((c.state, cap)) == cap
        lo = class_floor(sa, c.counter % w) if i == 0 else caps[i - 1] + w
        m = self.per_chain_max.get((c.state, lo))
        return m is not None and c.counter <= m

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


def bounded_chains(analysis: CycleAnalysis) -> Iterable[Chain]:
    for q in sorted(analysis.states):
        sa = analysis.states[q]
        for r in sorted(sa.splits):
            for ch in chains_of(sa, r):
                if ch.bounded:
                    yield ch


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


def _reach_uset(
    v: Vass,
    u: USet,
    start: Configuration,
    node_cap: int,
    dead: Optional[set] = None,
) -> tuple[str, int]:
    """Search forward from ``start`` for any member of ``u``.

    Returns ``("hit", depth)``, ``("no", nodes)`` or ``("capped", nodes)``.
    Absent a hit the closure is finite: an infinite cone pumps some positive
    cycle arbitrarily high and therefore enters an unbounded chain, all of
    which lie in every ``USet``.  So "no" certifies a finite reachable set.

    ``dead`` memoises failed probes against this same ``u``, keyed by the
    int ``counter * n_states + state``.  A "no" proves that its whole
    closure misses ``u``, so it adds every configuration it visited, and
    later probes skip those configurations (and answer "no" at once from
    one of them).  No run into ``u`` passes through a dead configuration, so
    skipping one changes neither the answer nor the depth of a hit.
    ``node_cap`` counts only the configurations a probe adds that are not
    already dead, so the memo can make a cap hit less often, never more.
    The memo is valid only while ``u`` is unchanged.
    """
    if not v.is_valid(start):
        return ("no", 0)
    n = v.n_states
    skip = dead if dead is not None else ()
    if start.counter * n + start.state in skip:
        return ("no", 0)
    if u.contains(start):
        return ("hit", 0)
    seen = {start.counter * n + start.state}
    queue = deque([(start.state, start.counter, 0)])
    guards = v.guards
    while queue:
        q, z, d = queue.popleft()
        for _, t in v.out_edges(q):
            y = z + t.weight
            if y < 0 or y in guards[t.dst]:
                continue
            key = y * n + t.dst
            if key in seen or key in skip:
                continue
            if u.contains(Configuration(t.dst, y)):
                return ("hit", d + 1)
            if len(seen) >= node_cap:
                return ("capped", len(seen))
            seen.add(key)
            queue.append((t.dst, y, d + 1))
    if dead is not None:
        dead |= seen
    return ("no", len(seen))


@dataclass(frozen=True)
class SaturateOutcome:
    uset: USet
    added: dict           # state -> sorted list of counter values added
    truncated: bool = False
    dead: set = field(default_factory=set)  # closures missing the input set


def saturate_step(
    v: Vass, analysis: CycleAnalysis, u: USet, params: FixpointParams,
) -> SaturateOutcome:
    """One synchronous round: against the frozen ``u``, test the top
    ``candidates_per_chain`` missing elements of every bounded chain (and
    the lowest missing one) for reachability of ``u``; a successful element
    raises its chain's maximum, which closes downward soundly because lower
    chain elements pump up to it.  The result always contains ``u``.

    The probes of a round share one dead set (see `_reach_uset`): the
    closure of a "no" is finite and misses ``u``, so every configuration in
    it can be skipped by the later probes of the round.  ``u`` grows only
    between rounds, so the set is made fresh here and returned as
    ``dead``; it holds for ``uset`` too when the round added nothing.
    """
    truncated = False
    additions: dict[tuple[int, int], int] = {}
    dead: set = set()
    for ch in bounded_chains(analysis):
        w = analysis.states[ch.state].selection.period
        cmax = u.per_chain_max.get((ch.state, ch.lo))
        first_missing = ch.lo if cmax is None else cmax + w
        if first_missing > ch.hi:
            continue
        cands = []
        x = ch.hi
        while x >= first_missing and len(cands) < params.candidates_per_chain:
            cands.append(x)
            x -= w
        if cands[-1] != first_missing:
            cands.append(first_missing)
        for x in cands:  # descending: first hit is the chain's new max
            if x in v.guards[ch.state]:
                continue  # invalid configuration heads no valid run
            status, _ = _reach_uset(v, u, Configuration(ch.state, x),
                                    DEFAULT_NODE_CAP, dead)
            if status == "hit":
                additions[(ch.state, ch.lo)] = x
                break
            if status == "capped":
                truncated = True

    new_u = u.with_additions(additions)
    added: dict[int, list[int]] = {}
    for (state, lo), x in sorted(additions.items()):
        w = analysis.states[state].selection.period
        prev = u.per_chain_max.get((state, lo))
        start = lo if prev is None else prev + w
        added.setdefault(state, []).extend(range(start, x + 1, w))
    for state in added:
        added[state].sort()
    return SaturateOutcome(uset=new_u, added=added, truncated=truncated,
                           dead=dead)


@dataclass(frozen=True)
class CoreResult:
    analysis: CycleAnalysis
    uset: USet
    rounds: list  # per round: {state: [values added]}, stable round omitted
    status: str   # "complete" | "incomplete"
    dead: set = field(default_factory=set)  # dead set of the stable round


def unbounded_core(v: Vass, params: Optional[FixpointParams] = None) -> CoreResult:
    """Saturate to the set of unbounded configurations in the pumpable
    region, stopping at the first round that adds nothing.

    That round is the fixpoint.  Every round probes the lowest missing
    element of every bounded chain.  A bounded chain holds no guard cut-off
    except as a singleton chain, so from any element ``z`` of a chain one
    lap of the reference cycle validly reaches ``z + W``, staying at or
    above the floor.  Hence if any missing element ``x`` reaches ``U``, the
    lowest missing element reaches ``x`` and then ``U``.  Its closure
    contains the closure of ``x``, so the node cap cannot hit on ``x`` when
    it did not hit on the lowest missing element: a round that adds nothing
    and hits no cap leaves no chain element to add, and a larger candidate
    window would change neither the set nor the status.

    Each round memoises its failed probes in a fresh dead set, valid while
    that round's ``U`` is frozen.  The stable round adds nothing, so its
    ``U`` is the final one and its dead set still holds for the final
    query: ``CoreResult.dead`` carries it.  When the round cap stops the
    loop, the last round grew ``U`` and ``dead`` is left empty.

    A hit node cap or round cap degrades the status to "incomplete"; the
    set itself stays sound either way.
    """
    _require_normalized(v)
    if params is None:
        params = FixpointParams.adaptive(v)
    analysis = analyze(v)
    u = seed_uset(analysis)
    rounds: list[dict] = []
    truncated = False
    while True:
        out = saturate_step(v, analysis, u, params)
        truncated = truncated or out.truncated
        u = out.uset
        if not out.added:
            break
        rounds.append(out.added)
        if len(rounds) >= DEFAULT_MAX_ROUNDS:
            return CoreResult(analysis, u, rounds, "incomplete")
    status = "incomplete" if truncated else "complete"
    return CoreResult(analysis, u, rounds, status, out.dead)


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
    status, depth = _reach_uset(v, core.uset, c, DEFAULT_NODE_CAP,
                                dead=core.dead)
    if status == "no":
        return Decision(False, "complete", reason="reachable set is finite")
    if status == "capped":
        return Decision(None, "incomplete", reason="node cap exhausted")
    # A run of `depth` steps into the set exists; recover it through the
    # bounded-coverability procedure over the objective decomposition.
    witness = None
    if want_witness:
        for q in sorted(core.analysis.states):
            for o in decompose_objectives(core.uset, q):
                res = decide_bounded_cover(v, c, o, depth, want_witness=True)
                if res.reachable:
                    witness = res.witness
                    break
            if witness is not None:
                break
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
    if not (0 <= s < v.n_states):
        raise ValueError("unknown source state")
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
    for q in (s, t):
        if not (0 <= q < v.n_states):
            raise ValueError("unknown state index")
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
