"""Unboundedness and coverability for guarded systems via chain saturation.

The solver maintains a compact set ``U`` of configurations known to be
unbounded: implicitly every unbounded chain tail and trivial residue class,
plus a downward-closed prefix of each bounded chain, stored as one maximum
per chain.  Seeded with the unbounded tails alone, one round of saturation
adds every bounded-chain element (and, soundly, everything below it in its
chain, which can climb to it by pumping) that can reach the seed by a valid
run.  That round is already the fixpoint: exactly the set of unbounded
configurations in the pumpable region (see `unbounded_core`).  Whatever
reaches an added element reaches the seed too, so a decision first asks
whether the source reaches the seed: a "no" is final, a source in the seed
is unbounded, and only a later hit asks the saturated set
(`decide_unboundedness`).  Before any of that, a source whose counter can
never leave 0 is answered NO with no analysis (`model.stuck_at_zero`).
A chain's maximum depends on no other chain, so the saturated set, one
`USet` (`CoreResult`), raises each one on its first lookup, and a decision
probes only the chains its searches touch; reading all the maxima runs the
rest of the round.  Reachability of a ``U`` is searched over arithmetic runs
of configurations, each bounded chain crossed in one step (`_reach_uset`).
That one search, layered breadth first, also measures the depth of a YES:
against the saturated set every configuration that reaches it is admitted
as a one-element run at its true level.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import gcd
from typing import Iterator, Optional

from . import model, reductions
from .cycles import Chain, CycleAnalysis, analyze, chain_bounds, class_floor
from .model import Configuration, Vass

DEFAULT_NODE_CAP = 500_000  # pieces per solve (see `Budget`)


class USet:
    """Downward-closed-per-chain configuration set over a cycle analysis.

    Membership: every unbounded chain and trivial residue class implicitly,
    plus ``[chain.lo .. per_chain_max[chain]]`` for bounded chains.  With
    no maximum it is the saturation's seed set: exactly the unbounded chains.
    `laps` reads a maximum only through `chain_max`, so the set of
    `unbounded_core` can raise each one on its first lookup.
    """

    __slots__ = ("analysis", "_maxima")

    def __init__(self, analysis: CycleAnalysis,
                 per_chain_max: Optional[dict] = None):
        self.analysis = analysis
        self._maxima = {} if per_chain_max is None else per_chain_max

    @property
    def per_chain_max(self) -> dict:
        """``(state, chain lo) -> max`` for each bounded chain with members."""
        return self._maxima

    def chain_max(self, q: int, w: int, lo: int, hi: int) -> Optional[int]:
        """The maximum of the bounded chain ``lo, lo + w, ..., hi`` at
        ``q``; ``None`` if it holds no member."""
        return self._maxima.get((q, lo))

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
                    if self.chain_max(q, w, cap, cap) == cap:
                        return None
                    out.append((cap, cap, step))
                    lo += step
                else:
                    clo = class_floor(sa, lo % w) if i == 0 else caps[i - 1] + w
                    m = self.chain_max(q, w, clo, cap - w)
                    if m is not None and lo <= m:
                        return None
                    out.append((lo, cap - w, w))
                    lo += (cap - lo + step - 1) // step * step
                if lo > hi:
                    break
                i = bisect_left(caps, lo, i)
        return out


def bounded_chains(analysis: CycleAnalysis) -> Iterator[Chain]:
    """Every bounded chain of `chain_bounds`, in the order `saturate_step`
    probes them."""
    for q, w, lo, hi in chain_bounds(analysis):
        if hi is not None:
            yield Chain(q, lo % w, lo, hi)


class Budget:
    """The node budget of one solve.

    `decide_unboundedness` makes one (and `unbounded_core`, called without
    one); its seed probe, every probe that raises a chain and the depth
    search draw from it, one unit per piece (a run) they admit.  Once it is
    spent, each later probe from a valid start that is not dead answers
    "capped", so the cap bounds the work of the whole solve.
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



def _uncovered(sets: tuple, q: int, lo: int, hi: int,
               step: int) -> list[tuple[int, int]]:
    """The maximal sub-runs of the run ``lo .. hi`` at ``q`` that ``sets``
    miss.  A one-element run is tested against each set in full
    (`RunSet.has`): ``[]`` if one holds it, else ``[(lo, lo)]``.  A longer
    run is cut only by its own bucket in each set, so an element held only
    as a singleton or in another step's bucket may come back: that
    re-explores reachable configurations, and the run's bucket then holds
    it."""
    if lo == hi:
        for rs in sets:
            if rs.has(q, lo):
                return []
        return [(lo, lo)]
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
    u: USet, start: Configuration, budget: Budget, dead: RunSet,
) -> tuple[str, int]:
    """Search forward from ``start`` for any member of ``u``, run by run,
    over the instance ``u`` was built on, breadth first.

    Returns ``("hit", depth)``, ``("no", depth)`` or ``("capped", depth)``,
    where ``depth`` is the number of levels searched: for a hit, the
    transitions from ``start`` to the member found.  The search visits runs
    ``(state, lo, hi, step)``.  An edge shifts a run by its weight, drops
    what falls below 0 and splits the rest at the guards of its
    destination.  Each part goes through one membership test,
    `_uncovered`, against the visited and the dead runs.  What is left is
    tested against ``u``, and its elements in bounded chains lap up to the
    tops of their chains in one step (`USet.laps`), so the cost of a probe
    does not grow with the guard values.  Every run a lap returns goes
    through `_uncovered` again before it is queued, so no one-element run
    is admitted that is visited or dead.  Every configuration in a run is
    reachable and every reachable one is covered by a run, so the answer
    is that of a walk over single configurations.  Absent a hit the
    closure is finite: an infinite cone pumps some positive cycle
    arbitrarily high and therefore enters an unbounded chain, all of which
    lie in every ``USet``.  So "no" certifies a finite reachable set.

    The runs are searched level by level, so against the exact ``U`` of a
    complete `unbounded_core` a hit's depth is the distance to ``U``.  A
    lap covers only chain elements above the chain's maximum, which reach
    no member of the exact ``U``, and neither does anything a lap leads to;
    a dead run's closure misses ``U``.  Every run of more than one element
    comes from a lap, so every configuration on a shortest path to ``U`` is
    admitted as a one-element run at its true breadth-first level, and the
    first hit is the nearest member.

    ``dead`` memoises failed probes against this same ``u``.  A "no"
    proves that every configuration of its runs has a closure missing
    ``u``, so it adds all its runs; later probes subtract the dead runs
    from theirs (and answer "no" at once from a dead start).  No run into
    ``u`` passes through a dead configuration, so the subtraction changes
    no answer.  The memo is valid only while ``u`` is unchanged; a run dead
    against the seed set of `unbounded_core` is dead against its saturated
    set too (step (c)), so the probes that raise its chains and the depth
    search share one memo.

    Every piece admitted draws one unit from ``budget``; once it is spent
    the probe answers "capped" (at once, if it was spent before and the
    start is valid and not dead: an invalid or dead start answers a
    certain "no" whatever the budget).
    """
    v = u.analysis.vass
    q0, z0 = start
    if not v.is_valid(start) or dead.has(q0, z0):
        return ("no", 0)
    if budget.spent >= budget.cap:
        return ("capped", 0)
    seen = RunSet(v.n_states)
    sets = (seen, dead)
    queue: list = []  # the runs admitted at the next level

    def admit(q: int, lo: int, hi: int, step: int) -> Optional[str]:
        """Queue what is new of a run; "hit", "capped" or None."""
        for a, e in _uncovered(sets, q, lo, hi, step):
            runs = u.laps(q, a, e, step)
            if runs is None:
                return "hit"
            for a, e, s in runs:  # a lap may have added known elements
                for a, e in _uncovered(sets, q, a, e, s):
                    if budget.spent >= budget.cap:
                        return "capped"
                    budget.spent += 1
                    seen.add(q, a, e, s)
                    queue.append((q, a, e, s))
        return None

    out = admit(q0, z0, z0, 1)
    depth = 0
    guards = v.guards
    while out is None and queue:
        level, queue = queue, []
        depth += 1
        for q, lo, hi, s in level:
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
                break
    if out is not None:
        return (out, depth)
    dead.update(seen)
    return ("no", depth)


@dataclass(frozen=True)
class SaturateOutcome:
    added: dict      # (state, chain lo) -> the chain's new maximum
    truncated: bool


def saturate_step(u: USet, budget: Budget, chains: list,
                  dead: RunSet) -> SaturateOutcome:
    """One synchronous round over the instance and analysis ``u`` holds:
    against the frozen ``u``, raise the maximum of each bounded chain of
    ``chains`` to its largest element that reaches ``u``, which closes
    downward soundly because lower chain elements pump up to it.
    ``chains`` lists bounded ``(state, period, lo, hi)`` bounds as
    `chain_bounds` yields them; no `Chain` is built.  Returns the raised
    maxima (``added``); a raised maximum lies above the old one, so
    ``{**u.per_chain_max, **added}`` is the set after the round, and it
    contains ``u``.

    The elements of a chain that reach ``u`` form a prefix of it: one lap
    of the reference cycle validly takes an element ``z`` to ``z + W`` (see
    `unbounded_core`), so whatever ``z + W`` reaches, ``z`` reaches too.
    Hence the round probes the lowest missing element first; a "no" there
    ends the chain for the round.  After a hit it probes the top, and if
    that misses, bisects between the two for the last element that hits.
    A "capped" probe counts as a miss and marks the round ``truncated``.

    The probes share the dead run set ``dead`` (see `_reach_uset`), which
    must hold only runs whose closures miss ``u``: the runs of a "no" cover
    a finite closure that misses ``u``, so the probes add their own to it,
    later probes subtract them from their own runs, and a probe from a
    candidate that is already dead, or on a guard, answers "no" at once.
    When ``u`` is the seed set they miss the saturated set too (see
    `unbounded_core`).  The probes draw from ``budget``.
    """
    truncated = False
    additions: dict[tuple[int, int], int] = {}

    def hits(q: int, x: int) -> bool:
        nonlocal truncated
        status, _ = _reach_uset(u, Configuration(q, x), budget, dead)
        truncated = truncated or status == "capped"
        return status == "hit"

    chain_max = u.per_chain_max
    for q, w, clo, chi in chains:
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

    return SaturateOutcome(additions, truncated)


class CoreResult(USet):
    """The saturated set of `unbounded_core`, each bounded chain's maximum
    raised by `saturate_step` against the seed set on its first lookup.

    ``resolved`` maps each chain raised so far to its maximum (``None`` if
    no element reaches the seed set), and ``truncated`` says whether one of
    their probes was cut.  They, `status` and ``dead`` describe only the
    probes run so far, so a completeness check forces the core first.
    Reading `per_chain_max` or `rounds` forces it: it raises every chain
    not yet resolved, in `chain_bounds` order, which is the whole round
    when none was.  Every probe draws from ``budget`` and shares ``dead``.
    """

    __slots__ = ("seed", "budget", "dead", "resolved", "truncated", "_forced")

    def __init__(self, analysis: CycleAnalysis, budget: Budget):
        super().__init__(analysis)
        self.seed = USet(analysis)
        self.budget = budget
        self.dead = RunSet(analysis.vass.n_states)
        self.resolved: dict = {}
        self.truncated = False
        self._forced = False

    def chain_max(self, q: int, w: int, lo: int, hi: int) -> Optional[int]:
        key = (q, lo)
        if key not in self.resolved:
            self._raise([(q, w, lo, hi)])
        return self.resolved[key]

    @property
    def per_chain_max(self) -> dict:
        if not self._forced:
            self._forced = True
            rest = [(q, w, lo, hi)
                    for q, w, lo, hi in chain_bounds(self.analysis)
                    if hi is not None and (q, lo) not in self.resolved]
            if rest:
                self._raise(rest)
            self._maxima = {key: m for key, m in self.resolved.items()
                            if m is not None}
        return self._maxima

    def _raise(self, chains: list) -> None:
        out = saturate_step(self.seed, self.budget, chains, self.dead)
        self.truncated = self.truncated or out.truncated
        for q, _, lo, _ in chains:
            self.resolved[(q, lo)] = out.added.get((q, lo))

    @property
    def status(self) -> str:
        """``"incomplete"`` if a probe run so far was cut, else
        ``"complete"``."""
        return "incomplete" if self.truncated else "complete"

    @property
    def rounds(self) -> list:
        """The trace's record of the round: ``[{state: the values it
        added, ascending}]``, or ``[]`` if it added nothing.  The round
        starts from the seed set, which holds no chain maximum, so chain
        ``(q, lo)`` gained ``lo, lo + W, ..., per_chain_max[(q, lo)]``."""
        added: dict = {}
        for (q, lo), m in sorted(self.per_chain_max.items()):
            w = self.analysis.states[q].selection.period
            added.setdefault(q, []).extend(range(lo, m + 1, w))
        return [{q: sorted(vals) for q, vals in added.items()}] if added else []


def unbounded_core(analysis: CycleAnalysis,
                   budget: Optional[Budget] = None) -> CoreResult:
    """The set of unbounded configurations in the pumpable region of
    ``analysis``: one round of `saturate_step` from the seed set, each
    chain raised when it is first looked up.

    One round is the fixpoint.  A state may carry a set of guards, and
    `chain_bounds` makes every cut-off of every guard on the reference
    cycle its own singleton chain.  So a longer bounded chain holds no
    cut-off, and from any element ``z`` of it one lap of the reference
    cycle validly reaches ``z + W``, staying at or above the floor.  The
    same lap argument lets a probe take a whole chain in one step (see
    `USet.laps`).  Then:

    (a) Absent a cap, the round adds exactly the prefix of each chain that
        reaches the seed set.  Those elements are a prefix, since whatever
        ``z + W`` reaches ``z`` reaches too; the round probes the lowest
        element first, and its bisection between a hit and a miss is exact.
        A chain's prefix depends on no other chain, so the chains can be
        raised one at a time, in any order, each when it is first looked
        up, and every lookup returns the exact maximum.
    (b) A second round adds nothing: an element added in (a) reaches the
        seed set, so a chain element that reaches an added one reaches the
        seed set too, and (a) already added it.
    (c) The round's dead runs (see `_reach_uset`) have closures that miss
        the seed set.  By (b) a closure that meets an added element meets
        the seed set as well, so they miss the final set too, and
        ``CoreResult.dead`` carries them to the depth search.

    By (b) a configuration reaches the final set iff it reaches the seed
    set, which is how `decide_unboundedness` answers NO without a round.
    The result runs no probe until it is asked (see `CoreResult`).  The
    probes draw from ``budget``: a decision passes the one its seed probe
    drew from, and ``None`` makes a fresh one of `DEFAULT_NODE_CAP`
    pieces.  A spent budget degrades the status to "incomplete"; the set
    itself stays sound.
    """
    if budget is None:
        budget = Budget(DEFAULT_NODE_CAP)
    return CoreResult(analysis, budget)


@dataclass(frozen=True)
class Decision:
    """The answer of `decide_unboundedness` and what it solved.

    ``vass`` is the instance asked: the split input, or the input as given
    when the decision settled it before splitting (an invalid start, or a
    counter stuck at 0).  ``analysis`` is the cycle analysis of the split
    instance.  A decision that ran none makes it on first read, so a caller
    that wants the saturation of an answer settled without one (``check
    --emit-trace``) runs it once, under ``budget``.

    ``core`` holds only the chains the decision looked up.  Reading its
    ``per_chain_max`` or ``rounds`` forces it under ``budget``;
    ``core.status`` and ``core.dead`` describe the probes run so far, and
    ``answer`` already accounts for every one the decision ran.  `status`
    is derived from ``answer``, so the two cannot disagree."""

    answer: Optional[bool]      # None: could not decide under the caps
    reason: str
    vass: Vass                  # the instance solved
    budget: Budget              # the node budget of the solve
    core: Optional[CoreResult]  # the saturated set; None unless a later hit
    _analysis: Optional[CycleAnalysis] = field(
        default=None, repr=False, compare=False)

    @property
    def status(self) -> str:
        """``"incomplete"`` if the decision is UNKNOWN (``answer is None``),
        else ``"complete"``."""
        return "incomplete" if self.answer is None else "complete"

    @property
    def analysis(self) -> CycleAnalysis:
        """The cycle analysis of the split instance, made on first read
        unless the decision made it."""
        if self._analysis is None:
            object.__setattr__(self, "_analysis",
                               analyze(model.normalize_guards(self.vass)))
        return self._analysis


def decide_unboundedness(v: Vass, s: int) -> Decision:
    """Is ``(s, 0)`` unbounded?

    Two answers need no analysis.  A guard at 0 on ``s`` makes the start
    invalid.  A source stuck at 0 (`model.stuck_at_zero`: no positive-weight
    edge leaves its 0-weight closure) reaches only finitely many
    configurations, all at counter 0, whatever the guards.

    Otherwise multi-guard states are split (`model.normalize_guards_with_maps`)
    and the question is asked at the entry of the chain that replaces ``s``.
    By step (b) of `unbounded_core` the source reaches the saturated set iff
    it reaches the seed set, so one run search against the seed decides:
    a "no" answers NO with no saturation.  A hit at depth 0 makes the source
    a member of the seed set, which lies in ``U``: "initial configuration is
    unbounded", with no saturation either.  Only a later hit asks the
    saturated set of `unbounded_core`, which raises just the chains the
    membership test and the search look up.  A source in the saturated set
    is "initial configuration is unbounded"; from any other, the same run
    search against the saturated set gives the number of steps, which is
    exact (see `_reach_uset`).  ``Decision.core`` is ``None`` unless the
    saturated set was asked.  One `Budget` serves the seed probe, the probes
    that raise chains and the depth search.  A chain is cut only when that
    budget is spent; the depth search then answers "capped" at its next
    piece (its start reached the seed set, so it is valid and not dead, and
    no certain "no" comes first), and a cut chain makes the answer UNKNOWN
    whatever the search found: no depth is measured against a cut set.
    """
    model.require_states(v, model.UNKNOWN_SOURCE, s)
    budget = Budget(DEFAULT_NODE_CAP)
    vn, analysis, core = v, None, None

    def decision(answer: Optional[bool], reason: str) -> Decision:
        return Decision(answer, reason, vn, budget, core, analysis)

    if 0 in v.guards[s]:
        return decision(False, "initial configuration is invalid")
    if model.stuck_at_zero(v, s):
        return decision(False, "reachable set is finite")
    vn, entry, _ = model.normalize_guards_with_maps(v)
    analysis = analyze(vn)
    c = Configuration(entry[s], 0)
    status, depth = _reach_uset(USet(analysis), c, budget, RunSet(vn.n_states))
    if status == "hit":
        if depth == 0:  # a member of the seed set
            return decision(True, "initial configuration is unbounded")
        core = unbounded_core(analysis, budget)
        if core.contains(c):
            return decision(True, "initial configuration is unbounded")
        status, depth = _reach_uset(core, c, budget, core.dead)
        if core.status == "incomplete":  # a chain it looked up was cut
            status = "capped"
        elif status == "no":  # the seed is a subset of the saturated set
            raise AssertionError("the search missed the core it reached")
    if status == "no":
        return decision(False, "reachable set is finite")
    if status == "capped":
        return decision(None, "node cap exhausted")
    return decision(True, f"reaches the unbounded core in {depth} steps")


def decide_coverability(v: Vass, s: int, t: int) -> Decision:
    """Can ``(s, 0)`` reach state ``t``?  Decided by reduction to
    unboundedness (prune states that cannot reach ``t``, then let ``t`` feed
    an unguarded +1 self-loop); ``Decision.core`` is the saturation of the
    reduced instance, if the decision ran one."""
    reduced, s1 = reductions.reduce_cov_to_unbound(v, s, t)
    return decide_unboundedness(reduced, s1)
