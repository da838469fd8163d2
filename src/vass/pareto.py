"""Pareto sets of path summaries and lasso detection for guard-free systems.

A path is dominated by another (same endpoints) when the second is at least
as good in both the minimal prefix weight and the maximal suffix weight; a
Pareto set dominates every path of a family.  Doubling path lengths and
filtering through per-nadir recombination keeps every endpoint cell at most
``|Q|`` wide, giving Pareto sets for all paths of length up to ``|Q|`` in
logarithmically many rounds.  Unboundedness from ``(s, 0)`` then reduces to
scanning the cells for a nonnegative-prefix stem feeding a positive cycle.

Guards play no role here: the decision procedures refuse guarded input, and
the cycle-analysis module reuses only the summary algebra, where guards are
irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import reductions
from .model import Path, Vass


@dataclass(frozen=True)
class ParetoElem:
    """A path summary pinned to its endpoints, with a concrete witness.

    ``nadirs`` lists, in ascending order, every ``(position, state)`` of the
    witness (positions counted in states, ``0 .. len(witness)``) where its
    prefix weight equals ``pmin``.  Every constructor here fills it in from
    its operands in time proportional to the number of nadirs, never by
    walking the witness; ``from_path`` walks once, for callers that start
    from a bare path.  An element built without it (``None``) is refused by
    ``concat`` and ``pareto_filter``.
    """

    src: int
    dst: int
    pmin: int
    smax: int
    weight: int
    witness: Path
    nadirs: Optional[tuple[tuple[int, int], ...]] = field(
        default=None, compare=False, repr=False)

    @staticmethod
    def empty(v: Vass, q: int) -> "ParetoElem":
        return ParetoElem(q, q, 0, 0, 0, Path(q), ((0, q),))

    @staticmethod
    def edge(v: Vass, ti: int) -> "ParetoElem":
        t = v.transitions[ti]
        if t.weight > 0:
            nadirs = ((0, t.src),)
        elif t.weight < 0:
            nadirs = ((1, t.dst),)
        else:
            nadirs = ((0, t.src), (1, t.dst))
        return ParetoElem(
            t.src, t.dst, min(0, t.weight), max(0, t.weight), t.weight,
            Path(t.src, (ti,)), nadirs,
        )

    @staticmethod
    def from_path(v: Vass, path: Path) -> "ParetoElem":
        """The summary of ``path``, by one walk along it."""
        states = v.path_states(path)
        sums = [0]
        for w in v.path_weights(path):
            sums.append(sums[-1] + w)
        pmin = min(sums)
        nadirs = tuple((i, states[i]) for i, acc in enumerate(sums)
                       if acc == pmin)
        return ParetoElem(states[0], states[-1], pmin, sums[-1] - pmin,
                          sums[-1], path, nadirs)


_NO_NADIRS = "element has no nadir positions; build it with ParetoElem.from_path"


def dominates(a: ParetoElem, b: ParetoElem) -> bool:
    """Does ``a`` dominate ``b``?  Implies ``weight(b) <= weight(a)``."""
    if (a.src, a.dst) != (b.src, b.dst):
        raise ValueError("domination compares paths with equal endpoints")
    return b.pmin <= a.pmin and b.smax <= a.smax


def concat(a: ParetoElem, b: ParetoElem) -> ParetoElem:
    """Summary of the concatenation; the single-state summary is the
    identity and the operation is associative.

    The prefix weights of the result are those of ``a``, then those of
    ``b`` raised by ``a.weight``, so its minimum is the lesser of ``a.pmin``
    and ``a.weight + b.pmin`` and its nadirs are those of the side that
    attains it: ``a``'s as they are, ``b``'s shifted by ``len(a)``, or both
    on a tie.  On a tie the junction is a nadir of both sides or of
    neither (it is one of ``a`` iff ``a.weight == a.pmin``, which the tie
    turns into ``b.pmin == 0``), and it is listed once.
    """
    if a.dst != b.src:
        raise ValueError("paths do not share an endpoint")
    if a.nadirs is None or b.nadirs is None:
        raise ValueError(_NO_NADIRS)
    shift = len(a.witness.transitions)
    low_b = a.weight + b.pmin
    if a.pmin < low_b:
        nadirs = a.nadirs
    else:
        tail = tuple((i + shift, q) for i, q in b.nadirs)
        if a.pmin > low_b:
            nadirs = tail
        elif a.nadirs[-1][0] == shift:
            nadirs = a.nadirs + tail[1:]
        else:
            nadirs = a.nadirs + tail
    return ParetoElem(
        src=a.src,
        dst=b.dst,
        pmin=min(a.pmin, low_b),
        smax=max(b.smax, a.smax + b.weight),
        weight=a.weight + b.weight,
        witness=Path(a.witness.start,
                     a.witness.transitions + b.witness.transitions),
        nadirs=nadirs,
    )


def _witness_key(e: ParetoElem) -> tuple:
    return (len(e.witness.transitions), e.witness.transitions)


def pareto_filter(v: Vass, elems: list[ParetoElem]) -> list[ParetoElem]:
    """Shrink a family of same-endpoint summaries to a Pareto set of at most
    ``|Q|`` elements.

    For every state ``r`` where some input attains its minimal prefix, glue
    a maximum-weight minimal prefix ending at ``r`` to a maximum-weight
    maximal suffix starting at ``r``; the combination dominates every input
    with nadir ``r``, and its witness is at most twice the input length.
    Outputs that are themselves dominated are pruned (a strict refinement:
    the ``|Q|`` bound holds without it).  Ties break toward larger weight,
    then the shorter then lexicographically smaller witness.

    The nadirs come from each input's ``nadirs``, so no witness is walked.
    A best prefix or suffix is held as ``(weight, length, element,
    position)``, and its transitions are sliced out only when a candidate
    ties it in both weight and length.  This is exact: a lexicographic
    order on ``(weight, length, transitions)`` looks at the transitions
    only on such a tie, so every choice, and with it every witness, is the
    one made by slicing each candidate up front.  The glued element of a
    best prefix ``(a, i1)`` and a best suffix ``(b, i2)`` has pmin
    ``a.pmin`` (``b`` never dips below its nadir after ``i2``), and its
    nadirs are ``a``'s up to ``i1`` followed by ``b``'s after ``i2``,
    shifted by ``i1 - i2``.
    """
    if not elems:
        return []
    src, dst = elems[0].src, elems[0].dst
    best_prefix: dict[int, tuple] = {}
    best_suffix: dict[int, tuple] = {}
    for e in elems:
        if (e.src, e.dst) != (src, dst):
            raise ValueError("filter inputs must share endpoints")
        if e.nadirs is None:
            raise ValueError(_NO_NADIRS)
        pw, sw = e.pmin, e.weight - e.pmin
        n = len(e.witness.transitions)
        for i, r in e.nadirs:
            cur = best_prefix.get(r)
            if (cur is None or pw > cur[0] or pw == cur[0] and (
                    i < cur[1] or i == cur[1] and
                    e.witness.transitions[:i]
                    < cur[2].witness.transitions[:cur[3]])):
                best_prefix[r] = (pw, i, e, i)
            cur = best_suffix.get(r)
            if (cur is None or sw > cur[0] or sw == cur[0] and (
                    n - i < cur[1] or n - i == cur[1] and
                    e.witness.transitions[i:]
                    < cur[2].witness.transitions[cur[3]:])):
                best_suffix[r] = (sw, n - i, e, i)
    combined: list[ParetoElem] = []
    for r, (pw, _, a, i1) in best_prefix.items():
        sw, _, b, i2 = best_suffix[r]
        shift = i1 - i2
        nadirs = tuple(x for x in a.nadirs if x[0] <= i1) + tuple(
            (j + shift, q) for j, q in b.nadirs if j > i2)
        path = Path(src, a.witness.transitions[:i1] + b.witness.transitions[i2:])
        combined.append(ParetoElem(src, dst, pw, sw, pw + sw, path, nadirs))
    combined.sort(key=lambda e: (-e.pmin, -e.smax) + _witness_key(e))
    # `combined` is sorted and the prune only appends or drops, so `kept`
    # stays sorted.
    kept: list[ParetoElem] = []
    for e in combined:
        if any(dominates(f, e) for f in kept):
            continue
        kept = [f for f in kept if not dominates(e, f)]
        kept.append(e)
    return kept


@dataclass(frozen=True)
class ParetoFamily:
    """Per endpoint pair, a Pareto set for all paths of length up to
    ``2**level`` (witnesses may be up to ``4**level`` long)."""

    level: int
    cells: dict  # (p, q) -> tuple[ParetoElem, ...]

    def cell(self, p: int, q: int) -> tuple[ParetoElem, ...]:
        return self.cells.get((p, q), ())


def _level_zero(v: Vass) -> dict:
    cells: dict[tuple[int, int], list[ParetoElem]] = {}
    for q in range(v.n_states):
        cells[(q, q)] = [ParetoElem.empty(v, q)]
    for ti in range(len(v.transitions)):
        e = ParetoElem.edge(v, ti)
        cells.setdefault((e.src, e.dst), []).append(e)
    return {pq: tuple(pareto_filter(v, es)) for pq, es in cells.items()}


def build_families(v: Vass) -> ParetoFamily:
    """Doubling construction up to level ``ceil(log2 |Q|)``: the final family
    is a Pareto set for all paths of length up to ``|Q|`` between every pair
    of states.  Each level builds its cells from the previous level only,
    in sorted cell order.
    """
    cells = _level_zero(v)
    top = max(1, v.n_states)
    levels = math.ceil(math.log2(top)) if top > 1 else 0

    def next_cell(p: int, q: int) -> tuple:
        pool: list[ParetoElem] = []
        for r in range(v.n_states):
            left = cells.get((p, r))
            right = cells.get((r, q))
            if not left or not right:
                continue
            for a in left:
                for b in right:
                    pool.append(concat(a, b))
        return tuple(pareto_filter(v, pool))

    for _ in range(levels):
        # Midpoint products can populate pairs absent from the current level.
        into: dict[int, list[int]] = {}
        for (p, r) in cells:
            into.setdefault(r, []).append(p)
        pairs = sorted(
            {(p, q) for (r, q) in cells for p in into.get(r, ())}
        )
        results = {pq: next_cell(*pq) for pq in pairs}
        cells = {pq: es for pq, es in results.items() if es}
    return ParetoFamily(level=levels, cells=cells)


@dataclass(frozen=True)
class LassoDecision:
    answer: bool
    stem: Optional[ParetoElem] = None
    cycle: Optional[ParetoElem] = None


def _require_guard_free(v: Vass) -> None:
    if v.has_guards:
        raise ValueError("this procedure requires guard-free input")


def decide_unbounded_lasso(v: Vass, s: int) -> LassoDecision:
    """Is ``(s, 0)`` unbounded in a guard-free system?

    Holds iff some stem with nonnegative minimal prefix reaches a state with
    a positive cycle that stays nonnegative after the stem's weight: with no
    guards, such a lasso can be pumped forever, and any unbounded run can be
    trimmed to one.
    """
    _require_guard_free(v)
    fam = build_families(v)
    for q in range(v.n_states):
        for stem in fam.cell(s, q):
            if stem.pmin < 0:
                continue
            for cyc in fam.cell(q, q):
                if cyc.weight >= 1 and stem.weight + cyc.pmin >= 0:
                    return LassoDecision(True, stem, cyc)
    return LassoDecision(False)


def decide_cover_pareto(v: Vass, s: int, t: int) -> bool:
    """Coverability for guard-free systems, through the unboundedness
    reduction and the lasso test."""
    _require_guard_free(v)
    reduced, s1 = reductions.reduce_cov_to_unbound(v, s, t)
    return decide_unbounded_lasso(reduced, s1).answer
