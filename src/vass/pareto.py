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
from dataclasses import dataclass
from typing import Optional

from . import reductions
from .model import Path, Vass


@dataclass(frozen=True)
class ParetoElem:
    """A path summary pinned to its endpoints, with a concrete witness."""

    src: int
    dst: int
    pmin: int
    smax: int
    weight: int
    witness: Path

    @staticmethod
    def empty(v: Vass, q: int) -> "ParetoElem":
        return ParetoElem(q, q, 0, 0, 0, Path(q))

    @staticmethod
    def edge(v: Vass, ti: int) -> "ParetoElem":
        t = v.transitions[ti]
        return ParetoElem(
            t.src, t.dst, min(0, t.weight), max(0, t.weight), t.weight,
            Path(t.src, (ti,)),
        )


def dominates(a: ParetoElem, b: ParetoElem) -> bool:
    """Does ``a`` dominate ``b``?  Implies ``weight(b) <= weight(a)``."""
    if (a.src, a.dst) != (b.src, b.dst):
        raise ValueError("domination compares paths with equal endpoints")
    return b.pmin <= a.pmin and b.smax <= a.smax


def concat(a: ParetoElem, b: ParetoElem) -> ParetoElem:
    """Summary of the concatenation; the single-state summary is the
    identity and the operation is associative."""
    if a.dst != b.src:
        raise ValueError("paths do not share an endpoint")
    return ParetoElem(
        src=a.src,
        dst=b.dst,
        pmin=min(a.pmin, a.weight + b.pmin),
        smax=max(b.smax, a.smax + b.weight),
        weight=a.weight + b.weight,
        witness=Path(a.witness.start,
                     a.witness.transitions + b.witness.transitions),
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
    """
    if not elems:
        return []
    src, dst = elems[0].src, elems[0].dst

    def better(cand: tuple, cur: Optional[tuple]) -> bool:
        # max weight, then shortest, then lexicographically smallest witness
        if cur is None:
            return True
        if cand[0] != cur[0]:
            return cand[0] > cur[0]
        if cand[1] != cur[1]:
            return cand[1] < cur[1]
        return cand[2] < cur[2]

    best_prefix: dict[int, tuple] = {}
    best_suffix: dict[int, tuple] = {}
    for e in elems:
        if (e.src, e.dst) != (src, dst):
            raise ValueError("filter inputs must share endpoints")
        weights = v.path_weights(e.witness)
        states = v.path_states(e.witness)
        sums = [0]
        for w in weights:
            sums.append(sums[-1] + w)
        pmin = min(sums)
        for i, acc in enumerate(sums):
            if acc != pmin:
                continue
            r = states[i]
            pre = Path(src, e.witness.transitions[:i])
            suf = Path(r, e.witness.transitions[i:])
            cand = (pmin, len(pre.transitions), pre.transitions, pre)
            if better(cand, best_prefix.get(r)):
                best_prefix[r] = cand
            cand = (e.weight - pmin, len(suf.transitions), suf.transitions, suf)
            if better(cand, best_suffix.get(r)):
                best_suffix[r] = cand
    combined: list[ParetoElem] = []
    for r in best_prefix:
        pw, _, _, pre = best_prefix[r]
        sw, _, _, suf = best_suffix[r]
        path = Path(src, pre.transitions + suf.transitions)
        combined.append(ParetoElem(src, dst, pw, sw, pw + sw, path))
    combined.sort(key=lambda e: (-e.pmin, -e.smax) + _witness_key(e))
    kept: list[ParetoElem] = []
    for e in combined:
        if any(dominates(f, e) for f in kept):
            continue
        kept = [f for f in kept if not dominates(e, f)]
        kept.append(e)
    kept.sort(key=lambda e: (-e.pmin, -e.smax) + _witness_key(e))
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
