"""Shared test utilities: seeded random instances and brute-force baselines."""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Iterator, Optional

from vass import Path, Transition, Vass, fixpoint
from vass.cycles import (
    Chain,
    CycleAnalysis,
    CycleSelection,
    _strongly_connected_components,
    chains_of,
)
from vass.model import normalize_guards_with_maps
from vass.oracle import oracle_unbounded
from vass.pareto import (
    ParetoElem,
    ParetoFamily,
    _filter_products,
    _level_zero,
    _partner_rows,
    _witness_key,
    dominates,
)
from vass.reductions import Cnf3, cnf_to_vass, with_start_counter


def gen_vass(
    rng: random.Random,
    max_states: int = 6,
    max_weight: int = 5,
    max_guard: int = 49,
    guard_prob: float = 0.45,
    multi_guards: bool = False,
    edge_factor: float = 1.8,
) -> Vass:
    n = rng.randint(1, max_states)
    names = tuple(f"q{i}" for i in range(n))
    guards = []
    for _ in range(n):
        gs = set()
        if rng.random() < guard_prob:
            gs.add(rng.randint(0, max_guard))
            if multi_guards and rng.random() < 0.5:
                gs.add(rng.randint(0, max_guard))
        guards.append(frozenset(gs))
    m = rng.randint(1, max(1, int(edge_factor * n)) + 1)
    edges = tuple(
        Transition(rng.randrange(n), rng.randrange(n),
                   rng.randint(-max_weight, max_weight))
        for _ in range(m)
    )
    return Vass(names=names, guards=tuple(guards), transitions=edges,
                initial=0, target=rng.randrange(n))


def multi_guard_instances(count: int) -> list[Vass]:
    """A shared seeded set with guard sets (no `normalize_guards`)."""
    rng = random.Random(31337)
    return [gen_vass(rng, multi_guards=True) for _ in range(count)]


def gen_dense_guard_free(rng: random.Random, n: int,
                         max_weight: int = 5) -> Vass:
    """A guard-free graph on ``n`` states with three out-edges per state."""
    edges = tuple(
        Transition(q, rng.randrange(n), rng.randint(-max_weight, max_weight))
        for q in range(n) for _ in range(3)
    )
    return Vass(names=tuple(f"q{i}" for i in range(n)),
                guards=(frozenset(),) * n, transitions=edges,
                initial=0, target=n - 1)


def two_state_instances() -> Iterator[Vass]:
    """Every 2-state instance with at most 2 distinct edges of weight
    -2..2 and each state's guards one of {}, {0}, {1}, {2}, {1, 2}: a
    slice of the bounded-exhaustive enumeration (unsplit guards)."""
    menu = (frozenset(), frozenset({0}), frozenset({1}), frozenset({2}),
            frozenset({1, 2}))
    edges = [Transition(p, q, w) for p in range(2) for q in range(2)
             for w in range(-2, 3)]
    edge_sets = [()] + [(e,) for e in edges] + list(combinations(edges, 2))
    for g0 in menu:
        for g1 in menu:
            for es in edge_sets:
                yield Vass(names=("q0", "q1"), guards=(g0, g1),
                           transitions=es, initial=0, target=1)


def unbounded_core_reference(v: Vass) -> tuple[dict, list, str]:
    """The saturation loop of `fixpoint.unbounded_core` before one round was
    shown to be the fixpoint, frozen: rounds of `saturate_step` from the
    seed set under one budget, until a round adds nothing.  Returns
    ``(per_chain_max, rounds, status)``."""
    analysis = fixpoint.analyze(v)
    u = fixpoint.seed_uset(analysis)
    budget = fixpoint.Budget(fixpoint.DEFAULT_NODE_CAP)
    rounds: list = []
    truncated = False
    while True:
        out = fixpoint.saturate_step(v, analysis, u, budget)
        truncated = truncated or out.truncated
        u = out.uset
        if not out.added:
            break
        rounds.append(out.added)
    return (u.per_chain_max, rounds,
            "incomplete" if truncated else "complete")


def cnf_no_anchor() -> tuple[Vass, int]:
    """The 4-variable NO anchor of the CNF family, normalized, with the
    state its start counter 119 is entered from.  Its chains are disjoint
    and its components are simple cycles of 26 and 40 states, so it
    exposes repeated probe and selection work."""
    f = Cnf3(4, (((1, True), (2, False), (3, True)),
                 ((1, False), (2, True), (4, False))))
    w, w0 = with_start_counter(cnf_to_vass(f)[0], 119)
    v, entry, _ = normalize_guards_with_maps(w)
    return v, entry[w0]


def small_cnf_formulas() -> list[Cnf3]:
    """Every single clause and every pair of distinct clauses over three
    variables, and the two four-variable anchors of the CNF family."""
    clauses = [tuple((var, bool(signs >> var - 1 & 1)) for var in (1, 2, 3))
               for signs in range(8)]
    formulas = [Cnf3(3, (c,)) for c in clauses]
    formulas += [Cnf3(3, pair) for pair in combinations(clauses, 2)]
    formulas += [Cnf3(4, (clauses[5],)), Cnf3(4, (clauses[5], (
        (1, False), (2, True), (4, False))))]
    return formulas


def gen_guard_free(rng: random.Random, max_states: int = 6,
                   max_weight: int = 5) -> Vass:
    return gen_vass(rng, max_states=max_states, max_weight=max_weight,
                    guard_prob=0.0)


def random_path(rng: random.Random, v: Vass, max_len: int = 8) -> Path:
    start = rng.randrange(v.n_states)
    q = start
    taken = []
    for _ in range(rng.randint(0, max_len)):
        outs = v.out_edges(q)
        if not outs:
            break
        ti, t = rng.choice(outs)
        taken.append(ti)
        q = t.dst
    return Path(start, tuple(taken))


def truly_unbounded(v: Vass, q: int, z: int, counter_cap: int = 600):
    """Oracle answer for unboundedness of an arbitrary configuration,
    phrased through a weight-z entry edge.  Returns True/False/None."""
    w, w0 = with_start_counter(v, z, q)
    verdict = oracle_unbounded(w, w0, counter_cap=counter_cap)
    if not verdict.definite:
        return None
    return verdict.answer == "yes"


def simple_cycles_through(v: Vass, q: int) -> list[list[int]]:
    """All simple cycles through q, as transition-index lists (brute force,
    only sane for very small instances)."""
    cycles = []

    def walk(cur: int, visited: set[int], taken: list[int]):
        for ti, t in v.out_edges(cur):
            if t.dst == q and taken is not None and len(taken) >= 0:
                cycles.append(taken + [ti])
            if t.dst in visited or t.dst == q:
                continue
            walk(t.dst, visited | {t.dst}, taken + [ti])

    walk(q, {q}, [])
    return cycles


def enumerate_paths(v: Vass, src: int, max_len: int):
    """Yield every path from src of length at most max_len (as Paths)."""
    stack = [(src, ())]
    while stack:
        cur, taken = stack.pop()
        yield Path(src, taken)
        if len(taken) < max_len:
            for ti, t in v.out_edges(cur):
                stack.append((t.dst, taken + (ti,)))


def _prune_frontier_reference(elems: list[tuple[int, int, tuple[int, ...]]]
                              ) -> list:
    """The undominated ``(pmin, weight, transitions)`` elements, pmin
    descending, then weight descending, then shorter then lexicographically
    smaller witness; a later element survives only if its weight strictly
    beats everything kept so far."""
    elems = sorted(elems, key=lambda e: (-e[0], -e[1], len(e[2]), e[2]))
    kept: list[tuple[int, int, tuple[int, ...]]] = []
    best_w = None
    for e in elems:
        if best_w is None or e[1] > best_w:
            kept.append(e)
            best_w = e[1]
    return kept


def select_cycles_reference(v: Vass) -> dict[int, CycleSelection]:
    """The full leveled Pareto DP: every level re-extends and re-prunes the
    whole frontier of every state.  Reference for ``select_cycles``."""
    selections: dict[int, CycleSelection] = {}
    for comp in _strongly_connected_components(v):
        comp_set = set(comp)
        edges_in = [
            (i, t) for i, t in enumerate(v.transitions)
            if t.src in comp_set and t.dst in comp_set
        ]
        if not edges_in:
            continue
        out_by_src: dict[int, list[tuple[int, int, int]]] = {q: [] for q in comp}
        for i, t in edges_in:
            out_by_src[t.src].append((i, t.dst, t.weight))
        levels = len(comp)
        for q in sorted(comp):
            # frontier[p]: undominated (pmin, weight, transition tuple) over
            # q->p paths of at most `level` transitions.
            frontier: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {
                q: [(0, 0, ())]
            }
            best: Optional[tuple[int, int, tuple[int, ...]]] = None
            for _level in range(1, levels + 1):
                new: dict[int, list] = {p: list(es) for p, es in frontier.items()}
                for p, elems in frontier.items():
                    for i, dst, w in out_by_src[p]:
                        for pmin, wt, path in elems:
                            ext = (min(pmin, wt + w), wt + w, path + (i,))
                            new.setdefault(dst, []).append(ext)
                frontier = {p: _prune_frontier_reference(es)
                            for p, es in new.items()}
                for pmin, wt, path in frontier.get(q, ()):
                    if wt >= 1 and path and (best is None or pmin > best[0]):
                        best = (pmin, wt, path)
            if best is not None:
                pmin, wt, path = best
                selections[q] = CycleSelection(
                    state=q, gamma=Path(q, path), period=wt, pmin=pmin
                )
    return selections


def bounded_chains_reference(analysis: CycleAnalysis) -> Iterator[Chain]:
    """Every bounded chain, states ascending, then residues ascending, then
    up each class, read off ``chains_of``.  Reference for
    ``bounded_chains``."""
    for q in sorted(analysis.states):
        sa = analysis.states[q]
        for r in sorted(sa.splits):
            for ch in chains_of(sa, r):
                if ch.bounded:
                    yield ch


def concat_reference(a: ParetoElem, b: ParetoElem) -> ParetoElem:
    """``concat`` without nadir positions.  Reference for ``concat``."""
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


def pareto_filter_reference(v: Vass, elems: list[ParetoElem]) -> list[ParetoElem]:
    """The filter that walks every input witness to find its nadirs.
    Reference for ``pareto_filter``."""
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


def build_families_reference(v: Vass) -> ParetoFamily:
    """The doubling construction over the walking filter.  Reference for
    ``build_families``."""
    cells: dict[tuple[int, int], list[ParetoElem]] = {}
    for q in range(v.n_states):
        cells[(q, q)] = [ParetoElem.empty(v, q)]
    for ti in range(len(v.transitions)):
        e = ParetoElem.edge(v, ti)
        cells.setdefault((e.src, e.dst), []).append(e)
    cells = {pq: tuple(pareto_filter_reference(v, es))
             for pq, es in cells.items()}
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
                    pool.append(concat_reference(a, b))
        return tuple(pareto_filter_reference(v, pool))

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


def _full_levels(v: Vass):
    """Every level of the doubling, level zero first, each built whole in
    sorted cell order, as ``build_families`` builds them without a
    source."""
    cells = _level_zero(v)
    levels = math.ceil(math.log2(v.n_states)) if v.n_states > 1 else 0
    yield cells
    for _ in range(levels):
        rows = {pq: _partner_rows(es) for pq, es in cells.items()}
        out_of: dict[int, list[tuple[int, tuple]]] = {}
        for (p, r), left in rows.items():
            out_of.setdefault(p, []).append((r, left))
        products: dict[tuple[int, int], list] = {}
        for (p, r), left in rows.items():
            for q, right in out_of.get(r, ()):
                products.setdefault((p, q), []).append((left, right))
        cells = {pq: tuple(_filter_products(*pq, products[pq]))
                 for pq in sorted(products)}
        yield cells


def _lasso_scan(cells: dict, s: int, n_states: int) -> Optional[tuple]:
    """The first lasso from ``s`` in a dict of whole cells: by state ``q``,
    then by cell order, an ``(s, q)`` stem with nonnegative minimal prefix
    and a ``(q, q)`` cycle of positive weight that stays nonnegative after
    the stem's weight; ``None`` if there is none."""
    for q in range(n_states):
        for stem in cells.get((s, q), ()):
            if stem.pmin < 0:
                continue
            for cyc in cells.get((q, q), ()):
                if cyc.weight >= 1 and stem.weight + cyc.pmin >= 0:
                    return stem, cyc
    return None


def lasso_reference(v: Vass, sources
                    ) -> dict[int, tuple[int, Optional[tuple]]]:
    """The lasso test over whole levels, for each source ``s`` of
    ``sources``: the first level whose full cells hold a lasso from ``s``,
    with that lasso (``_lasso_scan``), or the last level and ``None``.  The
    sources share the levels, which are built only as far as some source
    needs.  Reference for ``decide_unbounded_lasso``."""
    found: dict[int, tuple[int, Optional[tuple]]] = {}
    for level, cells in enumerate(_full_levels(v)):
        for s in sources:
            if s not in found:
                lasso = _lasso_scan(cells, s, v.n_states)
                if lasso is not None:
                    found[s] = (level, lasso)
        if len(found) == len(sources):
            break
    return {s: found.get(s, (level, None)) for s in sources}
