"""Shared test utilities: seeded random instances, brute-force baselines,
frozen references and the diagnostics only the tests call."""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, NamedTuple, Optional

from vass import (Configuration, Path, Transition, Vass, fixpoint, oracle,
                  pareto)
from vass.cycles import (
    Chain,
    CycleAnalysis,
    CycleSelection,
    StateAnalysis,
    _strongly_connected_components,
    chain_bounds,
    class_floor,
)
from vass.fixpoint import RunSet, USet
from vass.model import normalize_guards_with_maps
from vass.objectives import DiseqObjective
from vass.oracle import oracle_unbounded
from vass.pareto import (
    ParetoElem,
    ParetoFamily,
    _filter_products,
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


def unsplit_multi_guard(vs) -> list[Vass]:
    """The members of ``vs`` that hold a multi-guard state, as given (not
    split by `normalize_guards`)."""
    return [v for v in vs if any(len(g) > 1 for g in v.guards)]


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


def small_instances(n_states: int, max_weight: int,
                    max_edges: int) -> Iterator[Vass]:
    """Every instance on ``n_states`` states with at most ``max_edges``
    distinct edges of weight ``-max_weight..max_weight`` and each state's
    guards one of {}, {0}, {1}, {2}, {1, 2} (unsplit): the sets of the
    bounded-exhaustive check.  Guards vary slowest, then the edge sets by
    size; the target is the last state."""
    menu = (frozenset(), frozenset({0}), frozenset({1}), frozenset({2}),
            frozenset({1, 2}))
    edges = [Transition(p, q, w) for p in range(n_states)
             for q in range(n_states)
             for w in range(-max_weight, max_weight + 1)]
    edge_sets = [es for k in range(max_edges + 1)
                 for es in combinations(edges, k)]
    names = tuple(f"q{i}" for i in range(n_states))
    for guards in product(menu, repeat=n_states):
        for es in edge_sets:
            yield Vass(names=names, guards=guards, transitions=es,
                       initial=0, target=n_states - 1)


def two_state_instances() -> Iterator[Vass]:
    """The 5,275 instances of `small_instances` on 2 states with at most 2
    edges of weight -2..2: the slice of the bounded-exhaustive check that
    the tier-1 suite runs."""
    return small_instances(2, 2, 2)


def oracle_queries(v: Vass) -> Iterator[tuple[tuple, Optional[bool],
                                               oracle.OracleVerdict]]:
    """Unboundedness from every state and coverability of every state from
    every state of ``v``, each as ``(query, solver answer, oracle
    verdict)``; ``query`` is ``(s,)`` or ``(s, t)``.  The oracles run with
    their default caps."""
    for s in range(v.n_states):
        yield ((s,), fixpoint.decide_unboundedness(v, s).answer,
               oracle_unbounded(v, s))
        for t in range(v.n_states):
            yield ((s, t), fixpoint.decide_coverability(v, s, t).answer,
                   oracle.oracle_cover(v, s, t))


def pareto_answer(v: Vass, query: tuple) -> bool:
    """The guard-free lasso test's answer to a query of `oracle_queries`:
    `decide_unbounded_lasso` for ``(s,)``, `decide_cover_pareto` for
    ``(s, t)``."""
    if len(query) == 1:
        return pareto.decide_unbounded_lasso(v, *query).answer
    return pareto.decide_cover_pareto(v, *query)


def added_values(u: USet, out: EagerRound) -> dict:
    """The counter values one round of `saturate_step` from ``u`` added, as
    ``{state: values, ascending}``: in each chain the round raised, from
    one period above its old maximum (its lowest element, if it had none)
    up to its new maximum ``out.added[chain]``."""
    added: dict = {}
    for (q, lo), x in out.added.items():
        w = u.analysis.states[q].selection.period
        m = u.per_chain_max.get((q, lo))
        added.setdefault(q, []).extend(
            range(lo if m is None else m + w, x + 1, w))
    return {q: sorted(vals) for q, vals in added.items()}


class EagerRound(NamedTuple):
    uset: USet       # ``u`` with the raised maxima
    added: dict      # (state, chain lo) -> the chain's new maximum
    truncated: bool


def eager_round(u: USet, budget: fixpoint.Budget) -> EagerRound:
    """One `saturate_step` round from ``u`` over every bounded chain of its
    analysis, in `chain_bounds` order, with a fresh dead run set: the round
    a forced `unbounded_core` runs from the seed set.  The merged set is
    built here: `saturate_step` returns only the maxima it raised."""
    chains = [b for b in chain_bounds(u.analysis) if b[3] is not None]
    out = fixpoint.saturate_step(u, budget, chains,
                                 RunSet(u.analysis.vass.n_states))
    return EagerRound(USet(u.analysis, {**u.per_chain_max, **out.added}),
                      out.added, out.truncated)


def unbounded_core_reference(v: Vass) -> tuple[dict, list, str]:
    """The saturation loop of `fixpoint.unbounded_core` before one round was
    shown to be the fixpoint, frozen: rounds of `saturate_step` from the
    seed set under one budget, until a round adds nothing.  Returns
    ``(per_chain_max, rounds, status)``, each round as `added_values`."""
    analysis = fixpoint.analyze(v)
    u = USet(analysis)
    budget = fixpoint.Budget(fixpoint.DEFAULT_NODE_CAP)
    rounds: list = []
    truncated = False
    while True:
        out = eager_round(u, budget)
        truncated = truncated or out.truncated
        if not out.added:
            break
        rounds.append(added_values(u, out))
        u = out.uset
    return (u.per_chain_max, rounds,
            "incomplete" if truncated else "complete")


def walk_uset_reference(
    u: USet, start: Configuration, budget: fixpoint.Budget, dead: RunSet,
) -> tuple[str, int]:
    """Breadth-first walk over single configurations from ``start`` to the
    nearest member of ``u``: ``("hit", depth)``, ``("no", nodes)`` or
    ``("capped", nodes)``.

    It skips ``dead`` configurations: no run into ``u`` passes through
    one, so skipping changes neither the answer nor the depth.  Each
    configuration admitted draws one unit from ``budget``.  Frozen from
    `fixpoint` before the run search `_reach_uset` reported its own
    breadth-first depth; reference for that search's answer and depth.
    """
    if budget.spent >= budget.cap:
        return ("capped", 0)
    v = u.analysis.vass
    if not v.is_valid(start) or dead.has(start.state, start.counter):
        return ("no", 0)
    if u.contains(start):
        return ("hit", 0)
    n = v.n_states
    seen = {start.counter * n + start.state}
    budget.spent += 1
    queue = deque([(start.state, start.counter, 0)])
    guards = v.guards
    while queue:
        q, z, d = queue.popleft()
        for _, t in v.out_edges(q):
            y = z + t.weight
            if y < 0 or y in guards[t.dst]:
                continue
            key = y * n + t.dst
            if key in seen or dead.has(t.dst, y):
                continue
            if u.contains(Configuration(t.dst, y)):
                return ("hit", d + 1)
            if budget.spent >= budget.cap:
                return ("capped", len(seen))
            budget.spent += 1
            seen.add(key)
            queue.append((t.dst, y, d + 1))
    return ("no", len(seen))


def decide_config_reference(analysis: CycleAnalysis, c: Configuration
                            ) -> tuple[Optional[bool], str, str]:
    """The decision of `fixpoint` before it probed the seed set first,
    frozen with its depth walk (`walk_uset_reference`): the saturation of
    ``analysis`` runs first, and ``c``, a configuration of its instance, is
    asked against the saturated set under the same budget, with the round's
    dead runs.  Returns ``(answer, status, reason)``."""
    budget = fixpoint.Budget(fixpoint.DEFAULT_NODE_CAP)
    core = fixpoint.unbounded_core(analysis, budget)
    core.per_chain_max  # the whole round first, before the source is asked
    if not analysis.vass.is_valid(c):
        return (False, "complete", "initial configuration is invalid")
    if core.contains(c):
        return (True, "complete", "initial configuration is unbounded")
    status, _ = fixpoint._reach_uset(core, c, budget, core.dead)
    if status == "no":
        return (False, "complete", "reachable set is finite")
    if status == "hit":
        status, depth = walk_uset_reference(core, c, budget, core.dead)
        assert status != "no", "the walk missed a run the search found"
    if status == "capped":
        return (None, "incomplete", "node cap exhausted")
    return (True, "complete", f"reaches the unbounded core in {depth} steps")


def _cnf_anchor(f: Cnf3, u: int) -> tuple[Vass, int]:
    w, w0 = with_start_counter(cnf_to_vass(f)[0], u)
    v, entry, _ = normalize_guards_with_maps(w)
    return v, entry[w0]


_ANCHOR_CLAUSE = ((1, True), (2, False), (3, True))


def cnf_no_anchor() -> tuple[Vass, int]:
    """The 4-variable NO anchor of the CNF family, normalized, with the
    state its start counter 119 is entered from.  Its chains are disjoint
    and its components are simple cycles of 26 and 40 states, so it
    exposes repeated probe and selection work."""
    return _cnf_anchor(Cnf3(4, (_ANCHOR_CLAUSE,
                                ((1, False), (2, True), (4, False)))), 119)


def cnf_yes_anchor() -> tuple[Vass, int]:
    """The 4-variable YES anchor of the CNF family, normalized, with the
    state its start counter 63, which falsifies its one clause, is entered
    from."""
    return _cnf_anchor(Cnf3(4, (_ANCHOR_CLAUSE,)), 63)


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


@dataclass(frozen=True)
class Tail:
    """The unbounded tail ``lo, lo+W, ...`` of one residue class in the
    frozen `chains_of`; ``hi`` is None, as in `cycles.chain_bounds`."""

    state: int
    residue: int
    lo: int
    hi: None = None


def chains_of(sa: StateAnalysis, residue: int) -> list[Chain | Tail]:
    """Decompose one residue class into bounded chains plus the unbounded
    tail, a `Tail`.

    Every guard cut-off in the class is its own singleton chain (pumping
    from it is immediately cut, whether or not the value may still be
    entered from below); the stretches between cut-offs are the remaining
    bounded chains; everything above the last cut-off climbs forever.
    Frozen from the shipped decomposition before `cycles.chain_bounds`
    replaced it.  Reference for ``chain_bounds``.
    """
    sel = sa.selection
    w = sel.period
    if not (0 <= residue < w):
        raise ValueError("residue out of range")
    chains: list[Chain | Tail] = []
    start = class_floor(sa, residue)
    for cap in sa.splits.get(residue, ()):
        if cap - w >= start:
            chains.append(Chain(sel.state, residue, start, cap - w))
        chains.append(Chain(sel.state, residue, cap, cap))
        start = cap + w
    chains.append(Tail(sel.state, residue, start))
    return chains


def bounded_chains_reference(analysis: CycleAnalysis) -> Iterator[Chain]:
    """Every bounded chain, states ascending, then residues ascending, then
    up each class, read off ``chains_of``.  Reference for
    ``bounded_chains``."""
    for q in sorted(analysis.states):
        sa = analysis.states[q]
        for r in sorted(sa.splits):
            for ch in chains_of(sa, r):
                if not isinstance(ch, Tail):
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


def level_zero_reference(v: Vass) -> dict:
    """Level zero with every cell filtered, one-element cells included.
    Reference for ``pareto._level_zero``, which keeps a one-element cell as
    it is."""
    cells: dict[tuple[int, int], list[ParetoElem]] = {}
    for q in range(v.n_states):
        cells[(q, q)] = [ParetoElem.empty(v, q)]
    for ti in range(len(v.transitions)):
        e = ParetoElem.edge(v, ti)
        cells.setdefault((e.src, e.dst), []).append(e)
    return {pq: tuple(pareto.pareto_filter(v, es)) for pq, es in cells.items()}


def _full_levels(v: Vass):
    """Every level of the doubling, level zero first, each built whole in
    sorted cell order, as ``build_families`` builds them without a
    source."""
    cells = level_zero_reference(v)
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


# --- Diagnostics and reference walks: only the tests call these ------------

@dataclass(frozen=True)
class PathSummary:
    """Prefix/suffix extremes of a path: ``weight == pmin + smax`` always.

    ``pmin`` is the least weight over all (possibly empty) prefixes, ``smax``
    the greatest over all suffixes, and ``nadir_index`` the first position
    (0-based, counted in states) where a minimal prefix ends.
    """

    pmin: int
    smax: int
    weight: int
    nadir_index: int
    witness: Optional[Path] = None


def summarize_path(v: Vass, p: Path) -> PathSummary:
    """Minimal prefix weight, maximal suffix weight, and total weight, by
    one walk along ``p``.  Reference for ``ParetoElem.from_path``."""
    prefix = 0
    pmin = 0
    nadir = 0
    for i, w in enumerate(v.path_weights(p)):
        prefix += w
        if prefix < pmin:
            pmin = prefix
            nadir = i + 1
    return PathSummary(pmin=pmin, smax=prefix - pmin, weight=prefix,
                       nadir_index=nadir, witness=p)


def successors(v: Vass, c: Configuration) -> list[Configuration]:
    """Valid one-step successors, sorted and deduplicated."""
    out = set()
    for _, t in v.out_edges(c.state):
        z = c.counter + t.weight
        if z >= 0 and z not in v.guards[t.dst]:
            out.add(Configuration(t.dst, z))
    return sorted(out)


def enumerate_reach(
    v: Vass,
    init: Configuration,
    counter_cap: int,
    node_cap: int = oracle.DEFAULT_NODE_CAP,
) -> tuple[set[Configuration], bool]:
    """Breadth-first closure under valid steps, discarding counters above
    ``counter_cap``.  Returns the configurations found and whether anything
    was cut off (by either cap)."""
    if not v.is_valid(init) or init.counter > counter_cap:
        return set(), init.counter > counter_cap
    seen, outcome, _ = oracle._closure(v, init, counter_cap, node_cap)
    return seen, outcome != "closed"


def conf_plus_contains(analysis: CycleAnalysis, c: Configuration) -> bool:
    """Is the configuration in the pumpable region (state on a positive
    cycle, counter high enough that one cycle lap cannot go negative)?"""
    sa = analysis.states.get(c.state)
    return sa is not None and c.counter >= sa.floor


def members_at(u: USet, q: int, limit: int) -> list[int]:
    """Counter values of members of ``u`` at one state, up to ``limit``."""
    return [z for z in range(limit + 1) if u.contains(Configuration(q, z))]


def configurations(runs: RunSet) -> Iterator[Configuration]:
    """Every member of ``runs``, singletons first."""
    n = runs.n
    for key in sorted(runs.ints):
        yield Configuration(key % n, key // n)
    for (q, step, _), (los, his) in sorted(runs.buckets.items()):
        for lo, hi in zip(los, his):
            for z in range(lo, hi + 1, step):
                yield Configuration(q, z)


@dataclass(frozen=True)
class WorstCaseBounds:
    """The chain of pessimistic polynomial bounds behind the paper's
    termination argument, which counts saturation rounds because its escape
    runs have bounded length.  They are astronomically loose, and the
    solver needs none of them: its probe is an exact run search, so one
    round is already the fixpoint (see `fixpoint.unbounded_core`).
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
            if isinstance(ch, Tail) or u.per_chain_max.get((q, ch.lo)) is not None:
                ell = ch.lo
                break
        missing = []
        for ch in chains:
            if isinstance(ch, Tail):
                continue
            m = u.per_chain_max.get((q, ch.lo))
            start = ch.lo if m is None else m + w
            for x in range(max(start, ell), ch.hi + 1, w):
                missing.append(x)
        objs.append(
            DiseqObjective(q, ell, w, nontrivial - {r}, frozenset(missing))
        )
    return objs


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
                if isinstance(ch, Tail) or u.per_chain_max.get((q, ch.lo)) is not None:
                    min_u = ch.lo
                    break
            total = 0
            for ch in chains:
                if isinstance(ch, Tail):
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
