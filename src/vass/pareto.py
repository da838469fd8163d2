"""Pareto sets of path summaries and lasso detection for guard-free systems.

A path is dominated by another (same endpoints) when the second is at least
as good in both the minimal prefix weight and the maximal suffix weight; a
Pareto set dominates every path of a family.  Doubling path lengths and
filtering through per-nadir recombination keeps every endpoint cell at most
``|Q|`` wide, giving Pareto sets for all paths of length up to ``|Q|`` in
logarithmically many rounds.  Unboundedness from ``(s, 0)`` then reduces to
scanning the cells for a nonnegative-prefix stem feeding a positive cycle.

The lasso test answers NO before any doubling when no positive-weight edge
leaves the 0-weight closure of ``s`` (the states reachable from ``s`` over
0-weight edges).  At counter 0 a negative edge is invalid and a 0-weight
edge keeps the counter at 0, so until its first positive edge every valid
run from ``(s, 0)`` stays at counter 0 inside that closure; with no
positive edge out of it, no run ever takes one, and no lasso exists
(`model.stuck_at_zero`, which the fixpoint decision shares).

Level zero holds, per endpoint pair, the empty path and the edges.  A cell
of one element is its own Pareto set and is kept as it is, so only the
cells of two or more elements are filtered.

Each level above zero builds its cells on demand, each once, from the whole
previous level (``_NextLevel``).  Every level's witnesses are real paths, so
the lasso test scans each level as it comes and stops the doubling at the
first level that holds a lasso (``build_families`` with ``source``).  The
scan (``_find_lasso``) asks only for the ``(s, q)`` cells and the ``(q, q)``
cells it needs, so only those are built unless the doubling goes on; a
level that goes on is then built whole, reusing them.

One kernel, ``_filter_products``, does the filtering: it reads the summary
and the nadirs of each concatenation from its two operands, by the rules of
``concat``, and builds only the elements a cell keeps.  ``pareto_filter``
runs it with the identity as every right operand; ``_NextLevel`` runs it
over the midpoint products of one cell, so the doubling never builds a
concatenation.  Guards play no role here: the decision procedures refuse
guarded input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import reductions
from .model import UNKNOWN_SOURCE, Path, Vass, require_states, stuck_at_zero


@dataclass(frozen=True)
class ParetoElem:
    """A path summary pinned to its endpoints, with a concrete witness.

    ``nadirs`` lists, in ascending order, every ``(position, state)`` of the
    witness (positions counted in states, ``0 .. len(witness)``) where its
    prefix weight equals ``pmin``.  ``empty`` and ``edge`` know it,
    ``concat`` and the filter kernel derive it from their operands with
    ``_pair_nadirs`` in time proportional to the number of nadirs, never by
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
    attains it (``_pair_nadirs``).  ``build_families`` does not call it:
    ``_filter_products`` applies the same rules to each operand pair and
    builds only the elements a cell keeps.
    """
    if a.dst != b.src:
        raise ValueError("paths do not share an endpoint")
    if a.nadirs is None or b.nadirs is None:
        raise ValueError(_NO_NADIRS)
    return ParetoElem(
        src=a.src,
        dst=b.dst,
        pmin=min(a.pmin, a.weight + b.pmin),
        smax=max(b.smax, a.smax + b.weight),
        weight=a.weight + b.weight,
        witness=Path(a.witness.start,
                     a.witness.transitions + b.witness.transitions),
        nadirs=_pair_nadirs(a, b),
    )


def _pair_nadirs(a: ParetoElem, b: ParetoElem) -> tuple:
    """The nadirs of ``a`` followed by ``b``: ``a``'s as they are, ``b``'s
    shifted by ``len(a)``, or both when ``a.pmin == a.weight + b.pmin``.  On
    that tie the junction is a nadir of both sides or of neither (it is one
    of ``a`` iff ``a.weight == a.pmin``, which the tie turns into
    ``b.pmin == 0``), and it is listed once."""
    shift = len(a.witness.transitions)
    low_b = a.weight + b.pmin
    if a.pmin < low_b:
        return a.nadirs
    tail = tuple((i + shift, q) for i, q in b.nadirs)
    if a.pmin > low_b:
        return tail
    if a.nadirs[-1][0] == shift:
        return a.nadirs + tail[1:]
    return a.nadirs + tail


def _head(a: ParetoElem, b: ParetoElem, i: int) -> tuple:
    """The first ``i`` transitions of ``a`` followed by ``b``."""
    at = a.witness.transitions
    n = len(at)
    return at[:i] if i <= n else at + b.witness.transitions[:i - n]


def _tail(a: ParetoElem, b: ParetoElem, i: int) -> tuple:
    """The transitions of ``a`` followed by ``b`` from position ``i`` on."""
    at = a.witness.transitions
    n = len(at)
    return at[i:] + b.witness.transitions if i < n else b.witness.transitions[i - n:]


def _witness_key(e: ParetoElem) -> tuple:
    return (len(e.witness.transitions), e.witness.transitions)


def _partner_rows(cell) -> tuple:
    """The rows ``(e, pmin, smax, weight, len(witness))`` of the elements of
    ``cell``, by decreasing weight, then by witness length, then
    lexicographically: the order in which ``_filter_products`` picks
    partners."""
    return tuple((e, e.pmin, e.smax, e.weight, len(e.witness.transitions))
                 for e in sorted(cell, key=lambda e: (-e.weight,) + _witness_key(e)))


def _offer(best: dict, piece, r: int, value: int, length: int,
           a: ParetoElem, b: ParetoElem, pos: int) -> None:
    """Hold the candidate ``(value, length, a, b, pos)`` for state ``r`` if
    it beats the one held: greater value, then lesser length, then lesser
    transitions ``piece(a, b, pos)``, which are sliced out only on a tie in
    both value and length."""
    cur = best.get(r)
    if (cur is None or value > cur[0] or value == cur[0] and (
            length < cur[1] or length == cur[1] and
            piece(a, b, pos) < piece(*cur[2:]))):
        best[r] = (value, length, a, b, pos)


def _filter_products(src: int, dst: int, products) -> list[ParetoElem]:
    """``pareto_filter`` of every concatenation ``a + b`` with ``a`` in
    ``left`` and ``b`` in ``right``, over the ``(left, right)`` pairs of
    ``products`` (each side given by its ``_partner_rows``), without
    building the concatenations.

    The nadirs of ``a + b`` are ``a``'s when ``a.smax + b.pmin >= 0``
    (that is, ``a.pmin <= a.weight + b.pmin``) and ``b``'s, shifted by
    ``len(a)``, when ``a.smax + b.pmin <= 0``.  At a nadir ``i`` of ``a``
    the prefix is ``a[:i]`` whatever ``b`` is, and the suffix ``a[i:] + b``
    is best with the first such ``b`` in partner order; at a nadir ``j`` of
    ``b`` the suffix is ``b[j:]`` and the prefix ``a + b[:j]`` is best with
    the first such ``a``.  So one partner per operand yields every prefix
    and suffix the filter can keep.  A candidate is held as ``(value,
    length, a, b, position)``, the position counted in the witness of
    ``a + b``, and its transitions are sliced out only on a tie
    (``_offer``).  The best candidate per state does not depend on the
    order of the candidates, since two that tie in value, length and
    transitions glue to the same element.  Only the glued elements are
    built, before the domination prune.
    """
    best_prefix: dict[int, tuple] = {}
    best_suffix: dict[int, tuple] = {}
    for left, right in products:
        for a, apmin, asmax, _, na in left:
            for b, bpmin, _, bw, nb in right:
                if asmax + bpmin >= 0:
                    break
            else:
                continue
            sw = asmax + bw
            for i, r in a.nadirs:
                _offer(best_prefix, _head, r, apmin, i, a, b, i)
                _offer(best_suffix, _tail, r, sw, na + nb - i, a, b, i)
        for b, bpmin, bsmax, _, nb in right:
            for a, _, asmax, aw, na in left:
                if asmax + bpmin <= 0:
                    break
            else:
                continue
            pw = aw + bpmin
            for j, r in b.nadirs:
                _offer(best_prefix, _head, r, pw, na + j, a, b, na + j)
                _offer(best_suffix, _tail, r, bsmax, nb - j, a, b, na + j)
    combined: list[ParetoElem] = []
    for r, (pw, _, a1, b1, i1) in best_prefix.items():
        sw, _, a2, b2, i2 = best_suffix[r]
        shift = i1 - i2
        nadirs = tuple(x for x in _pair_nadirs(a1, b1) if x[0] <= i1) + tuple(
            (j + shift, q) for j, q in _pair_nadirs(a2, b2) if j > i2)
        path = Path(src, _head(a1, b1, i1) + _tail(a2, b2, i2))
        combined.append(ParetoElem(src, dst, pw, sw, pw + sw, path, nadirs))
    combined.sort(key=lambda e: (-e.pmin, -e.smax) + _witness_key(e))
    # Sorted by pmin descending, a candidate is dominated iff a kept element
    # has smax at least its own; kept smax rises, so the last one decides.
    # A candidate never dominates a kept element: with equal pmin and smax
    # the kept one came first and dominated it.
    kept: list[ParetoElem] = []
    for e in combined:
        if not kept or e.smax > kept[-1].smax:
            kept.append(e)
    return kept


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

    This is ``_filter_products`` over the pairs ``(e, empty)``: the
    single-state summary is the identity of ``concat``, nadirs included, so
    each input is taken as it is.  The nadirs come from each input's
    ``nadirs``, so no witness is walked, and a prefix or suffix is sliced
    out only when a candidate ties it in both weight and length.  This is
    exact: a lexicographic order on ``(weight, length, transitions)`` looks
    at the transitions only on such a tie.  The glued element of a best
    prefix ending at position ``i1`` and a best suffix starting at ``i2``
    has pmin the prefix's (the suffix never dips below its start), and its
    nadirs are the prefix's up to ``i1`` followed by the suffix's after
    ``i2``, shifted by ``i1 - i2``.
    """
    if not elems:
        return []
    src, dst = elems[0].src, elems[0].dst
    for e in elems:
        if (e.src, e.dst) != (src, dst):
            raise ValueError("filter inputs must share endpoints")
        if e.nadirs is None:
            raise ValueError(_NO_NADIRS)
    identity = _partner_rows([ParetoElem.empty(v, dst)])
    return _filter_products(src, dst, [(_partner_rows(elems), identity)])


@dataclass(frozen=True)
class ParetoFamily:
    """Per endpoint pair, a Pareto set for all paths of length up to
    ``2**level`` (witnesses may be up to ``4**level`` long).  ``level`` is
    the level the doubling reached: the last one, ``ceil(log2 |Q|)``,
    unless ``build_families`` stopped early on a lasso from its ``source``.

    Without a source every cell of the level is present.  With one, a level
    above zero holds only the cells its lasso scan built: the ``(source,
    q)`` cells and some ``(q, q)`` cells, up to the first lasso.  A cell
    absent from ``cells`` is empty or was not built; ``cell`` reads either
    as empty."""

    level: int
    cells: dict  # (p, q) -> tuple[ParetoElem, ...]

    def cell(self, p: int, q: int) -> tuple[ParetoElem, ...]:
        return self.cells.get((p, q), ())


def _level_zero(v: Vass) -> dict:
    """The Pareto sets of the paths of length at most 1: per endpoint pair,
    the empty path and the edges, filtered.  A one-element cell is its own
    Pareto set and is kept as it is; only a cell of two or more elements
    pays for a `pareto_filter` call."""
    cells: dict[tuple[int, int], list[ParetoElem]] = {}
    for q in range(v.n_states):
        cells[(q, q)] = [ParetoElem.empty(v, q)]
    for ti in range(len(v.transitions)):
        e = ParetoElem.edge(v, ti)
        cells.setdefault((e.src, e.dst), []).append(e)
    return {pq: tuple(es) if len(es) == 1 else tuple(pareto_filter(v, es))
            for pq, es in cells.items()}


class _NextLevel:
    """The cells of the level above ``cells``, each built on demand and
    once: cell ``(p, q)`` is one ``_filter_products`` call over the products
    of the ``(p, r)`` and ``(r, q)`` rows of every midpoint ``r``, and empty
    when no midpoint joins them.  ``built`` holds every cell asked for."""

    def __init__(self, cells: dict):
        self.out_of: dict[int, list[tuple[int, tuple]]] = {}
        self.into: dict[int, dict[int, tuple]] = {}  # q -> r -> rows of (r, q)
        for (r, q), es in cells.items():
            rows = _partner_rows(es)
            self.out_of.setdefault(r, []).append((q, rows))
            self.into.setdefault(q, {})[r] = rows
        self.built: dict[tuple[int, int], tuple] = {}

    def cell(self, p: int, q: int) -> tuple:
        es = self.built.get((p, q))
        if es is None:
            into_q = self.into.get(q, {})
            products = [(left, into_q[r]) for r, left in self.out_of.get(p, ())
                        if r in into_q]
            es = tuple(_filter_products(p, q, products)) if products else ()
            self.built[(p, q)] = es
        return es

    def whole(self) -> dict:
        """Every cell some midpoint joins, in sorted order."""
        pairs = {(p, q) for p, lefts in self.out_of.items()
                 for r, _ in lefts for q, _ in self.out_of.get(r, ())}
        return {pq: self.cell(*pq) for pq in sorted(pairs)}


def build_families(v: Vass, source: Optional[int] = None) -> ParetoFamily:
    """Doubling construction up to level ``ceil(log2 |Q|)``: the final family
    is a Pareto set for all paths of length up to ``|Q|`` between every pair
    of states.  Each level builds its cells from the whole previous level
    only (``_NextLevel``): cell ``(p, q)`` filters the products of the
    ``(p, r)`` and ``(r, q)`` cells over every midpoint ``r`` in one
    ``_filter_products`` call, which never builds a product.

    With a ``source``, the doubling stops at the first level that holds a
    lasso from it.  Each level above zero is scanned as it is built:
    ``_find_lasso`` asks for the ``(source, q)`` cells and the ``(q, q)``
    cells it needs, in its order, and stops at the first lasso.  Only a
    level that holds no lasso and is not the last is then built whole,
    reusing the cells the scan built.  So the level that holds the lasso,
    and the last level of a search that finds none, hold only the scan's
    cells, at most ``2 |Q| - 1`` of them.  Every cell built is the one the
    full level has, so the lasso found and ``ParetoFamily.level`` are those
    of a scan of each full level.  Without a source every level is built
    whole and the family is the last level's.
    """
    family = ParetoFamily(level=0, cells=_level_zero(v))
    n = v.n_states
    levels = math.ceil(math.log2(n)) if n > 1 else 0
    if source is not None:
        require_states(v, UNKNOWN_SOURCE, source)
        if _find_lasso(family.cell, source, n) is not None:
            return family
    for level in range(1, levels + 1):
        nxt = _NextLevel(family.cells)
        if source is not None and (
                _find_lasso(nxt.cell, source, n) is not None or level == levels):
            return ParetoFamily(level=level, cells={
                pq: es for pq, es in nxt.built.items() if es})
        family = ParetoFamily(level=level, cells=nxt.whole())
    return family


@dataclass(frozen=True)
class LassoDecision:
    answer: bool
    stem: Optional[ParetoElem] = None
    cycle: Optional[ParetoElem] = None


def _require_guard_free(v: Vass) -> None:
    if v.has_guards:
        raise ValueError("this procedure requires guard-free input")


def _find_lasso(cell: Callable[[int, int], tuple], s: int, n_states: int
                ) -> Optional[tuple[ParetoElem, ParetoElem]]:
    """The first lasso from ``s`` of the cells read through ``cell(p, q)``:
    by state ``q``, then by cell order, a stem of cell ``(s, q)`` with
    nonnegative minimal prefix and a cycle of cell ``(q, q)`` of positive
    weight that stays nonnegative after the stem's weight; ``None`` if
    there is none.  Cell ``(q, q)`` is read only once ``(s, q)`` has shown
    such a stem, so an on-demand ``cell`` builds no other cell."""
    for q in range(n_states):
        for stem in cell(s, q):
            if stem.pmin < 0:
                continue
            for cyc in cell(q, q):
                if cyc.weight >= 1 and stem.weight + cyc.pmin >= 0:
                    return stem, cyc
    return None


def decide_unbounded_lasso(v: Vass, s: int) -> LassoDecision:
    """Is ``(s, 0)`` unbounded in a guard-free system?

    Holds iff some stem with nonnegative minimal prefix reaches a state with
    a positive cycle that stays nonnegative after the stem's weight: with no
    guards, such a lasso can be pumped forever, and any unbounded run can be
    trimmed to one.

    The answer is NO, with no doubling, when no positive-weight edge leaves
    the 0-weight closure of ``s`` (`model.stuck_at_zero`).  This is exact: at
    counter 0 a negative edge is invalid and a 0-weight edge keeps the
    counter at 0, so before its first positive edge every valid run from
    ``(s, 0)`` stays at counter 0 inside the closure.  If no positive edge
    leaves it, no run ever takes one, and no lasso cycle of weight at least
    1 is reached.

    Otherwise the doubling stops at the first level that holds such a
    lasso.  Each level builds on demand only the cells its lasso scan
    reads, and the rest only when the doubling goes on (``build_families``
    with ``source``); the stem and cycle are that level's.  This is exact:
    every level's witnesses are real paths with the summaries they record,
    so a lasso found early is a real one, and only the last level's
    ``(s, q)`` and ``(q, q)`` cells are needed to answer NO.
    """
    _require_guard_free(v)
    require_states(v, UNKNOWN_SOURCE, s)
    if stuck_at_zero(v, s):
        return LassoDecision(False)
    fam = build_families(v, source=s)
    lasso = _find_lasso(fam.cell, s, v.n_states)
    if lasso is None:
        return LassoDecision(False)
    return LassoDecision(True, *lasso)


def decide_cover_pareto(v: Vass, s: int, t: int) -> bool:
    """Coverability for guard-free systems, through the unboundedness
    reduction and the lasso test."""
    _require_guard_free(v)
    reduced, s1 = reductions.reduce_cov_to_unbound(v, s, t)
    return decide_unbounded_lasso(reduced, s1).answer
