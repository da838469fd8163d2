import dataclasses
import random
from collections import Counter

import pytest

from vass import (
    Configuration,
    DiseqObjective,
    Path,
    Transition,
    Vass,
    build_families,
    concat,
    decide_bounded_cover,
    decide_coverability,
    decide_cover_pareto,
    decide_unbounded_lasso,
    decide_unboundedness,
    dominates,
    lift_run,
    parse_vass,
    pareto_filter,
    reduce_cov_to_unbound,
)
from vass import pareto
from vass.model import Violation
from vass.oracle import oracle_bounded_cover, oracle_cover, oracle_unbounded
from vass.pareto import ParetoElem, ParetoFamily

from helpers import (
    _full_levels,
    build_families_reference,
    dense_and_random_graphs,
    enumerate_paths,
    gen_dense_guard_free,
    gen_guard_free,
    lasso_reference,
    level_zero_reference,
    summarize_path,
)


def elem(v, path: Path) -> ParetoElem:
    return ParetoElem.from_path(v, path)


def plain_routes(plain):
    top = elem(plain, Path(0, (0, 3)))      # pmin -2, smax 3
    middle = elem(plain, Path(0, (1, 4)))   # pmin -3, smax 3
    bottom = elem(plain, Path(0, (2, 5)))   # pmin -4, smax 6
    return top, middle, bottom


# --- domination ------------------------------------------------------------

def test_domination_on_plain_routes(plain):
    top, middle, bottom = plain_routes(plain)
    assert dominates(top, middle)
    assert not dominates(bottom, middle)   # worse pmin despite more weight
    assert not dominates(middle, top)
    assert dominates(top, top)


def test_domination_requires_equal_endpoints(plain):
    top, *_ = plain_routes(plain)
    other = elem(plain, Path(0, (0,)))
    with pytest.raises(ValueError):
        dominates(top, other)


def test_domination_implies_weight_order(plain):
    top, middle, bottom = plain_routes(plain)
    for a in (top, middle, bottom):
        for b in (top, middle, bottom):
            if dominates(a, b):
                assert b.weight <= a.weight


# --- concatenation -----------------------------------------------------------

def test_concat_formulas():
    v = parse_vass("state a\nstate b\nstate c\n"
                   "edge a b -2\nedge b b 3\nedge b c -3\nedge c c 3\n")
    a = elem(v, Path(0, (0, 1)))   # weights -2, 3: pmin -2 smax 3 w 1
    b = elem(v, Path(1, (2, 3)))   # weights -3, 3: pmin -3 smax 3 w 0
    c = concat(a, b)
    assert (c.pmin, c.smax, c.weight) == (-2, 3, 1)


def test_concat_identity_and_mismatch(plain):
    top, *_ = plain_routes(plain)
    empty = ParetoElem.empty(plain, 0)
    unchanged = concat(empty, top)
    assert (unchanged.pmin, unchanged.smax, unchanged.weight) == \
        (top.pmin, top.smax, top.weight)
    with pytest.raises(ValueError):
        concat(top, top)  # ends at s4, starts at s0


def test_concat_associative_random():
    rng = random.Random(321)
    for _ in range(200):
        v = gen_guard_free(rng, max_states=4)
        walk = []
        q = rng.randrange(v.n_states)
        start = q
        for _ in range(9):
            outs = v.out_edges(q)
            if not outs:
                break
            ti, t = rng.choice(outs)
            walk.append(ti)
            q = t.dst
        if len(walk) < 3:
            continue
        cut1, cut2 = len(walk) // 3, 2 * len(walk) // 3
        states = v.path_states(Path(start, tuple(walk)))
        p1 = elem(v, Path(start, tuple(walk[:cut1])))
        p2 = elem(v, Path(states[cut1], tuple(walk[cut1:cut2])))
        p3 = elem(v, Path(states[cut2], tuple(walk[cut2:])))
        left = concat(concat(p1, p2), p3)
        right = concat(p1, concat(p2, p3))
        assert (left.pmin, left.smax, left.weight) == \
            (right.pmin, right.smax, right.weight)
        for c in (concat(p1, p2), concat(p2, p3), left, right):
            assert c.nadirs == elem(v, c.witness).nadirs
        whole = elem(v, Path(start, tuple(walk)))
        assert (left.pmin, left.smax, left.weight) == \
            (whole.pmin, whole.smax, whole.weight)


def test_nadirs_of_the_constructors():
    v = parse_vass("state a\nstate b\nedge a b 2\nedge b a -2\nedge a a 0\n")
    assert ParetoElem.empty(v, 1).nadirs == ((0, 1),)
    assert ParetoElem.edge(v, 0).nadirs == ((0, 0),)
    assert ParetoElem.edge(v, 1).nadirs == ((1, 0),)
    assert ParetoElem.edge(v, 2).nadirs == ((0, 0), (1, 0))
    # a -> b -> a -> a: prefix sums 0, 2, 0, 0
    loop = concat(concat(ParetoElem.edge(v, 0), ParetoElem.edge(v, 1)),
                  ParetoElem.edge(v, 2))
    assert loop.nadirs == ((0, 0), (2, 0), (3, 0))
    assert loop.nadirs == elem(v, loop.witness).nadirs


def test_elements_without_nadirs_are_refused(plain):
    top, *_ = plain_routes(plain)
    bare = ParetoElem(top.src, top.dst, top.pmin, top.smax, top.weight,
                      top.witness)
    with pytest.raises(ValueError):
        pareto_filter(plain, [top, bare])
    with pytest.raises(ValueError):
        concat(ParetoElem.empty(plain, 0), bare)


# --- the nadir-recombination filter ----------------------------------------------

def test_filter_on_plain_routes(plain):
    top, middle, bottom = plain_routes(plain)
    out = pareto_filter(plain, [top, middle, bottom])
    assert {(e.pmin, e.smax) for e in out} == {(-2, 3), (-4, 6)}
    for inp in (top, middle, bottom):
        assert any(dominates(e, inp) for e in out)


def test_filter_singleton_and_duplicates(plain):
    top, *_ = plain_routes(plain)
    assert [(e.pmin, e.smax) for e in pareto_filter(plain, [top])] == [(-2, 3)]
    twice = pareto_filter(plain, [top, top])
    assert len(twice) == 1
    assert pareto_filter(plain, []) == []


def test_filter_properties_random():
    rng = random.Random(98765)
    for _ in range(120):
        v = gen_guard_free(rng, max_states=5)
        src = rng.randrange(v.n_states)
        pool = {}
        for p in enumerate_paths(v, src, 4):
            states = v.path_states(p)
            pool.setdefault(states[-1], []).append(elem(v, p))
        for dst, elems in pool.items():
            out = pareto_filter(v, elems)
            assert len(out) <= v.n_states
            max_in = max(len(e.witness) for e in elems)
            for e in out:
                assert len(e.witness) <= 2 * max_in
                # outputs are real paths with accurate summaries
                s = summarize_path(v, e.witness)
                assert (s.pmin, s.smax, s.weight) == (e.pmin, e.smax, e.weight)
            for inp in elems:
                assert any(dominates(e, inp) for e in out)


def test_domination_is_a_preorder_random():
    rng = random.Random(10101)
    for _ in range(150):
        v = gen_guard_free(rng, max_states=4)
        src = rng.randrange(v.n_states)
        by_dst = {}
        for p in enumerate_paths(v, src, 4):
            by_dst.setdefault(v.path_states(p)[-1], []).append(elem(v, p))
        for elems in by_dst.values():
            sample = elems[:6]
            for a in sample:
                assert dominates(a, a)
                for b in sample:
                    for c in sample:
                        if dominates(a, b) and dominates(b, c):
                            assert dominates(a, c)


# --- doubling families -------------------------------------------------------------

def test_families_on_plain_demo(plain):
    fam = build_families(plain)
    assert fam.level == 3
    cell = fam.cell(0, 4)
    assert {(e.pmin, e.smax) for e in cell} == {(-2, 3), (-4, 6)}


def test_families_single_edge_graph():
    v = parse_vass("state a\nstate b\nedge a b 5\n")
    fam = build_families(v)
    assert [(e.pmin, e.smax, e.weight) for e in fam.cell(0, 1)] == [(0, 5, 5)]


def test_families_zero_weight_clique_collapses():
    v = parse_vass("state a\nstate b\nedge a b 0\nedge b a 0\n")
    fam = build_families(v)
    for p in (0, 1):
        for q in (0, 1):
            assert [(e.pmin, e.smax) for e in fam.cell(p, q)] == [(0, 0)]


def test_families_dominate_every_short_path():
    rng = random.Random(456789)
    for _ in range(60):
        v = gen_guard_free(rng, max_states=7, max_weight=4)
        fam = build_families(v)
        for (p, q), cell in fam.cells.items():
            assert len(cell) <= v.n_states
        for src in range(v.n_states):
            for path in enumerate_paths(v, src, v.n_states):
                dst = v.path_states(path)[-1]
                e = elem(v, path)
                assert any(dominates(f, e) for f in fam.cell(src, dst)), (src, dst)


def _lifts(v, dec) -> bool:
    stem, cyc = dec.stem.witness, dec.cycle.witness
    run = lift_run(v, Path(stem.start, stem.transitions + cyc.transitions), 0)
    return not isinstance(run, Violation)


def test_families_equal_the_walking_reference():
    for v in dense_and_random_graphs():
        fam = build_families(v)
        ref = build_families_reference(v)
        assert fam.level == ref.level
        assert fam.cells == ref.cells  # summaries and witnesses
        for cell in fam.cells.values():
            for e in cell:
                assert e.nadirs == elem(v, e.witness).nadirs
        # the lasso test stops at the first level holding a lasso: it
        # answers as a scan of the last level does, with a real lasso
        dec = decide_unbounded_lasso(v, 0)
        full = pareto._find_lasso(fam.cell, 0, v.n_states)
        assert dec.answer == (full is not None)
        if dec.answer:
            assert _lifts(v, dec)


def test_level_zero_equals_the_filter_every_cell_reference():
    # a one-element cell is its own Pareto set: keeping it unfiltered
    # changes no cell, witness or nadir, on the graphs and on their
    # coverability reductions
    kept = 0
    for v in dense_and_random_graphs():
        for w in [v] + [reduce_cov_to_unbound(v, 0, t)[0]
                        for t in range(v.n_states)]:
            got, want = pareto._level_zero(w), level_zero_reference(w)
            assert list(got) == list(want)
            for pq, cell in got.items():
                assert cell == want[pq], (w, pq)
                assert [e.nadirs for e in cell] == [e.nadirs for e in want[pq]]
                kept += len(cell) == 1
    assert kept > 60000


def test_families_walk_no_witness(monkeypatch):
    # the filter reads each element's nadirs; the walking reference
    # calls path_states 5,326 times on this graph
    calls = []
    walk = Vass.path_states

    def counted(self, p):
        calls.append(p)
        return walk(self, p)

    monkeypatch.setattr(Vass, "path_states", counted)
    build_families(gen_dense_guard_free(random.Random(0), 12))
    assert len(calls) == 0


def test_families_build_only_kept_elements(monkeypatch):
    # the doubling reads each product's summary off its operands; building
    # every product would take 5,278 concat calls and 6,712 elements here
    concats = []
    built = []
    concat_fn = pareto.concat
    init = ParetoElem.__init__

    def counted_concat(a, b):
        concats.append(1)
        return concat_fn(a, b)

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(pareto, "concat", counted_concat)
    monkeypatch.setattr(ParetoElem, "__init__", counted_init)
    build_families(gen_dense_guard_free(random.Random(0), 12))
    assert len(concats) == 0
    assert len(built) < 2000


# --- lasso decisions -----------------------------------------------------------------

def test_lasso_trivial_cases():
    v = parse_vass("state a\nedge a a 1\n")
    assert decide_unbounded_lasso(v, 0).answer is True
    acyclic = parse_vass("state a\nstate b\nedge a b 3\n")
    assert decide_unbounded_lasso(acyclic, 0).answer is False


def test_lasso_on_unguarded_demo(demo):
    v = parse_vass(
        "".join(f"state s{i}\n" for i in range(14))
        + "".join(f"edge s{t.src} s{t.dst} {t.weight}\n"
                  for t in demo.transitions)
    )
    assert decide_unbounded_lasso(v, 0).answer is True
    assert oracle_unbounded(v, 0).answer == "yes"


def test_lasso_rejects_guarded_input(demo):
    with pytest.raises(ValueError):
        decide_unbounded_lasso(demo, 0)
    with pytest.raises(ValueError):
        decide_cover_pareto(demo, 0, 13)


def test_lasso_witness_parts_are_sound():
    rng = random.Random(778899)
    seen_yes = 0
    for _ in range(150):
        v = gen_guard_free(rng)
        dec = decide_unbounded_lasso(v, 0)
        if not dec.answer:
            continue
        seen_yes += 1
        stem, cyc = dec.stem, dec.cycle
        assert stem.pmin >= 0 and cyc.weight >= 1
        assert stem.weight + cyc.pmin >= 0
        assert _lifts(v, dec)
    assert seen_yes > 20


def test_lasso_stops_at_the_first_level_holding_one(monkeypatch):
    # a +1 self-loop at the source is a lasso of level zero, so no doubling
    # level is built; the full family of this graph has level 4
    v = gen_dense_guard_free(random.Random(0), 12)
    v = dataclasses.replace(v, transitions=v.transitions + (Transition(0, 0, 1),))
    families = []
    filters = []
    products = []
    build = pareto.build_families
    filter_fn = pareto.pareto_filter
    products_fn = pareto._filter_products

    def counted_build(*args, **kwargs):
        families.append(build(*args, **kwargs))
        return families[-1]

    def counted_filter(*args):
        filters.append(1)
        return filter_fn(*args)

    def counted_products(*args):
        products.append(1)
        return products_fn(*args)

    monkeypatch.setattr(pareto, "build_families", counted_build)
    monkeypatch.setattr(pareto, "pareto_filter", counted_filter)
    monkeypatch.setattr(pareto, "_filter_products", counted_products)
    dec = decide_unbounded_lasso(v, 0)
    assert dec.answer is True
    assert [f.level for f in families] == [0]
    assert len(products) == len(filters) > 0
    assert dec.cycle.witness.transitions == (len(v.transitions) - 1,)
    assert build(v).level == 4


def _source_all_negative():
    # a dense graph full of positive cycles, with every out-edge of the
    # source made negative
    g = gen_dense_guard_free(random.Random(0), 12)
    return dataclasses.replace(g, transitions=tuple(
        Transition(t.src, t.dst, -abs(t.weight) or -1) if t.src == 0 else t
        for t in g.transitions))


STUCK_AT_ZERO = {
    "all out-edges of the source negative": _source_all_negative(),
    # s -0-> q, and q has only negative edges and a 0-weight edge back to s
    "zero-weight cycle through the source": parse_vass(
        "state s\nstate q\nstate r\n"
        "edge s q 0\nedge q s 0\nedge q r -1\nedge q q -2\nedge r r 3\n"),
    # the +1 cycle at r is entered only by the source's negative edge
    "positive cycle behind a negative edge": parse_vass(
        "state s\nstate r\nedge s s 0\nedge s r -1\nedge r r 1\nedge r s 1\n"),
}


@pytest.mark.parametrize("case", sorted(STUCK_AT_ZERO))
def test_lasso_answers_no_without_doubling_when_the_counter_stays_at_zero(
        monkeypatch, case):
    # no positive edge leaves the 0-weight closure of the source, so the
    # counter of every valid run from (s, 0) stays at 0 and no lasso exists
    v = STUCK_AT_ZERO[case]
    assert oracle_unbounded(v, 0).answer == "no"
    assert any(t.weight > 0 for t in v.transitions)

    def no_doubling(*args, **kwargs):
        raise AssertionError("the doubling ran")

    monkeypatch.setattr(pareto, "build_families", no_doubling)
    assert decide_unbounded_lasso(v, 0) == pareto.LassoDecision(False)


def test_lasso_equals_the_full_level_reference():
    # each level builds the cells the lasso scan reads first, and the rest
    # only when the doubling goes on: the answer, the lasso and the level
    # reached are those of a scan of every full level.  The level is read
    # off `build_families` itself, because the lasso test settles a source
    # whose counter cannot leave 0 without building any family.
    sources_checked = 0
    # every source of the sparse graphs, the first of the dense ones
    for k, v in enumerate(dense_and_random_graphs()):
        sources = range(v.n_states if k < 300 else 1)
        for s, (level, lasso) in lasso_reference(v, sources).items():
            assert build_families(v, source=s).level == level
            dec = decide_unbounded_lasso(v, s)
            assert dec.answer == (lasso is not None)
            assert (dec.stem, dec.cycle) == (lasso or (None, None))
            sources_checked += 1
    assert sources_checked == 1260


def test_lasso_last_level_builds_only_the_cells_it_reads(monkeypatch):
    # no positive cycle, and a +1 edge from the source s to every other
    # state: a NO that reaches the last level, where every (s, q) cell holds
    # a stem, so the scan reads every (s, q) and (q, q) cell.  Building the
    # whole level takes one filter call per cell, 157 here.  The levels
    # before it are built whole, each cell once, reusing the scan's cells.
    g = gen_dense_guard_free(random.Random(0), 12)
    n = g.n_states + 1
    edges = tuple(Transition(0, q, 1) for q in range(1, n)) + tuple(
        Transition(t.src + 1, t.dst + 1, -abs(t.weight)) for t in g.transitions)
    v = Vass(names=tuple(f"q{i}" for i in range(n)),
             guards=(frozenset(),) * n, transitions=edges, initial=0, target=0)
    # one filter call per level-zero cell of two or more elements (a
    # one-element cell is kept unfiltered) and per cell of every whole
    # level after it
    arity = Counter((t.src, t.dst) for t in v.transitions)
    arity.update((q, q) for q in range(n))
    whole = sum(k >= 2 for k in arity.values()) + sum(
        len(cells) for cells in list(_full_levels(v))[1:-1])
    events = []
    rows_fn = pareto._partner_rows
    products_fn = pareto._filter_products

    def counted_rows(*args):
        events.append("rows")
        return rows_fn(*args)

    def counted_products(*args):
        events.append("filter")
        return products_fn(*args)

    monkeypatch.setattr(pareto, "_partner_rows", counted_rows)
    monkeypatch.setattr(pareto, "_filter_products", counted_products)
    assert decide_unbounded_lasso(v, 0).answer is False
    # each level reads the rows of the previous one before it filters
    last_level = events[len(events) - events[::-1].index("rows"):]
    assert len(last_level) == 2 * n - 1
    assert events.count("filter") == whole + 2 * n - 1


def test_lasso_decisions_build_families_through_the_module(monkeypatch):
    # the traced benchmark wraps `pareto.build_families` as a span and reads
    # the `.cells` of the family it returns
    results = []
    build = pareto.build_families

    def recorded(*args, **kwargs):
        results.append(build(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(pareto, "build_families", recorded)
    v = parse_vass("state a\nstate b\nedge a b -1\nedge b b 2\nedge b a 0\n")
    assert decide_unbounded_lasso(v, 1).answer is True
    assert len(results) == 1
    assert decide_cover_pareto(v, 1, 0) is True
    assert len(results) == 2
    # the 0-weight closure of the source reaches a +1 loop, so the doubling
    # runs; so it does behind the coverability reduction, whose pump state
    # is a +1 loop behind a 0-weight edge from the target
    w = parse_vass("state s\nstate q\nedge s q 0\nedge q q 1\nedge s s -1\n")
    assert decide_unbounded_lasso(w, 0).answer is True
    assert len(results) == 3
    stuck = STUCK_AT_ZERO["all out-edges of the source negative"]
    assert decide_cover_pareto(stuck, 0, 0) is True
    assert len(results) == 4
    assert all(isinstance(f, ParetoFamily) for f in results)


def test_every_entry_point_refuses_an_unknown_state(demo):
    # the same ValueError as the saturation procedure's, never a silent
    # answer, a KeyError or an IndexError
    v = parse_vass("state a\nstate b\nedge a b 1\nedge b a 0\n")
    calls = [
        (decide_unbounded_lasso, (v, 5), "unknown source state"),
        (decide_unbounded_lasso, (v, -1), "unknown source state"),
        (oracle_unbounded, (v, 5), "unknown source state"),
        (decide_unboundedness, (v, 2), "unknown source state"),
        (decide_cover_pareto, (v, 0, 7), "unknown state index"),
        (reduce_cov_to_unbound, (v, 0, 9), "unknown state index"),
        (oracle_cover, (v, 0, 9), "unknown state index"),
        (decide_coverability, (v, -1, 0), "unknown state index"),
    ]
    # bounded cover: an unknown init state, or an unknown target state
    for init, target in ((-1, 13), (99, 13), (0, 99), (0, -1)):
        objective = DiseqObjective(target, 0, 1)
        for fn in (decide_bounded_cover, oracle_bounded_cover):
            calls.append((fn, (demo, Configuration(init, 0), objective, 5),
                          "unknown state index"))
    for fn, args, message in calls:
        with pytest.raises(ValueError, match=message):
            fn(*args)


def test_lasso_agrees_with_oracle():
    rng = random.Random(246810)
    for _ in range(300):
        v = gen_guard_free(rng)
        verdict = oracle_unbounded(v, 0)
        if verdict.definite:
            assert decide_unbounded_lasso(v, 0).answer == (verdict.answer == "yes")


def test_cover_pareto_trivial_cases():
    v = parse_vass("state a\nstate b\nedge a b 0\nedge b a 0\n")
    assert decide_cover_pareto(v, 0, 1) is True
    w = parse_vass("state a\nstate b\nedge b b 1\n")
    assert decide_cover_pareto(w, 0, 1) is False


def test_cover_pareto_agrees_with_oracle():
    rng = random.Random(135791)
    for _ in range(200):
        v = gen_guard_free(rng)
        s, t = 0, rng.randrange(v.n_states)
        verdict = oracle_cover(v, s, t)
        if verdict.definite:
            assert decide_cover_pareto(v, s, t) == (verdict.answer == "yes")
