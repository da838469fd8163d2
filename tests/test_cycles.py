import random

from vass import (
    Configuration,
    Path,
    analyze,
    blocked_omega,
    chain_bounds,
    cycles,
    lift_run,
    parse_vass,
    select_cycles,
)
from vass.model import Transition, Vass, Violation, normalize_guards
from vass.reductions import cnf_to_vass

from helpers import (
    analysis_reference,
    chains_of,
    cnf_no_anchor,
    cnf_yes_anchor,
    conf_plus_contains,
    dense_and_random_graphs,
    gen_dense_guard_free,
    gen_vass,
    multi_guard_instances,
    select_cycles_reference,
    simple_cycles_through,
    small_cnf_formulas,
    summarize_path,
    two_state_instances,
)


def test_demo_cycle_selection(demo):
    sels = select_cycles(demo)
    assert sels[1].period == 6 and sels[1].pmin == -12
    assert demo.path_states(sels[1].gamma) == [1, 2, 1]
    assert sels[4].period == 9 and sels[4].pmin == -52
    assert sels[10].period == 10 and sels[10].pmin == -80


def test_negative_self_loop_not_pumpable():
    v = parse_vass("state a\nedge a a -1\n")
    assert select_cycles(v) == {}


def test_positive_self_loop_pumpable():
    v = parse_vass("state a\nedge a a 2\n")
    sels = select_cycles(v)
    assert sels[0].period == 2 and sels[0].pmin == 0


def test_selection_prefers_single_lap_over_powers():
    # the two-state loop could be traversed twice within the length budget,
    # doubling the weight at equal pmin; the single lap must win
    v = parse_vass("state a\nstate b\nstate c\nstate d\n"
                   "edge a b -3\nedge b a 5\nedge c d 1\nedge d c 1\n")
    sels = select_cycles(v)
    assert sels[0].period == 2 and sels[0].pmin == -3
    assert len(sels[0].gamma) == 2


def test_selection_is_deterministic(demo):
    a = select_cycles(demo)
    b = select_cycles(demo)
    assert a == b


def test_pumpable_states_match_simple_cycle_enumeration():
    rng = random.Random(77001)
    for _ in range(120):
        v = gen_vass(rng, max_states=6, max_weight=4)
        sels = select_cycles(v)
        for q in range(v.n_states):
            best = None
            for cyc in simple_cycles_through(v, q):
                p = Path(q, tuple(cyc))
                s = summarize_path(v, p)
                if s.weight >= 1 and (best is None or s.pmin > best):
                    best = s.pmin
            assert (q in sels) == (best is not None)
            if best is not None:
                # length-bounded cycles are a superset of simple ones
                assert sels[q].pmin >= best


def test_selection_equals_full_leveled_dp():
    rng = random.Random(31337)
    for _ in range(500):
        v = normalize_guards(gen_vass(rng, max_states=8, multi_guards=True))
        assert select_cycles(v) == select_cycles_reference(v)
    for _ in range(100):
        v = gen_dense_guard_free(rng, rng.randint(4, 12))
        assert select_cycles(v) == select_cycles_reference(v)


def test_cnf_selection_equals_full_leveled_dp():
    for f in small_cnf_formulas():
        v = normalize_guards(cnf_to_vass(f)[0])
        assert select_cycles(v) == select_cycles_reference(v), f


def _lookups_agree(rng, got, want: dict, keys) -> None:
    """Look up each of ``keys`` in ``got`` in a seeded random order, each
    by ``get``, ``in`` and ``[]`` in a random order, against ``want``."""
    keys = list(keys)
    rng.shuffle(keys)
    for q in keys:
        ways = ["get", "in", "[]"]
        rng.shuffle(ways)
        for way in ways:
            if way == "get":
                assert got.get(q) == want.get(q), q
            elif way == "in":
                assert (q in got) == (q in want), q
            else:
                try:
                    e = got[q]
                except KeyError:
                    e = None
                assert e == want.get(q), q


def test_on_demand_analysis_equals_the_eager_one():
    # every entry made on its first lookup, in any order and by any of
    # get, in and [], equals the eager one; the states with no positive
    # cycle, and keys that are no state, read as absent all three ways
    rng = random.Random(36036)
    sets = (multi_guard_instances(300), two_state_instances(),
            dense_and_random_graphs(),
            [cnf_no_anchor()[0], cnf_yes_anchor()[0]])
    absent = 0
    for vs in sets:
        for v in vs:
            keys = [-1, *range(v.n_states), v.n_states]
            want_sels = select_cycles_reference(v)
            want = analysis_reference(v, want_sels)
            sels, states = select_cycles(v), analyze(v).states
            _lookups_agree(rng, sels, want_sels, keys)
            _lookups_agree(rng, states, want, keys)
            assert sels == want_sels and states == want, v
            assert list(states) == sorted(want) and len(states) == len(want)
            absent += v.n_states - len(want)
    assert absent > 1000, absent


def test_iteration_makes_every_entry_in_state_order():
    # a mapping iterated before any lookup and one looked up backwards
    # first both list every entry, states ascending
    v, _ = cnf_yes_anchor()
    want = analysis_reference(v, select_cycles_reference(v))
    states = analyze(v).states
    assert list(states.items()) == sorted(want.items())
    backwards = analyze(v).states
    for q in reversed(range(v.n_states)):
        backwards.get(q)
    assert list(backwards.items()) == sorted(want.items())
    assert repr(backwards) == repr(dict(backwards.items()))


def _elements_fed_to_prune(monkeypatch, v) -> int:
    """How many elements ``select_cycles(v)`` feeds to the frontier prune."""
    fed = 0
    prune = cycles._prune_frontier

    def counted(elems):
        nonlocal fed
        fed += len(elems)
        return prune(elems)

    monkeypatch.setattr(cycles, "_prune_frontier", counted)
    dict(select_cycles(v))  # make every selection
    monkeypatch.undo()
    return fed


def _chorded_cnf_anchor() -> Vass:
    """`cnf_no_anchor` with a 0-weight chord in each of its two rings, from
    the ring's least state to the state two steps on: no component is a
    ring, so every selection runs the leveled DP."""
    v, _ = cnf_no_anchor()
    chords = []
    for comp in cycles._strongly_connected_components(v):
        if len(comp) > 1:
            q = min(comp)
            (_, t), = v.out_edges(q)
            (_, u), = v.out_edges(t.dst)
            chords.append(Transition(q, u.dst, 0))
    assert len(chords) == 2
    return Vass(names=v.names, guards=v.guards,
                transitions=v.transitions + tuple(chords))


def test_selection_extends_only_new_frontier_elements(monkeypatch):
    # the full leveled DP feeds 87,105 elements to the frontier prune on
    # this graph, re-extending every old element at every level
    v = _chorded_cnf_anchor()
    fed = _elements_fed_to_prune(monkeypatch, v)
    assert 0 < fed < 10_000, fed
    assert select_cycles(v) == select_cycles_reference(v)


def test_ring_components_run_no_leveled_dp(monkeypatch):
    # both components of the NO anchor with a cycle are rings, of 26 and 40
    # states: every selection is set in closed form
    v, _ = cnf_no_anchor()
    assert _elements_fed_to_prune(monkeypatch, v) == 0
    sels = select_cycles(v)
    assert len(sels) == 66
    assert sels == select_cycles_reference(v)


def _ring_text(weights) -> str:
    """A ring ``r0 -> r1 -> ... -> r0`` with the given edge weights."""
    n = len(weights)
    return "".join(f"state r{k}\n" for k in range(n)) + "".join(
        f"edge r{k} r{(k + 1) % n} {w}\n" for k, w in enumerate(weights))


def test_ring_selection_on_handmade_rings(monkeypatch):
    # weights below 1 select nothing; otherwise every state selects the
    # rotated ring, its pmin the least prefix sum, the empty prefix included
    for weights, pmins in (
            ((0,), None), ((-2,), None), ((1,), (0,)), ((7,), (0,)),
            ((1, -1), None), ((2, -3), None), ((0, 0, 0), None),
            ((3, -5, 3), (-2, -5, 0)), ((-50, 1, 50), (-50, 0, 0)),
            ((5, -100, 96), (-95, -100, 0)), ((0, 0, 1), (0, 0, 0)),
            ((-1, -1, -1, 4), (-3, -2, -1, 0))):
        v = parse_vass(_ring_text(weights))
        assert _elements_fed_to_prune(monkeypatch, v) == 0, weights
        sels = select_cycles(v)
        assert sels == select_cycles_reference(v), weights
        if pmins is None:
            assert sels == {}, weights
            continue
        assert [sels[q].pmin for q in range(len(weights))] == list(pmins)
        for q, sel in sels.items():
            assert sel.period == sum(weights)
            assert v.path_states(sel.gamma) == \
                [(q + k) % len(weights) for k in range(len(weights) + 1)]


def test_parallel_self_loops_take_the_leveled_dp(monkeypatch):
    # one state with two self-loops has two out-edges in its component: not
    # a ring; the DP picks the higher pmin, then the heavier loop
    for loops, want in (("edge r0 r0 1\nedge r0 r0 2\n", 1),
                        ("edge r0 r0 -1\nedge r0 r0 3\n", 1),
                        ("edge r0 r0 -1\nedge r0 r0 -2\n", None)):
        v = parse_vass("state r0\n" + loops)
        assert _elements_fed_to_prune(monkeypatch, v) > 0
        sels = select_cycles(v)
        assert sels == select_cycles_reference(v), loops
        assert (sels[0].gamma.transitions[0] if sels else None) == want


def test_seeded_rings_match_full_dp(monkeypatch):
    # rings of 1..12 states under a random numbering, with dips down to -40,
    # entered from and leaving to acyclic states; half of them get a chord
    rng = random.Random(30030)
    rings = chorded = 0
    for _ in range(300):
        n, extra = rng.randint(1, 12), rng.randint(0, 4)
        total = n + extra
        ring = rng.sample(range(total), n)
        # each outside state lies before the ring (rank 0) or after it
        # (rank 2); edges never lead back to a lower rank, or within a rank
        # to a lower state, and none joins two ring states, so the ring is
        # a component of its own
        rank = {q: 1 for q in ring}
        rank.update((x, rng.choice((0, 2)))
                    for x in set(range(total)) - set(ring))
        edges = [Transition(ring[k], ring[(k + 1) % n],
                            rng.choice((rng.randint(-3, 3), rng.randint(-40, 40))))
                 for k in range(n)]
        for x in range(total):
            for y in range(total):
                if (rank[x], x) < (rank[y], y) and rank[x] * rank[y] != 1 \
                        and rng.random() < 0.3:
                    edges.append(Transition(x, y, rng.randint(-5, 5)))
        rng.shuffle(edges)
        ring_only = rng.random() < 0.5
        if not ring_only:
            edges.append(Transition(rng.choice(ring), rng.choice(ring),
                                    rng.randint(-5, 5)))
        v = Vass(names=tuple(f"q{i}" for i in range(total)),
                 guards=(frozenset(),) * total, transitions=tuple(edges))
        fed = _elements_fed_to_prune(monkeypatch, v)
        assert (fed == 0) == ring_only, v
        assert select_cycles(v) == select_cycles_reference(v), v
        rings += ring_only
        chorded += not ring_only
    assert rings > 100 and chorded > 100, (rings, chorded)


def test_selection_stops_at_a_best_cycle_no_extension_can_beat(monkeypatch):
    # a +1 self-loop at every state is a pmin-0 cycle at level 1, and no
    # cycle has a higher pmin: each source's search ends there.  Extending
    # every frontier element to the last level feeds 7,480 elements to the
    # frontier prune on this graph
    g = gen_dense_guard_free(random.Random(0), 12)
    v = Vass(names=g.names, guards=g.guards,
             transitions=g.transitions + tuple(
                 Transition(q, q, 1) for q in range(g.n_states)))
    fed = _elements_fed_to_prune(monkeypatch, v)
    assert 0 < fed < 200, fed
    sels = select_cycles(v)
    assert all(len(s.gamma) == 1 and s.pmin == 0 for s in sels.values())
    assert sels == select_cycles_reference(v)


def test_selection_floor_rising_twice():
    # the best cycle at a improves at levels 2, 3 and 4: pmin -3 via b,
    # -1 via c d, and 0 via e f g; each rise of the floor cuts the frontier
    cyc2 = "edge a b -3\nedge b a 4\n"
    cyc3 = "edge a c -1\nedge c d 1\nedge d a 1\n"
    cyc4 = "edge a e 1\nedge e f -1\nedge f g 0\nedge g a 1\n"
    head = "".join(f"state {x}\n" for x in "abcdefg")
    for edges, pmin, states in (
            (cyc2, -3, "aba"),
            (cyc2 + cyc3, -1, "acda"),
            (cyc2 + cyc3 + cyc4, 0, "aefga"),
            (cyc4 + cyc2 + cyc3, 0, "aefga")):
        v = parse_vass(head + edges)
        sels = select_cycles(v)
        assert sels == select_cycles_reference(v), edges
        assert sels[0].pmin == pmin and sels[0].period == 1, edges
        assert "".join(v.names[q] for q in v.path_states(sels[0].gamma)) \
            == states, edges


def test_demo_omega_blocked_set(demo):
    sels = select_cycles(demo)
    bo = blocked_omega(demo, sels[4])
    expected = set(range(52)) | {z for z in range(52, 97) if z % 9 in (0, 3, 6)}
    assert bo.members_upto(400) == expected


def test_omega_blocked_set_closed_form_vs_simulation(demo):
    sels = select_cycles(demo)
    bo = blocked_omega(demo, sels[1])
    # simulate many laps of the loop on s1 from every small start value
    gamma = sels[1].gamma
    laps = Path(1, gamma.transitions * 40)
    for z in range(0, 121):
        assert (z in bo) == isinstance(lift_run(demo, laps, z), Violation), z


def test_omega_blocked_unguarded_cycle():
    v = parse_vass("state a\nstate b\nedge a b -3\nedge b a 5\n")
    bo = blocked_omega(v, select_cycles(v)[0])
    assert bo.members_upto(50) == {0, 1, 2}


def test_random_omega_blocked_vs_simulation():
    rng = random.Random(88412)
    checked = 0
    for _ in range(150):
        v = gen_vass(rng, max_states=5, max_weight=4, max_guard=30)
        for q, sel in select_cycles(v).items():
            bo = blocked_omega(v, sel)
            laps = Path(q, sel.gamma.transitions * 50)
            for z in range(0, 61):
                assert (z in bo) == isinstance(lift_run(v, laps, z), Violation)
            checked += 1
    assert checked > 20


def test_demo_chain_decomposition(demo):
    ana = analyze(demo)
    chains = chains_of(ana.states[4], 0)
    assert [(c.lo, c.hi) for c in chains] == [(54, 81), (90, 90), (99, None)]
    trivial = chains_of(ana.states[4], 7)
    assert [(c.lo, c.hi) for c in trivial] == [(52, None)]
    # the one walk: the same class, and nothing for the trivial one
    walked = {r: [(lo, hi) for q, w, lo, hi in chain_bounds(ana)
                  if q == 4 and lo % w == r] for r in (0, 7)}
    assert walked == {0: [(54, 81), (90, 90), (99, None)], 7: []}


def test_demo_trivial_classes(demo):
    ana = analyze(demo)
    for i in (0, 1, 3, 4, 6, 7):
        chains = chains_of(ana.states[4], (52 + i) % 9)
        assert (len(chains) == 1) == (i in (0, 1, 3, 4, 6, 7) and i not in (2, 5, 8))


def test_chain_structure_properties():
    rng = random.Random(140593)
    for _ in range(150):
        v = gen_vass(rng, max_states=5, max_weight=4, max_guard=30)
        ana = analyze(v)
        for q, sa in ana.states.items():
            n = v.n_states
            for r in range(sa.selection.period):
                chains = chains_of(sa, r)
                # exactly one unbounded tail, at the end
                assert [c.hi for c in chains].count(None) == 1
                assert chains[-1].hi is None
                assert len(chains) - 1 <= 2 * n
                # ascending, disjoint, and exactly covering the class
                prev_hi = None
                for c in chains:
                    assert c.lo % sa.selection.period == r % sa.selection.period
                    if prev_hi is not None:
                        assert c.lo > prev_hi
                    prev_hi = c.hi if c.hi is not None else None
                covered = set()
                for c in chains:
                    hi = c.hi if c.hi is not None else c.lo + 5 * sa.selection.period
                    covered.update(range(c.lo, hi + 1, sa.selection.period))
                lo0 = chains[0].lo
                expect = set(range(lo0, max(covered) + 1, sa.selection.period))
                assert covered == expect


def test_chain_pumping_runs_are_valid():
    # inside a bounded chain, pumping connects the bottom to the top; every
    # bounded-chain member dies if it keeps pumping (it may first climb into
    # the next chain: a split point can be entered but not left), while the
    # unbounded tail climbs forever
    rng = random.Random(424242)
    for _ in range(120):
        v = gen_vass(rng, max_states=5, max_weight=4, max_guard=25)
        ana = analyze(v)
        for q, sa in ana.states.items():
            sel = sa.selection
            last_cap = max((c for cs in sa.splits.values() for c in cs),
                           default=None)
            for r in range(sel.period):
                for c in chains_of(sa, r):
                    if c.lo in v.guards[q]:
                        continue
                    if c.hi is not None:
                        laps = (c.hi - c.lo) // sel.period
                        p = Path(q, sel.gamma.transitions * laps)
                        assert not isinstance(lift_run(v, p, c.lo), Violation)
                        horizon = (last_cap - c.lo) // sel.period + 2
                        more = Path(q, sel.gamma.transitions * horizon)
                        assert isinstance(lift_run(v, more, c.lo), Violation)
                    else:
                        p = Path(q, sel.gamma.transitions * 30)
                        assert not isinstance(lift_run(v, p, c.lo), Violation)


def test_bounded_chains_union_is_omega_blocked_region(demo):
    # the solver's chains come from `splits` and the oracle's pumping test
    # from `blocked_omega`: above the floor both must be the same set
    checked = 0
    for v in [demo] + multi_guard_instances(300):
        for q, sa in analyze(v).states.items():
            bo = blocked_omega(v, sa.selection)
            assert bo.low_all == sa.floor, v
            blocked_members = {z for z in range(sa.floor, 200) if z in bo}
            chain_members = set()
            for r in range(sa.selection.period):
                for c in chains_of(sa, r):
                    if c.hi is not None:
                        chain_members.update(range(c.lo, c.hi + 1, sa.selection.period))
            assert chain_members == blocked_members, v
            checked += bool(blocked_members)
    assert checked > 100, checked


def test_conf_plus_membership(demo):
    ana = analyze(demo)
    assert conf_plus_contains(ana, Configuration(1, 12))
    assert not conf_plus_contains(ana, Configuration(1, 11))
    assert conf_plus_contains(ana, Configuration(4, 52))
    assert not conf_plus_contains(ana, Configuration(0, 1000))  # not pumpable


def test_conf_plus_floor_is_exact(demo):
    ana = analyze(demo)
    assert ana.states[1].floor == 12
    assert {z for z in range(200) if conf_plus_contains(ana, Configuration(1, z))} \
        == set(range(12, 200))
