import random
import re
from collections import deque

import pytest

from vass import (
    Configuration,
    USet,
    analyze,
    chain_bounds,
    cycles,
    decide_coverability,
    decide_unboundedness,
    fixpoint,
    instances,
    normalize_guards,
    normalize_guards_with_maps,
    objective_contains,
    parse_vass,
    unbounded_core,
)
from vass.cycles import Chain
from vass.reductions import cnf_to_vass

from helpers import (
    _cnf_anchor,
    added_values,
    bounded_chains_reference,
    chains_of,
    cnf_no_anchor,
    cnf_yes_anchor,
    configurations,
    decide_config_reference,
    decompose_objectives,
    defect_stats,
    eager_round,
    gen_vass,
    members_at,
    multi_guard_instances,
    oracle_queries,
    pareto_answer,
    small_cnf_formulas,
    truly_unbounded,
    successors,
    two_state_instances,
    unbounded_core_reference,
    unsplit_multi_guard,
    walk_uset_reference,
    worstcase_bounds,
)


# --- worst-case bound arithmetic ------------------------------------------

def test_bounds_tiny_values():
    assert worstcase_bounds(1).gap_window == 7
    assert worstcase_bounds(2).gap_window == 19
    assert worstcase_bounds(10).gap_window == 1123


def test_bounds_chain_recomputation():
    for n in (1, 2, 3, 7, 10):
        wc = worstcase_bounds(n)
        gap = (n * n + 2) * (n + 1) + 1
        step = 2 * n * n * (n * n + 2) * (n + 1) + 2 * n * (
            (n * n + 2) + (2 * n + 1) * n * gap)
        defect = 2 * n * n * step
        pool = n * n + n + 3 + n * defect
        assert wc.class_step == step
        assert wc.defect_bound == defect == wc.round_bound
        assert wc.run_length_bound == n * pool * pool + n * n + 4


def test_bounds_reject_empty_system():
    with pytest.raises(ValueError):
        worstcase_bounds(0)


# --- seed set ---------------------------------------------------------------

def test_seed_set_demo_membership(demo):
    u = USet(analyze(demo))
    assert u.contains(Configuration(4, 97))
    assert not u.contains(Configuration(4, 96))     # cut off by a guard family
    assert u.contains(Configuration(4, 52))         # trivial class
    assert not u.contains(Configuration(4, 54))     # bounded chain, not seeded
    assert not u.contains(Configuration(0, 10**6))  # not pumpable at all


def test_seed_set_empty_when_nothing_pumps():
    v = parse_vass("state a\nedge a a -1\n")
    u = USet(analyze(v))
    assert not u.contains(Configuration(0, 5))
    assert members_at(u, 0, 50) == []


def test_seed_set_member_enumeration(demo):
    # trivial residues from the floor up, plus the climbing tails of the
    # guarded classes above their last cut-off (99 for the class cut at 90)
    u = USet(analyze(demo))
    trivial = [z for z in range(52, 101) if z % 9 not in (0, 3, 6)]
    assert members_at(u, 4, 100) == sorted(trivial + [99])


# --- membership after staged construction ------------------------------------

def golden_first_round_uset(demo) -> USet:
    """The set used by the worked-delta example: the seed plus prefixes up
    to 63 and 69 of the two non-singleton bounded chains at state s4."""
    return USet(analyze(demo), {(4, 54): 63, (4, 60): 69})


def test_membership_in_prescribed_first_round_set(demo):
    u = golden_first_round_uset(demo)
    assert u.contains(Configuration(4, 54))
    assert not u.contains(Configuration(4, 72))


def test_membership_in_computed_first_round_set(demo):
    ana = analyze(demo)
    out = eager_round(USet(ana), _budget())
    assert out.uset.contains(Configuration(4, 54))
    assert not out.uset.contains(Configuration(4, 72))


# --- objective decomposition ---------------------------------------------------

def test_decomposition_component_shape_demo(demo):
    u = USet(analyze(demo))
    objs = decompose_objectives(u, 4)
    first = objs[0]
    assert first.period == 9 and first.ell == 52
    assert first.forbidden_residues == frozenset({0, 3, 6})
    assert len(objs) <= demo.n_states + 1


def test_decomposition_matches_membership_pointwise(demo):
    ana = analyze(demo)
    for u in (USet(ana), golden_first_round_uset(demo),
              unbounded_core(analyze(demo))):
        for q in sorted(ana.states):
            objs = decompose_objectives(u, q)
            for z in range(0, 131):
                c = Configuration(q, z)
                assert u.contains(c) == any(
                    objective_contains(o, c) for o in objs), (q, z)


def test_decomposition_matches_membership_random():
    rng = random.Random(606060)
    for _ in range(60):
        v = gen_vass(rng, max_states=5, max_weight=4, max_guard=25)
        core = unbounded_core(analyze(v))
        for q in sorted(core.analysis.states):
            objs = decompose_objectives(core, q)
            assert len(objs) <= v.n_states + 1
            for z in range(0, 70):
                c = Configuration(q, z)
                assert core.contains(c) == any(
                    objective_contains(o, c) for o in objs)


# --- saturation ---------------------------------------------------------------

def test_demo_first_round_additions_verified_by_oracle(demo):
    """Pin the computed first round and check every claim against the
    brute-force oracle; the verified additions at state s4 are a strict
    superset of the four values the historical walkthrough lists."""
    ana = analyze(demo)
    u = USet(ana)
    out = eager_round(u, _budget())
    added = {demo.names[q]: vals
             for q, vals in added_values(u, out).items()}
    assert added["s4"] == [54, 57, 60, 63, 66, 69, 75, 78, 84, 87, 93, 96]
    assert set(added) == {"s1", "s2", "s4", "s5", "s6"}
    for name, vals in added.items():
        q = demo.index(name)
        for z in vals:
            assert truly_unbounded(demo, q, z) is True, (name, z)
    # the values the round leaves out of the s4 chains really are bounded
    for z in (72, 81):
        assert truly_unbounded(demo, 4, z) is False


def test_demo_saturation_is_monotone_and_prefix_closed(demo):
    ana = analyze(demo)
    u = USet(ana)
    for _ in range(3):
        out = eager_round(u, _budget())
        assert set(u.per_chain_max) <= set(out.uset.per_chain_max)
        for key, m in u.per_chain_max.items():
            assert out.uset.per_chain_max[key] >= m
        for (q, lo), m in out.uset.per_chain_max.items():
            assert (m - lo) % ana.states[q].selection.period == 0
        u = out.uset


def test_demo_fixpoint_matches_oracle_everywhere(demo):
    core = unbounded_core(analyze(demo))
    core.per_chain_max  # force every chain, so the status covers them all
    assert core.status == "complete"
    for q in sorted(core.analysis.states):
        sa = core.analysis.states[q]
        for z in range(sa.floor, 131):
            if z in demo.guards[q]:
                continue
            want = truly_unbounded(demo, q, z)
            assert want is not None
            assert core.contains(Configuration(q, z)) == want, (q, z)


def test_fixpoint_trace_matches_historical_walkthrough(demo):
    """The walkthrough bundled with the demo instance stages the first two
    rounds as {s4: 54,60,63,69} then {s1: 12}.  Exact forward reachability
    disagrees: (s4,93) and (s4,96) already reach the seed set in four valid
    steps (93 -> 97 -> 101 -> 98 -> 115, all off-guard, into a climbing
    class), so the first round provably contains more than the walkthrough
    says; the oracle cross-check in
    test_demo_first_round_additions_verified_by_oracle pins the truth.
    Kept as written for traceability, expected to fail."""
    core = unbounded_core(analyze(demo))
    rounds = [{demo.names[q]: vals for q, vals in r.items()}
              for r in core.rounds]
    assert rounds[0] == {"s4": [54, 60, 63, 69]}
    assert rounds[1:] == [{"s1": [12]}]


test_fixpoint_trace_matches_historical_walkthrough = pytest.mark.xfail(
    reason="pinned walkthrough values under-approximate exact reachability "
           "on the demo instance (see the oracle-verified trace test)",
    strict=True,
)(test_fixpoint_trace_matches_historical_walkthrough)


def _bisection_instance():
    # chain [5, 35] step 10 at state a; only 25 escapes directly (35 is cut
    # at b, 45 is a's own guard), but 5 and 15 pump up to 25 inside the
    # chain; the lowest missing element hits, the top misses, and the
    # bisection between them settles on 25 in the first round
    return parse_vass(
        "state a 45\nstate b 35\nstate c 5\n"
        "edge a a 10\nedge a b 0\nedge b c 0\nedge c c 1\n"
    )


def test_saturation_finds_a_chain_maximum_in_one_round():
    v = _bisection_instance()
    core = unbounded_core(analyze(v))
    core.per_chain_max  # force every chain, so the status covers them all
    assert core.status == "complete"
    assert [r for r in core.rounds] == [{0: [5, 15, 25]}]
    assert core.per_chain_max[(0, 5)] == 25
    assert not core.contains(Configuration(0, 35))
    for z, want in ((5, True), (15, True), (25, True), (35, False)):
        assert truly_unbounded(v, 0, z) is want


def test_round_maximum_is_the_last_hit_of_a_prefix():
    # the elements of a bounded chain that reach the frozen U form a prefix
    # of the chain, and each round raises the chain's maximum to its last
    # element, as the explicit walk finds them
    checked = partial = 0
    for v in _memo_instances(300) + _dense_guard_instances(150):
        ana = analyze(v)
        u = USet(ana)
        while True:
            out = eager_round(u, _budget())
            if out.truncated:
                break
            walk = _memo_walk(v, u)
            for ch in fixpoint.bounded_chains(ana):
                w = ana.states[ch.state].selection.period
                hits = [x for x in range(ch.lo, ch.hi + 1, w)
                        if walk(Configuration(ch.state, x)) == "hit"]
                if hits:
                    assert hits == list(range(ch.lo, hits[-1] + 1, w)), (v, ch)
                m = out.uset.per_chain_max.get((ch.state, ch.lo))
                assert m == (hits[-1] if hits else None), (v, ch)
                checked += len(hits)
                partial += bool(hits) and m < ch.hi
            if not out.added:
                break
            u = out.uset
    assert checked > 1000 and partial > 5


def test_stable_round_is_the_fixpoint():
    # the one round of unbounded_core is final: no chain element it left
    # out reaches the set it returns, by the explicit walk
    rng = random.Random(20190218)
    probed = 0
    for _ in range(300):
        v = normalize_guards(gen_vass(rng, multi_guards=True))
        core = unbounded_core(analyze(v))
        core.per_chain_max  # force every chain, so the status covers them all
        if core.status != "complete":
            continue
        for ch in fixpoint.bounded_chains(core.analysis):
            w = core.analysis.states[ch.state].selection.period
            m = core.per_chain_max.get((ch.state, ch.lo))
            for x in range(ch.lo if m is None else m + w, ch.hi + 1, w):
                c = Configuration(ch.state, x)
                assert _walk(v, core, c) == "no", (v, ch, x)
                probed += 1
    assert probed > 1000


def test_one_round_is_the_fixpoint():
    # a second round from the set of unbounded_core adds nothing, and the
    # old loop of rounds until one adds nothing ends in the same set, with
    # the same rounds and status
    cases = [_bisection_instance()]
    cases += _memo_instances(300) + _dense_guard_instances(150)
    cases += [normalize_guards(v) for v in two_state_instances()]
    cases += unsplit_multi_guard(two_state_instances())  # and as given
    adding = 0
    for v in cases:
        core = unbounded_core(analyze(v))
        core.per_chain_max  # force every chain, so the status covers them all
        assert core.status == "complete", v
        assert not eager_round(core, _budget()).added, v
        assert (core.per_chain_max, core.rounds,
                core.status) == unbounded_core_reference(v), v
        adding += bool(core.rounds)
    assert len(cases) > 5000 and adding > 50, (len(cases), adding)


def test_lazy_maxima_equal_the_eager_round():
    # a chain's maximum against the seed set depends on no other chain, so
    # each maximum a solve raises on demand, in whatever order, equals that
    # of the round that raises every chain in chain_bounds order (a fresh
    # core, forced); and so does the solve's core once forced
    solves = resolved = raised = 0
    for v in _memo_instances(350) + multi_guard_instances(350):
        for s in range(v.n_states):
            for dec in (decide_unboundedness(v, s),
                        decide_coverability(v, s, v.n_states - 1)):
                if dec.core is None:
                    continue
                eager = unbounded_core(dec.analysis)
                want = eager.per_chain_max
                for key, m in dec.core.resolved.items():
                    assert want.get(key) == m, (v, s, key)
                    resolved += 1
                    raised += m is not None
                core = dec.core
                assert (core.per_chain_max, core.rounds, core.status) == (
                    want, eager.rounds, eager.status), (v, s)
                solves += 1
    # every chain looked up one by one, last chain first
    chains = raised_alone = 0
    for v in _memo_instances(350):
        ana = analyze(v)
        core, want = unbounded_core(ana), unbounded_core(ana).per_chain_max
        bounded = [ch for ch in chain_bounds(ana) if ch[3] is not None]
        for q, w, lo, hi in reversed(bounded):
            m = core.chain_max(q, w, lo, hi)
            assert m == want.get((q, lo)), v
            chains += 1
            raised_alone += m is not None
        assert core.per_chain_max == want and core.status == "complete"
    assert solves > 900 and resolved > 100 and raised > 100, (solves, resolved)
    assert chains > 600 and 200 < raised_alone < chains - 200, chains


def test_two_state_slice_matches_both_oracles():
    """From each state of every instance of the two-state slice: the
    unboundedness decision against `oracle_unbounded`, and coverability of
    both states against `oracle_cover`, with every oracle verdict definite.
    On the guard-free instances the lasso test answers the same queries
    (`pareto_answer`) against the same verdicts.  `oracle_unbounded` still
    builds its pumping test from `select_cycles` and `blocked_omega`, which
    it shares with the saturation solver; `oracle_cover` is a plain closure
    and shares no code with it."""
    cases = list(two_state_instances())
    queries = lasso_queries = 0
    for v in cases:
        for query, answer, verdict in oracle_queries(v):
            assert verdict.definite, (v, query, verdict)
            want = verdict.answer == "yes"
            assert answer == want, (v, query)
            queries += 1
            if not v.has_guards:
                assert pareto_answer(v, query) == want, (v, query)
                lasso_queries += 1
    assert (len(cases), queries, lasso_queries) == (5275, 31650, 1266)


# --- closure memo of failed probes ---------------------------------------------

def _budget():
    return fixpoint.Budget(fixpoint.DEFAULT_NODE_CAP)


def _walk(v, u, c):
    """The answer of the explicit walk over single configurations, with no
    memo: the reference the run search is checked against."""
    return walk_uset_reference(u, c, _budget(), fixpoint.RunSet(v.n_states))[0]


def _memo_walk(v, u):
    """An explicit walk over single configurations that skips those an
    earlier walk of it proved to miss ``u`` (without that memo the walks
    from every element of long chains take minutes)."""
    dead = set()

    def walk(c):
        if not v.is_valid(c) or c in dead:
            return "no"
        if u.contains(c):
            return "hit"
        seen, queue = {c}, deque([c])
        while queue:
            q, z = queue.popleft()
            for _, t in v.out_edges(q):
                d = Configuration(t.dst, z + t.weight)
                if d in seen or d in dead or not v.is_valid(d):
                    continue
                if u.contains(d):
                    return "hit"
                seen.add(d)
                queue.append(d)
        dead.update(seen)
        return "no"

    return walk


def _solve(v):
    """The core of ``v``, forced, and the answer from ``(s, 0)`` for every
    state."""
    core = unbounded_core(analyze(v))
    core.per_chain_max  # force every chain now, under the caller's patches
    answers = [decide_unboundedness(v, s).answer for s in range(v.n_states)]
    return core, answers


def _memo_instances(count):
    return [normalize_guards(v) for v in multi_guard_instances(count)]


def _large_guard_instances(count):
    # guards far above the weights: long runs that lap many periods
    rng = random.Random(5000)
    return [normalize_guards(gen_vass(rng, max_weight=7, max_guard=5000,
                                      multi_guards=True))
            for _ in range(count)]


def _dense_guard_instances(count, split=True):
    # guards among small counters: runs are split at guards on the way
    rng = random.Random(2020)
    vs = [gen_vass(rng, max_weight=3, max_guard=20, guard_prob=0.8,
                   multi_guards=True) for _ in range(count)]
    return [normalize_guards(v) for v in vs] if split else vs


def test_bounded_chains_walk_in_the_reference_order():
    # one walk over the cut-offs yields the chains of chains_of, in the
    # order the saturation rounds probe them
    cases = _memo_instances(350) + _dense_guard_instances(150)
    cases += [normalize_guards(cnf_to_vass(f)[0]) for f in small_cnf_formulas()]
    matched = 0
    for v in cases:
        ana = analyze(v)
        chains = list(fixpoint.bounded_chains(ana))
        assert chains == list(bounded_chains_reference(ana)), v
        # the walk itself, tails included, against the frozen chains_of
        assert list(chain_bounds(ana)) == [
            (q, sa.selection.period, ch.lo, ch.hi)
            for q, sa in sorted(ana.states.items())
            for r in sorted(sa.splits) for ch in chains_of(sa, r)], v
        matched += len(chains)
    assert matched > 70_000, matched


def test_saturation_builds_no_chain(monkeypatch):
    # the rounds read chain bounds straight off the cut-offs: building a
    # Chain for every bounded chain cost a fifth of a CNF solve; and no
    # solve builds a cycle's blocked set, which only the oracle reads
    def refuse(*args, **kwargs):
        raise AssertionError("a solve built a Chain or a blocked set")

    multi = [v for v in multi_guard_instances(60)
             if any(len(g) > 1 for g in v.guards)]
    cases = [cnf_no_anchor()[0]] + [normalize_guards(v) for v in multi]
    walked = sum(len(list(bounded_chains_reference(analyze(v))))
                 for v in cases)
    monkeypatch.setattr(fixpoint, "Chain", refuse)
    monkeypatch.setattr(cycles, "blocked_omega", refuse)
    monkeypatch.setattr(cycles, "BlockedSet", refuse)
    for v in cases:
        unbounded_core(analyze(v))
    for v in multi:
        decide_unboundedness(v, 0)
        decide_coverability(v, 0, v.n_states - 1)
    assert len(cases) > 5 and walked > 1000, (len(cases), walked)


def test_dead_set_changes_no_result(monkeypatch):
    # the memo only skips configurations already proved to miss U, so every
    # result must equal that of a search that ignores it
    memo_free = fixpoint._reach_uset

    def reference(u, start, budget, dead):
        return memo_free(u, start, budget, fixpoint.RunSet(dead.n))

    cases = _memo_instances(350)
    with monkeypatch.context() as m:
        m.setattr(fixpoint, "_reach_uset", reference)
        want = [_solve(v) for v in cases]
    with_rounds = 0
    for v, (ref, ref_answers) in zip(cases, want):
        core, answers = _solve(v)
        assert core.per_chain_max == ref.per_chain_max, v
        assert (core.rounds, core.status) == (ref.rounds, ref.status), v
        assert answers == ref_answers, v
        assert not ref.dead
        with_rounds += bool(core.rounds)
    assert with_rounds > 30


def test_dead_set_misses_the_final_set():
    # every configuration of every memoised run really has a closure that
    # misses U
    checked = 0
    for v in _memo_instances(300):
        core = unbounded_core(analyze(v))
        core.per_chain_max  # force every chain: status and dead cover all
        if core.status != "complete":
            continue
        for c in configurations(core.dead):
            assert _walk(v, core, c) == "no", (v, c)
            checked += 1
    assert checked > 1000


def test_run_set_holds_exactly_its_runs():
    # runs of every length and step against plain sets of what they hold:
    # a one-element run is an int, every longer run sits in its own bucket
    rng = random.Random(909)

    def draw():
        q, step = rng.randrange(3), rng.randint(1, 3)
        lo = rng.randint(0, 40)
        return q, lo, lo + step * rng.randint(0, 25), step

    for _ in range(300):
        pair = []
        for _ in range(2):
            runs, members, singles, bucketed = (fixpoint.RunSet(3), set(),
                                                set(), set())
            for _ in range(rng.randint(1, 12)):
                q, lo, hi, step = draw()
                runs.add(q, lo, hi, step)
                members.update((q, z) for z in range(lo, hi + 1, step))
                if lo == hi:
                    singles.add((q, lo))
                else:
                    bucketed.update((q, step, z)
                                    for z in range(lo, hi + 1, step))
            assert set(configurations(runs)) == members
            assert {(key % 3, key // 3) for key in runs.ints} == singles
            held = set()
            for (q, step, r), (los, his) in runs.buckets.items():
                assert all(a % step == r for a in los)
                assert all(a < e for a, e in zip(los, his))
                assert all(e < a - step for e, a in zip(his, los[1:]))
                held.update((q, step, z) for a, e in zip(los, his)
                            for z in range(a, e + 1, step))
            assert held == bucketed
            for q in range(3):
                for z in range(170):
                    assert runs.has(q, z) == ((q, z) in members)
            pair.append((runs, members, bucketed))
        sets = tuple(runs for runs, _, _ in pair)
        for _ in range(20):
            q, lo, hi, step = draw()
            if lo == hi:  # tested against each set in full
                held = any((q, lo) in members for _, members, _ in pair)
                assert fixpoint._uncovered(sets, q, lo, hi, step) == (
                    [] if held else [(lo, lo)])
                continue
            # the maximal sub-runs whose elements no own bucket holds
            want, start = [], None
            for z in range(lo, hi + step + 1, step):
                missed = z <= hi and all((q, step, z) not in bucketed
                                         for _, _, bucketed in pair)
                if missed and start is None:
                    start = z
                elif not missed and start is not None:
                    want.append((start, z - step))
                    start = None
            assert fixpoint._uncovered(sets, q, lo, hi, step) == want


def test_no_probe_admits_a_dead_configuration(monkeypatch):
    # every one-element piece a probe queues, the runs a lap returns
    # included, misses the probe's dead set as it stands when the piece is
    # admitted: a dead configuration lies on no path to the set searched
    # for, so admitting it only spends the budget.  The depth search's laps
    # raise chains whose failed probes grow that dead set mid-search; a
    # singleton chain's cut-off is then dead, and a lap still returns it.
    stack, admitted = [], []
    reach, add = fixpoint._reach_uset, fixpoint.RunSet.add

    def spy_reach(u, start, budget, dead):
        stack.append(dead)
        try:
            return reach(u, start, budget, dead)
        finally:
            stack.pop()

    def spy_add(self, q, lo, hi, step):
        # a probe's own visited set, not a dead set taking a probe's runs
        if stack and all(self is not dead for dead in stack) and lo == hi:
            admitted.append((q, lo, stack[-1].has(q, lo)))
        add(self, q, lo, hi, step)

    monkeypatch.setattr(fixpoint, "_reach_uset", spy_reach)
    monkeypatch.setattr(fixpoint.RunSet, "add", spy_add)
    for f in small_cnf_formulas():
        if len(f.clauses) == 2:
            for u in range(30):
                decide_unboundedness(*_cnf_anchor(f, u))
    assert len(admitted) > 1000
    assert [(q, z) for q, z, dead in admitted if dead] == []


def test_run_search_matches_the_explicit_walk():
    # from every bounded-chain element and every low configuration, against
    # the seed set and the final set, the run search answers as the walk
    # over single configurations
    probed = long_runs = 0
    cases = (_memo_instances(150) + _large_guard_instances(40)
             + _dense_guard_instances(150))
    # and on the multi-guard states as given, where one run is cut at
    # several guards of one state
    unsplit = unsplit_multi_guard(multi_guard_instances(150)
                                  + _dense_guard_instances(150, split=False))
    unsplit_probed = 0
    for i, v in enumerate(cases + unsplit):
        core = unbounded_core(analyze(v))
        core.per_chain_max  # force every chain, so the status covers them all
        if core.status != "complete":
            continue
        for u in (USet(core.analysis), core):
            walk = _memo_walk(v, u)
            starts = [(Configuration(q, z), False)
                      for q in range(v.n_states) for z in range(30)]
            for ch in fixpoint.bounded_chains(core.analysis):
                w = core.analysis.states[ch.state].selection.period
                starts += [(Configuration(ch.state, x), ch.hi - ch.lo > 100 * w)
                           for x in range(ch.lo, ch.hi + 1, w)]
            for c, long in starts:
                got = fixpoint._reach_uset(u, c, _budget(),
                                           fixpoint.RunSet(v.n_states))
                assert got[0] == walk(c), (v, c)
                probed += 1
                long_runs += long
                unsplit_probed += i >= len(cases)
    assert probed > 5000 and long_runs > 1000
    assert len(unsplit) > 200 and unsplit_probed > 50000, (len(unsplit),
                                                           unsplit_probed)


def test_one_budget_bounds_the_whole_solve(monkeypatch):
    # the seed probe, every probe of the round and the depth search draw
    # from one budget per solve, so a spent budget ends the solve with UNKNOWN
    # instead of granting each search a fresh cap.  The NO anchor's seed
    # probe takes 132 pieces: a cap of 100 cuts it
    monkeypatch.setattr(fixpoint, "DEFAULT_NODE_CAP", 100)
    dec = decide_unboundedness(*cnf_no_anchor())
    assert (dec.answer, dec.status, dec.core) == (None, "incomplete", None)
    assert dec.budget.spent == 100
    # from the demo's initial state the depth search looks up one bounded
    # chain after 36 pieces, and raising it to its maximum 54 takes 42 more
    # (the whole solve takes 78).  A cap of 50 cuts its lowest probe, so the
    # chain counts as holding no member; a cap of 75 cuts its bisection, so
    # it keeps only 12, and the search then finds a member at depth 1 anyway.
    # Either way no depth is reported against the cut set
    for cap, cut_max in ((50, None), (75, 12)):
        monkeypatch.setattr(fixpoint, "DEFAULT_NODE_CAP", cap)
        dec = decide_unboundedness(instances.demo_guarded(), 0)
        assert dec.answer is None and dec.status == "incomplete"
        assert dec.reason == "node cap exhausted"
        assert dec.core.status == "incomplete" and dec.budget.spent <= cap
        assert list(dec.core.resolved.values()) == [cut_max]


def test_a_spent_budget_keeps_a_certain_no():
    # a start on a guard or in a dead run reaches nothing new, so the probe
    # answers a certain "no" before it reads the budget; only a start that
    # needs a search is capped
    demo = instances.demo_guarded()
    u = USet(analyze(demo))
    dead = fixpoint.RunSet(demo.n_states)
    dead.add(2, 7, 7, 1)
    dead.add(2, 10, 20, 5)
    budget = fixpoint.Budget(10)
    budget.spent = 10
    for start in ((4, 90), (2, 7), (2, 15)):
        got = fixpoint._reach_uset(u, Configuration(*start), budget, dead)
        assert got == ("no", 0), start
    for start in ((0, 0), (2, 12)):
        got = fixpoint._reach_uset(u, Configuration(*start), budget, dead)
        assert got == ("capped", 0), start
    assert budget.spent == 10


def test_probe_work_does_not_grow_with_the_guard(monkeypatch):
    # laps cross a whole chain in one step and the lowest missing element
    # settles the chain: the guard value changes neither the number of
    # probes nor the number of pieces they admit.  A NO takes the one probe
    # of the seed set; upesc's YES adds the round's probes
    probes = 0
    search = fixpoint._reach_uset

    def counted(*args):
        nonlocal probes
        probes += 1
        return search(*args)

    monkeypatch.setattr(fixpoint, "_reach_uset", counted)
    for make, want in ((instances.up, (False, 1, 1)),
                       (instances.updown, (False, 1, 2)),
                       (instances.upesc, (True, 3, 3))):
        for g in (10**3, 10**7):
            probes = 0
            dec = decide_unboundedness(make(g), 0)
            assert dec.status == "complete"
            assert (dec.answer, probes, dec.budget.spent) == want, (make, g)


def test_cnf_anchor_work_count(monkeypatch):
    # the NO is settled by the one probe of the seed set, in 132 pieces,
    # with no round (the round alone takes 66 probes and 4,486 pieces)
    v, s = cnf_no_anchor()
    probes = 0
    search = fixpoint._reach_uset

    def counted(*args):
        nonlocal probes
        probes += 1
        return search(*args)

    monkeypatch.setattr(fixpoint, "_reach_uset", counted)
    dec = decide_unboundedness(v, s)
    assert dec.answer is False and dec.status == "complete"
    assert (probes, dec.budget.spent) == (1, 132)


def test_cnf_yes_anchor_work_count(monkeypatch):
    # the YES takes the seed probe and the depth search, 4 pieces in all,
    # and raises none of its 1,352 bounded chains: the whole solve took
    # 1,330 pieces when the round ran for the depth
    v, s = cnf_yes_anchor()
    probes = 0
    search = fixpoint._reach_uset

    def counted(*args):
        nonlocal probes
        probes += 1
        return search(*args)

    monkeypatch.setattr(fixpoint, "_reach_uset", counted)
    dec = decide_unboundedness(v, s)
    assert dec.answer is True and dec.status == "complete"
    assert dec.reason == "reaches the unbounded core in 2 steps"
    assert (probes, dec.budget.spent, len(dec.core.resolved)) == (2, 4, 0)
    assert len(list(fixpoint.bounded_chains(dec.analysis))) == 1352


def test_a_no_from_the_seed_set_runs_no_round(monkeypatch):
    # whatever reaches the saturated set reaches the seed set, so a NO
    # needs no round; a YES raises only the chains its depth search looks
    # up, and the YES anchor's looks up none
    rounds = 0
    step = fixpoint.saturate_step

    def counted(*args):
        nonlocal rounds
        rounds += 1
        return step(*args)

    monkeypatch.setattr(fixpoint, "saturate_step", counted)
    dec = decide_unboundedness(*cnf_no_anchor())
    assert (dec.answer, dec.status, dec.core) == (False, "complete", None)
    assert rounds == 0
    dec = decide_unboundedness(*cnf_yes_anchor())
    assert dec.answer is True and dec.core.status == "complete"
    assert rounds == 0 and len(dec.core.resolved) == 0


def test_a_seed_member_or_a_stuck_source_runs_no_round(monkeypatch):
    # a source in the seed set is unbounded, since the seed set lies in U,
    # and needs no round.  A source whose counter cannot leave 0 (no
    # positive edge leaves its 0-weight closure) reaches a finite set: its
    # NO needs neither a round nor a cycle analysis, which the decision
    # then makes on first read, of the split instance
    rounds, analyses = [], []
    step, ana = fixpoint.saturate_step, fixpoint.analyze

    def counted_step(*args):
        rounds.append(args)
        return step(*args)

    def counted_analyze(*args):
        analyses.append(args)
        return ana(*args)

    monkeypatch.setattr(fixpoint, "saturate_step", counted_step)
    monkeypatch.setattr(fixpoint, "analyze", counted_analyze)
    dec = decide_unboundedness(parse_vass("state a 5\nedge a a 2\n"), 0)
    assert (dec.answer, dec.status, dec.core) == (True, "complete", None)
    assert dec.reason == "initial configuration is unbounded"
    assert (len(rounds), len(analyses)) == (0, 1)
    stuck = parse_vass("state s 3 7\nstate q\nstate r\nedge s q 0\n"
                       "edge q s 0\nedge q r -1\nedge r r 2\n")
    dec = decide_unboundedness(stuck, 0)
    assert (dec.answer, dec.status, dec.core) == (False, "complete", None)
    assert dec.reason == "reachable set is finite"
    assert (len(rounds), len(analyses)) == (0, 1)
    assert dec.analysis.vass.n_states == 4 and len(analyses) == 2
    assert dec.analysis is dec.analysis and len(analyses) == 2
    # the invalid start is refused before the stuck test, as before
    dec = decide_unboundedness(parse_vass("state s 0 4\nedge s s -1\n"), 0)
    assert (dec.answer, dec.reason) == (False,
                                        "initial configuration is invalid")
    assert (len(rounds), len(analyses)) == (0, 2)


# --- defect diagnostics ---------------------------------------------------------

def test_defect_of_prescribed_first_round_set(demo):
    u = golden_first_round_uset(demo)
    stats = defect_stats(u)
    chain = Chain(4, 0, 54, 81)
    assert stats.per_chain[chain] == 4  # {72, 75, 78, 81}
    members = [z for z in range(72, 82)
               if not u.contains(Configuration(4, z))
               and z >= 52]
    assert members == [72, 75, 78, 81]


def test_defect_empty_for_inactive_or_full_chains(demo):
    u = USet(analyze(demo))
    stats = defect_stats(u)
    # nothing of the seed sits below the s4 bounded chains' residue mates:
    # every non-trivial class has its whole bounded part missing but the
    # seed holds the tail above them, which activates the chains
    full = unbounded_core(analyze(demo))
    stats_full = defect_stats(full)
    chain = Chain(4, 0, 54, 81)
    assert stats_full.per_chain[chain] == 2  # {72, 81} stay out forever


def test_defect_bounds_on_random_suite():
    rng = random.Random(515151)
    for _ in range(60):
        v = gen_vass(rng, max_states=6, max_weight=4, max_guard=30)
        ana = analyze(v)
        u = USet(ana)
        wc = worstcase_bounds(v.n_states)
        for _round in range(50):
            stats = defect_stats(u, ana)
            for ch, size in stats.per_chain.items():
                missing = _missing_in_chain(u, ana, ch)
                assert size <= v.n_states * missing
            for (_q, _r), size in stats.per_class.items():
                assert size <= wc.defect_bound
            out = eager_round(u, _budget())
            if not out.added:
                break
            u = out.uset


def _missing_in_chain(u, ana, ch) -> int:
    period = ana.states[ch.state].selection.period
    return sum(
        1 for z in range(ch.lo, ch.hi + 1, period)
        if not u.contains(Configuration(ch.state, z))
    )


# --- decisions -------------------------------------------------------------------

def test_demo_unbounded_from_start(demo):
    dec = decide_unboundedness(demo, 0)
    assert dec.answer is True and dec.status == "complete"


def test_unboundedness_trivial_instances():
    v = parse_vass("state a\nedge a a 1\n")
    assert decide_unboundedness(v, 0).answer is True
    v2 = parse_vass("state a\n")
    assert decide_unboundedness(v2, 0).answer is False


def test_unboundedness_rejects_multi_guard_input():
    # multi-guard states are split inside the decision
    v = parse_vass("state a 1 2\nedge a a 1\n")
    dec = decide_unboundedness(v, 0)
    assert dec.answer is False and dec.status == "complete"
    assert dec.analysis.vass.n_states == 2
    skip = parse_vass("state a 1 2\nedge a a 3\n")
    assert decide_unboundedness(skip, 0).answer is True


def _maxima(dec):
    return None if dec.core is None else dec.core.per_chain_max


def test_unboundedness_on_multi_guard_input_matches_the_split():
    # asking the raw instance from `s` is asking the split instance from the
    # entry of `s`'s chain, down to the saturated set; and probing the seed
    # set first answers as saturating first did
    split = 0
    for v in multi_guard_instances(300):
        vn, entry, _ = normalize_guards_with_maps(v)
        split += vn.n_states > v.n_states
        for s in range(v.n_states):
            got = decide_unboundedness(v, s)
            want = decide_unboundedness(vn, entry[s])
            assert got.answer == want.answer, (v, s)
            assert _maxima(got) == _maxima(want), (v, s)
            ref = decide_config_reference(analyze(vn),
                                          Configuration(entry[s], 0))
            assert (got.answer, got.status, got.reason) == ref, (v, s)
    assert split > 100


def _core_distance(v, core, c):
    """Transitions on the shortest valid run from ``c`` into ``core``,
    by a plain breadth-first search over `successors`; None if it finds
    none."""
    if not v.is_valid(c):
        return None
    dist, queue = {c: 0}, deque([c])
    while queue:
        d = queue.popleft()
        if core.contains(d):
            return dist[d]
        for e in successors(v, d):
            if e not in dist:
                dist[e] = dist[d] + 1
                queue.append(e)
    return None


def test_depth_is_the_distance_to_the_core(demo):
    # every YES names the number of steps from counter 0 to the nearest
    # member of U, which an independent search must find too; and every
    # decision, depth included, is that of the frozen walk over single
    # configurations
    checked = 0
    cases = ([demo] + _memo_instances(350) + _dense_guard_instances(150)
             + _large_guard_instances(40))
    for v in cases:
        vn, entry, _ = normalize_guards_with_maps(v)
        for s in range(v.n_states):
            dec = decide_unboundedness(v, s)
            ref = decide_config_reference(analyze(vn),
                                          Configuration(entry[s], 0))
            assert (dec.answer, dec.status, dec.reason) == ref, (v, s)
            if dec.answer is not True:
                continue
            steps = re.fullmatch(r"reaches the unbounded core in (\d+) steps",
                                 dec.reason)
            assert steps or dec.reason == "initial configuration is unbounded"
            # a source in the seed set is answered with no round
            core = dec.core or unbounded_core(dec.analysis)
            want = _core_distance(v, core, Configuration(s, 0))
            assert want == (int(steps[1]) if steps else 0), (v, s)
            checked += bool(steps)
    assert checked > 40


def test_invalid_initial_configuration_is_bounded():
    v = parse_vass("state a 0\nedge a a 1\n")
    dec = decide_unboundedness(v, 0)
    assert dec.answer is False


def test_demo_coverability(demo):
    assert decide_coverability(demo, 0, 13).answer is True


def test_coverability_unreachable_target():
    v = parse_vass("state a\nstate b\nedge a a 1\n")
    assert decide_coverability(v, 0, 1).answer is False


def test_coverability_empty_run_cases():
    v = parse_vass("state a\n")
    assert decide_coverability(v, 0, 0).answer is True
    # a guard on 0 makes even the empty run invalid
    v2 = parse_vass("state a 0\n")
    assert decide_coverability(v2, 0, 0).answer is False


def test_random_fixpoint_membership_matches_oracle():
    # counters up to 60 (above=None), or up to `above - 1` past the floor
    rng = random.Random(99881)
    cases = [(gen_vass(rng, max_states=5, max_weight=4, max_guard=25), None)
             for _ in range(50)]
    # and multi-guard states as given: the two-state set (guards 1 and 2,
    # weights -2..2) in the window tests/exhaustive.py checks
    unsplit = [(v, None)
               for v in unsplit_multi_guard(multi_guard_instances(120))]
    unsplit += [(v, 12) for v in unsplit_multi_guard(two_state_instances())]
    unsplit_members = 0
    for i, (v, above) in enumerate(cases + unsplit):
        core = unbounded_core(analyze(v))
        core.per_chain_max  # force every chain, so the status covers them all
        if core.status != "complete":
            continue
        for q in sorted(core.analysis.states):
            sa = core.analysis.states[q]
            top = 61 if above is None else sa.floor + above
            for z in range(sa.floor, top):
                if z in v.guards[q]:
                    continue
                want = truly_unbounded(v, q, z)
                if want is None:
                    continue
                assert core.contains(Configuration(q, z)) == want, (v, q, z)
                unsplit_members += i >= len(cases)
    assert len(unsplit) > 1900 and unsplit_members > 10000, (len(unsplit),
                                                             unsplit_members)
