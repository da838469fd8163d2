import random
import re
from collections import deque

import pytest

from vass import (
    Configuration,
    USet,
    analyze,
    cycles,
    decide_coverability,
    decide_unboundedness,
    decompose_objectives,
    defect_stats,
    fixpoint,
    instances,
    normalize_guards,
    normalize_guards_with_maps,
    objective_contains,
    parse_vass,
    saturate_step,
    seed_uset,
    u_contains,
    unbounded_core,
    worstcase_bounds,
)
from vass.cycles import Chain
from vass.model import Violation, lift_run

from vass.reductions import cnf_to_vass

from helpers import (
    bounded_chains_reference,
    cnf_no_anchor,
    gen_vass,
    multi_guard_instances,
    small_cnf_formulas,
    truly_unbounded,
    two_state_instances,
    unbounded_core_reference,
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
    u = seed_uset(analyze(demo))
    assert u_contains(u, Configuration(4, 97))
    assert u.contains(Configuration(4, 97))
    assert not u.contains(Configuration(4, 96))     # cut off by a guard family
    assert u.contains(Configuration(4, 52))         # trivial class
    assert not u.contains(Configuration(4, 54))     # bounded chain, not seeded
    assert not u.contains(Configuration(0, 10**6))  # not pumpable at all


def test_seed_set_empty_when_nothing_pumps():
    v = parse_vass("state a\nedge a a -1\n")
    u = seed_uset(analyze(v))
    assert not u.contains(Configuration(0, 5))
    assert u.members_at(0, 50) == []


def test_seed_set_member_enumeration(demo):
    # trivial residues from the floor up, plus the climbing tails of the
    # guarded classes above their last cut-off (99 for the class cut at 90)
    u = seed_uset(analyze(demo))
    trivial = [z for z in range(52, 101) if z % 9 not in (0, 3, 6)]
    assert u.members_at(4, 100) == sorted(trivial + [99])


# --- membership after staged construction ------------------------------------

def golden_first_round_uset(demo) -> USet:
    """The set used by the worked-delta example: the seed plus prefixes up
    to 63 and 69 of the two non-singleton bounded chains at state s4."""
    u = seed_uset(analyze(demo))
    return u.with_additions({(4, 54): 63, (4, 60): 69})


def test_membership_in_prescribed_first_round_set(demo):
    u = golden_first_round_uset(demo)
    assert u.contains(Configuration(4, 54))
    assert not u.contains(Configuration(4, 72))


def test_membership_in_computed_first_round_set(demo):
    ana = analyze(demo)
    out = saturate_step(demo, ana, seed_uset(ana))
    assert out.uset.contains(Configuration(4, 54))
    assert not out.uset.contains(Configuration(4, 72))


# --- objective decomposition ---------------------------------------------------

def test_decomposition_component_shape_demo(demo):
    u = seed_uset(analyze(demo))
    objs = decompose_objectives(u, 4)
    first = objs[0]
    assert first.period == 9 and first.ell == 52
    assert first.forbidden_residues == frozenset({0, 3, 6})
    assert len(objs) <= demo.n_states + 1


def test_decomposition_matches_membership_pointwise(demo):
    ana = analyze(demo)
    for u in (seed_uset(ana), golden_first_round_uset(demo),
              unbounded_core(demo).uset):
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
        core = unbounded_core(v)
        for q in sorted(core.analysis.states):
            objs = decompose_objectives(core.uset, q)
            assert len(objs) <= v.n_states + 1
            for z in range(0, 70):
                c = Configuration(q, z)
                assert core.uset.contains(c) == any(
                    objective_contains(o, c) for o in objs)


# --- saturation ---------------------------------------------------------------

def test_demo_first_round_additions_verified_by_oracle(demo):
    """Pin the computed first round and check every claim against the
    brute-force oracle; the verified additions at state s4 are a strict
    superset of the four values the historical walkthrough lists."""
    ana = analyze(demo)
    out = saturate_step(demo, ana, seed_uset(ana))
    added = {demo.names[q]: vals for q, vals in out.added.items()}
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
    u = seed_uset(ana)
    for _ in range(3):
        out = saturate_step(demo, ana, u)
        assert set(u.per_chain_max) <= set(out.uset.per_chain_max)
        for key, m in u.per_chain_max.items():
            assert out.uset.per_chain_max[key] >= m
        for (q, lo), m in out.uset.per_chain_max.items():
            assert (m - lo) % ana.states[q].selection.period == 0
        u = out.uset


def test_demo_fixpoint_matches_oracle_everywhere(demo):
    core = unbounded_core(demo)
    assert core.status == "complete"
    for q in sorted(core.analysis.states):
        sa = core.analysis.states[q]
        for z in range(sa.floor, 131):
            if z in demo.guards[q]:
                continue
            want = truly_unbounded(demo, q, z)
            assert want is not None
            assert core.uset.contains(Configuration(q, z)) == want, (q, z)


def test_fixpoint_trace_matches_historical_walkthrough(demo):
    """The walkthrough bundled with the demo instance stages the first two
    rounds as {s4: 54,60,63,69} then {s1: 12}.  Exact forward reachability
    disagrees: (s4,93) and (s4,96) already reach the seed set in four valid
    steps (93 -> 97 -> 101 -> 98 -> 115, all off-guard, into a climbing
    class), so the first round provably contains more than the walkthrough
    says; the oracle cross-check in
    test_demo_first_round_additions_verified_by_oracle pins the truth.
    Kept as written for traceability, expected to fail."""
    core = unbounded_core(demo)
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
    core = unbounded_core(v)
    assert core.status == "complete"
    assert [r for r in core.rounds] == [{0: [5, 15, 25]}]
    assert core.uset.per_chain_max[(0, 5)] == 25
    assert not core.uset.contains(Configuration(0, 35))
    for z, want in ((5, True), (15, True), (25, True), (35, False)):
        assert truly_unbounded(v, 0, z) is want


def test_round_maximum_is_the_last_hit_of_a_prefix():
    # the elements of a bounded chain that reach the frozen U form a prefix
    # of the chain, and each round raises the chain's maximum to its last
    # element, as the explicit walk finds them
    checked = partial = 0
    for v in _memo_instances(300) + _dense_guard_instances(150):
        ana = analyze(v)
        u = seed_uset(ana)
        while True:
            out = saturate_step(v, ana, u)
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
        core = unbounded_core(v)
        if core.status != "complete":
            continue
        for ch in fixpoint.bounded_chains(core.analysis):
            w = core.analysis.states[ch.state].selection.period
            m = core.uset.per_chain_max.get((ch.state, ch.lo))
            for x in range(ch.lo if m is None else m + w, ch.hi + 1, w):
                c = Configuration(ch.state, x)
                assert _walk(v, core.uset, c) == "no", (v, ch, x)
                probed += 1
    assert probed > 1000


def test_one_round_is_the_fixpoint():
    # a second round from the set of unbounded_core adds nothing, and the
    # old loop of rounds until one adds nothing ends in the same set, with
    # the same rounds and status
    cases = [_bisection_instance()]
    cases += _memo_instances(300) + _dense_guard_instances(150)
    cases += [normalize_guards(v) for v in two_state_instances()]
    adding = 0
    for v in cases:
        core = unbounded_core(v)
        assert core.status == "complete", v
        assert not saturate_step(v, core.analysis, core.uset).added, v
        assert (core.uset.per_chain_max, core.rounds,
                core.status) == unbounded_core_reference(v), v
        adding += bool(core.rounds)
    assert len(cases) > 5000 and adding > 50, (len(cases), adding)


# --- closure memo of failed probes ---------------------------------------------

def _budget():
    return fixpoint.Budget(fixpoint.DEFAULT_NODE_CAP)


def _walk(v, u, c):
    """The answer of the explicit walk over single configurations, with no
    memo: the reference the run search is checked against."""
    return fixpoint._walk_uset(v, u, c, _budget(), fixpoint.RunSet(v.n_states))[0]


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
    """The core of ``v`` and the answer from ``(s, 0)`` for every state."""
    core = unbounded_core(v)
    answers = [fixpoint._decide_config(v, core, Configuration(s, 0)).answer
               for s in range(v.n_states)]
    return core, answers


def _memo_instances(count):
    return [normalize_guards(v) for v in multi_guard_instances(count)]


def _large_guard_instances(count):
    # guards far above the weights: long runs that lap many periods
    rng = random.Random(5000)
    return [normalize_guards(gen_vass(rng, max_weight=7, max_guard=5000,
                                      multi_guards=True))
            for _ in range(count)]


def _dense_guard_instances(count):
    # guards among small counters: runs are split at guards on the way
    rng = random.Random(2020)
    return [normalize_guards(gen_vass(rng, max_weight=3, max_guard=20,
                                      guard_prob=0.8, multi_guards=True))
            for _ in range(count)]


def test_bounded_chains_walk_in_the_reference_order():
    # one walk over the cut-offs yields the bounded chains of chains_of, in
    # the order the saturation rounds probe them
    cases = _memo_instances(350) + _dense_guard_instances(150)
    cases += [normalize_guards(cnf_to_vass(f)[0]) for f in small_cnf_formulas()]
    matched = 0
    for v in cases:
        ana = analyze(v)
        chains = list(fixpoint.bounded_chains(ana))
        assert chains == list(bounded_chains_reference(ana)), v
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
    monkeypatch.setattr(fixpoint, "chains_of", refuse)
    monkeypatch.setattr(fixpoint, "Chain", refuse)
    monkeypatch.setattr(cycles, "blocked_omega", refuse)
    monkeypatch.setattr(cycles, "BlockedSet", refuse)
    for v in cases:
        unbounded_core(v)
    for v in multi:
        decide_unboundedness(v, 0)
        decide_coverability(v, 0, v.n_states - 1)
    assert len(cases) > 5 and walked > 1000, (len(cases), walked)


def test_dead_set_changes_no_result(monkeypatch):
    # the memo only skips configurations already proved to miss U, so every
    # result must equal that of a search that ignores it
    memo_free = fixpoint._reach_uset

    def reference(v, u, start, budget, dead):
        return memo_free(v, u, start, budget, fixpoint.RunSet(v.n_states))

    cases = _memo_instances(350)
    with monkeypatch.context() as m:
        m.setattr(fixpoint, "_reach_uset", reference)
        want = [_solve(v) for v in cases]
    with_rounds = 0
    for v, (ref, ref_answers) in zip(cases, want):
        core, answers = _solve(v)
        assert core.uset.per_chain_max == ref.uset.per_chain_max, v
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
        core = unbounded_core(v)
        if core.status != "complete":
            continue
        for c in core.dead.configurations():
            assert _walk(v, core.uset, c) == "no", (v, c)
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
            assert set(runs.configurations()) == members
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
            pair.append((runs, bucketed))
        for _ in range(20):
            q, lo, hi, step = draw()
            if lo == hi:
                continue
            # the maximal sub-runs whose elements no own bucket holds
            want, start = [], None
            for z in range(lo, hi + step + 1, step):
                missed = z <= hi and all((q, step, z) not in bucketed
                                         for _, bucketed in pair)
                if missed and start is None:
                    start = z
                elif not missed and start is not None:
                    want.append((start, z - step))
                    start = None
            sets = tuple(runs for runs, _ in pair)
            assert fixpoint._uncovered(sets, q, lo, hi, step) == want


def test_run_search_matches_the_explicit_walk():
    # from every bounded-chain element and every low configuration, against
    # the seed set and the final set, the run search answers as the walk
    # over single configurations
    probed = long_runs = 0
    cases = (_memo_instances(150) + _large_guard_instances(40)
             + _dense_guard_instances(150))
    for v in cases:
        core = unbounded_core(v)
        if core.status != "complete":
            continue
        for u in (seed_uset(core.analysis), core.uset):
            walk = _memo_walk(v, u)
            starts = [(Configuration(q, z), False)
                      for q in range(v.n_states) for z in range(30)]
            for ch in fixpoint.bounded_chains(core.analysis):
                w = core.analysis.states[ch.state].selection.period
                starts += [(Configuration(ch.state, x), ch.hi - ch.lo > 100 * w)
                           for x in range(ch.lo, ch.hi + 1, w)]
            for c, long in starts:
                got = fixpoint._reach_uset(v, u, c, _budget(),
                                           fixpoint.RunSet(v.n_states))
                assert got[0] == walk(c), (v, c)
                probed += 1
                long_runs += long
    assert probed > 5000 and long_runs > 1000


def test_one_budget_bounds_the_whole_solve(monkeypatch):
    # every probe draws from one budget per solve, so a spent budget ends
    # the solve with UNKNOWN instead of granting each probe a fresh cap
    monkeypatch.setattr(fixpoint, "DEFAULT_NODE_CAP", 2000)
    dec = decide_unboundedness(*cnf_no_anchor())
    assert dec.answer is None and dec.status == "incomplete"
    assert dec.core.status == "incomplete"
    assert dec.core.budget.spent <= 2000


def test_probe_work_does_not_grow_with_the_guard(monkeypatch):
    # laps cross a whole chain in one step and the lowest missing element
    # settles the chain: the guard value changes neither the number of
    # probes nor the number of pieces they admit
    probes = 0
    search = fixpoint._reach_uset

    def counted(*args):
        nonlocal probes
        probes += 1
        return search(*args)

    monkeypatch.setattr(fixpoint, "_reach_uset", counted)
    for make, want in ((instances.up, (2, 1)), (instances.updown, (2, 2))):
        for g in (10**3, 10**7):
            probes = 0
            dec = decide_unboundedness(make(g), 0)
            assert dec.answer is False and dec.status == "complete"
            assert (probes, dec.core.budget.spent) == want, (make, g)


def test_cnf_anchor_work_count(monkeypatch):
    # 67 probes admit 4,488 pieces; without the dead run set every probe
    # re-searches the same closures (200,658 pieces), and without the skip
    # of dead candidates 4,487 probes are made
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
    assert dec.core.budget.spent < 10_000, dec.core.budget.spent
    assert probes < 300, probes


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
    u = seed_uset(analyze(demo))
    stats = defect_stats(u)
    # nothing of the seed sits below the s4 bounded chains' residue mates:
    # every non-trivial class has its whole bounded part missing but the
    # seed holds the tail above them, which activates the chains
    full = unbounded_core(demo).uset
    stats_full = defect_stats(full)
    chain = Chain(4, 0, 54, 81)
    assert stats_full.per_chain[chain] == 2  # {72, 81} stay out forever


def test_defect_bounds_on_random_suite():
    rng = random.Random(515151)
    for _ in range(60):
        v = gen_vass(rng, max_states=6, max_weight=4, max_guard=30)
        ana = analyze(v)
        u = seed_uset(ana)
        wc = worstcase_bounds(v.n_states)
        for _round in range(50):
            stats = defect_stats(u, ana)
            for ch, size in stats.per_chain.items():
                missing = _missing_in_chain(u, ana, ch)
                assert size <= v.n_states * missing
            for (_q, _r), size in stats.per_class.items():
                assert size <= wc.defect_bound
            out = saturate_step(v, ana, u)
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
    # multi-guard states are split inside the decision; only a witness, which
    # is a path of the split instance, needs single-guard input
    v = parse_vass("state a 1 2\nedge a a 1\n")
    dec = decide_unboundedness(v, 0)
    assert dec.answer is False and dec.status == "complete"
    assert dec.core.analysis.vass.n_states == 2
    skip = parse_vass("state a 1 2\nedge a a 3\n")
    assert decide_unboundedness(skip, 0).answer is True
    with pytest.raises(ValueError):
        decide_unboundedness(v, 0, want_witness=True)


def test_unboundedness_on_multi_guard_input_matches_the_split():
    # asking the raw instance from `s` is asking the split instance from the
    # entry of `s`'s chain, down to the saturated set
    split = 0
    for v in multi_guard_instances(300):
        vn, entry, _ = normalize_guards_with_maps(v)
        split += vn.n_states > v.n_states
        for s in range(v.n_states):
            got = decide_unboundedness(v, s)
            want = decide_unboundedness(vn, entry[s])
            assert got.answer == want.answer, (v, s)
            assert got.core.uset.per_chain_max == want.core.uset.per_chain_max
    assert split > 100


def test_unbounded_witness_revalidates(demo):
    dec = decide_unboundedness(demo, 0, want_witness=True)
    assert dec.witness is not None
    run = lift_run(demo, dec.witness, 0)
    assert not isinstance(run, Violation)
    assert unbounded_core(demo).uset.contains(run[-1])
    # every YES of the shared set carries a run from counter 0 that first
    # enters U after exactly the number of steps its reason names
    checked = 0
    for v in _memo_instances(350):
        core = unbounded_core(v)
        for s in range(v.n_states):
            dec = fixpoint._decide_config(v, core, Configuration(s, 0),
                                          want_witness=True)
            if dec.answer is not True:
                continue
            steps = re.fullmatch(r"reaches the unbounded core in (\d+) steps",
                                 dec.reason)
            assert steps or dec.reason == "initial configuration is unbounded"
            assert dec.witness.start == s
            assert len(dec.witness) == (int(steps[1]) if steps else 0), (v, s)
            run = lift_run(v, dec.witness, 0)
            assert not isinstance(run, Violation), (v, s)
            assert core.uset.contains(run[-1])
            assert not any(core.uset.contains(c) for c in run[:-1]), (v, s)
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
    rng = random.Random(99881)
    for _ in range(50):
        v = gen_vass(rng, max_states=5, max_weight=4, max_guard=25)
        core = unbounded_core(v)
        if core.status != "complete":
            continue
        for q in sorted(core.analysis.states):
            sa = core.analysis.states[q]
            for z in range(sa.floor, 61):
                if z in v.guards[q]:
                    continue
                want = truly_unbounded(v, q, z)
                if want is None:
                    continue
                assert core.uset.contains(Configuration(q, z)) == want
