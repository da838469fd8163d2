"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 3 pins a staged walkthrough of the demo instance that exact
reachability provably exceeds (two chain tops escape to the seed set in four
valid steps); it is kept faithful to its stated values and marked as an
expected failure, with the oracle-verified trace asserted alongside in
criterion 3b.
"""

import math
import random
import time

import pytest

from vass import (
    Configuration,
    Path,
    USet,
    analyze,
    blocked_omega,
    blocked_set,
    build_families,
    cnf_satisfied,
    cnf_to_vass,
    decide_bounded_cover,
    decide_coverability,
    decide_unbounded_lasso,
    decide_unboundedness,
    dominates,
    random_cnf,
    select_cycles,
    unbounded_core,
    val_u,
    with_start_counter,
)
from vass.cycles import Chain
from vass.fixpoint import DEFAULT_NODE_CAP, Budget
from vass.oracle import oracle_bounded_cover, oracle_cover, oracle_unbounded
from vass.pareto import ParetoElem

from helpers import (
    defect_stats,
    eager_round,
    enumerate_paths,
    gen_guard_free,
    gen_vass,
    summarize_path,
    worstcase_bounds,
)


def report(number: str, name: str, ok: bool, note: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{note}]" if note else ""
    print(f"ACCEPTANCE {number:>3} {status}  {name}{suffix}")
    return ok


def test_criterion_01_blocked_sets(demo):
    t0 = time.perf_counter()
    path = blocked_set(demo, Path(4, (5, 6)))
    omega = blocked_omega(demo, select_cycles(demo)[4])
    ok_path = path.members_upto(400) == set(range(52)) | {90, 93, 96}
    ok_omega = omega.members_upto(400) == set(range(52)) | {
        z for z in range(52, 97) if z % 9 in (0, 3, 6)}
    elapsed = time.perf_counter() - t0
    ok = ok_path and ok_omega and elapsed < 1.0
    assert report("1", "demo blocked sets, exact", ok,
                  f"{elapsed*1000:.0f} ms")


def test_criterion_02_cycle_data(demo):
    sels = select_cycles(demo)
    ana = analyze(demo)
    floor_ok = {z for z in range(200)
                if ana.states[1].floor <= z} == set(range(12, 200))
    ok = (sels[1].period == 6 and sels[1].pmin == -12
          and sels[4].period == 9 and floor_ok)
    assert report("2", "demo cycle selection and admitted floors", ok)


@pytest.mark.xfail(
    reason="the staged walkthrough under-approximates exact reachability on "
           "the demo: two chain tops escape to the seed set in four valid "
           "steps (93->97->101->98->115 and 96->100->104->101->118), so the "
           "first round provably adds more than the pinned values; see "
           "criterion 3b for the oracle-verified trace",
    strict=True,
)
def test_criterion_03_fixpoint_trace(demo):
    t0 = time.perf_counter()
    core = unbounded_core(analyze(demo))
    core.per_chain_max  # force the whole round inside the timed span
    elapsed = time.perf_counter() - t0
    rounds = [{demo.names[q]: vals for q, vals in r.items()}
              for r in core.rounds]
    ok = (elapsed < 5.0
          and rounds[:1] == [{"s4": [54, 60, 63, 69]}]
          and rounds[1:] == [{"s1": [12]}])
    report("3", "demo staged trace as pinned", ok,
           "documented deviation, expected failure")
    assert ok


def test_criterion_03b_fixpoint_trace_verified(demo):
    """Companion to criterion 3: the computed trace, every element verified
    against the brute-force oracle (and the pinned values are a subset)."""
    t0 = time.perf_counter()
    core = unbounded_core(analyze(demo))
    core.per_chain_max  # force the whole round inside the timed span
    elapsed = time.perf_counter() - t0
    rounds = [{demo.names[q]: vals for q, vals in r.items()}
              for r in core.rounds]
    ok = elapsed < 5.0 and core.status == "complete"
    ok = ok and set(rounds[0].get("s4", ())) >= {54, 60, 63, 69}
    ok = ok and Configuration(1, 12) not in () and core.contains(
        Configuration(1, 12))
    for q in sorted(core.analysis.states):
        sa = core.analysis.states[q]
        for z in range(sa.floor, 131):
            if z in demo.guards[q]:
                continue
            w, w0 = with_start_counter(demo, z, q)
            verdict = oracle_unbounded(w, w0, counter_cap=500)
            ok = ok and verdict.definite
            ok = ok and core.contains(Configuration(q, z)) == (
                verdict.answer == "yes")
    assert report("3b", "demo trace verified against the oracle", ok,
                  f"{elapsed:.2f} s")


def test_criterion_04_defect_of_prescribed_set(demo):
    u = USet(analyze(demo), {(4, 54): 63, (4, 60): 69})
    stats = defect_stats(u)
    got = stats.per_chain.get(Chain(4, 0, 54, 81))
    members = [z for z in range(72, 82)
               if not u.contains(Configuration(4, z))]
    ok = got == 4 and members == [72, 75, 78, 81]
    assert report("4", "defect of the prescribed first-round set", ok)


def _guarded_suite(count: int):
    rng = random.Random(52_2025)
    return [gen_vass(rng, max_states=6, max_weight=5, max_guard=49)
            for _ in range(count)]


def test_criterion_05_guarded_differential():
    t0 = time.perf_counter()
    suite = _guarded_suite(500)
    definite = 0
    total_verdicts = 0
    mismatches = []
    for i, v in enumerate(suite):
        t = v.target if v.target is not None else 0
        unb_o = oracle_unbounded(v, 0)
        cov_o = oracle_cover(v, 0, t)
        total_verdicts += 2
        if unb_o.definite:
            definite += 1
            dec = decide_unboundedness(v, 0)
            if dec.answer != (unb_o.answer == "yes"):
                mismatches.append(("unbounded", i))
        if cov_o.definite:
            definite += 1
            dec = decide_coverability(v, 0, t)
            if dec.answer != (cov_o.answer == "yes"):
                mismatches.append(("cover", i))
    elapsed = time.perf_counter() - t0
    rate = definite / total_verdicts
    ok = not mismatches and rate >= 0.90 and elapsed < 300
    assert report("5", "guarded differential, 500 instances", ok,
                  f"definite {rate:.1%}, {elapsed:.1f} s, "
                  f"{len(mismatches)} mismatches")


def test_criterion_06_guard_free_differential():
    t0 = time.perf_counter()
    rng = random.Random(61_2025)
    mismatches = 0
    checked = 0
    for _ in range(500):
        v = gen_guard_free(rng, max_states=6, max_weight=5)
        verdict = oracle_unbounded(v, 0)
        if not verdict.definite:
            continue
        checked += 1
        if decide_unbounded_lasso(v, 0).answer != (verdict.answer == "yes"):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and checked >= 450 and elapsed < 120
    assert report("6", "guard-free lasso differential, 500 instances", ok,
                  f"{checked} definite, {elapsed:.1f} s")


def test_criterion_07_bounded_cover_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(71_2025)
    bad = 0
    for _ in range(300):
        v = gen_vass(rng, max_states=6, max_weight=5, max_guard=40)
        period = rng.randint(1, 9)
        m = rng.randint(0, min(period - 1, 3))
        residues = frozenset(rng.sample(range(period), m))
        n = rng.randint(0, 3)
        values = frozenset(rng.sample(range(40), n))
        from vass import DiseqObjective

        o = DiseqObjective(rng.randrange(v.n_states), rng.randint(0, 30),
                           period, residues, values)
        init = Configuration(rng.randrange(v.n_states), rng.randint(0, 20))
        steps = rng.randint(0, 12)
        res = decide_bounded_cover(v, init, o, steps)
        if res.reachable != oracle_bounded_cover(v, init, o, steps):
            bad += 1
        if res.max_layer > (len(values) + steps) * (len(residues) + 1):
            bad += 1
    elapsed = time.perf_counter() - t0
    assert report("7", "bounded-cover search vs exhaustive, 300 triples",
                  bad == 0, f"{elapsed:.1f} s")


def test_criterion_08_pareto_laws():
    t0 = time.perf_counter()
    rng = random.Random(81_2025)
    bad = 0
    for _ in range(100):
        v = gen_guard_free(rng, max_states=7, max_weight=5)
        fam = build_families(v)
        if any(len(cell) > v.n_states for cell in fam.cells.values()):
            bad += 1
            continue
        for src in range(v.n_states):
            for path in enumerate_paths(v, src, v.n_states):
                s = summarize_path(v, path)
                dst = v.path_states(path)[-1]
                e = ParetoElem(src, dst, s.pmin, s.smax, s.weight, path)
                if not any(dominates(f, e) for f in fam.cell(src, dst)):
                    bad += 1
    elapsed = time.perf_counter() - t0
    assert report("8", "pareto family laws, 100 graphs", bad == 0,
                  f"{elapsed:.1f} s")


def test_criterion_09_cnf_reduction():
    t0 = time.perf_counter()
    rng = random.Random(91_2025)
    bad = 0
    for k in range(50):
        f = random_cnf(3, rng.randint(1, 3), rng.randint(0, 10**9))
        v, meta = cnf_to_vass(f)
        for u in range(meta.product):
            w, w0 = with_start_counter(v, u)
            verdict = oracle_unbounded(w, w0, counter_cap=4 * meta.product)
            if not verdict.definite:
                bad += 1
                continue
            bounded = verdict.answer == "no"
            if bounded != cnf_satisfied(f, val_u(u, meta.primes)):
                bad += 1
    elapsed = time.perf_counter() - t0
    assert report("9", "formula generator: bounded iff satisfied, 50 formulas",
                  bad == 0 and elapsed < 120, f"{elapsed:.1f} s")


def test_criterion_10_structural_invariants():
    t0 = time.perf_counter()
    rng = random.Random(10_2025)
    bad = 0
    for _ in range(120):
        v = gen_vass(rng, max_states=6, max_weight=5, max_guard=49)
        ana = analyze(v)
        wc = worstcase_bounds(v.n_states)
        u = USet(ana)
        for _round in range(60):
            # prefix-closedness: each stored maximum aligns with its chain
            for (q, lo), m in u.per_chain_max.items():
                period = ana.states[q].selection.period
                if (m - lo) % period != 0 or m < lo:
                    bad += 1
            stats = defect_stats(u, ana)
            for ch, size in stats.per_chain.items():
                period = ana.states[ch.state].selection.period
                missing = sum(
                    1 for z in range(ch.lo, ch.hi + 1, period)
                    if not u.contains(Configuration(ch.state, z)))
                if size > v.n_states * missing:
                    bad += 1
            out = eager_round(u, Budget(DEFAULT_NODE_CAP))
            if out.uset.per_chain_max == u.per_chain_max:
                u = out.uset
                break
            u = out.uset
        for (_q, _r), size in defect_stats(u, ana).per_class.items():
            if size > wc.defect_bound:
                bad += 1
    elapsed = time.perf_counter() - t0
    assert report("10", "structural invariants along saturation", bad == 0,
                  f"{elapsed:.1f} s")


def test_runtime_growth_sanity():
    """Fixpoint runtime grows polynomially in the state count at fixed
    magnitude: the log-log slope over |Q| in {4..24} stays below 8."""
    rng = random.Random(2024)
    sizes = [4, 8, 12, 16, 20, 24]
    medians = []
    for n in sizes:
        times = []
        for _ in range(5):
            v = gen_vass(rng, max_states=n, max_weight=8, max_guard=50,
                         guard_prob=0.5, edge_factor=2.0)
            while v.n_states < n:
                v = gen_vass(rng, max_states=n, max_weight=8, max_guard=50,
                             guard_prob=0.5, edge_factor=2.0)
            t0 = time.perf_counter()
            unbounded_core(analyze(v)).per_chain_max  # the whole round
            times.append(time.perf_counter() - t0)
        times.sort()
        medians.append(max(times[len(times) // 2], 1e-5))
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in medians]
    n = len(xs)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / \
        sum((x - mean_x) ** 2 for x in xs)
    assert report("11", "fixpoint runtime growth (fit exponent < 8)",
                  slope < 8, f"slope {slope:.2f}")
