import random

import pytest

from vass import (
    Cnf3,
    cnf_satisfied,
    cnf_to_vass,
    decide_unboundedness,
    first_primes,
    normalize_guards,
    parse_dimacs,
    parse_vass,
    random_cnf,
    reduce_cov_to_unbound,
    val_u,
    with_start_counter,
)
from vass.oracle import oracle_cover, oracle_unbounded

from helpers import gen_vass


# --- coverability-to-unboundedness reduction --------------------------------

def test_demo_reduction_structure(demo):
    out, s1 = reduce_cov_to_unbound(demo, 0, 13)
    # every demo state reaches s13, so nothing is pruned and one pump state
    # is appended
    assert out.n_states == 15
    assert out.names[s1] == "s0"
    pump = out.n_states - 1
    assert out.guards[pump] == frozenset()
    loops = [t for t in out.transitions if t.src == pump and t.dst == pump]
    assert [t.weight for t in loops] == [1]
    feeds = [t for t in out.transitions
             if t.dst == pump and t.src == out.index("s13")]
    assert [t.weight for t in feeds] == [0]


def test_reduction_prunes_states_missing_the_target():
    v = parse_vass("state a\nstate b\nstate c\n"
                   "edge a b 1\nedge a c 1\nedge c c 5\n")
    out, s1 = reduce_cov_to_unbound(v, 0, 1)
    assert set(out.names) == {"a", "b", "b'"}


def test_reduction_unreachable_target_is_canonical():
    v = parse_vass("state a\nstate b\nedge b b 1\n")
    out, s1 = reduce_cov_to_unbound(v, 0, 1)
    assert out.n_states == 1 and out.transitions == () and s1 == 0


def test_reduction_keeps_guard_free_pump_state():
    v = parse_vass("state a 0\nstate b 0\nedge a b 1\n")
    out, s1 = reduce_cov_to_unbound(v, 0, 1)
    pump = out.n_states - 1
    assert out.guards[pump] == frozenset()


def test_reduction_correctness_differential():
    rng = random.Random(808080)
    for _ in range(150):
        v = gen_vass(rng, max_states=5, max_weight=4, max_guard=20)
        t = rng.randrange(v.n_states)
        cover = oracle_cover(v, 0, t, counter_cap=250)
        reduced, s1 = reduce_cov_to_unbound(v, 0, t)
        unb = oracle_unbounded(reduced, s1, counter_cap=250)
        if cover.definite and unb.definite:
            assert cover.answer == unb.answer


# --- primes and assignments ----------------------------------------------------

def test_first_primes_small():
    assert first_primes(3) == [2, 3, 5]
    assert first_primes(5) == [2, 3, 5, 7, 11]


def test_first_primes_upper_limit():
    ps = first_primes(15)
    assert ps[-1] == 47
    product = 1
    for p in ps:
        product *= p
    assert product == 614889782588491410


def test_first_primes_range_checked():
    with pytest.raises(ValueError):
        first_primes(0)
    with pytest.raises(ValueError):
        first_primes(16)


def test_val_u_edge_cases():
    primes = (2, 3, 5)
    assert val_u(0, primes) == (True, True, True)
    assert val_u(1, primes) == (False, False, False)
    assert val_u(6, primes) == (True, True, False)


def test_divisibility_stable_under_clause_period():
    rng = random.Random(7)
    primes = first_primes(5)
    for _ in range(300):
        i, j, k = rng.sample(range(5), 3)
        step = primes[i] * primes[j] * primes[k]
        u = rng.randint(0, 10_000)
        m = rng.randint(0, 20)
        for idx in (i, j, k):
            assert (u % primes[idx] == 0) == ((u + m * step) % primes[idx] == 0)


# --- the formula generator --------------------------------------------------------

def one_clause_formula() -> Cnf3:
    return Cnf3(3, (((1, True), (2, True), (3, True)),))


def test_single_clause_instance_guards():
    v, meta = cnf_to_vass(one_clause_formula())
    assert meta.primes == (2, 3, 5) and meta.product == 30
    assert meta.clause_weights == (30,)
    assert meta.guard_windows == ((30, 60),)
    expected = set(range(30, 60)) - {31, 37, 41, 43, 47, 49, 53, 59}
    assert v.guards[1] == expected
    assert v.n_states == 2


def test_clause_with_repeated_variable_rejected():
    with pytest.raises(ValueError):
        Cnf3(3, (((1, True), (1, False), (2, True)),))


def test_single_clause_boundedness_by_start_value():
    v, meta = cnf_to_vass(one_clause_formula())
    # all-false start falsifies the clause: pumping never dies
    w, w0 = with_start_counter(v, 1)
    assert oracle_unbounded(w, w0, counter_cap=400).answer == "yes"
    # all-true start satisfies it: the loop runs into a guard
    w, w0 = with_start_counter(v, 0)
    assert oracle_unbounded(w, w0, counter_cap=400).answer == "no"


def test_generated_instances_encode_satisfaction():
    rng = random.Random(991199)
    for _ in range(12):
        f = random_cnf(3, rng.randint(1, 3), rng.randint(0, 10**6))
        v, meta = cnf_to_vass(f)
        for u in range(meta.product):
            w, w0 = with_start_counter(v, u)
            verdict = oracle_unbounded(w, w0, counter_cap=4 * meta.product)
            assert verdict.definite
            bounded = verdict.answer == "no"
            assert bounded == cnf_satisfied(f, val_u(u, meta.primes))


def test_generated_instance_through_the_fixpoint_solver():
    f = random_cnf(3, 2, 20240808)
    v, meta = cnf_to_vass(f)
    for u in (0, 7, 13, 29):
        w, w0 = with_start_counter(v, u)
        wn = normalize_guards(w)
        dec = decide_unboundedness(wn, wn.index(w.names[w0]))
        assert dec.answer is not None
        assert dec.answer != cnf_satisfied(f, val_u(u, meta.primes))


# --- DIMACS ------------------------------------------------------------------------

def test_parse_dimacs_roundtrip():
    text = "c example\np cnf 4 2\n1 -2 3 0\n-1 2 4 0\n"
    f = parse_dimacs(text)
    assert f.num_vars == 4
    assert f.clauses == (
        ((1, True), (2, False), (3, True)),
        ((1, False), (2, True), (4, True)),
    )


def test_parse_dimacs_rejects_wide_clauses():
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n1 -2 0\n")


@pytest.mark.parametrize("text, token", [
    ("p cnf 30 1\n3_0 1 2 0\n", "3_0"),
    ("p cnf \uff13 1\n1 2 3 0\n", "\uff13"),
    ("p cnf 3 0x1\n1 2 3 0\n", "0x1"),
    ("p cnf 3 1\n1 \u0662 3 0\n", "\u0662"),
], ids=["underscore-literal", "wide-digit-header", "hex-count", "arabic-indic-literal"])
def test_parse_dimacs_reads_ascii_integers_only(text, token):
    with pytest.raises(ValueError, match=f"bad DIMACS integer '{token}'"):
        parse_dimacs(text)


@pytest.mark.parametrize("text, clauses", [
    ("p cnf 3 1\n1 2 3 00\n", [(1, 2, 3)]),
    ("p cnf 3 1\n1 2 3 -0\n", [(1, 2, 3)]),
    ("p cnf 3 1\n1 2 3\n", [(1, 2, 3)]),
    ("p cnf 3 2\n1 2 3 0 -1 -2 -3 0\n", [(1, 2, 3), (-1, -2, -3)]),
], ids=["double-zero", "negative-zero", "line-end", "two-per-line"])
def test_parse_dimacs_ends_a_clause_at_every_zero(text, clauses):
    want = tuple(tuple((abs(l), l > 0) for l in c) for c in clauses)
    assert parse_dimacs(text).clauses == want


@pytest.mark.parametrize("sep", ["\u2028", "\x85", "\x0c"],
                         ids=["ls", "nel", "ff"])
def test_parse_dimacs_keeps_a_comment_to_its_newline(sep):
    # str.splitlines would read the clause after ``sep`` as input
    f = parse_dimacs(f"p cnf 3 1\nc dropped clause:{sep}1 2 3 0\n-1 -2 -3 0\n")
    assert f.clauses == (((1, False), (2, False), (3, False)),)


@pytest.mark.parametrize("text, message", [
    ("p cnf 3 5\n1 2 4 0\n", "variable 4 exceeds the header 'p cnf 3 5'"),
    ("p cnf 3 2\n1 2 -4 0\n-1 2 3 0\n",
     "variable 4 exceeds the header 'p cnf 3 2'"),
    ("p cnf 4 5\n1 2 4 0\n",
     "the header 'p cnf 4 5' declares 5 clauses, the file has 1"),
    ("p cnf 3 0\n1 2 3 0\n",
     "the header 'p cnf 3 0' declares 0 clauses, the file has 1"),
    ("p cnf 3 2\n", "the header 'p cnf 3 2' declares 2 clauses, the file has 0"),
    ("p cnf -3 0\n", "negative count in the header 'p cnf -3 0'"),
], ids=["variable-above", "negated-variable-above", "too-few-clauses",
        "too-many-clauses", "no-clauses", "negative-count"])
def test_parse_dimacs_holds_a_file_to_its_header(text, message):
    with pytest.raises(ValueError, match=message):
        parse_dimacs(text)


@pytest.mark.parametrize("text, num_vars", [
    ("p cnf 5 1\n1 2 3 0\n", 5),  # unused variables are declared ones
    ("1 2 4 0\n-1 2 3 0\n", 4),   # no header: up to the largest literal
], ids=["header", "no-header"])
def test_parse_dimacs_variable_count(text, num_vars):
    assert parse_dimacs(text).num_vars == num_vars


@pytest.mark.parametrize("text, lits", [
    ("p cnf 3 1\n1 2 -0 0\n", "1 2"),
    ("p cnf 3 1\n1 0 2 3\n", "1"),
    ("p cnf 4 1\n1 2 3 4 0\n", "1 2 3 4"),
], ids=["negative-zero-ends-early", "zero-mid-line", "four-literals"])
def test_parse_dimacs_refuses_clauses_not_of_three_literals(text, lits):
    with pytest.raises(ValueError, match=f"clause '{lits}'"):
        parse_dimacs(text)
