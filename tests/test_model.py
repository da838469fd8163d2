import random

import pytest
from hypothesis import given, strategies as st

from vass import (
    Configuration,
    ModelError,
    ParseError,
    Path,
    Transition,
    Vass,
    Violation,
    blocked_set,
    lift_run,
    normalize_guards,
    parse_vass,
    serialize_vass,
    successors,
    summarize_path,
)
from vass.oracle import oracle_unbounded

from helpers import gen_vass, random_path


# --- parsing and serialization -------------------------------------------

def test_parse_demo_document(demo):
    text = serialize_vass(demo)
    v = parse_vass(text)
    assert v.n_states == 14
    assert len(v.transitions) == 16
    assert sum(1 for g in v.guards if g) == 12
    assert v.names[v.initial] == "s0"
    assert v.names[v.target] == "s13"


def test_parse_minimal_instance():
    v = parse_vass("state lonely\n")
    assert v.n_states == 1
    assert v.transitions == ()


def test_parse_comments_and_blank_lines():
    v = parse_vass("# header\n\nstate a 3 7  # two guards\nstate b\nedge a b -4\n")
    assert v.guards[0] == frozenset({3, 7})
    assert v.transitions == (Transition(0, 1, -4),)


def test_parse_undeclared_state_names_line():
    with pytest.raises(ParseError) as exc:
        parse_vass("state a\nedge a ghost 1\n")
    assert "ghost" in str(exc.value)
    assert exc.value.line == 2


def test_parse_negative_guard_rejected():
    with pytest.raises(ParseError) as exc:
        parse_vass("state a -3\n")
    assert exc.value.line == 1


@pytest.mark.parametrize("text, message", [
    ("state a 1_0\n", "bad guard value"),
    ("state a \u0663\n", "bad guard value"),
    ("state a\nstate b\nedge a b 1_0\n", "bad weight"),
    ("state a\nstate b\nedge a b -\uff11\n", "bad weight"),
], ids=["guard-underscore", "guard-arabic-indic", "weight-underscore",
        "weight-fullwidth"])
def test_parse_reads_only_ascii_integers(text, message):
    # ``int`` alone reads ``1_0`` as 10 and non-ASCII digits as numbers
    with pytest.raises(ParseError) as exc:
        parse_vass(text)
    assert message in str(exc.value)
    assert exc.value.line == text.count("\n")
    v = parse_vass("state a +3 007\nstate b\nedge a b +2\nedge b a -05\n")
    assert v.guards[0] == frozenset({3, 7})
    assert [t.weight for t in v.transitions] == [2, -5]


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c",
                                 "\x1c", "\x1d", "\x1e"],
                         ids=["ls", "ps", "nel", "vt", "ff", "fs", "gs", "rs"])
def test_parse_ends_lines_only_at_newlines(sep):
    # str.splitlines would end the comment at ``sep`` and report the bad
    # weight one line late
    with pytest.raises(ParseError) as exc:
        parse_vass(f"state a\n# caf{sep}\nedge a a x\n")
    assert exc.value.line == 3
    # text after ``sep`` stays in its comment
    v = parse_vass(f"state a\nstate b\n# old edge:{sep}edge a b 1\ninit a\n")
    assert v.transitions == ()
    # \r\n and a lone \r end a line
    assert parse_vass("state a\r\nstate b\redge a b 1").transitions == (
        Transition(0, 1, 1),)


def test_parse_separates_tokens_at_unicode_whitespace():
    # str.split: a no-break space separates the name from the guard
    assert parse_vass("state a\u00a05\n").guards == (frozenset({5}),)


def test_parse_duplicate_state_rejected():
    with pytest.raises(ParseError):
        parse_vass("state a\nstate a\n")


def test_parse_double_init_rejected():
    with pytest.raises(ParseError):
        parse_vass("state a\ninit a\ninit a\n")


def test_serialize_preserves_parallel_edges():
    v = Vass(("a", "b"), (frozenset(), frozenset()),
             (Transition(0, 1, 2), Transition(0, 1, 2)))
    back = parse_vass(serialize_vass(v))
    assert len(back.transitions) == 2


@st.composite
def vass_strategy(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    return gen_vass(random.Random(seed), multi_guards=True)


@given(vass_strategy())
def test_parse_serialize_roundtrip(v):
    back = parse_vass(serialize_vass(v))
    assert back.names == v.names
    assert back.guards == v.guards
    assert sorted(back.transitions, key=lambda t: (t.src, t.dst, t.weight)) == \
        sorted(v.transitions, key=lambda t: (t.src, t.dst, t.weight))
    assert back.initial == v.initial and back.target == v.target


# --- model validation ------------------------------------------------------

def test_bad_state_name_rejected():
    with pytest.raises(ModelError):
        Vass(("a b",), (frozenset(),), ())
    with pytest.raises(ModelError):
        Vass(("a#1",), (frozenset(),), ())


def test_dangling_transition_rejected():
    with pytest.raises(ModelError):
        Vass(("a",), (frozenset(),), (Transition(0, 3, 1),))


def test_out_of_range_weight_rejected():
    with pytest.raises(ModelError):
        Vass(("a",), (frozenset(),), (Transition(0, 0, 2**63),))


# --- guard normalization ----------------------------------------------------

def test_normalize_splits_multi_guard_state():
    v = parse_vass("state q 3 7\nstate r\nedge r q 1\nedge q r 2\ninit r\n")
    vn = normalize_guards(v)
    assert vn.n_states == 3
    i1, i2 = vn.index("q.1"), vn.index("q.2")
    assert vn.guards[i1] == frozenset({3}) and vn.guards[i2] == frozenset({7})
    assert Transition(i1, i2, 0) in vn.transitions
    # incoming edges enter the first link, outgoing leave the last
    assert Transition(vn.index("r"), i1, 1) in vn.transitions
    assert Transition(i2, vn.index("r"), 2) in vn.transitions


def test_normalize_single_guard_identity(demo):
    assert normalize_guards(demo) is demo


def test_normalize_duplicate_guard_values_collapse():
    v = parse_vass("state q 5 5\n")
    vn = normalize_guards(v)
    assert vn.n_states == 1 and vn.guards[0] == frozenset({5})


def test_normalize_preserves_unboundedness_verdicts():
    rng = random.Random(20240811)
    for _ in range(120):
        v = gen_vass(rng, max_states=4, max_weight=3, max_guard=15,
                     multi_guards=True)
        vn = normalize_guards(v)
        a = oracle_unbounded(v, 0, counter_cap=120)
        b = oracle_unbounded(vn, vn.index(v.names[0]) if len(v.guards[0]) <= 1
                             else vn.index(v.names[0] + ".1"), counter_cap=120)
        if a.definite and b.definite:
            assert a.answer == b.answer


# --- path summaries ----------------------------------------------------------

def test_summary_of_two_step_paths(plain):
    # top route: weights -2 then 3
    top = Path(0, (0, 3))
    s = summarize_path(plain, top)
    assert (s.pmin, s.smax, s.weight) == (-2, 3, 1)
    # bottom route: weights -4 then 6
    bottom = Path(0, (2, 5))
    s = summarize_path(plain, bottom)
    assert (s.pmin, s.smax, s.weight) == (-4, 6, 2)


def test_summary_of_single_state_path(plain):
    s = summarize_path(plain, Path(3))
    assert (s.pmin, s.smax, s.weight, s.nadir_index) == (0, 0, 0, 0)


@given(vass_strategy(), st.integers(0, 2**32 - 1))
def test_summary_concatenation_law(v, seed):
    rng = random.Random(seed)
    p1 = random_path(rng, v)
    # restart the second walk where the first ended
    end = v.path_states(p1)[-1]
    taken = []
    cur = end
    for _ in range(rng.randint(0, 6)):
        outs = v.out_edges(cur)
        if not outs:
            break
        ti, t = rng.choice(outs)
        taken.append(ti)
        cur = t.dst
    p2 = Path(end, tuple(taken))
    joint = Path(p1.start, p1.transitions + p2.transitions)
    s1, s2, s = summarize_path(v, p1), summarize_path(v, p2), summarize_path(v, joint)
    assert s.pmin == min(s1.pmin, s1.weight + s2.pmin)
    assert s.smax == max(s2.smax, s1.smax + s2.weight)
    assert s.weight == s1.weight + s2.weight == s.pmin + s.smax


# --- blocked sets and lifting -------------------------------------------------

def test_blocked_set_of_demo_path(demo):
    bs = blocked_set(demo, Path(4, (5, 6)))
    assert bs.members_upto(300) == set(range(52)) | {90, 93, 96}


def test_blocked_set_without_guards_or_dips():
    v = parse_vass("state a\nstate b\nedge a b 3\n")
    bs = blocked_set(v, Path(0, (0,)))
    assert bs.low_all == 0 and not bs.extras and not bs.families


def test_blocked_counts_initial_guard(demo):
    # 90 guards the first state of the path itself
    assert 90 in blocked_set(demo, Path(4, (5, 6)))


def test_lift_run_success(demo):
    run = lift_run(demo, Path(0, (0,)), 0)
    assert run == [Configuration(0, 0), Configuration(1, 12)]


def test_lift_run_guard_violation_position(demo):
    out = lift_run(demo, Path(4, (5, 6)), 93)
    assert isinstance(out, Violation)
    assert out.position == 2 and out.kind == "guard"
    assert out.config == Configuration(5, 41)


def test_lift_single_state(demo):
    assert lift_run(demo, Path(7), 5) == [Configuration(7, 5)]


@given(vass_strategy(), st.integers(0, 2**32 - 1), st.integers(0, 60))
def test_lift_matches_blocked_set(v, seed, z0):
    p = random_path(random.Random(seed), v)
    out = lift_run(v, p, z0)
    assert isinstance(out, Violation) == (z0 in blocked_set(v, p))


@given(vass_strategy(), st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_lift_matches_stepwise_simulation(v, seed, z0):
    p = random_path(random.Random(seed), v)
    out = lift_run(v, p, z0)
    states = v.path_states(p)
    if not v.is_valid(Configuration(states[0], z0)):
        assert isinstance(out, Violation) and out.position == 1
        return
    cur = Configuration(states[0], z0)
    for i, ti in enumerate(p.transitions, start=2):
        t = v.transitions[ti]
        nxt = Configuration(t.dst, cur.counter + t.weight)
        if nxt not in successors(v, cur):
            assert isinstance(out, Violation) and out.position == i
            return
        cur = nxt
    assert not isinstance(out, Violation)
    assert out[-1] == cur


# --- successors ---------------------------------------------------------------

def test_successors_from_demo_start(demo):
    assert successors(demo, Configuration(0, 0)) == [Configuration(1, 12)]


def test_successors_respect_guards_and_sign(demo):
    assert successors(demo, Configuration(4, 52)) == [
        Configuration(5, 0), Configuration(7, 56)]


def test_successors_of_sink():
    v = parse_vass("state a\n")
    assert successors(v, Configuration(0, 7)) == []
