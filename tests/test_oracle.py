import random

from vass import Configuration, parse_vass
from vass.objectives import DiseqObjective
from vass.oracle import (
    default_counter_cap,
    oracle_bounded_cover,
    oracle_cover,
    oracle_unbounded,
)

from helpers import enumerate_reach, gen_vass


def test_enumerate_reach_two_steps(demo):
    # the demo is unbounded from s0, so a capped closure must flag truncation
    reached, truncated = enumerate_reach(demo, Configuration(0, 0), 200)
    assert truncated
    assert Configuration(1, 12) in reached
    assert Configuration(3, 24) in reached


def test_enumerate_reach_sink():
    v = parse_vass("state a\n")
    reached, truncated = enumerate_reach(v, Configuration(0, 3), 50)
    assert reached == {Configuration(0, 3)} and not truncated


def test_enumerate_reach_truncates_positive_loop():
    v = parse_vass("state a\nedge a a 1\n")
    reached, truncated = enumerate_reach(v, Configuration(0, 0), 10)
    assert truncated and len(reached) == 11


def test_cover_demo_target(demo):
    assert oracle_cover(demo, 0, 13, counter_cap=400).answer == "yes"


def test_cover_disconnected_state():
    v = parse_vass("state a\nstate b\nedge a a 0\n")
    verdict = oracle_cover(v, 0, 1, counter_cap=30)
    assert verdict.answer == "no"
    # with a climbing loop the capped closure cannot rule out a target
    # the graph reaches
    v2 = parse_vass("state a\nstate b\nedge a a 1\nedge a b -100\n")
    assert oracle_cover(v2, 0, 1, counter_cap=30).answer == "unknown"


def test_cover_graph_unreachable_target_is_no():
    # the climbing loop makes the closure infinite, but no path of the graph
    # leads to b, so no cap can leave the answer open
    v = parse_vass("state a\nstate b\nedge a a 1\n")
    assert oracle_cover(v, 0, 1, counter_cap=30).answer == "no"
    assert oracle_cover(v, 0, 1, node_cap=1).answer == "no"
    assert oracle_cover(v, 0, 1).answer == "no"


def test_cover_zero_node_cap_is_unknown(demo):
    assert oracle_cover(demo, 0, 13, node_cap=0).answer == "unknown"


def test_cover_empty_run(demo):
    assert oracle_cover(demo, 5, 5).answer == "yes"


def test_cover_invalid_initial_configuration():
    v = parse_vass("state a 0\nstate b\nedge a b 1\n")
    assert oracle_cover(v, 0, 1).answer == "no"
    assert oracle_cover(v, 0, 0).answer == "no"  # even the empty run needs validity


def test_unbounded_demo(demo):
    assert oracle_unbounded(demo, 0).answer == "yes"


def test_unbounded_isolated_state():
    v = parse_vass("state a\n")
    assert oracle_unbounded(v, 0).answer == "no"


def test_unbounded_positive_self_loop():
    v = parse_vass("state a\nedge a a 1\n")
    assert oracle_unbounded(v, 0).answer == "yes"


def test_unbounded_guard_stops_the_loop():
    v = parse_vass("state a 5\nedge a a 1\n")
    assert oracle_unbounded(v, 0).answer == "no"
    v2 = parse_vass("state a 5\nedge a a 2\n")
    assert oracle_unbounded(v2, 0).answer == "yes"


def test_no_verdicts_are_exact():
    # when the closure completes untruncated, the reachable set really is
    # finite: re-enumerate and check nothing new appears at a bigger cap
    rng = random.Random(2718281)
    checked = 0
    for _ in range(150):
        v = gen_vass(rng, max_states=5, max_weight=3, max_guard=20)
        verdict = oracle_unbounded(v, 0, counter_cap=300)
        if verdict.answer != "no":
            continue
        small, t1 = enumerate_reach(v, Configuration(0, 0), 300)
        big, t2 = enumerate_reach(v, Configuration(0, 0), 900)
        assert not t1 and not t2 and small == big
        checked += 1
    assert checked > 30


def test_bounded_cover_oracle_trivial_cases(demo):
    o = DiseqObjective(4, 50, 9, frozenset({0}))
    assert oracle_bounded_cover(demo, Configuration(4, 52), o, 0)
    assert not oracle_bounded_cover(demo, Configuration(4, 54), o, 0)


def test_default_counter_cap_formula(demo):
    assert default_counter_cap(demo) == 130 + 14 * 14 * 81 + 64
