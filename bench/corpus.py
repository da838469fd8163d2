"""Seeded workload corpora for the `vass` CLI benchmark.

``build(workload, seed, workdir)`` writes one pass of ``.vass`` instances
into ``workdir`` and returns the operations of that pass: the argv handed to
``vass.cli.main`` and the reference answer of its first stdout line (``None``
when no reference could be settled).  Generation and reference answers run
here, in the parent process, never inside a timed window.

Each workload is stratified: the seed draws instances inside fixed strata
(clause counts, guard decades, state counts) so that every seed yields a
pass of the same shape and cost, and figures from different seeds compare.
A pass has at least 50 operations and a run at least two passes, so the
tail latency is the 90th percentile.
"""

from __future__ import annotations

import os
import random
from typing import Optional

from vass import Transition, Vass, model, oracle, reductions
from vass.objectives import DiseqObjective
from vass.reductions import Cnf3

# Reference caps for random-mix, raised above the oracle defaults so that
# nearly every operation gets a definite reference.
ORACLE_NODE_CAP = 2_000_000
ORACLE_COUNTER_SLACK = 4


def gen_vass(
    rng: random.Random,
    max_states: int = 6,
    max_weight: int = 5,
    max_guard: int = 49,
    guard_prob: float = 0.45,
    multi_guards: bool = False,
    edge_factor: float = 1.8,
    n: Optional[int] = None,
) -> Vass:
    """The random instance distribution of the test suite's ``gen_vass``,
    copied so that edits to the tests cannot move the corpus.  ``n`` fixes
    the state count (drawn uniformly from ``[1, max_states]`` otherwise)."""
    if n is None:
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


class _Pass:
    """Collects the operations of one pass and writes their instance files."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.ops: list[dict] = []
        self._files = 0

    def instance(self, text: str) -> str:
        path = os.path.join(self.workdir, f"i{self._files:04d}.vass")
        self._files += 1
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def op(self, argv: list[str], expect: Optional[str]) -> None:
        self.ops.append({"argv": argv, "expect": expect})


# -- cnf-saturation ---------------------------------------------------------

def _cnf_op(p: _Pass, f: Cnf3, u: int) -> None:
    """``cnf_to_vass(f)`` started at counter ``u < P``: unbounded (YES) iff
    the assignment ``val_u(u)`` falsifies the formula."""
    v, meta = reductions.cnf_to_vass(f)
    w, _ = reductions.with_start_counter(v, u)
    yes = not reductions.cnf_satisfied(f, reductions.val_u(u, meta.primes))
    p.op(["check", p.instance(model.serialize_vass(w))], "YES" if yes else "NO")


def _start_counter(rng: random.Random, f: Cnf3, want_yes: bool) -> int:
    """A seeded start counter whose assignment falsifies (YES) or satisfies
    (NO) the formula."""
    _, meta = reductions.cnf_to_vass(f)
    return rng.choice([u for u in range(meta.product)
                       if reductions.cnf_satisfied(f, reductions.val_u(u, meta.primes))
                       != want_yes])


def _clause(vars_: tuple[int, int, int], signs: int) -> tuple:
    return tuple((var, bool(signs >> i & 1)) for i, var in enumerate(vars_))


# Four-variable anchors, the regime where thousands of small probes fail:
# one formula per answer, each at a fixed start counter (u = 63 falsifies
# the first, YES; u = 119 satisfies the second, NO).  Together they take a
# third of the pass, so they are not drawn from the seed: their cost moves
# by a sixth with the start counter, and the pass time would move with it.
_CNF4 = (
    (Cnf3(4, (_clause((1, 2, 3), 0b101),)), 63),
    (Cnf3(4, (_clause((1, 2, 3), 0b101), _clause((1, 2, 4), 0b010))), 119),
)


def _cnf_saturation(p: _Pass, rng: random.Random) -> None:
    # Three variables, 1-3 clauses, 16 formulas per clause count.  Every
    # clause mentions all three variables, so a clause is one of 8 sign
    # patterns, and the cost of a formula depends on its patterns.  The
    # formulas are therefore fixed, each pattern used equally often in a
    # block; the seed picks which half of each block answers YES and every
    # start counter.
    for k in (1, 2, 3):
        yes = set(rng.sample(range(16), 8))
        for j in range(16):
            half = j // 8
            signs = (j, j + 1 + 2 * half, j + 4 + half)[:k]
            f = Cnf3(3, tuple(_clause((1, 2, 3), s % 8) for s in signs))
            _cnf_op(p, f, _start_counter(rng, f, j in yes))
    for f, u in _CNF4:
        _cnf_op(p, f, u)


# -- magnitude --------------------------------------------------------------

def _up(g: int) -> str:
    """Climbs to ``g - 1`` and stops: bounded (NO)."""
    return f"state a {g}\nedge a a 1\ninit a\n"


def _updown(g: int) -> str:
    """``up`` plus a state that counts down from wherever it is entered:
    bounded (NO), and every probe walks about ``g`` configurations."""
    return ("state a {g}\nstate b\nedge a a 1\nedge a b 0\nedge b b -1\n"
            "init a\n").format(g=g)


def _upesc(g: int) -> str:
    """``up`` with an escape to a pumping state that only opens at counter
    ``g - 1``: unbounded (YES)."""
    return (f"state a {g}\nstate b\nedge a a 1\nedge a b {-(g - 1)}\n"
            "edge b b 1\ninit a\n")


def _downesc(g: int) -> str:
    """``updown`` whose down-counter escapes to a pumping state only from
    counter ``g - 1``: unbounded (YES)."""
    return (f"state a {g}\nstate b\nstate c\nedge a a 1\nedge a b 0\n"
            f"edge b b -1\nedge b c {-(g - 1)}\nedge c c 1\ninit a\n")


def _decades(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    """``count`` guard values, one per equal slice of ``[10**lo, 10**hi]`` on
    a log scale, jittered around the middle of the slice by a tenth of its
    width either way; the last one is ``10**hi``."""
    out = [round(10 ** (lo + (hi - lo) * (i + 0.4 + 0.2 * rng.random()) / count))
           for i in range(count - 1)]
    return out + [round(10 ** hi)]


def _magnitude(p: _Pass, rng: random.Random) -> None:
    # Costs grow with the guard value, so the latency percentiles fall
    # between neighbouring guard slices; 100 operations keep neighbours
    # close.  The over-cap case ``up(10**7)`` (UNKNOWN after the node cap)
    # and its down-counting twin (no answer within minutes) are left out: a
    # run holds only operations that answer.
    for g in _decades(rng, 40, 2, 5):
        p.op(["check", p.instance(_up(g))], "NO")
    for g in _decades(rng, 40, 2, 3.5):
        p.op(["check", p.instance(_updown(g))], "NO")
    for g in _decades(rng, 10, 2, 5):
        p.op(["check", p.instance(_upesc(g))], "YES")
    for g in _decades(rng, 10, 2, 5):
        p.op(["check", p.instance(_downesc(g))], "YES")


# -- random-mix -------------------------------------------------------------

def _oracle_token(verdict: oracle.OracleVerdict) -> Optional[str]:
    return verdict.answer.upper() if verdict.definite else None


def _caps(v: Vass) -> dict:
    return {"counter_cap": ORACLE_COUNTER_SLACK * oracle.default_counter_cap(v),
            "node_cap": ORACLE_NODE_CAP}


def _random_objective(rng: random.Random, v: Vass) -> tuple[list[str], str]:
    """A bounded-cover objective drawn as in the bounded-cover equivalence
    criterion of the test suite, with its reference from the exhaustive
    search."""
    period = rng.randint(1, 9)
    residues = sorted(rng.sample(range(period), rng.randint(0, min(period - 1, 3))))
    values = sorted(rng.sample(range(40), rng.randint(0, 3)))
    o = DiseqObjective(rng.randrange(v.n_states), rng.randint(0, 30), period,
                       frozenset(residues), frozenset(values))
    init = model.Configuration(rng.randrange(v.n_states), rng.randint(0, 20))
    steps = rng.randint(0, 12)
    argv = ["--source", v.names[init.state], "--target", v.names[o.target_state],
            "--counter", str(init.counter), "--ell", str(o.ell),
            "--period", str(period), "--not-res", ",".join(map(str, residues)),
            "--not-val", ",".join(map(str, values)), "--steps", str(steps)]
    ref = oracle.oracle_bounded_cover(v, init, o, steps)
    return argv, "YES" if ref else "NO"


def _random_mix(p: _Pass, rng: random.Random) -> None:
    # Guarded half: the test distribution at up to 48 states with
    # multi-guards, one instance per slice of the state-count range.  These
    # cheap operations are two thirds of the pass, so the median latency
    # falls well inside them rather than at their edge.
    count = 64
    for i in range(count):
        n = 1 + int(48 * (i + rng.random()) / count)
        v = gen_vass(rng, max_states=48, max_weight=5, max_guard=50,
                     multi_guards=True, n=n)
        path = p.instance(model.serialize_vass(v))
        caps = _caps(v)
        p.op(["check", path],
             _oracle_token(oracle.oracle_unbounded(v, 0, **caps)))
        p.op(["check", "--mode", "coverability", path],
             _oracle_token(oracle.oracle_cover(v, 0, v.target, **caps)))
        argv, ref = _random_objective(rng, v)
        p.op(["bounded-cover", path] + argv, ref)
    # Guard-free half: dense graphs (three out-edges per state) of 10 to 16
    # states, for the Pareto doubling construction.  Its cost grows about
    # as n**4 and varies by a fifth between graphs of one size, so a wider
    # size range would leave both the pass time and the tail to a handful
    # of the largest graphs.
    count = 32
    for i in range(count):
        n = 10 + int(7 * (i + rng.random()) / count)
        v = _dense_guard_free(rng, n)
        path = p.instance(model.serialize_vass(v))
        caps = _caps(v)
        unb = _oracle_token(oracle.oracle_unbounded(v, 0, **caps))
        p.op(["check", "--algo", "pareto", path], unb)
        p.op(["check", "--algo", "pareto", "--mode", "coverability", path],
             _oracle_token(oracle.oracle_cover(v, 0, v.target, **caps)))
        p.op(["check", path], unb)


def _dense_guard_free(rng: random.Random, n: int, max_weight: int = 5) -> Vass:
    edges = tuple(
        Transition(q, rng.randrange(n), rng.randint(-max_weight, max_weight))
        for q in range(n) for _ in range(3)
    )
    return Vass(names=tuple(f"q{i}" for i in range(n)),
                guards=(frozenset(),) * n, transitions=edges,
                initial=0, target=rng.randrange(n))


_BUILDERS = {
    "cnf-saturation": _cnf_saturation,
    "magnitude": _magnitude,
    "random-mix": _random_mix,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, workdir: str) -> list[dict]:
    """One pass of ``workload`` at ``seed``, in a seed-fixed shuffled order."""
    rng = random.Random(f"{workload}:{seed}")
    p = _Pass(workdir)
    _BUILDERS[workload](p, rng)
    rng.shuffle(p.ops)
    return p.ops
