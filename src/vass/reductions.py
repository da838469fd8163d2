"""Instance transformations: coverability-to-unboundedness, and a 3-CNF
instance generator whose boundedness answers encode satisfying assignments.

The CNF generator builds one clause state with a self-loop weighted by the
product of the three mentioned variables' primes; guards sit on the clause
state for exactly those counter values in one period window above the prime
product whose divisibility pattern satisfies the clause.  Pumping the loop
then dies iff the start value's assignment satisfies the clause, so the
start configuration is bounded iff the assignment satisfies every clause.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .model import (MAX_MAGNITUDE, UNKNOWN_STATE, Transition, Vass, _LINE_END,
                    _fresh_name, _int, require_states)

# The product of the first 15 primes is the last one below 2**63.
MAX_CNF_VARS = 15


def reduce_cov_to_unbound(v: Vass, s: int, t: int) -> tuple[Vass, int]:
    """Rewrite a coverability question as an unboundedness question.

    Drops every state that cannot reach ``t`` in the underlying graph, then
    lets ``t`` feed a fresh unguarded state carrying a +1 self-loop: covering
    ``t`` and pumping that loop is the only way to be unbounded using states
    that all reach ``t``.  Returns the new system and the index of ``s`` in
    it.  When ``s`` cannot reach ``t`` at all the result is a canonical
    single-state instance with no transitions (trivially bounded).  A
    state index outside ``v`` raises ``ValueError``.
    """
    require_states(v, UNKNOWN_STATE, s, t)
    n = v.n_states
    radj: dict[int, list[int]] = {q: [] for q in range(n)}
    for tr in v.transitions:
        radj[tr.dst].append(tr.src)
    reach_t = {t}
    stack = [t]
    while stack:
        q = stack.pop()
        for p in radj[q]:
            if p not in reach_t:
                reach_t.add(p)
                stack.append(p)
    if s not in reach_t:
        return Vass(names=(v.names[s],), guards=(frozenset(),),
                    transitions=(), initial=0), 0
    kept = sorted(reach_t)
    remap = {q: i for i, q in enumerate(kept)}
    taken = {v.names[q] for q in kept}
    pump_name = _fresh_name(v.names[t] + "'", taken)
    pump = len(kept)
    edges = [
        Transition(remap[tr.src], remap[tr.dst], tr.weight)
        for tr in v.transitions
        if tr.src in reach_t and tr.dst in reach_t
    ]
    edges.append(Transition(remap[t], pump, 0))
    edges.append(Transition(pump, pump, 1))
    out = Vass(
        names=tuple(v.names[q] for q in kept) + (pump_name,),
        guards=tuple(v.guards[q] for q in kept) + (frozenset(),),
        transitions=tuple(edges),
        initial=remap[s],
        target=pump,
    )
    return out, remap[s]


def first_primes(m: int) -> list[int]:
    """The first ``m`` primes, by sieve; supported for 1 <= m <= 15 so that
    their product stays within the 64-bit input range."""
    if not (1 <= m <= MAX_CNF_VARS):
        raise ValueError(f"m must be in [1, {MAX_CNF_VARS}]")
    primes: list[int] = []
    n = 2
    while len(primes) < m:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


Literal = tuple[int, bool]  # (1-based variable index, polarity)


@dataclass(frozen=True)
class Cnf3:
    """A 3-CNF formula; every clause mentions three distinct variables."""

    num_vars: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self):
        if not (1 <= self.num_vars <= MAX_CNF_VARS):
            raise ValueError(f"variable count must be in [1, {MAX_CNF_VARS}]")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError("clauses must have exactly three literals")
            vs = [var for var, _ in clause]
            if len(set(vs)) != 3:
                raise ValueError("clause mentions a repeated variable")
            if any(not (1 <= var <= self.num_vars) for var in vs):
                raise ValueError("literal variable out of range")


@dataclass(frozen=True)
class CnfVassMeta:
    primes: tuple[int, ...]
    product: int
    clause_weights: tuple[int, ...]
    guard_windows: tuple[tuple[int, int], ...]  # [lo, hi) per clause


def val_u(u: int, primes: list[int] | tuple[int, ...]) -> tuple[bool, ...]:
    """The assignment encoded by a counter value: variable i is true iff its
    prime divides ``u`` (so 0 encodes all-true)."""
    if u < 0:
        raise ValueError("counter values are nonnegative")
    return tuple(u % p == 0 for p in primes)


def _clause_satisfied(clause, assignment: tuple[bool, ...]) -> bool:
    return any(assignment[var - 1] == polarity for var, polarity in clause)


def cnf_satisfied(f: Cnf3, assignment: tuple[bool, ...]) -> bool:
    return all(_clause_satisfied(c, assignment) for c in f.clauses)


def cnf_to_vass(f: Cnf3) -> tuple[Vass, CnfVassMeta]:
    """Build the instance whose start configurations are bounded exactly on
    the satisfying counter encodings.

    States: an unguarded fan-out state ``s0`` with a 0-weight edge to one
    state per clause; clause ``i`` has a self-loop of weight ``c_i`` (the
    product of its variables' primes) and guards on every value in
    ``[P, P + c_i)`` whose assignment satisfies the clause.  Clause states
    carry many guards, which every layer reads as they are.
    """
    primes = first_primes(f.num_vars)
    product = 1
    for p in primes:
        product *= p
    names = ["s0"] + [f"s{i}" for i in range(1, len(f.clauses) + 1)]
    guards: list[frozenset[int]] = [frozenset()]
    edges: list[Transition] = []
    weights: list[int] = []
    windows: list[tuple[int, int]] = []
    for i, clause in enumerate(f.clauses, start=1):
        c_i = 1
        for var, _ in clause:
            c_i *= primes[var - 1]
        lo, hi = product, product + c_i
        gs = {
            u for u in range(lo, hi)
            if _clause_satisfied(clause, val_u(u, primes))
        }
        guards.append(frozenset(gs))
        edges.append(Transition(0, i, 0))
        edges.append(Transition(i, i, c_i))
        weights.append(c_i)
        windows.append((lo, hi))
    v = Vass(
        names=tuple(names),
        guards=tuple(guards),
        transitions=tuple(edges),
        initial=0,
    )
    meta = CnfVassMeta(
        primes=tuple(primes),
        product=product,
        clause_weights=tuple(weights),
        guard_windows=tuple(windows),
    )
    return v, meta


def with_start_counter(v: Vass, u: int, base_state: int = 0) -> tuple[Vass, int]:
    """Wrap an instance so questions about ``(base_state, u)`` become
    questions about a fresh initial state at counter 0, reached by one edge
    of weight ``u``."""
    if u < 0 or u > MAX_MAGNITUDE:
        raise ValueError("start counter out of range")
    taken = set(v.names)
    name = _fresh_name("w0", taken)
    w0 = v.n_states
    return Vass(
        names=v.names + (name,),
        guards=v.guards + (frozenset(),),
        transitions=v.transitions + (Transition(w0, base_state, u),),
        initial=w0,
        target=v.target,
    ), w0


def _dimacs_int(tok: str) -> int:
    try:
        return _int(tok)
    except ValueError:
        raise ValueError(f"bad DIMACS integer {tok!r}") from None


def parse_dimacs(text: str) -> Cnf3:
    """Parse DIMACS CNF; every clause must mention three distinct variables.
    Every count and literal is an optional sign and ASCII digits; a literal
    of value 0 (``0``, ``00``, ``-0``) or the end of a line ends a clause.
    Lines end as in the instance format.  At most one header, exactly
    ``p cnf V C``, holds the file to ``C`` clauses over variables up to
    ``V``; without one, the variables are those up to the largest literal."""
    num_vars = 0
    header = None  # (line, V, C)
    clauses: list[tuple[Literal, Literal, Literal]] = []
    for raw in _LINE_END.split(text):
        line = raw.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            parts = line.split()
            if header is not None:
                raise ValueError(f"a second DIMACS header '{line}'")
            if len(parts) != 4 or parts[:2] != ["p", "cnf"]:
                raise ValueError(f"bad DIMACS header '{line}': "
                                 "expected 'p cnf V C'")
            header = (line, _dimacs_int(parts[2]), _dimacs_int(parts[3]))
            if min(header[1:]) < 0:
                raise ValueError(f"negative count in the header '{line}'")
            continue
        # the runs of nonzero literals between zeros are the clauses
        for nonzero, run in groupby(map(_dimacs_int, line.split()), bool):
            lits = list(run)
            if not nonzero:
                continue
            if len(lits) != 3:
                raise ValueError(f"clause '{' '.join(map(str, lits))}': "
                                 "only 3-literal clauses are supported")
            clause = tuple((abs(l), l > 0) for l in lits)
            clauses.append(clause)  # type: ignore[arg-type]
            num_vars = max(num_vars, *(abs(l) for l in lits))
    if header is not None:
        line, declared_vars, declared_clauses = header
        if num_vars > declared_vars:
            raise ValueError(f"variable {num_vars} exceeds the header "
                             f"'{line}'")
        if len(clauses) != declared_clauses:
            raise ValueError(f"the header '{line}' declares "
                             f"{declared_clauses} clauses, the file has "
                             f"{len(clauses)}")
        num_vars = declared_vars
    return Cnf3(num_vars=num_vars, clauses=tuple(clauses))


def random_cnf(num_vars: int, num_clauses: int, seed: int) -> Cnf3:
    import random

    if num_clauses < 0:
        raise ValueError("clause count must be nonnegative")
    if num_clauses > 0 and num_vars < 3:
        raise ValueError("random 3-CNF needs at least 3 variables")
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple((v, rng.random() < 0.5) for v in vs))
    return Cnf3(num_vars=num_vars, clauses=tuple(clauses))
