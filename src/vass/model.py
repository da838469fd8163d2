"""Core model: weighted state graphs with one counter and disequality guards.

A system is a directed graph whose transitions carry integer weights.  A run
carries a nonnegative counter along a path, adding the weight of every
transition taken.  Each state may carry *disequality guards*: counter values
on which the run must not rest at that state.  A configuration ``(q, z)`` is
valid when ``z`` avoids the guards of ``q``; a valid run is one whose
configurations are all valid and whose counter never goes negative.

The module also defines the line-oriented text format used by the CLI::

    # comment to end of line
    state <name> [<g1> <g2> ...]   # optional guard values, nonnegative
    edge <src> <dst> <weight>      # signed integer weight
    init <name>                    # at most one
    target <name>                  # at most one

Lines end at ``\n``, ``\r\n`` or ``\r`` only, so a comment runs to one of
them whatever other characters it holds.  Within a line, tokens are
separated by runs of whitespace as ``str.split`` finds them, Unicode
whitespace included: ``state a<NBSP>5`` declares state ``a`` with guard 5.
Integers are an optional sign and ASCII digits.  State declaration order
defines the dense indices used throughout the library.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

# Counters and weights must fit a signed 64-bit machine word.  Inputs outside
# this range are rejected rather than carried (arithmetic on desk-scale
# instances then stays far from Python-int slowdowns and interop surprises).
MAX_MAGNITUDE = 2**63 - 1


class ModelError(ValueError):
    """Invalid model construction (bad names, dangling endpoints, ...)."""


class ParseError(ValueError):
    """Syntax or semantic error in the text format, with a line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Configuration(NamedTuple):
    state: int
    counter: int


@dataclass(frozen=True)
class Transition:
    src: int
    dst: int
    weight: int


@dataclass(frozen=True)
class Path:
    """A path given by its start state and the indices of transitions taken.

    Parallel edges are distinct transitions, so a path records transition
    identities rather than a state sequence.  A single-state path has no
    transitions.
    """

    start: int
    transitions: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.transitions)


@dataclass(frozen=True)
class Vass:
    """An immutable one-counter system.

    ``names`` fixes the dense state indices, ``guards[q]`` is the finite set
    of forbidden counter values at state ``q``.
    """

    names: tuple[str, ...]
    guards: tuple[frozenset[int], ...]
    transitions: tuple[Transition, ...]
    initial: Optional[int] = None
    target: Optional[int] = None
    _out: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for name in self.names:
            if not name or any(c.isspace() for c in name) or "#" in name:
                raise ModelError(f"bad state name {name!r}")
            if name in seen:
                raise ModelError(f"duplicate state name {name!r}")
            seen.add(name)
        if len(self.guards) != len(self.names):
            raise ModelError("one guard set required per state")
        for gs in self.guards:
            for g in gs:
                if g < 0:
                    raise ModelError(f"negative guard value {g}")
                if g > MAX_MAGNITUDE:
                    raise ModelError(f"guard value {g} out of range")
        n = len(self.names)
        for t in self.transitions:
            if not (0 <= t.src < n and 0 <= t.dst < n):
                raise ModelError(f"transition endpoint out of range: {t}")
            if abs(t.weight) > MAX_MAGNITUDE:
                raise ModelError(f"weight {t.weight} out of range")
        for marker in (self.initial, self.target):
            if marker is not None and not (0 <= marker < n):
                raise ModelError(f"marker state {marker} out of range")
        out: dict[int, list[tuple[int, Transition]]] = {q: [] for q in range(n)}
        for i, t in enumerate(self.transitions):
            out[t.src].append((i, t))
        object.__setattr__(self, "_out", out)

    @property
    def n_states(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ModelError(f"unknown state {name!r}") from None

    def out_edges(self, q: int) -> list[tuple[int, Transition]]:
        return self._out[q]

    @property
    def has_guards(self) -> bool:
        return any(self.guards)

    def is_valid(self, c: Configuration) -> bool:
        return c.counter >= 0 and c.counter not in self.guards[c.state]

    def path_states(self, p: Path) -> list[int]:
        states = [p.start]
        for ti in p.transitions:
            t = self.transitions[ti]
            if t.src != states[-1]:
                raise ModelError("path transitions are not contiguous")
            states.append(t.dst)
        return states

    def path_weights(self, p: Path) -> list[int]:
        return [self.transitions[ti].weight for ti in p.transitions]


UNKNOWN_SOURCE = "unknown source state"
UNKNOWN_STATE = "unknown state index"


def require_states(v: Vass, message: str, *states: int) -> None:
    """Raise ``ValueError(message)`` unless every one of ``states`` is a
    state index of ``v``: the check every decision entry point makes."""
    for q in states:
        if not (0 <= q < v.n_states):
            raise ValueError(message)


@dataclass(frozen=True)
class PathSummary:
    """Prefix/suffix extremes of a path: ``weight == pmin + smax`` always.

    ``pmin`` is the least weight over all (possibly empty) prefixes, ``smax``
    the greatest over all suffixes, and ``nadir_index`` the first position
    (0-based, counted in states) where a minimal prefix ends.
    """

    pmin: int
    smax: int
    weight: int
    nadir_index: int
    witness: Optional[Path] = None


@dataclass(frozen=True)
class BlockedSet:
    """Counter values from which a path does not lift to a valid run.

    Everything below ``low_all`` is blocked.  At or above it, blocked values
    are ``extras`` (finite, explicit) plus the arithmetic families
    ``{cap, cap - step, cap - 2*step, ...} >= low_all`` listed in
    ``families`` -- the closed form used for infinite cycle iteration, where
    enumeration would be linear in the guard magnitudes.
    """

    low_all: int
    extras: frozenset[int] = frozenset()
    families: tuple[tuple[int, int], ...] = ()  # (cap, step), step >= 1

    def __contains__(self, z: int) -> bool:
        if z < 0:
            return True
        if z < self.low_all:
            return True
        if z in self.extras:
            return True
        return any(z <= cap and (cap - z) % step == 0 for cap, step in self.families)

    def members_upto(self, limit: int) -> set[int]:
        """Enumerate blocked values in ``[0, limit]`` (testing helper)."""
        out = set(range(0, min(self.low_all, limit + 1)))
        out.update(x for x in self.extras if x <= limit)
        for cap, step in self.families:
            x = cap
            while x >= self.low_all:
                if x <= limit:
                    out.add(x)
                x -= step
        return out


@dataclass(frozen=True)
class Violation:
    """Why a path failed to lift: first bad position, 1-based in states."""

    position: int
    kind: str  # "negative" | "guard"
    config: Configuration


_INT = re.compile(r"[+-]?[0-9]+")
# Lines end at \n, \r\n or \r alone: str.splitlines also ends one at U+2028,
# U+0085, a form feed and more, and would read the rest of a comment as input.
_LINE_END = re.compile(r"\r\n|\r|\n")


def _int(tok: str) -> int:
    """An optional sign and ASCII digits; ``int`` alone would also read
    ``1_0`` as 10, and non-ASCII digits."""
    if _INT.fullmatch(tok) is None:
        raise ValueError(tok)
    return int(tok)


def parse_vass(text: str) -> Vass:
    """Parse the text format; raises :class:`ParseError` with a line number."""
    names: list[str] = []
    guards: list[set[int]] = []
    index: dict[str, int] = {}
    edges: list[Transition] = []
    initial: Optional[int] = None
    target: Optional[int] = None

    def state_ref(tok: str, ln: int) -> int:
        if tok not in index:
            raise ParseError(f"undeclared state {tok!r}", ln)
        return index[tok]

    for ln, raw in enumerate(_LINE_END.split(text), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        kind, args = tokens[0], tokens[1:]
        if kind == "state":
            if not args:
                raise ParseError("state line needs a name", ln)
            name = args[0]
            if name in index:
                raise ParseError(f"duplicate state name {name!r}", ln)
            gs = set()
            for tok in args[1:]:
                try:
                    g = _int(tok)
                except ValueError:
                    raise ParseError(f"bad guard value {tok!r}", ln) from None
                if g < 0:
                    raise ParseError(f"negative guard value {g}", ln)
                if g > MAX_MAGNITUDE:
                    raise ParseError(f"guard value {g} out of range", ln)
                gs.add(g)
            index[name] = len(names)
            names.append(name)
            guards.append(gs)
        elif kind == "edge":
            if len(args) != 3:
                raise ParseError("edge line needs: src dst weight", ln)
            src = state_ref(args[0], ln)
            dst = state_ref(args[1], ln)
            try:
                w = _int(args[2])
            except ValueError:
                raise ParseError(f"bad weight {args[2]!r}", ln) from None
            if abs(w) > MAX_MAGNITUDE:
                raise ParseError(f"weight {w} out of range", ln)
            edges.append(Transition(src, dst, w))
        elif kind == "init":
            if len(args) != 1:
                raise ParseError("init line needs one state name", ln)
            if initial is not None:
                raise ParseError("second init line", ln)
            initial = state_ref(args[0], ln)
        elif kind == "target":
            if len(args) != 1:
                raise ParseError("target line needs one state name", ln)
            if target is not None:
                raise ParseError("second target line", ln)
            target = state_ref(args[0], ln)
        else:
            raise ParseError(f"unknown directive {kind!r}", ln)

    try:
        return Vass(
            names=tuple(names),
            guards=tuple(frozenset(g) for g in guards),
            transitions=tuple(edges),
            initial=initial,
            target=target,
        )
    except ModelError as e:  # pragma: no cover - parser pre-validates
        raise ParseError(str(e), 0) from e


def serialize_vass(v: Vass) -> str:
    """Emit the text format; ``parse_vass`` round-trips up to isomorphism."""
    lines = []
    for q, name in enumerate(v.names):
        gs = " ".join(str(g) for g in sorted(v.guards[q]))
        lines.append(f"state {name} {gs}".rstrip())
    for t in v.transitions:
        lines.append(f"edge {v.names[t.src]} {v.names[t.dst]} {t.weight}")
    if v.initial is not None:
        lines.append(f"init {v.names[v.initial]}")
    if v.target is not None:
        lines.append(f"target {v.names[v.target]}")
    return "\n".join(lines) + "\n"


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def normalize_guards(v: Vass) -> Vass:
    """Split every multi-guard state into a chain of single-guard states.

    A state with guards ``{g1 < g2 < ...}`` becomes states ``q.1, q.2, ...``
    joined by 0-weight transitions, one guard each; incoming edges enter the
    first link and outgoing edges leave the last, so a run passes the whole
    chain at one counter value and is checked against every guard exactly as
    the original state would check it.  Single- and zero-guard states are
    kept as they are; if nothing needs splitting the input is returned
    unchanged.
    """
    if all(len(g) <= 1 for g in v.guards):
        return v
    return normalize_guards_with_maps(v)[0]


def normalize_guards_with_maps(v: Vass) -> tuple[Vass, list[int], list[int]]:
    """Like :func:`normalize_guards` but also maps old indices to the
    entry and exit states of each chain (equal for untouched states)."""
    names: list[str] = []
    guards: list[frozenset[int]] = []
    entry: list[int] = []
    exit_: list[int] = []
    taken = set(v.names)
    # Names of untouched states survive; chain links get ".k" suffixes,
    # uniquified if the user already used such names.
    for q in range(v.n_states):
        gs = sorted(v.guards[q])
        if len(gs) <= 1:
            entry.append(len(names))
            exit_.append(len(names))
            names.append(v.names[q])
            guards.append(frozenset(gs))
        else:
            entry.append(len(names))
            for k, g in enumerate(gs, start=1):
                names.append(_fresh_name(f"{v.names[q]}.{k}", taken))
                guards.append(frozenset((g,)))
            exit_.append(len(names) - 1)
    edges: list[Transition] = []
    for q in range(v.n_states):
        gs = sorted(v.guards[q])
        if len(gs) > 1:
            for k in range(len(gs) - 1):
                edges.append(Transition(entry[q] + k, entry[q] + k + 1, 0))
    for t in v.transitions:
        edges.append(Transition(exit_[t.src], entry[t.dst], t.weight))
    vn = Vass(
        names=tuple(names),
        guards=tuple(guards),
        transitions=tuple(edges),
        initial=None if v.initial is None else entry[v.initial],
        target=None if v.target is None else exit_[v.target],
    )
    return vn, entry, exit_


def summarize_path(v: Vass, p: Path) -> PathSummary:
    """Minimal prefix weight, maximal suffix weight, and total weight."""
    prefix = 0
    pmin = 0
    nadir = 0
    for i, w in enumerate(v.path_weights(p)):
        prefix += w
        if prefix < pmin:
            pmin = prefix
            nadir = i + 1
    return PathSummary(pmin=pmin, smax=prefix - pmin, weight=prefix,
                       nadir_index=nadir, witness=p)


def blocked_set(v: Vass, p: Path) -> BlockedSet:
    """Starting counter values from which ``p`` does not lift to a valid run.

    The initial configuration's own guard counts: a run is invalid already
    when it starts on a forbidden value.
    """
    states = v.path_states(p)
    weights = v.path_weights(p)
    low = 0
    prefix = 0
    for w in weights:
        prefix += w
        low = max(low, -prefix)
    extras = set()
    prefix = 0
    for i, q in enumerate(states):
        if i > 0:
            prefix += weights[i - 1]
        for g in v.guards[q]:
            z = g - prefix
            if z >= low:
                extras.add(z)
    return BlockedSet(low_all=low, extras=frozenset(extras))


def lift_run(v: Vass, p: Path, z0: int) -> list[Configuration] | Violation:
    """Lift ``p`` to the run from counter ``z0``, or report why it fails.

    Returns the full configuration sequence when the run is valid, otherwise
    a :class:`Violation` naming the first bad position (1-based) and whether
    the counter went negative or hit a guard.
    """
    if z0 < 0:
        raise ValueError("start counter must be nonnegative")
    states = v.path_states(p)
    weights = v.path_weights(p)
    run = []
    z = z0
    for i, q in enumerate(states):
        if i > 0:
            z += weights[i - 1]
        c = Configuration(q, z)
        if z < 0:
            return Violation(position=i + 1, kind="negative", config=c)
        if z in v.guards[q]:
            return Violation(position=i + 1, kind="guard", config=c)
        run.append(c)
    return run


def successors(v: Vass, c: Configuration) -> list[Configuration]:
    """Valid one-step successors, sorted and deduplicated."""
    out = set()
    for _, t in v.out_edges(c.state):
        z = c.counter + t.weight
        if z >= 0 and z not in v.guards[t.dst]:
            out.add(Configuration(t.dst, z))
    return sorted(out)
