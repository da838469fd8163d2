"""Bundled demo instances used by the test-suite and ``vass selftest``."""

from __future__ import annotations

from .model import Transition, Vass


def demo_guarded() -> Vass:
    """A 14-state guarded instance exercising every analysis corner: three
    interlocking positive cycles with different periods, guard cut-offs that
    slice residue classes into several bounded chains, and escape runs that
    need pumping before they open up."""
    names = tuple(f"s{i}" for i in range(14))
    guard_values = {
        1: 60, 3: 30, 4: 90, 5: 41, 6: 96, 7: 70, 8: 80, 9: 80,
        10: 120, 11: 43, 12: 130, 13: 130,
    }
    guards = tuple(
        frozenset((guard_values[q],)) if q in guard_values else frozenset()
        for q in range(14)
    )
    edges = (
        (0, 1, 12),
        (1, 2, -12),
        (2, 1, 18),
        (1, 3, 12),
        (3, 4, 30),
        (4, 5, -52),
        (5, 6, 52),
        (6, 4, 9),
        (4, 7, 4),
        (7, 8, 4),
        (8, 9, -3),
        (9, 10, 17),
        (10, 11, -80),
        (11, 12, 81),
        (12, 13, 3),
        (13, 10, 6),
    )
    return Vass(
        names=names,
        guards=guards,
        transitions=tuple(Transition(*e) for e in edges),
        initial=0,
        target=13,
    )


def demo_plain() -> Vass:
    """A small guard-free diamond whose three source-to-sink paths exercise
    the domination order: the top path dominates the middle one, the bottom
    one is incomparable."""
    names = ("s0", "s1", "s2", "s3", "s4")
    edges = (
        (0, 1, -2),
        (0, 2, -3),
        (0, 3, -4),
        (1, 4, 3),
        (2, 4, 3),
        (3, 4, 6),
    )
    return Vass(
        names=names,
        guards=tuple(frozenset() for _ in names),
        transitions=tuple(Transition(*e) for e in edges),
        initial=0,
        target=4,
    )


def up(g: int) -> Vass:
    """One state with a +1 loop and a guard at ``g``: the counter climbs to
    ``g - 1`` and stops, so ``(a, 0)`` is bounded."""
    return Vass(names=("a",), guards=(frozenset((g,)),),
                transitions=(Transition(0, 0, 1),), initial=0)


def updown(g: int) -> Vass:
    """`up` plus a state that counts down from wherever it is entered:
    bounded, and entered from the whole chain below the guard as one run."""
    return Vass(names=("a", "b"), guards=(frozenset((g,)), frozenset()),
                transitions=(Transition(0, 0, 1), Transition(0, 1, 0),
                             Transition(1, 1, -1)),
                initial=0)


def upesc(g: int) -> Vass:
    """`up` with an escape to a pumping state that opens only at counter
    ``g - 1``: unbounded."""
    return Vass(names=("a", "b"), guards=(frozenset((g,)), frozenset()),
                transitions=(Transition(0, 0, 1), Transition(0, 1, -(g - 1)),
                             Transition(1, 1, 1)),
                initial=0)
