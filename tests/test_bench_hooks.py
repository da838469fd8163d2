"""The benchmark's traced run patches `vass` at the attributes named in
``bench/tracing.py`` and reads fields of their results.  These tests load
that file as it is and check that the package still offers what it uses,
so a renamed or shadowed hook target fails here, not only in the
benchmark's own suite."""

import importlib.util
import pathlib
from collections import Counter

import vass
from vass import (Configuration, USet, analyze, chain_bounds, fixpoint,
                  instances, unbounded_core)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_on_the_package():
    tracing = _tracing()
    assert tracing.LAYERS
    for module, attr, name, _ in tracing.LAYERS:
        owner = module.__name__.rpartition(".")[2]
        assert getattr(vass, owner) is module, name
        assert callable(getattr(module, attr, None)), name


def test_core_lookups_go_through_the_counted_contains():
    # the traced run counts core lookups by patching `USet.contains`, so the
    # saturated set must inherit it, not override it
    assert fixpoint.CoreResult.contains is USet.contains
    assert isinstance(unbounded_core(analyze(instances.demo_guarded())), USet)


def test_count_hooks_read_the_results_they_patch():
    tracing = _tracing()
    ana = analyze(instances.demo_guarded())
    core = unbounded_core(ana)
    assert core.contains(Configuration(4, 63))
    chains = [b for b in chain_bounds(ana) if b[3] is not None]
    out = fixpoint.saturate_step(USet(ana), fixpoint.Budget(10_000), chains,
                                 fixpoint.RunSet(ana.vass.n_states))
    assert out.added and core.status == "complete"
    counts = Counter()
    tracing._core(counts, (ana,), core)
    tracing._round(counts, (USet(ana),), out)
    tracing._bounded_chains(counts, (), ana)
    assert counts == {"fixpoint.incomplete": 0, "fixpoint.rounds_adding": 1,
                      "cycles.bounded_chains": len(chains)}
