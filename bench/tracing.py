"""Spans and counters around the layers of `vass`, for the traced run.

Each layer is wrapped at the module attribute its caller looks up (the CLI
calls ``fixpoint.decide_unboundedness``, ``unbounded_core`` calls the
``analyze`` it imported into ``fixpoint``, and so on), from this file only:
the program itself carries no tracing code.  The wrappers are installed
around each traced call and removed for the untraced ones.  A span records
its name, start, end, parent span and operation id; spans are kept in
memory and written out when the run ends.  Self time is a span's duration minus the
part covered by its child spans, accumulated as the spans close (the solver
runs single-threaded, so spans nest).  Counts come from the arguments and
return values of the wrapped calls, by hooks that run after the span has
closed; their time counts as covered in the parent span, not as its self
time.
"""

from __future__ import annotations

import gzip
import time
from array import array

from vass import cli, cycles, fixpoint, model, objectives, pareto, reductions


def _states_out(counts, args, result):
    counts["model.states_out"] += result[0].n_states


def _bounded_chains(counts, args, result):
    counts["cycles.bounded_chains"] += sum(1 for _ in fixpoint.bounded_chains(result))


def _core(counts, args, result):
    counts["fixpoint.incomplete"] += result.status == "incomplete"


def _round(counts, args, result):
    counts["fixpoint.rounds_adding"] += bool(result.added)


def _bcover(counts, args, result):
    counts["objectives.max_layer"] += result.max_layer


def _families(counts, args, result):
    for elems in result.cells.values():
        counts["pareto.witnesses"] += len(elems)
        counts["pareto.witness_transitions"] += sum(
            len(e.witness.transitions) for e in elems)


def _filter(counts, args, result):
    counts["pareto.filter_in"] += len(args[1])
    counts["pareto.filter_out"] += len(result)


# (module, attribute its callers look up, span name, count hook)
LAYERS = (
    (cli, "main", "cli", None),
    (model, "parse_vass", "model.parse", None),
    (model, "normalize_guards_with_maps", "model.normalize", _states_out),
    (reductions, "reduce_cov_to_unbound", "reductions.cov2unb", None),
    (cycles, "select_cycles", "cycles.select", None),
    (fixpoint, "analyze", "cycles.analyze", _bounded_chains),
    (fixpoint, "unbounded_core", "fixpoint.core", _core),
    (fixpoint, "saturate_step", "fixpoint.saturate", _round),
    (fixpoint, "decide_unboundedness", "fixpoint.query", None),
    (objectives, "decide_bounded_cover", "objectives.bcover", _bcover),
    (pareto, "decide_unbounded_lasso", "pareto.lasso", None),
    (pareto, "build_families", "pareto.families", _families),
    (pareto, "pareto_filter", "pareto.filter", _filter),
)
SPANS = tuple(name for _, _, name, _ in LAYERS)


class Tracer:
    """In-memory span store and per-layer accumulators for one process."""

    def __init__(self):
        self.op_id = -1
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.self_s = {name: 0.0 for name in SPANS}
        self.calls = {name: 0 for name in SPANS}
        self.hook_s = 0.0  # time spent in the count hooks
        self.counts = {
            "model.states_out": 0, "cycles.bounded_chains": 0,
            "fixpoint.incomplete": 0, "fixpoint.rounds_adding": 0,
            "fixpoint.u_tests": 0, "objectives.max_layer": 0,
            "pareto.witnesses": 0, "pareto.witness_transitions": 0,
            "pareto.filter_in": 0, "pareto.filter_out": 0,
        }
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self.patches = self._patches()

    def _wrap(self, kind: int, name: str, fn, hook):
        perf = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.kind.append(kind)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.end[idx] = t1
                self.self_s[name] += (t1 - t0) - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += t1 - t0
            if hook is not None:
                # The hook runs inside the parent span; its time counts as
                # covered there, so no layer's self time includes it.
                h0 = perf()
                hook(self.counts, args, result)
                dh = perf() - h0
                self.hook_s += dh
                if stack:
                    stack[-1][1] += dh
            return result

        return traced

    def _patches(self) -> list[tuple]:
        """``(owner, attribute, original, replacement)`` for every layer."""
        patches = [(module, attr, getattr(module, attr),
                    self._wrap(kind, name, getattr(module, attr), hook))
                   for kind, (module, attr, name, hook) in enumerate(LAYERS)]
        contains = fixpoint.USet.contains
        counts = self.counts

        def counted(uset, c):
            counts["fixpoint.u_tests"] += 1
            return contains(uset, c)

        patches.append((fixpoint.USet, "contains", contains, counted))
        return patches

    def install(self) -> None:
        """Patch every layer of the imported `vass` package in place."""
        for owner, attr, _, replacement in self.patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """All spans as gzipped tab-separated lines, one per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("span\top\tname\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.op[i]}\t{SPANS[self.kind[i]]}\t"
                        f"{self.parent[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")

    def summary(self) -> dict:
        return {"self_s": self.self_s, "calls": self.calls, "hook_s": self.hook_s,
                "counts": self.counts, "spans": len(self.start)}
