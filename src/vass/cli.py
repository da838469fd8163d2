"""Command-line entry point.

Answers go to stdout as a single token on the first line (YES / NO /
UNKNOWN); diagnostics go to stderr.  Exit codes: 0 answered, 1 usage error,
2 input error, 3 incomplete (a node or counter cap cut the search
before the answer was certain).  All output is deterministically ordered
so runs can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import Optional

from . import (
    cycles,
    fixpoint,
    instances,
    model,
    objectives,
    oracle,
    pareto,
    reductions,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INCOMPLETE = 3


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefixes: `check --counter 3` is not `--counter-cap 3`
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse exits 2 by default; we want 1
        raise UsageError(message)


def _read_instance(path: str) -> model.Vass:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
    except OSError as e:
        raise InputError(str(e)) from None
    try:
        return model.parse_vass(text)
    except model.ParseError as e:
        raise InputError(str(e)) from None


def _resolve(v: model.Vass, name: Optional[str], marker: Optional[int],
             what: str) -> int:
    if name is not None:
        try:
            return v.index(name)
        except model.ModelError as e:
            raise InputError(str(e)) from None
    if marker is None:
        raise InputError(f"no {what} state: mark one in the file or pass a flag")
    return marker


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        _write_json(sys.stdout, payload)
    else:
        print(payload["answer"])
        for line in payload.get("detail", ()):
            print(line, file=sys.stderr)


def _decision_exit(answer: Optional[bool]) -> tuple[str, int]:
    if answer is None:
        return "UNKNOWN", EXIT_INCOMPLETE
    return ("YES" if answer else "NO"), EXIT_OK


# Commands whose output has no JSON form: `--format json` is refused there.
_TEXT_ONLY_COMMANDS = ("gen", "reduce", "selftest")

# Flags that only one algorithm reads, over all commands; given with any
# other algorithm they are refused rather than silently ignored.
_ALGO_ONLY_FLAGS = (("emit_trace", "fixpoint"), ("counter_cap", "oracle"),
                    ("node_cap", "oracle"), ("witness", "dp"))


def _refuse_foreign_flags(args) -> None:
    for flag, algo in _ALGO_ONLY_FLAGS:
        if args.algo != algo and getattr(args, flag, None) is not None:
            raise UsageError(f"--{flag.replace('_', '-')} applies only to "
                             f"--algo {algo}")


def _cmd_check(args) -> int:
    _refuse_foreign_flags(args)
    _nonnegative(args, "counter_cap", "node_cap")
    v = _read_instance(args.file)
    s = _resolve(v, args.source, v.initial, "source")
    t = (_resolve(v, args.target, v.target, "target")
         if args.mode == "coverability" else None)

    if args.algo == "oracle":
        caps = {"counter_cap": args.counter_cap,
                "node_cap": (oracle.DEFAULT_NODE_CAP if args.node_cap is None
                             else args.node_cap)}
        verdict = (oracle.oracle_unbounded(v, s, **caps) if t is None
                   else oracle.oracle_cover(v, s, t, **caps))
        answer, code = _decision_exit(
            verdict.answer == "yes" if verdict.definite else None)
        detail = [f"explored {verdict.states_explored} configurations",
                  verdict.reason]
    elif args.algo == "pareto":
        if v.has_guards:
            raise InputError("pareto requires guard-free input")
        if t is not None:
            ans = pareto.decide_cover_pareto(v, s, t)
        else:
            ans = pareto.decide_unbounded_lasso(v, s).answer
        answer, code = _decision_exit(ans)
        detail = []
    else:  # fixpoint
        if t is not None:
            dec = fixpoint.decide_coverability(v, s, t)
        else:
            dec = fixpoint.decide_unboundedness(v, s)
        answer, code = _decision_exit(dec.answer)
        detail = [dec.reason]
        if args.emit_trace:
            # a decision settled from the seed set ran no saturation: run
            # it once, under the solve's budget
            core = (dec.core if dec.core is not None
                    else fixpoint.unbounded_core(dec.analysis, dec.budget))

    payload = {"answer": answer, "mode": args.mode, "algo": args.algo,
               "detail": detail}
    if args.emit_trace == "-" and args.format == "json":
        # stdout holds one JSON document: the trace goes inside it
        payload["trace"] = _trace_json(core)
    with (_create(args.emit_trace) if args.emit_trace not in (None, "-")
          else contextlib.nullcontext(sys.stdout)) as trace:
        _emit(payload, args.format)
        if args.emit_trace and "trace" not in payload:
            _write_json(trace, _trace_json(core))
    return code


def _trace_json(core: fixpoint.CoreResult) -> dict:
    names = core.analysis.vass.names
    # reading the rounds forces the core, so the status below covers every
    # chain; read before it, the status would cover only the probes run so far
    rounds = [{names[q]: vals for q, vals in sorted(r.items())}
              for r in core.rounds]
    maxima = {}
    for (q, lo), m in sorted(core.per_chain_max.items()):
        maxima.setdefault(names[q], []).append({"chain_lo": lo, "max": m})
    return {"rounds": rounds, "per_chain_max": maxima, "status": core.status}


def _create(path: str):
    """``path`` opened for writing.  A command opens its output file before
    it prints anything, so an unwritable path is an input error with
    nothing on stdout."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as e:
        raise InputError(str(e)) from None


def _write_json(f, doc: dict) -> None:
    f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cmd_bounded_cover(args) -> int:
    _refuse_foreign_flags(args)
    _nonnegative(args, "counter", "steps")
    for flag in ("counter", "ell", "period"):
        _at_most_max(flag, getattr(args, flag))
    v = _read_instance(args.file)
    s = _resolve(v, args.source, v.initial, "source")
    t = _resolve(v, args.target, v.target, "target")
    o = _objective(args, t)
    init = model.Configuration(s, args.counter)
    payload = {"mode": "bounded-cover", "algo": args.algo, "detail": []}
    if args.algo == "oracle":
        reachable = oracle.oracle_bounded_cover(v, init, o, args.steps)
    else:  # dp
        res = objectives.decide_bounded_cover(v, init, o, args.steps,
                                              want_witness=bool(args.witness))
        reachable = res.reachable
        payload["detail"].append(f"max layer size {res.max_layer}")
        if res.witness is not None:
            payload["witness"] = [v.names[q]
                                  for q in v.path_states(res.witness)]
            payload["detail"].append("witness: " + " ".join(payload["witness"]))
    payload["answer"] = "YES" if reachable else "NO"
    _emit(payload, args.format)
    return EXIT_OK


def _objective(args, t: int) -> objectives.DiseqObjective:
    """The disequality objective at state ``t`` given by the ``--ell``,
    ``--period``, ``--not-res`` and ``--not-val`` flags."""
    not_val = _csv_ints(args.not_val)
    _at_most_max("not-val", *not_val)
    try:
        return objectives.DiseqObjective(
            target_state=t,
            ell=args.ell,
            period=args.period,
            forbidden_residues=frozenset(_csv_ints(args.not_res)),
            forbidden_values=frozenset(not_val),
        )
    except ValueError as e:
        raise InputError(str(e)) from None


def _nonnegative(args, *flags: str) -> None:
    """Refuse a negative value of any of the given numeric flags (``None``
    means the flag was not given)."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise InputError(f"--{flag.replace('_', '-')} must be nonnegative")


def _at_most_max(flag: str, *values: int) -> None:
    """Refuse a value of ``--flag`` above `model.MAX_MAGNITUDE`: counters
    are 64-bit inputs, as in the instance format."""
    if any(x > model.MAX_MAGNITUDE for x in values):
        raise InputError(f"--{flag} must be at most {model.MAX_MAGNITUDE}")


def integer(tok: str) -> int:
    """A numeric flag's value, read as the instance format reads integers:
    an optional sign and ASCII digits only (``int`` alone would also take
    ``1_0``, surrounding blanks and non-ASCII digits).  argparse names the
    type in its error, hence the name: "invalid integer value"."""
    return model._int(tok)


def _csv_ints(text: Optional[str]) -> list[int]:
    if not text:
        return []
    try:
        return [integer(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise InputError(f"bad integer list {text!r}") from None


def _cmd_inspect(args) -> int:
    v = _read_instance(args.file)
    vn = model.normalize_guards(v)
    analysis = cycles.analyze(vn)
    doc: dict = {"states": list(vn.names)}

    sections = {
        "cycles": args.cycles, "chains": args.chains,
        "blocked": args.blocked, "u_trace": args.u_trace,
        "pareto": args.pareto,
    }
    if not any(sections.values()):
        sections["cycles"] = sections["chains"] = True

    if sections["cycles"] or sections["blocked"]:
        cyc = []
        for q in sorted(analysis.states):
            sa = analysis.states[q]
            entry = {
                "state": vn.names[q],
                "cycle": [vn.names[x] for x in vn.path_states(sa.selection.gamma)],
                "period": sa.selection.period,
                "pmin": sa.selection.pmin,
                "floor": sa.floor,
            }
            if sections["blocked"]:
                caps = sorted(c for cs in sa.splits.values() for c in cs)
                entry["blocked_low"] = sa.floor
                entry["blocked_families"] = [
                    {"cap": cap, "step": sa.selection.period} for cap in caps
                ]
            cyc.append(entry)
        doc["cycles"] = cyc
    if sections["chains"]:
        doc["chains"] = [
            {"state": vn.names[q], "residue": lo % w, "lo": lo, "hi": hi}
            for q, w, lo, hi in cycles.chain_bounds(analysis)
        ]
    if sections["u_trace"]:
        doc["u_trace"] = _trace_json(fixpoint.unbounded_core(analysis))
    if sections["pareto"]:
        if vn.has_guards:
            raise InputError("pareto families require guard-free input")
        fam = pareto.build_families(vn)
        cells = []
        for (p, q) in sorted(fam.cells):
            for e in fam.cell(p, q):
                cells.append({
                    "src": vn.names[p], "dst": vn.names[q],
                    "pmin": e.pmin, "smax": e.smax, "weight": e.weight,
                    "witness": [vn.names[x] for x in vn.path_states(e.witness)],
                })
        doc["pareto"] = {"level": fam.level, "cells": cells}

    if args.format == "json":
        _write_json(sys.stdout, doc)
    else:
        _print_inspect_text(doc)
    return EXIT_OK


def _print_inspect_text(doc: dict) -> None:
    if "cycles" in doc:
        print("# pumpable states")
        for e in doc["cycles"]:
            line = (f"{e['state']}: cycle {'->'.join(e['cycle'])} "
                    f"period {e['period']} pmin {e['pmin']} floor {e['floor']}")
            if "blocked_low" in e:
                fams = " ".join(f"<= {f['cap']} step {f['step']}"
                                for f in e["blocked_families"])
                line += f" | blocked below {e['blocked_low']}" + (
                    f", families {fams}" if fams else "")
            print(line)
    if "chains" in doc:
        print("# bounded chains and tails per residue class")
        for c in doc["chains"]:
            hi = "inf" if c["hi"] is None else c["hi"]
            print(f"{c['state']} mod-class {c['residue']}: [{c['lo']}, {hi}]")
    if "u_trace" in doc:
        print("# saturation rounds")
        for i, r in enumerate(doc["u_trace"]["rounds"], 1):
            adds = "; ".join(f"{s}: {vals}" for s, vals in sorted(r.items()))
            print(f"round {i}: {adds}")
        print(f"status: {doc['u_trace']['status']}")
    if "pareto" in doc:
        print(f"# pareto families, level {doc['pareto']['level']}")
        for c in doc["pareto"]["cells"]:
            print(f"{c['src']}->{c['dst']}: pmin {c['pmin']} smax {c['smax']} "
                  f"weight {c['weight']} via {'->'.join(c['witness'])}")


def _cmd_gen(args) -> int:
    if args.dimacs:
        try:
            with open(args.dimacs, "r", encoding="utf-8") as f:
                formula = reductions.parse_dimacs(f.read())
        except (OSError, ValueError) as e:
            raise InputError(str(e)) from None
    elif args.random:
        m, n, seed = args.random
        try:
            formula = reductions.random_cnf(m, n, seed)
        except ValueError as e:
            raise InputError(str(e)) from None
    else:
        raise UsageError("gen cnf needs --dimacs FILE or --random M N SEED")
    try:
        v, meta = reductions.cnf_to_vass(formula)
    except ValueError as e:
        raise InputError(str(e)) from None
    with (_create(args.meta) if args.meta
          else contextlib.nullcontext()) as sidecar:
        sys.stdout.write(model.serialize_vass(v))
        if sidecar is not None:
            _write_json(sidecar, {
                "primes": list(meta.primes),
                "product": meta.product,
                "clause_weights": list(meta.clause_weights),
                "guard_windows": [list(w) for w in meta.guard_windows],
            })
    return EXIT_OK


def _cmd_reduce(args) -> int:
    v = _read_instance(args.file)
    s = _resolve(v, args.source, v.initial, "source")
    t = _resolve(v, args.target, v.target, "target")
    out, s1 = reductions.reduce_cov_to_unbound(v, s, t)
    sys.stdout.write(model.serialize_vass(out))
    print(f"# source {out.names[s1]}", file=sys.stderr)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    """Golden checks on the bundled demo instances; exit 0 iff all pass."""
    from .model import Configuration, Path

    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    v = instances.demo_guarded()
    p = Path(4, (5, 6))
    bs = model.blocked_set(v, p)
    check("blocked set of the guarded demo path",
          bs.members_upto(200) == set(range(52)) | {90, 93, 96})
    sels = cycles.select_cycles(v)
    bo = cycles.blocked_omega(v, sels[4])
    check("blocked set of the pumped demo cycle",
          bo.members_upto(300)
          == set(range(52)) | {z for z in range(52, 97) if z % 9 in (0, 3, 6)})
    check("demo cycle data",
          sels[1].period == 6 and sels[1].pmin == -12 and sels[4].period == 9)
    core = fixpoint.unbounded_core(cycles.analyze(v))
    core.per_chain_max  # force every chain, so the status covers them all
    check("saturation completes", core.status == "complete")
    check("saturation agrees with the oracle on small counters",
          _selftest_membership(v, core))
    dec = fixpoint.decide_unboundedness(v, 0)
    check("demo instance is unbounded from its initial state",
          dec.answer is True)
    cov = fixpoint.decide_coverability(v, 0, 13)
    check("demo instance covers its target", cov.answer is True)
    decided = [fixpoint.decide_unboundedness(inst(10**7), 0)
               for inst in (instances.up, instances.upesc)]
    check("guard at 10^7: up is bounded and upesc unbounded, both complete",
          [d.answer for d in decided] == [False, True]
          and all(d.status == "complete" for d in decided))
    g = instances.demo_plain()
    fam = pareto.build_families(g)
    summaries = {(e.pmin, e.smax) for e in fam.cell(0, 4)}
    check("plain demo keeps exactly the two undominated summaries",
          summaries == {(-2, 3), (-4, 6)})
    check("plain demo: the lasso test answers as a scan of the full family",
          all(pareto.decide_unbounded_lasso(g, s).answer
              == (pareto._find_lasso(fam.cell, s, g.n_states) is not None)
              for s in range(g.n_states)))
    print(f"{len(failures)} failures")
    return EXIT_OK if not failures else EXIT_INPUT


def _selftest_membership(v, core) -> bool:
    from .oracle import oracle_unbounded
    from .reductions import with_start_counter

    for q in sorted(core.analysis.states):
        sa = core.analysis.states[q]
        for z in range(sa.floor, 131):
            if z in v.guards[q]:
                continue
            w, w0 = with_start_counter(v, z, q)
            verdict = oracle_unbounded(w, w0, counter_cap=500)
            if not verdict.definite:
                return False
            if core.contains(model.Configuration(q, z)) != (verdict.answer == "yes"):
                return False
    return True


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built once and shared by `main` calls."""
    p = _Parser(prog="vass", description=__doc__)
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_instance_arg(sp):
        sp.add_argument("file", help="instance file, or - for stdin")
        sp.add_argument("--source", help="override the init marker")
        sp.add_argument("--target", help="override the target marker")

    c = sub.add_parser("check", help="decide coverability or unboundedness")
    add_instance_arg(c)
    c.add_argument("--mode", choices=("unboundedness", "coverability"),
                   default="unboundedness")
    c.add_argument("--algo", choices=("fixpoint", "pareto", "oracle"),
                   default="fixpoint")
    c.add_argument("--emit-trace", metavar="PATH",
                   help="write the saturation trace as JSON (- for stdout)")
    c.add_argument("--counter-cap", type=integer, default=None)
    c.add_argument("--node-cap", type=integer, default=None)
    c.set_defaults(func=_cmd_check)

    b = sub.add_parser("bounded-cover",
                       help="length-bounded coverability of an objective")
    add_instance_arg(b)
    b.add_argument("--algo", choices=("dp", "oracle"), default="dp")
    b.add_argument("--counter", type=integer, default=0)
    b.add_argument("--ell", type=integer, required=True)
    b.add_argument("--period", type=integer, required=True)
    b.add_argument("--not-res", default="", help="forbidden residues, CSV")
    b.add_argument("--not-val", default="", help="forbidden values, CSV")
    b.add_argument("--steps", type=integer, required=True)
    # None when not given, as `_ALGO_ONLY_FLAGS` reads it
    b.add_argument("--witness", action="store_true", default=None)
    b.set_defaults(func=_cmd_bounded_cover)

    i = sub.add_parser("inspect", help="dump the cycle and chain analysis")
    i.add_argument("file", help="instance file, or - for stdin")
    i.add_argument("--cycles", action="store_true")
    i.add_argument("--chains", action="store_true")
    i.add_argument("--blocked", action="store_true")
    i.add_argument("--u-trace", action="store_true")
    i.add_argument("--pareto", action="store_true")
    i.set_defaults(func=_cmd_inspect)

    g = sub.add_parser("gen", help="generate instances")
    g.add_argument("kind", choices=("cnf",))
    g.add_argument("--dimacs", metavar="FILE")
    g.add_argument("--random", nargs=3, type=integer,
                   metavar=("M", "N", "SEED"))
    g.add_argument("--meta", metavar="PATH", help="write the JSON sidecar here")
    g.set_defaults(func=_cmd_gen)

    r = sub.add_parser("reduce", help="instance transformations")
    r.add_argument("kind", choices=("cov2unbound",))
    add_instance_arg(r)
    r.set_defaults(func=_cmd_reduce)

    st = sub.add_parser("selftest", help="run the bundled golden checks")
    st.set_defaults(func=_cmd_selftest)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format == "json" and args.cmd in _TEXT_ONLY_COMMANDS:
            raise UsageError(f"--format json does not apply to {args.cmd}")
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: end quietly, and keep the flush at exit from
        # raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, model.ParseError, model.ModelError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
