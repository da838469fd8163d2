"""Seeded benchmark of the `vass` CLI decision path.

Usage, from the root of a checkout::

    python3 bench/run.py --workload cnf-saturation --seed 1 --seconds 30 --trace 0

One operation is one in-process call of ``vass.cli.main(argv)`` with stdout
captured: argparse, parsing, guard normalization, the solver and the output,
without interpreter start-up.  This script generates one pass of the
workload's corpus and its reference answers, measures set-up, then runs the
timed closed loop in a fresh worker process (``worker.py``) so that peak RSS
and warm state belong to that workload alone.  Every operation's first
stdout line must equal its reference; a wrong answer fails the run.

The end-to-end times are scaled to one reference speed of the machine: each
latency, and each set-up sample, is multiplied by ``CAL_REF_S`` over the
mean time ``worker.calibrate()`` took just before and just after it.  A
shared host can change speed by half within seconds; the scaling takes that
out of the figures, while a change to the program moves them as much as it
moves the raw times.  The raw figures go to the report file.  The per-layer
times of ``--trace 1`` are raw.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a worker that runs every
operation untraced and traced, back to back, and the run fails unless every
layer the workload is meant to load was entered.  Spans and a full
report are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from worker import calibrate

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_REPEATS = 8         # set-up samples before and again after the loop
DEADLINE_S = 140          # a timed loop stops starting operations after this
KILL_MARGIN_S = 25        # a worker still running this long after is killed
TAIL_BEYOND = 10          # samples required above the tail percentile
EXIT_INCOMPLETE = 3       # exit code of `vass check` when it answers UNKNOWN
CAL_REF_S = 0.002         # calibrate() at the reference speed: about its
                          # median on a 2-vCPU KVM guest, CPython 3.11

# Layers each workload is built to load; the traced run fails if one of
# these spans never fired (or, for u_tests, never counted).
REQUIRED = {
    "cnf-saturation": ("cli", "model.parse", "model.normalize", "cycles.select",
                       "cycles.analyze", "fixpoint.core", "fixpoint.saturate",
                       "fixpoint.query", "fixpoint.u_tests"),
    "magnitude": ("cli", "model.parse", "model.normalize", "cycles.analyze",
                  "fixpoint.core", "fixpoint.saturate", "fixpoint.query",
                  "fixpoint.u_tests"),
    "random-mix": ("cli", "model.parse", "model.normalize", "reductions.cov2unb",
                   "cycles.select", "cycles.analyze", "fixpoint.query",
                   "objectives.bcover", "pareto.lasso", "pareto.families",
                   "pareto.filter"),
}

# Self time per operation of each span, by metric name.
SELF_TIME = {
    "cli.self_s": "cli", "model.parse_s": "model.parse",
    "model.normalize_s": "model.normalize",
    "reductions.cov2unb_s": "reductions.cov2unb",
    "cycles.select_s": "cycles.select", "cycles.analyze_s": "cycles.analyze",
    "fixpoint.core_s": "fixpoint.core", "fixpoint.saturate_s": "fixpoint.saturate",
    "fixpoint.query_s": "fixpoint.query", "objectives.bcover_s": "objectives.bcover",
    "pareto.lasso_s": "pareto.lasso", "pareto.families_s": "pareto.families",
    "pareto.filter_s": "pareto.filter",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def scaled(seconds: float, cal: float) -> float:
    """``seconds`` measured while ``calibrate()`` took ``cal``, at the
    reference speed."""
    return seconds * CAL_REF_S / cal


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """Wall times of fresh interpreters that import `vass`, each with the
    mean calibration time just before and after it.  No timeout: with one,
    ``subprocess`` polls the child with sleeps of up to 50 ms, and the times
    would snap to that grid."""
    cmd = [sys.executable, "-c", "import vass"]
    samples = []
    cal = calibrate()
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True)
        t = time.perf_counter() - t0
        after = calibrate()
        samples.append((t, (cal + after) / 2))
        cal = after
    return samples


def run_worker(ops: list[dict], workdir: str, seconds: float, spans) -> dict:
    """Run the closed loop in a fresh process and return its result."""
    job = os.path.join(workdir, "job.json")
    result = os.path.join(workdir, "result.json")
    with open(job, "w", encoding="utf-8") as f:
        json.dump({"ops": ops, "seconds": seconds, "deadline": DEADLINE_S,
                   "spans": spans, "src": os.path.realpath(SRC)}, f)
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), job, result],
                   cwd=ROOT, env=_child_env(), check=True,
                   timeout=DEADLINE_S + KILL_MARGIN_S)
    with open(result, encoding="utf-8") as f:
        return json.load(f)


def check_answers(ops: list[dict], records: list) -> dict:
    """Compare every operation's first stdout line with its reference.

    An operation *fails* if it raises, exits with a code other than 0, or
    answers neither YES nor NO.  It is *wrong* if it has a reference and does
    not answer it with exit code 0 (so an operation that gives up or crashes
    on a settled instance is wrong, not only failed), or if it raises or exits
    with a code other than 0 and UNKNOWN's, whatever its reference."""
    wrong, failed, unverified = [], 0, 0
    for i, _lat, token, code, raised, *_ in records:
        expect = ops[i]["expect"]
        if raised is not None or code != 0 or token not in ("YES", "NO"):
            failed += 1
        if (raised is not None or code not in (0, EXIT_INCOMPLETE)
                or (expect is not None and (token != expect or code != 0))):
            wrong.append({"argv": ops[i]["argv"], "expect": expect, "got": token,
                          "code": code, "raised": raised})
        elif expect is None:
            unverified += 1
    return {"wrong": wrong, "failed": failed, "unverified": unverified}


def tail(latencies: list[float]) -> tuple[float, int]:
    """Latency at the highest percentile (at most p90) that leaves at least
    ``TAIL_BEYOND`` samples above it, and that percentile."""
    n = len(latencies)
    pct = max(1, min(90, 100 * (n - TAIL_BEYOND) // n))
    if n < 2:
        return latencies[0], pct
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1], pct


def end_to_end(res: dict, setup: list, scale=scaled) -> tuple[dict, dict]:
    """The end-to-end metrics of a worker's result and the set-up samples,
    every time passed through ``scale(seconds, calibration time)``.
    Throughput is operations over the sum of their latencies: the loop is
    closed and has no idle time, so that sum is the wall time of the passes
    without the calibrations."""
    records = res["records"]
    cals = [r[6] for r in records] + [res["cal_end"]]
    lat = [scale(r[1], (cals[k] + cals[k + 1]) / 2) for k, r in enumerate(records)]
    tail_s, pct = tail(lat)
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(scale(t, c) for t, c in setup), "s"),
    }
    return metrics, {"tail_percentile": pct, "samples": len(lat)}


def per_layer(layers: dict, ops: int, overhead: float) -> dict:
    s, calls, counts = layers["self_s"], layers["calls"], layers["counts"]
    m = {name: (s[span] / ops, "s/op") for name, span in SELF_TIME.items()}
    per_op = lambda x: (x / ops, "count/op")  # noqa: E731
    m.update({
        "model.states_out": (_ratio(counts["model.states_out"],
                                    calls["model.normalize"]), "count/call"),
        "cycles.analyze_calls": per_op(calls["cycles.analyze"]),
        "cycles.bounded_chains": (_ratio(counts["cycles.bounded_chains"],
                                         calls["cycles.analyze"]), "count/call"),
        "fixpoint.rounds": per_op(calls["fixpoint.saturate"]),
        "fixpoint.rounds_adding": per_op(counts["fixpoint.rounds_adding"]),
        "fixpoint.round_yield": (_ratio(counts["fixpoint.rounds_adding"],
                                        calls["fixpoint.saturate"]), "ratio"),
        "fixpoint.u_tests": per_op(counts["fixpoint.u_tests"]),
        "fixpoint.incomplete": per_op(counts["fixpoint.incomplete"]),
        "objectives.max_layer": (_ratio(counts["objectives.max_layer"],
                                        calls["objectives.bcover"]), "count/call"),
        "pareto.filter_calls": per_op(calls["pareto.filter"]),
        "pareto.filter_in": (_ratio(counts["pareto.filter_in"],
                                    calls["pareto.filter"]), "count/call"),
        "pareto.filter_out": (_ratio(counts["pareto.filter_out"],
                                     calls["pareto.filter"]), "count/call"),
        "pareto.keep_ratio": (_ratio(counts["pareto.filter_out"],
                                     counts["pareto.filter_in"]), "ratio"),
        "pareto.witness_len": (_ratio(counts["pareto.witness_transitions"],
                                      counts["pareto.witnesses"]), "count/path"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return m


def missing_layers(workload: str, layers: dict) -> list[str]:
    fired = dict(layers["calls"], **{"fixpoint.u_tests":
                                     layers["counts"]["fixpoint.u_tests"]})
    return [name for name in REQUIRED[workload] if not fired[name]]


def layer_shares(layers: dict, traced_s: float) -> dict:
    """Each span's self time as a share of the traced operations' time."""
    shares = {k: v / traced_s for k, v in layers["self_s"].items() if v}
    shares["(trace hooks)"] = layers["hook_s"] / traced_s
    shares["(loop)"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vass", "__init__.py")):
        print(f"no vass sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import corpus

    if args.workload not in corpus.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {corpus.WORKLOADS}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        return _bench(args, corpus, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, corpus, workdir: str) -> int:
    ops = corpus.build(args.workload, args.seed, workdir)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed,
              "machine": {"nproc": os.cpu_count(),
                          "python": platform.python_version(),
                          "gil": getattr(sys, "_is_gil_enabled", lambda: True)()},
              "pass_ops": len(ops),
              "pass_unverified": sum(op["expect"] is None for op in ops)}
    if args.trace:
        spans = os.path.join(OUT, f"spans-{tag}.tsv.gz")
        res = run_worker(ops, workdir, args.seconds, spans)
        lat = {True: 0.0, False: 0.0}
        for r in res["records"]:
            lat[r[5]] += r[1]
        layers = res["layers"]
        traced_ops = sum(r[5] for r in res["records"])
        metrics = per_layer(layers, traced_ops, _ratio(lat[True], lat[False]))
        report.update(spans_file=os.path.relpath(spans, ROOT),
                      span_count=layers["spans"],
                      layer_shares=layer_shares(layers, lat[True]))
    else:
        measure_setup(1)  # fills the bytecode cache
        setup = measure_setup(SETUP_REPEATS)
        res = run_worker(ops, workdir, args.seconds, None)
        setup += measure_setup(SETUP_REPEATS)
        metrics, extra = end_to_end(res, setup)
        metrics["peak_rss_mb"] = (res["rss_kb"] / 1024, "MB")
        raw, _ = end_to_end(res, setup, lambda t, _c: t)
        cals = [r[6] for r in res["records"]] + [c for _, c in setup]
        report.update(extra, unscaled={k: v for k, (v, _) in raw.items()},
                      calibration_s=statistics.quantiles(cals, n=4))

    check = check_answers(ops, res["records"])
    wrong = check["wrong"]
    report.update(ops=len(res["records"]), passes=len(res["passes"]),
                  unverified=check["unverified"], failed=check["failed"],
                  wrong=wrong[:20],
                  metrics={k: v for k, (v, _) in metrics.items()})
    if args.trace:
        missing = missing_layers(args.workload, res["layers"])
        report["missing_layers"] = missing
    with open(os.path.join(OUT, f"report-{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)

    print(f"workload {args.workload} seed {args.seed}: {report['ops']} operations "
          f"({report['passes']} complete passes of {len(ops)}), "
          f"{report['unverified']} unverified, {report['failed']} failed, "
          f"{len(wrong)} wrong")
    if args.trace:
        print("layer self-time shares: " + ", ".join(
            f"{k} {v:.1%}" for k, v in report["layer_shares"].items()))
        if missing:
            print(f"span coverage: no call of {', '.join(missing)}", file=sys.stderr)
            return 1
    else:
        print(f"tail latency is p{report['tail_percentile']} "
              f"of {report['samples']} samples")
    for w in wrong[:5]:
        print(f"wrong answer: {w}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(res["records"]),
        "failed": check["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
