"""The timed loop of the `vass` benchmark, in a process of its own.

Usage: ``python3 worker.py JOB.json RESULT.json``.  The job names the
operations of one pass, how long to loop, and whether to trace.  The loop is
closed: one client, one thread, each call of ``vass.cli.main`` starts after
the previous one returned.  Whole passes run while the next one, as long as
the longest so far, still ends within ``seconds``, and at least
``MIN_PASSES`` of them; the loop stops early only past ``deadline`` seconds.
When tracing, every operation runs twice, untraced and traced, and one pass
is enough.  Before each operation, and once after the last, the worker times
``calibrate()``, a fixed loop that does not touch the program, so that each
latency can be read against the speed the machine had around it.  The result
holds per-operation latency, calibration time, first stdout line and exit
code, the last calibration, the wall time of every complete pass, and the
process's peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

# Whole passes keep every run's mix of operations equal to the corpus; two
# of them give the tail percentile at least 100 samples.
MIN_PASSES = 2
CAL_LOOPS = 10_000  # iterations of the calibration loop, about 2 ms


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop of dict stores and integer
    arithmetic.  It allocates nothing the cyclic GC tracks, so the program's
    heap does not change its cost; only the speed of the machine does."""
    d = {}
    s = 0
    t0 = time.perf_counter()
    for i in range(CAL_LOOPS):
        d[i & 1023] = s
        s = (s + i * i) % 65521
    return time.perf_counter() - t0


def _call(cli, i: int, op: dict, tracer) -> list:
    """One operation: ``[index in pass, latency, first stdout line, exit
    code, exception or None, traced, calibration time just before]``."""
    cal = calibrate()
    if tracer is not None:
        tracer.install()
    out = io.StringIO()
    raised = None
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(op["argv"])
            except Exception as e:  # an operation that raises fails
                code, raised = None, repr(e)
        t1 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return [i, t1 - t0, out.getvalue().split("\n", 1)[0], code, raised,
            tracer is not None, cal]


def _run(cli, ops: list[dict], job: dict, tracer) -> tuple[list, list]:
    """Per-operation records, and the wall time of each complete pass."""
    seconds, deadline = job["seconds"], job["deadline"]
    min_passes = MIN_PASSES if tracer is None else 1
    records, passes = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            if time.perf_counter() - start > deadline:
                return records, passes
            if tracer is None:
                records.append(_call(cli, i, op, None))
                continue
            # Untraced and traced back to back, the order alternating, so
            # the overhead is measured on one operation at one moment.
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if traced:
                    tracer.op_id = len(records)
                records.append(_call(cli, i, op, tracer if traced else None))
        passes.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + max(passes) > seconds:
            return records, passes


def peak_rss_kb() -> int:
    """Peak resident set of this process, in KiB.  ``VmHWM`` is read first:
    on Linux ``ru_maxrss`` keeps the high-water mark of the process that
    started this one across ``exec``, which would charge the corpus
    generator's memory to the workload."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    job_path, result_path = argv
    with open(job_path, encoding="utf-8") as f:
        job = json.load(f)
    import vass
    from vass import cli

    if not os.path.realpath(vass.__file__).startswith(job["src"]):
        print(f"imported vass from {vass.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    tracer = None
    if job["spans"] is not None:
        from tracing import Tracer

        tracer = Tracer()
    records, passes = _run(cli, job["ops"], job, tracer)
    result = {
        "records": records,
        "cal_end": calibrate(),
        "passes": passes,
        "rss_kb": peak_rss_kb(),
        "layers": None,
    }
    if tracer is not None:
        tracer.write(job["spans"])
        result["layers"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
