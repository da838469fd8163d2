"""Output identity check of the `vass` CLI over the benchmark corpora.

Builds the seed-1 pass of every workload of `bench/corpus.py` in a
temporary directory and runs, in process through `vass.cli.main`:

- every operation of the three passes (438);
- on every instance file (246), ``check --emit-trace -`` and ``inspect
  --cycles --chains --blocked --u-trace``, each in text and in ``--format
  json``.

It prints the number of outputs (1,422) and one SHA-256 over the argv,
stdout, stderr and exit code of each.  Instance paths are relative to the
temporary directory, so the digest does not depend on where it lies.  A
change meant to keep the CLI output identical runs it against both
checkouts, from the repository root, and compares the two digests:

    PYTHONPATH=<checkout>/src python tests/identity.py

With ``--expect SHA256`` it compares the digest with the one given (the
parent's, say) and exits 1 on a mismatch, printing both, so one command is
the whole gate:

    PYTHONPATH=src python tests/identity.py --expect <parent digest>

Like `tests/exhaustive.py` it runs on demand; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "bench"))

import corpus  # noqa: E402
from vass import cli  # noqa: E402

SEED = 1
PER_FILE = (["check", "--emit-trace", "-"],
            ["inspect", "--cycles", "--chains", "--blocked", "--u-trace"])


def run(argv: list[str]) -> list:
    """``[argv, stdout, stderr, exit code]`` of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [argv, out.getvalue(), err.getvalue(), code]


def outputs():
    """Every output the check hashes, in a fixed order; the working
    directory must be the empty directory the corpora are built in."""
    for workload in corpus.WORKLOADS:
        os.mkdir(workload)
        for op in corpus.build(workload, SEED, workload):
            yield run(op["argv"])
    for workload in corpus.WORKLOADS:
        for name in sorted(os.listdir(workload)):
            path = os.path.join(workload, name)
            for cmd in PER_FILE:
                for fmt in ([], ["--format", "json"]):
                    yield run(fmt + cmd + [path])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="CLI output identity digest")
    parser.add_argument("--expect", metavar="SHA256",
                        help="exit 1 unless the digest is this one")
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    digest = hashlib.sha256()
    count = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for record in outputs():
                digest.update(json.dumps(record).encode() + b"\n")
                count += 1
        finally:
            os.chdir(cwd)
    got = digest.hexdigest()
    print(f"{count} outputs, sha256 {got}, "
          f"{time.perf_counter() - t0:.0f} s")
    if args.expect is not None and got != args.expect:
        print(f"digest mismatch: expected {args.expect}, got {got}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
