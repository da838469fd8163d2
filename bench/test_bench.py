"""Tests of the benchmark itself: a short pass of every workload, the traced
run's layer report, the correctness gate, and the refusal to run without the
program's sources.  Run with ``python3 -m pytest bench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)

SHORT = ["--seed", "7", "--seconds", "0"]


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().split("\n")[-1])


def _short_pass(monkeypatch, n: int, alter=None) -> None:
    """Cut every pass to its first ``n`` operations, then apply ``alter``."""
    build = corpus.build

    def short(*args):
        ops = build(*args)[:n]
        if alter is not None:
            alter(ops)
        return ops

    monkeypatch.setattr(corpus, "build", short)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_pass(workload, monkeypatch, capsys):
    _short_pass(monkeypatch, 12)
    assert run.main(["--workload", workload] + SHORT) == 0
    res = _result(capsys)
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == 24  # two whole passes of 12 operations
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_pass_reports_every_layer(monkeypatch, capsys):
    _short_pass(monkeypatch, 12)
    assert run.main(["--workload", "magnitude", "--trace", "1"] + SHORT) == 0
    res = _result(capsys)
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert res["metrics"]["fixpoint.saturate_s"]["value"] > 0
    assert res["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_same_seed_same_corpus(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ops_a = corpus.build("random-mix", 3, str(a))
    ops_b = corpus.build("random-mix", 3, str(b))
    assert [o["expect"] for o in ops_a] == [o["expect"] for o in ops_b]
    for name in os.listdir(a):
        assert (a / name).read_text() == (b / name).read_text()


def _flip_first(ops):
    ops[0]["expect"] = {"YES": "NO", "NO": "YES"}[ops[0]["expect"]]


def test_wrong_reference_fails_the_run(monkeypatch, capsys):
    _short_pass(monkeypatch, 3, _flip_first)
    assert run.main(["--workload", "magnitude"] + SHORT) == 1
    assert _result(capsys)["correct"] is False


def test_unknown_answer_to_a_settled_instance_fails_the_run():
    ops = [{"argv": ["check", "x.vass"], "expect": "NO"}]
    records = [[0, 0.1, "UNKNOWN", run.EXIT_INCOMPLETE, None, False]]
    check = run.check_answers(ops, records)
    assert check["failed"] == 1 and len(check["wrong"]) == 1
    raised = [[0, 0.1, "", None, "RuntimeError()", False]]
    ops[0]["expect"] = None
    assert len(run.check_answers(ops, raised)["wrong"]) == 1


def test_times_are_scaled_to_the_reference_speed():
    # Four operations of 0.1 s while the calibration loop took twice its
    # reference time: at the reference speed each takes 0.05 s.
    slow = 2 * run.CAL_REF_S
    res = {"records": [[i, 0.1, "NO", 0, None, False, slow] for i in range(4)],
           "cal_end": slow}
    metrics, _ = run.end_to_end(res, [(0.3, slow)] * 3)
    assert metrics["ops_per_s"][0] == pytest.approx(20)
    assert metrics["op_p50_s"][0] == pytest.approx(0.05)
    assert metrics["setup_s"][0] == pytest.approx(0.15)
    raw, _ = run.end_to_end(res, [(0.3, slow)] * 3, lambda t, _c: t)
    assert raw["ops_per_s"][0] == pytest.approx(10)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "magnitude", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
