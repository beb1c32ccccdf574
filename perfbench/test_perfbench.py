"""Small-scale self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, WrongAnswer, build_ops, check  # noqa: E402


def small(name: str, traced_ops: int) -> workloads.Workload:
    return dataclasses.replace(WORKLOADS[name], traced_ops=traced_ops)


@pytest.fixture(scope="module")
def ops():
    return {name: build_ops(w, seed=3) for name, w in WORKLOADS.items()}


def test_benchmark_json_gives_each_workload_its_reason():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert run.percentile(values, 0.5) == 50.0
    assert run.percentile(values, 0.9) == 90.0
    assert run.percentile([7.0], 0.9) == 7.0


def test_self_time_subtracts_covered_child_time():
    t = Tracer()
    t.spans = [
        (0, 0, None, "pipeline.op", 0.0, 10.0),
        (0, 1, 0, "graph.parse_graph", 1.0, 3.0),
        (0, 2, 0, "dp.run_dp", 2.0, 6.0),  # overlaps the first child
        (0, 3, 0, "dp.extract_witness", 9.0, 12.0),  # runs past the parent
    ]
    selft = t.self_times()
    assert selft["pipeline.op"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selft["dp.run_dp"] == pytest.approx(4.0)


def test_op_lists_depend_on_the_seed_only(ops):
    for name, w in WORKLOADS.items():
        again = build_ops(w, seed=3)
        assert [(o.text, o.k) for o in again] == [(o.text, o.k) for o in ops[name]]
        other = build_ops(w, seed=4)
        assert [o.text for o in other] != [o.text for o in again]


def test_injected_wrong_answers_are_caught(ops):
    op = next(o for o in ops["gamma-auto"] if len(o.text) < 200)
    good = workloads.op_gamma(op)
    check("gamma-auto", op, good)
    with pytest.raises(WrongAnswer):
        check("gamma-auto", op, dataclasses.replace(good, gamma_prime=good.gamma_prime + 1))
    for witness in (good.witness[:-1], good.witness[:-1] + good.witness[:1], [(1, 1)]):
        with pytest.raises(WrongAnswer):
            check("gamma-auto", op, dataclasses.replace(good, witness=witness))

    op = ops["solve-decide"][0]
    good = workloads.op_solve(op)
    check("solve-decide", op, good)
    with pytest.raises(WrongAnswer):
        check("solve-decide", op, dataclasses.replace(good, decision=not good.decision))

    op = ops["kernelize-sparse"][0]
    k, out = workloads.op_kernelize(op)
    check("kernelize-sparse", op, (k, out))
    with pytest.raises(WrongAnswer):
        check("kernelize-sparse", op, (k, dataclasses.replace(out, k=out.k + 1)))


def test_timed_run_fails_on_a_wrong_answer(ops, monkeypatch):
    def wrong(op):
        r = workloads.op_gamma(op)
        return dataclasses.replace(r, gamma_prime=r.gamma_prime - 1)

    monkeypatch.setitem(workloads.OPERATIONS, "gamma-auto", wrong)
    result = run.timed_run(WORKLOADS["gamma-auto"], ops["gamma-auto"], 0.2, setup_samples=1)
    assert result["correct"] is False


def test_timed_run_counts_exceptions_as_failed(ops, monkeypatch):
    def refuse(op):
        raise MemoryError("injected")

    monkeypatch.setitem(workloads.OPERATIONS, "solve-decide", refuse)
    result = run.timed_run(WORKLOADS["solve-decide"], ops["solve-decide"], 0.05, setup_samples=1)
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_drift_guard_catches_a_diverging_replay(ops, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)

    def drifting(t, op):
        r = tracing.replay_solve(t, op)
        r.stage = "kernel-decided"
        return r

    monkeypatch.setitem(tracing.REPLAYS, "solve-decide", drifting)
    result = run.traced_run(small("solve-decide", 2), ops["solve-decide"], seed=3)
    assert result["correct"] is False


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, ops, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    w = small(name, {"gamma-auto": 6, "solve-decide": 12, "kernelize-sparse": 3}[name])
    first, second = (run.traced_run(w, ops[name], seed=3) for _ in range(2))
    assert first["correct"] and second["correct"]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert set(first["metrics"]) == {m["name"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    spans = (tmp_path / f"spans-{name}-seed3.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["name"] == "pipeline.op"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gamma-auto", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
