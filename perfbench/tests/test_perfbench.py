"""Self-tests of the benchmark, at tiny sizes.

Run from the repository root:

    python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from perfbench import run as bench  # noqa: E402
from perfbench import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("tune", "serve", "solve")


def run_tiny(capsys, workload, trace=0, tamper=None, seed=3):
    argv = [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    ]
    assert bench.main(argv, tamper=tamper) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines


def run_process(workload, trace, seed=5):
    """One tiny run in a fresh process, as the benchmark is run for real."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = out.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if "output digest" in line)
    return json.loads(lines[-1]), digest


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_registration_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _definition in tracing.LAYER_METRICS
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(capsys, workload):
    result, _ = run_tiny(capsys, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(capsys, workload):
    result, lines = run_tiny(capsys, workload, trace=1)
    assert result["correct"]
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.coverage"]["value"] > 0.5
    assert any("tracing overhead" in line for line in lines)
    assert any("host drift probe" in line for line in lines)


#: Counts that depend on thread timing (batching) or on the host (faults).
TIMING_DEPENDENT = {
    "tuning.minflt", "backend.execute_calls", "backend.execute_multi_calls",
    "backend.batch_width", "backend.live_plans", "gpu.estimate_calls",
    "serve.batch_size", "serve.shed",
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_exactly(workload):
    untraced, digest = run_process(workload, trace=0)
    again, digest_again = run_process(workload, trace=0)
    traced, digest_traced = run_process(workload, trace=1)
    traced_again, _ = run_process(workload, trace=1)
    assert digest == digest_again == digest_traced
    for name in ("iterations", "sim_gflops_hmean"):
        assert untraced["metrics"][name] == again["metrics"][name]
    exact = [
        m["name"] for m in SPEC["per_layer"]
        if m["unit"] == "count"
        and (workload != "serve" or m["name"] not in TIMING_DEPENDENT)
        and m["name"] != "tuning.minflt"
    ]
    for name in exact:
        assert traced["metrics"][name] == traced_again["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(capsys, workload):
    def corrupt_first(kind, index, y):
        if index != 0:
            return y
        y = y.copy()
        y[0] += 1.0
        return y

    result, _ = run_tiny(capsys, workload, tamper=corrupt_first)
    assert result["failed"] == 1 and not result["correct"]
    ok_ratio = result["metrics"]["ok_ratio"]["value"]
    assert ok_ratio == pytest.approx(1 - 1 / result["attempted"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_spans_nest_per_thread():
    rec = tracing.Recorder()
    inner = rec.wrap(lambda: time.sleep(0.002), "inner")
    outer = rec.wrap(lambda: [inner() for _ in range(2)], "outer")

    def work(op):
        rec.set_op(op)
        for _ in range(3):
            outer()

    threads = [threading.Thread(target=work, args=(op,), name=f"w{op}") for op in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)

    spans = {(thread, i): rest for thread, i, *rest in rec.spans()}
    assert len(spans) == 2 * 3 * 3
    for (thread, _i), (name, start, end, parent, op) in spans.items():
        assert op == int(thread[1:])
        if name == "outer":
            assert parent == -1
            continue
        p_name, p_start, p_end, _pp, p_op = spans[(thread, parent)]
        assert p_name == "outer" and p_op == op
        assert p_start <= start <= end <= p_end

    table = tracing.span_table(rec)
    for dur, self_time in zip(table["outer"]["dur"], table["outer"]["self"]):
        assert 0 <= self_time < dur - 0.003
    assert table["inner"]["self"] == table["inner"]["dur"]
    assert 0 < tracing.coverage(rec, time.perf_counter()) <= 1


def test_instrument_restores_the_program():
    import repro
    from repro.serve import server
    from repro.tuning import tuner

    before = (repro.SpMVEngine.multiply, server.serve_key, tuner.pruned_space,
              vars(repro.formats.BCCOOMatrix)["from_scipy"])
    uninstall = tracing.instrument(tracing.Recorder())
    try:
        assert repro.SpMVEngine.multiply is not before[0]
        assert server.serve_key is not before[1]
    finally:
        uninstall()
    after = (repro.SpMVEngine.multiply, server.serve_key, tuner.pruned_space,
             vars(repro.formats.BCCOOMatrix)["from_scipy"])
    assert after == before
