"""Tests for the command-line interface."""

import numpy as np
import pytest
from scipy import sparse

from repro.cli import build_parser, main
from repro.matrices import write_matrix_market


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune", "QCD"])
        assert args.device == "gtx680"
        assert args.mode == "pruned"

    def test_rejects_unknown_device(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["multiply", "QCD", "--device", "h100"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "gtx680" in out and "bccoo" in out and "Webbase" in out

    def test_footprint_suite_matrix(self, capsys):
        assert main(["footprint", "Circuit", "--cap", "20000"]) == 0
        out = capsys.readouterr().out
        assert "BCCOO" in out and "COO" in out

    def test_multiply_verifies(self, capsys):
        assert main(["multiply", "QCD", "--cap", "20000"]) == 0
        out = capsys.readouterr().out
        assert "GFLOPS" in out and "max |y - A@x|" in out

    def test_compare(self, capsys):
        assert main(["compare", "Economics", "--cap", "8000"]) == 0
        out = capsys.readouterr().out
        assert "yaspmv" in out and "cusparse" in out

    def test_mtx_file_input(self, tmp_path, capsys):
        A = sparse.random(40, 40, density=0.2, random_state=0, format="csr")
        path = tmp_path / "m.mtx"
        write_matrix_market(path, A)
        assert main(["footprint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nnz" in out

    def test_verify_clean_matrix(self, capsys):
        assert main(["verify", "Economics", "--cap", "8000"]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert "row_stop_count" in out  # format invariants ran
        assert "sampled_reference" in out  # full reference check ran

    def test_verify_mtx_file(self, tmp_path, capsys):
        A = sparse.random(50, 50, density=0.15, random_state=1, format="csr")
        path = tmp_path / "v.mtx"
        write_matrix_market(path, A)
        assert main(["verify", str(path)]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_profile_prints_spans_and_metrics(self, capsys):
        assert main(["profile", "Economics", "--cap", "8000"]) == 0
        out = capsys.readouterr().out
        # Span tree covers prepare -> tune -> convert -> execute.
        assert "engine.prepare" in out
        assert "tuner.tune" in out
        assert "format.convert" in out
        assert "engine.multiply" in out
        assert "kernel.yaspmv" in out
        # Metrics table includes plan-cache and fallback counters.
        assert "tuner.plan_cache.misses" in out
        assert 'fallback.stage_used{stage="tuned"}' in out

    def test_profile_json_trace(self, tmp_path, capsys):
        from repro.obs import load_jsonl

        trace = tmp_path / "prof.jsonl"
        assert main(
            ["profile", "Economics", "--cap", "8000", "--json", str(trace)]
        ) == 0
        roots = load_jsonl(trace.read_text())
        names = {s.name for r in roots for s in r.walk()}
        assert {"engine.prepare", "tuner.tune", "engine.multiply"} <= names

    def test_profile_with_fault_spec(self, capsys):
        assert main(
            [
                "profile", "Economics", "--cap", "8000",
                "--fault", "nan_partial:p=1.0,count=1,seed=3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert 'fault.injections{site="kernel.nan_partial"}' in out
        assert "fallback.stage_failed" in out

    def test_tune_trace_matches_run(self, tmp_path, capsys):
        from repro.obs import load_jsonl

        trace = tmp_path / "tune.jsonl"
        assert main(
            [
                "tune", "Economics", "--cap", "8000", "--trace", str(trace),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "spans" in out
        roots = load_jsonl(trace.read_text())
        spans = [s for r in roots for s in r.walk()]
        candidates = [s for s in spans if s.name == "tuner.candidate"]
        assert candidates
        evaluated = [s for s in candidates if "sim_time_s" in s.attrs]
        # The printed summary counts the same evaluations the trace holds.
        assert f"evaluated {len(evaluated)} configurations" in out

    def test_store_roundtrip_via_cli(self, tmp_path, capsys):
        store = tmp_path / "store.json"
        assert main(["tune", "Economics", "--cap", "8000", "--store", str(store)]) == 0
        assert store.exists()
        out1 = capsys.readouterr().out
        assert "saved configuration" in out1
        # multiply consults the store (no second search output needed;
        # just verify it runs clean with the store argument).
        assert main(
            ["multiply", "Economics", "--cap", "8000", "--store", str(store)]
        ) == 0

    def test_tune_fault_reaches_the_store(self, tmp_path, capsys):
        store = tmp_path / "store.json"
        tune = ["tune", "Economics", "--cap", "8000", "--store", str(store)]
        assert main(tune) == 0
        first = capsys.readouterr().out
        fault = ["--fault", "store.corruption:p=1.0,count=1,seed=5"]
        assert main(tune + fault) == 0
        out = capsys.readouterr().out
        # The garbled store is quarantined and the matrix tuned again,
        # to the same winner.
        assert (tmp_path / "store.json.corrupt").exists()
        assert "warm start" not in out

        def best(text):
            return [line for line in text.splitlines() if line.startswith("best:")]

        assert best(out) == best(first) != []


class TestServeCommand:
    def test_serve_replays_and_verifies(self, tmp_path, capsys):
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text(
            '{"matrix": "QCD", "count": 6, "cap": 20000}\n'
            '{"matrix": "QCD", "count": 2, "cap": 20000, "seed": 3}\n'
        )
        assert main(["serve", "--requests", str(reqs), "--sync"]) == 0
        out = capsys.readouterr().out
        assert "requests : 8 (8 ok, 0 failed)" in out
        assert "cache" in out

    def test_serve_verbose_prints_span_tree(self, tmp_path, capsys):
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text('{"matrix": "QCD", "count": 3, "cap": 20000}\n')
        assert main(["serve", "--requests", str(reqs), "--sync", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "serve.batch" in out
        assert "engine.prepare" in out

    def test_serve_bad_request_file(self, tmp_path, capsys):
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text('{"count": 1}\n')
        assert main(["serve", "--requests", str(reqs), "--sync"]) == 2
        err = capsys.readouterr().err
        assert "matrix" in err


class TestBackendFlag:
    """--backend: only on the subcommands that build their own engine."""

    @pytest.mark.parametrize("cmd", ["multiply", "profile", "verify", "serve"])
    def test_flag_exists_with_faithful_default(self, cmd):
        argv = {
            "serve": ["serve", "--requests", "x.jsonl"],
        }.get(cmd, [cmd, "QCD"])
        args = build_parser().parse_args(argv)
        assert args.backend == "faithful"

    @pytest.mark.parametrize("cmd", ["tune", "chaos", "solve"])
    def test_flag_absent_where_defaults_decide(self, cmd):
        # tune ranks on profile-only launches and checks its winner on
        # the interpreter; chaos and solve use the fabric's and solve()'s
        # defaults.
        argv = {"chaos": ["chaos"]}.get(cmd, [cmd, "QCD"])
        assert not hasattr(build_parser().parse_args(argv), "backend")
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--backend", "fast"])

    def test_rejects_unknown_backend(self):
        for name in ("warp", "auto"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["multiply", "QCD", "--backend", name])

    def test_multiply_fast_backend(self, capsys):
        assert main(
            ["multiply", "QCD", "--cap", "20000", "--backend", "fast"]
        ) == 0
        out = capsys.readouterr().out
        assert "max |y - A@x|" in out

    def test_verify_fast_backend(self, capsys):
        assert main(
            ["verify", "Circuit", "--cap", "8000", "--backend", "fast"]
        ) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out

    def test_bench_gate(self, tmp_path, capsys):
        out_path = tmp_path / "kernels.json"
        assert main(
            ["bench", "--cap", "4000", "--repeats", "1",
             "--out", str(out_path)]
        ) == 0
        import json

        blob = json.loads(out_path.read_text())
        assert blob["kind"] == "bench_kernels"
        assert blob["all_bit_identical"] is True
        out = capsys.readouterr().out
        assert "bit-identical: True" in out
