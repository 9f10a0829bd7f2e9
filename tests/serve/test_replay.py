"""Tests for the JSONL workload replay harness (`repro.serve.replay`)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro import ServeConfig, SpMVEngine, SpMVServer, ValidationError
from repro.serve import ReplaySpec, load_requests, run_replay


class TestReplaySpec:
    def test_defaults(self):
        spec = ReplaySpec(matrix="QCD")
        assert (spec.count, spec.seed, spec.k, spec.timeout_s) == (1, 0, 1, None)

    def test_bad_count_rejected(self):
        with pytest.raises(ValidationError):
            ReplaySpec(matrix="QCD", count=0)

    def test_bad_k_rejected(self):
        with pytest.raises(ValidationError):
            ReplaySpec(matrix="QCD", k=0)

    def test_wrong_typed_fields_rejected(self):
        with pytest.raises(ValidationError, match="count"):
            ReplaySpec(matrix="QCD", count="four")
        with pytest.raises(ValidationError, match="k"):
            ReplaySpec(matrix="QCD", k=None)
        with pytest.raises(ValidationError, match="matrix"):
            ReplaySpec(matrix=7)
        with pytest.raises(ValidationError, match="timeout_s"):
            ReplaySpec(matrix="QCD", timeout_s="fast")
        with pytest.raises(ValidationError, match="seed"):
            ReplaySpec(matrix="QCD", seed=-1)


class TestLoadRequests:
    def test_parses_lines_comments_and_blanks(self, tmp_path):
        p = tmp_path / "reqs.jsonl"
        p.write_text(
            "# warm-up burst\n"
            '{"matrix": "QCD", "count": 4, "seed": 1}\n'
            "\n"
            '{"matrix": "Dense", "count": 2, "k": 3, "cap": 20000}\n'
        )
        specs = load_requests(p)
        assert [s.matrix for s in specs] == ["QCD", "Dense"]
        assert specs[0].count == 4 and specs[0].seed == 1
        assert specs[1].k == 3 and specs[1].cap == 20000

    def test_invalid_json_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"matrix": "QCD"}\n{oops}\n')
        with pytest.raises(ValidationError, match=":2:"):
            load_requests(p)

    def test_missing_matrix_field_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"count": 3}\n')
        with pytest.raises(ValidationError, match="'matrix'"):
            load_requests(p)

    def test_unknown_fields_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"matrix": "QCD", "burst": 9}\n')
        with pytest.raises(ValidationError, match="burst"):
            load_requests(p)

    def test_wrong_typed_fields_rejected_with_line_number(self, tmp_path):
        # Malformed values (not just malformed JSON) must surface as the
        # documented clean ValidationError with file:line context, never
        # as a raw TypeError traceback.
        p = tmp_path / "bad.jsonl"
        p.write_text('{"matrix": "QCD"}\n{"matrix": "QCD", "count": "four"}\n')
        with pytest.raises(ValidationError, match=":2:.*count"):
            load_requests(p)
        p.write_text('{"matrix": "QCD", "k": null}\n')
        with pytest.raises(ValidationError, match=":1:.*k must"):
            load_requests(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("# nothing here\n")
        with pytest.raises(ValidationError, match="no requests"):
            load_requests(p)


def threadless_server() -> SpMVServer:
    return SpMVServer(
        SpMVEngine(), ServeConfig(batch_window_s=0.0), start=False
    )


class TestRunReplay:
    def test_replay_from_file_verifies_and_reports(self, tmp_path):
        p = tmp_path / "reqs.jsonl"
        p.write_text(
            '{"matrix": "QCD", "count": 6, "cap": 20000}\n'
            '{"matrix": "QCD", "count": 2, "cap": 20000, "seed": 5}\n'
        )
        with threadless_server() as srv:
            report = run_replay(p, srv)
        assert report.requests == 8
        assert report.ok == 8
        assert report.failed == 0
        assert report.errors == []
        assert report.max_abs_err < 1e-8
        assert report.stats["cache"]["misses"] == 1  # one matrix, one prepare
        assert report.stats["cache"]["hits"] == 7

    def test_multi_rhs_lines(self, tmp_path):
        p = tmp_path / "reqs.jsonl"
        p.write_text('{"matrix": "Dense", "count": 2, "k": 3, "cap": 10000}\n')
        with threadless_server() as srv:
            report = run_replay(p, srv)
        assert report.requests == 2
        assert report.ok == 2
        assert report.max_abs_err < 1e-8

    def test_replay_against_external_server(self):
        engine = SpMVEngine()
        srv = SpMVServer(engine, ServeConfig(batch_window_s=0.0), start=False)
        specs = [ReplaySpec(matrix="QCD", count=3, cap=20000)]
        report = run_replay(specs, srv)
        assert report.ok == 3
        # The caller's server stays open for further traffic.
        A = sparse.random(50, 50, density=0.1, random_state=0, format="csr")
        resp = srv.multiply(A, np.ones(50))
        assert np.allclose(resp.y, A @ np.ones(50))
        srv.close()

    def test_shed_requests_counted_as_errors(self):
        engine = SpMVEngine()
        srv = SpMVServer(
            engine,
            ServeConfig(batch_window_s=0.0, queue_depth=2),
            start=False,
        )
        specs = [ReplaySpec(matrix="QCD", count=5, cap=20000)]
        report = run_replay(specs, srv)
        # Threadless server, queue depth 2: 2 admitted, 3 shed.
        assert report.requests == 5
        assert report.ok == 2
        assert report.failed == 3
        assert all("ServerOverloadedError" in e for e in report.errors)
        srv.close()

    def test_report_round_trips_and_summarizes(self, tmp_path):
        import json

        p = tmp_path / "reqs.jsonl"
        p.write_text('{"matrix": "QCD", "count": 4, "cap": 20000}\n')
        with threadless_server() as srv:
            report = run_replay(p, srv)
        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["kind"] == "replay_report"
        assert blob["requests"] == 4 and blob["failed"] == 0
        text = report.summary()
        assert "requests : 4 (4 ok, 0 failed)" in text
        assert "cache" in text and "max |y - A@x|" in text
