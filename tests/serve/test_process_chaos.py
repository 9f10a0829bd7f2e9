"""Process-mode chaos drills (:mod:`repro.serve.chaos` with real workers).

These drills fork real worker processes, SIGKILL them mid-flight, let
the supervisor heal them and the autoscaler run one up/down cycle, and
demand bit-identical answers against a pristine single-process server
-- plus zero leaked shared-memory segments afterwards.  They are the
pytest twins of the CI ``repro chaos --processes`` job, sized to run in
seconds.
"""

from __future__ import annotations

import glob
import json

from repro.serve import chaos_plan, run_chaos_drill
from repro.serve.chaos import MATRICES, VALUE_REFRESHES
from repro.tuning import AutoTuner

# Eight simultaneous requests, one per (matrix, value version): enough
# that load-per-replica crosses the autoscale high-water mark (2.0) on
# three shards.
FAST = dict(cap_nnz=2_000, requests_per_matrix=1)


class TestProcessPlan:
    def test_worker_kill_budget(self):
        plan = chaos_plan(seed=3, kills=0, worker_kills=1)
        assert plan.worker_kill(3) is True
        assert plan.worker_kill(3) is False  # budget of one spent
        assert [e.site for e in plan.events] == ["serve.worker_kill"]

    def test_worker_kill_never_fires_on_last_live_worker(self):
        plan = chaos_plan(seed=3, kills=0, worker_kills=2)
        assert plan.worker_kill(1) is False
        assert plan.events == []

    def test_worker_hang_budget(self):
        plan = chaos_plan(seed=5, kills=0, worker_hangs=1)
        assert plan.worker_hang(2) is True
        assert plan.worker_hang(2) is False
        assert [e.site for e in plan.events] == ["serve.worker_hang"]


class TestProcessDrill:
    def test_sigkill_drill_heals_and_stays_bit_identical(self):
        report = run_chaos_drill(
            shards=3, seed=7, processes=True, **FAST
        )
        assert report.passed, report.summary()
        assert report.processes
        assert report.matched == report.requests
        assert report.worker_kills >= 1
        assert report.failovers >= 1
        assert report.restarts + report.degraded >= 1
        assert report.leaked_segments == []
        assert "serve.worker_kill" in report.fault_events

    def test_each_matrix_is_tuned_once(self, monkeypatch):
        # One prepare per distinct (matrix, value version) serves the
        # golden run and primes the fabric: 8 tunes, not 16.
        tunes = []
        tune = AutoTuner.tune

        def counting(self, matrix):
            tunes.append(matrix)
            return tune(self, matrix)

        monkeypatch.setattr(AutoTuner, "tune", counting)
        report = run_chaos_drill(shards=3, seed=7, processes=True, **FAST)
        assert report.passed, report.summary()
        assert len(tunes) == len(MATRICES) * VALUE_REFRESHES == 8

    def test_autoscale_cycle_completes(self):
        report = run_chaos_drill(
            shards=3, seed=7, processes=True, **FAST
        )
        assert report.autoscaled
        assert report.scale_ups >= 1
        assert report.scale_downs >= 1
        scaler = report.fabric_stats["autoscaler"]
        actions = [d["action"] for d in scaler["decisions"]]
        assert "up" in actions and "down" in actions

    def test_hang_drill_detects_and_restarts(self):
        report = run_chaos_drill(
            shards=3, seed=11, processes=True, kills=1, worker_hangs=1,
            reply_timeout_s=6.0, **FAST
        )
        assert report.passed, report.summary()
        assert report.worker_hangs >= 1
        assert report.restarts >= 1
        assert report.leaked_segments == []

    def test_no_shm_segments_leak_across_the_drill(self):
        before = set(glob.glob("/dev/shm/reproshm-*"))
        run_chaos_drill(shards=2, seed=9, processes=True, **FAST)
        assert set(glob.glob("/dev/shm/reproshm-*")) <= before

    def test_report_is_json_able_with_process_fields(self):
        report = run_chaos_drill(
            shards=2, seed=2, processes=True, kills=0, **FAST
        )
        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["processes"] is True
        assert blob["worker_kills"] == 0
        assert blob["leaked_segments"] == []
        assert "restarts" in blob and "scale_ups" in blob
        assert report.passed
