"""Tests for the per-shard health tracker (:mod:`repro.serve.health`)."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ReproError
from repro.serve import HealthPolicy, ShardHealth


class TestHealthPolicy:
    def test_defaults_valid(self):
        p = HealthPolicy()
        assert p.window >= p.min_samples

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"min_samples": 0},
            {"window": 4, "min_samples": 5},
            {"window": -1},
            {"min_samples": -1},
            {"window": 1, "min_samples": 2},
            {"window": 8, "min_samples": 9},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ReproError):
            HealthPolicy(**kwargs)


class TestShardHealth:
    def test_healthy_by_default_under_min_samples(self):
        h = ShardHealth(HealthPolicy(window=8, min_samples=4))
        # Even straight failures don't judge before min_samples.
        h.record_failure()
        h.record_failure()
        h.record_failure()
        assert h.healthy()
        h.record_failure()
        assert not h.healthy()

    def test_error_rate_threshold(self):
        h = ShardHealth(HealthPolicy(window=8, min_samples=4))
        for _ in range(4):
            h.record_success()
        assert h.healthy()
        # 4 ok + 4 err in the window -> rate exactly 0.5 -> sick (>=).
        for _ in range(4):
            h.record_failure()
        assert h.error_rate() == pytest.approx(0.5)
        assert not h.healthy()

    def test_window_forgets_old_outcomes(self):
        h = ShardHealth(HealthPolicy(window=4, min_samples=2))
        for _ in range(4):
            h.record_failure()
        assert not h.healthy()
        # Four fresh successes push every failure out of the window.
        for _ in range(4):
            h.record_success()
        assert h.error_rate() == 0.0
        assert h.healthy()

    def test_latency_criterion_disabled_by_default(self):
        # Latency is only recorded: no window is judged on it.
        h = ShardHealth(HealthPolicy(window=4, min_samples=2))
        h.record_success(100.0)
        h.record_success(100.0)
        assert h.mean_latency_s() == 100.0
        assert h.healthy()

    def test_reset_clears_window_keeps_lifetime(self):
        h = ShardHealth(HealthPolicy(window=4, min_samples=2))
        h.record_failure()
        h.record_failure()
        assert not h.healthy()
        h.reset()
        assert h.healthy()
        assert h.samples() == 0
        assert h.n_err == 2  # lifetime counters survive the reset

    def test_stats_snapshot(self):
        h = ShardHealth(HealthPolicy(window=4, min_samples=2))
        h.record_success(0.5)
        h.record_failure(1.5)
        snap = h.stats()
        assert snap["ok"] == 1 and snap["errors"] == 1
        assert snap["samples"] == 2
        assert snap["error_rate"] == pytest.approx(0.5)
        assert snap["mean_latency_s"] == pytest.approx(1.0)
        assert snap["healthy"] is False

    def test_thread_safety_counts(self):
        h = ShardHealth(HealthPolicy(window=16, min_samples=4))
        n, threads = 200, []

        def hammer():
            for _ in range(n):
                h.record_success(0.001)

        for _ in range(4):
            threads.append(threading.Thread(target=hammer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.n_ok == 4 * n
        assert h.samples() == 16  # window stays bounded
