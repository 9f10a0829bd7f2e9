"""Worker-crash recovery in parallel tuning: requeue, rebuild, fall back."""

import pytest

from repro.errors import WorkerCrashError
from repro.fault import FaultPlan, RetryPolicy
from repro.fault.injection import fault_scope
from repro.gpu import GTX680
from repro.tuning import AutoTuner, ParallelReport, run_parallel
from repro.tuning.parallel import evaluate_candidates
from repro.tuning.space import pruned_space


@pytest.fixture
def A(random_matrix):
    return random_matrix(nrows=60, ncols=60, density=0.08)


@pytest.fixture
def serial(A):
    return AutoTuner(GTX680, mode="pruned").tune(A)


def assert_identical(a, b):
    assert a.best.point == b.best.point
    assert a.best.time_s == b.best.time_s
    assert a.history == b.history
    assert a.evaluated == b.evaluated
    assert a.skipped == b.skipped
    assert a.skip_reasons == b.skip_reasons


class TestCrashInjection:
    def test_crash_after_kills_in_process_evaluation(self, A):
        # In-process the injected crash raises; only a pool worker turns
        # it into a hard exit.
        items = list(enumerate(pruned_space(A, GTX680)))[:8]
        with pytest.raises(WorkerCrashError):
            evaluate_candidates(items, A, GTX680, crash_after=2)

    def test_thread_pool_recovers_bit_identically(self, A, serial):
        # The crash draw happens in the parent, so its event is recorded
        # on the parent's plan even though a worker process dies.
        plan = FaultPlan.parse("tuner.worker_crash:p=1.0,count=1,seed=3")
        with fault_scope(plan):
            res = AutoTuner(GTX680, workers=2).tune(A)
        assert_identical(res, serial)
        events = plan.drain_events()
        assert any(e.site == "tuner.worker_crash" for e in events)

    def test_process_pool_recovers_bit_identically(self, A, serial):
        # The process worker dies with os._exit -> BrokenProcessPool in
        # the parent; the chunk is requeued onto a rebuilt pool.
        plan = FaultPlan.parse("tuner.worker_crash:p=1.0,count=1,seed=3")
        with fault_scope(plan):
            res = AutoTuner(GTX680, workers=2).tune(A)
        assert_identical(res, serial)

    def test_report_counts_lost_chunks_and_rebuilds(self, A):
        items = list(enumerate(pruned_space(A, GTX680)))
        report = ParallelReport()
        plan = FaultPlan.parse("tuner.worker_crash:p=1.0,count=1,seed=3")
        with fault_scope(plan):
            outcomes = run_parallel(
                items,
                A,
                GTX680,
                workers=2,
                report=report,
            )
        assert report.lost_chunks >= 1
        assert report.pool_rebuilds >= 1
        assert report.serial_fallback_chunks == 0
        assert [o.index for o in outcomes] == sorted(o.index for o in outcomes)

    def test_persistent_crasher_falls_back_to_serial(self, A, serial):
        # Unlimited crash budget: every pooled attempt of every chunk
        # dies, so after the rebuild budget the chunks are evaluated
        # serially in-process (injection disabled there -- the parent
        # must survive) and the result still matches serial.
        items = list(enumerate(pruned_space(A, GTX680)))
        report = ParallelReport()
        plan = FaultPlan.parse("tuner.worker_crash:p=1.0,count=inf,seed=3")
        with fault_scope(plan):
            outcomes = run_parallel(
                items,
                A,
                GTX680,
                workers=2,
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
                report=report,
            )
        assert report.serial_fallback_chunks > 0
        assert len(outcomes) == len(
            [o for o in outcomes if o is not None]
        )
        # All candidates accounted for despite every pooled attempt dying.
        assert len({o.index for o in outcomes}) == len(items)

    def test_tuner_emits_crash_metrics(self, A):
        from repro.obs import Observer

        obs = Observer()
        plan = FaultPlan.parse("tuner.worker_crash:p=1.0,count=1,seed=3")
        with fault_scope(plan):
            AutoTuner(GTX680, workers=2, observer=obs).tune(A)
        assert obs.metrics.get("tuner.worker_crashes").value() >= 1
        assert obs.metrics.get("retry.attempts").value() >= 1


class TestNewFaultSites:
    def test_parse_worker_crash_spec(self):
        plan = FaultPlan.parse("tuner.worker_crash:p=1.0,count=1,seed=3")
        assert "tuner.worker_crash" in plan.specs

    def test_parse_store_corruption_spec(self):
        plan = FaultPlan.parse("store.corruption:p=0.5,count=inf,seed=7")
        assert "store.corruption" in plan.specs

    def test_short_names_resolve(self):
        plan = FaultPlan.parse("worker_crash:p=1.0;corruption:p=1.0")
        assert set(plan.specs) == {"tuner.worker_crash", "store.corruption"}

    def test_worker_crash_draw_is_parent_side_and_budgeted(self):
        plan = FaultPlan.parse("tuner.worker_crash:p=1.0,count=1,seed=3")
        plan.reset()
        first = plan.worker_crash(10)
        assert first is not None and 1 <= first <= 10
        # Budget spent: the requeued chunk must not crash again.
        assert plan.worker_crash(10) is None

    def test_worker_crash_quiet_without_plan(self):
        plan = FaultPlan.parse("tuner.worker_crash:p=0.0")
        plan.reset()
        assert plan.worker_crash(10) is None

    def test_corrupt_store_text_garbles(self):
        plan = FaultPlan.parse("store.corruption:p=1.0,count=1,seed=5")
        plan.reset()
        text = '{"schema": 2, "entries": {}}'
        garbled = plan.corrupt_store_text(text)
        assert garbled is not None and garbled != text
        import json

        with pytest.raises(json.JSONDecodeError):
            json.loads(garbled)
        # Budget spent.
        assert plan.corrupt_store_text(text) is None
