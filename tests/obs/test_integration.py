"""End-to-end observability: engine, tuner, and the fallback chain."""

import numpy as np
import pytest
from scipy import sparse

from repro import SpMVEngine
from repro.gpu import GTX680
from repro.obs import (
    NULL_OBSERVER,
    NullObserver,
    Observer,
    active_observer,
    dump_jsonl,
    load_jsonl,
)
from repro.tuning import AutoTuner, pruned_space


@pytest.fixture(scope="module")
def matrix():
    return sparse.random(
        120, 120, density=0.05, random_state=7, format="csr", dtype=np.float64
    )


@pytest.fixture
def x(matrix):
    return np.random.default_rng(0).standard_normal(matrix.shape[1])


class TestEngineObservability:
    def test_default_observer_is_null_and_ambient_restored(self, matrix, x):
        eng = SpMVEngine("gtx680")
        assert eng.observer is NULL_OBSERVER
        res = eng.multiply(eng.prepare(matrix), x)
        np.testing.assert_allclose(res.y, matrix @ x, atol=1e-9)
        assert active_observer() is NULL_OBSERVER

    def test_prepare_multiply_span_tree(self, matrix, x):
        obs = Observer()
        eng = SpMVEngine("gtx680", observer=obs)
        prep = eng.prepare(matrix)
        eng.multiply(prep, x)
        assert active_observer() is NULL_OBSERVER  # scope exited

        prepare = obs.tracer.find("engine.prepare")
        assert prepare is not None
        assert prepare.attrs["nnz"] == matrix.nnz
        assert prepare.find("tuner.tune") is not None
        assert prepare.find("format.convert") is not None
        multiply = obs.tracer.find("engine.multiply")
        assert multiply is not None
        assert multiply.find("kernel.yaspmv") is not None
        assert multiply.attrs["sim_time_s"] > 0

        m = obs.metrics
        assert m.get("engine.prepares").value() == 1
        assert m.get("engine.multiplies").value(backend="faithful") == 1
        assert m.get("tuner.evaluations").value() > 0
        assert m.get("kernel.executions").value(kernel="yaspmv") == 1

    def test_multiply_many_span(self, matrix):
        obs = Observer()
        eng = SpMVEngine("gtx680", observer=obs)
        X = np.random.default_rng(1).standard_normal((matrix.shape[1], 3))
        eng.multiply_many(eng.prepare(matrix), X)
        span = obs.tracer.find("engine.multiply_many")
        assert span is not None
        assert span.attrs["n_rhs"] == 3

    def test_spec_string_fault_plan_accepted(self, matrix, x):
        eng = SpMVEngine(
            "gtx680",
            fault_plan="stale_grp_sum:p=1.0,seed=7",
            validate=True,
            policy="permissive",
        )
        res = eng.multiply(eng.prepare(matrix), x)
        np.testing.assert_allclose(res.y, matrix @ x, atol=1e-9)


class TestFallbackChainMetrics:
    def test_injected_fault_counted_through_chain(self, matrix, x):
        obs = Observer()
        eng = SpMVEngine(
            "gtx680",
            observer=obs,
            fault_plan="nan_partial:p=1.0,count=1,seed=7",
            validate=True,
            policy="permissive",
        )
        res = eng.multiply(eng.prepare(matrix), x)
        np.testing.assert_allclose(res.y, matrix @ x, atol=1e-9)

        m = obs.metrics
        injections = m.get("fault.injections")
        assert injections is not None
        assert injections.value(site="kernel.nan_partial") >= 1
        assert m.get("fallback.stage_failed").value(stage="tuned") == 1
        # Some later stage succeeded, at depth > 1.
        used = m.get("fallback.stage_used")
        assert sum(v for _, v in used.items()) == 1
        assert m.get("fallback.depth").count() == 1
        assert m.get("fallback.depth").sum() >= 2

        attempts = obs.tracer.find_all("fallback.attempt")
        assert len(attempts) >= 2
        assert attempts[0].attrs["ok"] is False
        assert attempts[0].attrs["injected"] >= 1
        assert attempts[-1].attrs["ok"] is True

    def test_healthy_run_uses_tuned_stage(self, matrix, x):
        obs = Observer()
        eng = SpMVEngine(
            "gtx680", observer=obs, validate=True, policy="permissive"
        )
        eng.multiply(eng.prepare(matrix), x)
        assert obs.metrics.get("fallback.stage_used").value(stage="tuned") == 1
        assert obs.metrics.get("fault.injections") is None


class TestTunerObservability:
    def test_candidate_spans_match_history(self, matrix):
        obs = Observer()
        tuner = AutoTuner(GTX680, keep_history=True, observer=obs)
        result = tuner.tune(matrix)

        candidates = obs.tracer.find_all("tuner.candidate")
        evaluated = [c for c in candidates if "sim_time_s" in c.attrs]
        skipped = [c for c in candidates if c.attrs.get("skipped")]
        assert len(candidates) == result.evaluated + result.skipped
        assert len(evaluated) == result.evaluated == len(result.history)
        assert len(skipped) == result.skipped
        # Span order and values mirror the history exactly.
        assert [c.attrs["sim_time_s"] for c in evaluated] == [
            ev.time_s for ev in result.history
        ]
        assert obs.metrics.get("tuner.evaluations").value() == result.evaluated
        assert obs.metrics.get("tuner.prunes").value() == result.skipped
        assert (
            obs.metrics.get("tuner.plan_cache.misses").value()
            == result.cache_misses
        )

    def test_candidate_spans_only_when_observed(self, matrix):
        class SpanSpy(NullObserver):
            """A disabled observer that lists the spans asked of it."""

            def __init__(self):
                self.names = []

            def span(self, name, **attrs):
                self.names.append(name)
                return super().span(name, **attrs)

        spy = SpanSpy()
        AutoTuner(GTX680, observer=spy).tune(matrix)
        assert "tuner.tune" in spy.names
        assert "tuner.candidate" not in spy.names

        obs = Observer()
        AutoTuner(GTX680, observer=obs).tune(matrix)
        candidates = sum(1 for _ in pruned_space(matrix, GTX680))
        assert len(obs.tracer.find_all("tuner.candidate")) == candidates

    def test_parallel_trace_round_trips(self, matrix, tmp_path):
        obs = Observer()
        tuner = AutoTuner(GTX680, keep_history=True, observer=obs)
        result = tuner.tune(matrix)
        roots = load_jsonl(dump_jsonl(obs))
        flat = [s for r in roots for s in r.walk()]
        spans = [s for s in flat if s.name == "tuner.candidate"]
        assert len(spans) == result.evaluated + result.skipped
        evaluated = [s for s in spans if "sim_time_s" in s.attrs]
        assert [s.attrs["sim_time_s"] for s in evaluated] == [
            ev.time_s for ev in result.history
        ]
        # Every candidate carries the wall clock its evaluation took.
        assert all(s.attrs["wall_s"] >= 0 for s in spans)
