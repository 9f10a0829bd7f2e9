"""Tests for the auto-tuner driver."""

import numpy as np
import pytest

from repro.errors import TuningError
from repro.gpu import GTX480, GTX680
from repro.tuning import AutoTuner, KernelPlanCache


@pytest.fixture
def small(random_matrix):
    return random_matrix(nrows=120, ncols=120, density=0.06)


class TestTune:
    def test_returns_consistent_best(self, small):
        res = AutoTuner(GTX680).tune(small)
        assert res.evaluated > 0
        assert res.best.time_s > 0
        assert res.best.time_s == min(e.time_s for e in res.history)

    def test_history_top(self, small):
        res = AutoTuner(GTX680).tune(small)
        top = res.top(3)
        assert len(top) == 3
        assert top[0].time_s <= top[1].time_s <= top[2].time_s
        assert top[0].time_s == res.best.time_s

    def test_best_point_is_runnable(self, small, rng):
        from repro.core import SpMVEngine

        res = AutoTuner(GTX680).tune(small)
        eng = SpMVEngine(GTX680)
        prep = eng.prepare(small, point=res.best_point)
        x = rng.standard_normal(small.shape[1])
        out = eng.multiply(prep, x)
        np.testing.assert_allclose(out.y, small @ x, atol=1e-9)

    def test_plan_cache_shared_across_matrices(self, random_matrix):
        cache = KernelPlanCache()
        tuner = AutoTuner(GTX680, plan_cache=cache)
        tuner.tune(random_matrix(seed=1))
        misses_after_first = cache.misses
        tuner.tune(random_matrix(seed=2))
        # Second matrix reuses nearly every compiled plan.
        assert cache.misses <= misses_after_first * 1.5
        assert cache.hits > 0

    def test_devices_can_disagree(self, small):
        # Not asserting they must differ -- only that both tune cleanly
        # and report device-consistent bests.
        r680 = AutoTuner(GTX680).tune(small)
        r480 = AutoTuner(GTX480).tune(small)
        assert r680.best.time_s > 0 and r480.best.time_s > 0

    def test_no_history_mode(self, small):
        res = AutoTuner(GTX680, keep_history=False).tune(small)
        assert res.history == []
        assert res.best.time_s > 0

    def test_bad_mode(self):
        with pytest.raises(TuningError, match="mode"):
            AutoTuner(GTX680, mode="random")

    def test_exhaustive_restricted_finds_at_least_pruned_quality(self, small):
        pruned = AutoTuner(GTX680).tune(small)
        exhaustive = AutoTuner(
            GTX680,
            mode="exhaustive",
            exhaustive_kwargs=dict(
                block_heights=(pruned.best_point.block_height,),
                block_widths=(pruned.best_point.block_width,),
                bit_words=(pruned.best_point.bit_word,),
            ),
        ).tune(small)
        # The exhaustive sweep includes the pruned winner's axes, so it
        # can only match or beat it.
        assert exhaustive.best.time_s <= pruned.best.time_s * 1.0001


class TestResultProtocol:
    """``summary()``/``to_dict()``/``describe_point()`` for exporters."""

    def test_to_dict_is_jsonable(self, small):
        import json

        result = AutoTuner(GTX680, keep_history=True).tune(small)
        d = json.loads(json.dumps(result.to_dict()))
        assert d["kind"] == "tuning_result"
        assert d["evaluated"] == result.evaluated
        assert d["best_point"]["format"] == result.best_point.format_name
        assert d["best"]["gflops"] == pytest.approx(result.best.gflops)

    def test_summary_and_describe_point(self, small):
        result = AutoTuner(GTX680).tune(small)
        text = result.summary()
        assert f"evaluated {result.evaluated} configurations" in text
        assert "best:" in text
        assert result.describe_point() in text
        assert "GFLOPS" in text

    def test_warm_start_summary(self, small):
        from repro.tuning.tuner import TuningResult

        point = AutoTuner(GTX680).tune(small).best_point
        warm = TuningResult.from_store(point)
        text = warm.summary()
        assert "warm start" in text
        assert "0 configurations evaluated" in text
        assert warm.to_dict()["store_hit"] is True


class TestStoreResult:
    def test_result_reports_store_defaults(self, small):
        result = AutoTuner(GTX680).tune(small)
        assert result.store_checked is False
        assert result.store_hit is False
        assert result.store_invalidations == 0
        assert result.point is None
        assert result.best_point == result.best.point

    def test_from_store_round_trip(self):
        from repro.tuning import TuningPoint
        from repro.tuning.tuner import TuningResult

        point = TuningPoint(block_height=2)
        res = TuningResult.from_store(point, invalidations=1)
        assert res.best is None
        assert res.evaluated == 0
        assert res.store_hit and res.store_checked
        assert res.store_invalidations == 1
        assert res.best_point == point

    def test_empty_result_has_no_point(self):
        from repro.tuning.tuner import TuningResult

        with pytest.raises(TuningError, match="neither"):
            TuningResult().best_point
