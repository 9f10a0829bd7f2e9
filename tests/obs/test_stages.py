"""The prepare stage clock and the layout and geometry counters."""

from __future__ import annotations

import threading
import time

import pytest
from scipy import sparse

from repro import SpMVEngine
from repro.gpu import GTX680
from repro.obs import Observer
from repro.obs.stages import StageClock, active_stages, stage, stage_scope
from repro.tuning import AutoTuner, TuningStore, pruned_space


def _matrix():
    return sparse.random(300, 300, density=0.03, random_state=0, format="csr")


def _layouts(A) -> int:
    return len(
        {
            (p.block_height, p.block_width, p.slice_count)
            for p in pruned_space(A, GTX680)
            if p.base_format == "bccoo"
        }
    )


class TestStageClock:
    def test_nested_stages_are_charged_exclusive_time(self):
        clock = StageClock()
        t0 = time.perf_counter()
        with stage_scope(clock):
            with stage("outer"):
                time.sleep(0.02)
                with stage("inner"):
                    time.sleep(0.03)
        wall = time.perf_counter() - t0
        outer, inner = clock.seconds["outer"], clock.seconds["inner"]
        assert outer >= 0.02 and inner >= 0.03
        # The inner stage's time is not charged to the outer one too.
        assert outer + inner <= wall

    def test_no_clock_no_charge(self):
        assert active_stages() is None
        with stage("anything"):
            pass
        assert active_stages() is None

    def test_scope_restores_and_none_keeps(self):
        outer, inner = StageClock(), StageClock()
        with stage_scope(outer):
            with stage_scope(None) as kept:
                assert kept is outer
            with stage_scope(inner):
                assert active_stages() is inner
            assert active_stages() is outer
        assert active_stages() is None

    def test_clock_is_per_thread(self):
        clock = StageClock()
        seen = []
        with stage_scope(clock):
            t = threading.Thread(target=lambda: seen.append(active_stages()))
            t.start()
            t.join()
        assert seen == [None]


class TestObservedPrepare:
    def test_exports_every_stage(self, tmp_path):
        obs = Observer()
        engine = SpMVEngine(
            "gtx680", observer=obs, plan_store=TuningStore(tmp_path / "s.json")
        )
        engine.prepare(_matrix())
        seconds = dict(
            (dict(key)["stage"], value)
            for key, value in obs.metrics.counter("prepare.stage_seconds").items()
        )
        assert set(seconds) == {
            "store", "enumerate", "blocking", "convert", "plan_build",
            "cache_model", "verify",
        }
        assert all(v > 0 for v in seconds.values())
        root = obs.tracer.roots[0]
        assert root.name == "engine.prepare"
        assert sum(seconds.values()) <= root.duration_s

    def test_layouts_counted_once_each(self):
        A = _matrix()
        obs = Observer()
        AutoTuner(GTX680, observer=obs).tune(A)
        assert obs.metrics.counter("tuner.layouts").value() == _layouts(A)

    def test_geometries_counted_once_each(self):
        A = _matrix()
        obs = Observer()
        AutoTuner(GTX680, observer=obs).tune(A)
        geometries = {
            (p.block_height, p.block_width, p.slice_count,
             p.kernel.workgroup_size, p.kernel.effective_tile)
            for p in pruned_space(A, GTX680)
            if p.base_format == "bccoo"
        }
        assert obs.metrics.counter("tuner.geometries").value() == len(geometries)
        # Strategy 1 and both strategy-2 cache multiples share a
        # (workgroup size, tile): fewer geometries than profile launches.
        assert len(geometries) < obs.metrics.counter("tuner.profiles").value()

    def test_walk_extracts_each_layout_once(self, monkeypatch):
        import repro.formats.bccoo_plus as bccoo_plus
        import repro.tuning.cache as cache

        A = _matrix()
        calls = []
        original = cache.extract_blocks

        def counting(matrix, h, w):
            calls.append((h, w))
            return original(matrix, h, w)

        monkeypatch.setattr(cache, "extract_blocks", counting)
        monkeypatch.setattr(bccoo_plus, "extract_blocks", counting)
        fc = cache.FormatCache(A)
        for point in pruned_space(A, GTX680):
            fc.get(point)
        assert fc.layouts == _layouts(A)
        # 300 columns fit the texture cache, so no point slices and
        # each layout is one extract_blocks call.
        assert {p.slice_count for p in pruned_space(A, GTX680)} == {1}
        assert len(calls) == fc.layouts

    def test_unobserved_prepare_makes_no_stage_clock_call(self, monkeypatch):
        def refuse(self, name):
            raise AssertionError(f"stage {name!r} clocked without an observer")

        monkeypatch.setattr(StageClock, "stage", refuse)
        prepared = SpMVEngine("gtx680").prepare(_matrix())
        assert prepared.tuning.evaluated > 0
        with pytest.raises(AssertionError, match="clocked"):
            SpMVEngine("gtx680", observer=Observer()).prepare(_matrix())
