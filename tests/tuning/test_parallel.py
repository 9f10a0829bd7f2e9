"""Tests for the parallel tuning service.

The contract under test: ``AutoTuner(workers=N)`` is bit-identical to
the serial walk -- same best point, same evaluation set in the same
order, same skip-reason quarantine counters, and the shared plan cache
ends up in the same state (entries *and* hit/miss counters).
"""

import glob

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import TuningError
from repro.gpu import GTX680
from repro.obs import Observer
from repro.tuning import (
    AutoTuner,
    KernelPlanCache,
    TuningPoint,
    chunk_candidates,
    pruned_space,
)


@pytest.fixture(scope="module")
def A():
    rng = np.random.default_rng(11)
    return sp.random(200, 200, density=0.05, random_state=rng, format="csr")


def _tune(A, **kw):
    cache = KernelPlanCache()
    result = AutoTuner(GTX680, plan_cache=cache, **kw).tune(A)
    return result, cache


def _assert_identical(serial, parallel, serial_cache, parallel_cache):
    assert parallel.best_point == serial.best_point
    assert parallel.evaluated == serial.evaluated
    assert parallel.skipped == serial.skipped
    assert parallel.skip_reasons == serial.skip_reasons
    assert [(e.point, e.time_s, e.gflops) for e in parallel.history] == [
        (e.point, e.time_s, e.gflops) for e in serial.history
    ]
    assert parallel_cache.hits == serial_cache.hits
    assert parallel_cache.misses == serial_cache.misses
    assert parallel.cache_hits == serial.cache_hits
    assert parallel.cache_misses == serial.cache_misses


class TestChunking:
    def test_groups_by_block_layout(self, A):
        items = list(enumerate(pruned_space(A, GTX680)))
        chunks = chunk_candidates(items)
        keys = [
            {(p.base_format, p.block_height, p.block_width) for _, p in chunk}
            for chunk in chunks
        ]
        # One block-size key per chunk, no key in two chunks: every bit
        # word and slice count of a block size (so every layout and every
        # format built on it) belongs to one chunk.
        assert all(len(k) == 1 for k in keys)
        flat = [next(iter(k)) for k in keys]
        assert len(flat) == len(set(flat))
        words = {p.bit_word for _, p in items}
        assert len(words) == 3
        for chunk in chunks:
            if chunk[0][1].base_format == "bccoo":
                assert {p.bit_word for _, p in chunk} == words

    def test_preserves_enumeration_order(self, A):
        items = list(enumerate(pruned_space(A, GTX680)))
        chunks = chunk_candidates(items)
        for chunk in chunks:
            indices = [i for i, _ in chunk]
            assert indices == sorted(indices)
        assert sorted(i for c in chunks for i, _ in c) == [
            i for i, _ in items
        ]

    def test_empty(self):
        assert chunk_candidates([]) == []


class TestEquivalence:
    def test_process_pool_identical(self, A):
        serial, serial_cache = _tune(A)
        parallel, parallel_cache = _tune(A, workers=4)
        _assert_identical(serial, parallel, serial_cache, parallel_cache)
        assert serial.workers == 1
        assert parallel.workers == 4

    def test_thread_pool_identical(self, A):
        # Three workers: chunks split unevenly across the pool.
        serial, serial_cache = _tune(A)
        parallel, parallel_cache = _tune(A, workers=3)
        _assert_identical(serial, parallel, serial_cache, parallel_cache)

    def test_more_workers_than_chunks(self, A):
        serial, serial_cache = _tune(A)
        parallel, parallel_cache = _tune(A, workers=64)
        _assert_identical(serial, parallel, serial_cache, parallel_cache)

    def test_pool_maps_operand_from_shared_memory(self, A):
        # The default pool publishes the operand once in shared memory
        # (no pickled CSR per chunk) and unlinks it when the sweep ends.
        before = set(glob.glob("/dev/shm/reproshm-*"))
        obs = Observer()
        tuner = AutoTuner(GTX680, workers=2, observer=obs)
        result = tuner.tune(A)
        assert result.workers == 2
        assert obs.metrics.get("tuner.shm.attaches").value() >= 1
        assert set(glob.glob("/dev/shm/reproshm-*")) <= before

    def test_exhaustive_mode_identical(self, A):
        kw = dict(
            mode="exhaustive",
            exhaustive_kwargs=dict(
                block_heights=(1, 2), block_widths=(1,), bit_words=("uint32",)
            ),
        )
        serial, serial_cache = _tune(A, **kw)
        parallel, parallel_cache = _tune(A, workers=2, **kw)
        _assert_identical(serial, parallel, serial_cache, parallel_cache)

    def test_quarantine_counters_survive_fanout(self):
        # A tall skinny matrix trips per-candidate errors for some
        # configurations; those must be quarantined identically.
        rng = np.random.default_rng(3)
        A = sp.random(400, 9, density=0.3, random_state=rng, format="csr")
        serial, _ = _tune(A)
        parallel, _ = _tune(A, workers=4)
        assert serial.skip_reasons == parallel.skip_reasons
        assert serial.best_point == parallel.best_point


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(TuningError, match="workers"):
            AutoTuner(GTX680, workers=0)

    def test_result_reports_store_defaults(self, A):
        result, _ = _tune(A)
        assert result.store_checked is False
        assert result.store_hit is False
        assert result.store_invalidations == 0
        assert result.point is None
        assert result.best_point == result.best.point


class TestStoreResult:
    def test_from_store_round_trip(self):
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
