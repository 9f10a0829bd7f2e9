"""Tests for tuned-configuration persistence."""

import json

import numpy as np
import pytest
from scipy import sparse

from repro.gpu import GTX480, GTX680
from repro.kernels import YaSpMVConfig
from repro.tuning import TuningPoint, TuningStore, matrix_fingerprint


@pytest.fixture
def store(tmp_path):
    return TuningStore(tmp_path / "tuning.json")


@pytest.fixture
def A(random_matrix):
    return random_matrix(nrows=80, ncols=80, density=0.1)


class TestFingerprint:
    def test_structure_only(self, A):
        B = A.copy()
        B.data = B.data * 3.0  # same structure, different values
        assert matrix_fingerprint(A) == matrix_fingerprint(B)

    def test_different_pattern_differs(self, random_matrix):
        a = random_matrix(seed=1)
        b = random_matrix(seed=2)
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    def test_shape_included(self):
        a = sparse.identity(10, format="csr")
        b = sparse.identity(11, format="csr")[:10]
        assert matrix_fingerprint(a) != matrix_fingerprint(b)


class TestStore:
    def test_round_trip(self, store, A):
        point = TuningPoint(
            block_height=2,
            bit_word="uint16",
            kernel=YaSpMVConfig(strategy=1, reg_size=8, workgroup_size=128),
        )
        store.put(A, GTX680, point)
        loaded = TuningStore(store.path).get(A, GTX680)  # fresh reader
        assert loaded == point

    def test_miss_returns_none(self, store, A):
        assert store.get(A, GTX680) is None

    def test_device_keyed(self, store, A):
        store.put(A, GTX680, TuningPoint(block_height=2))
        assert store.get(A, GTX480) is None
        assert store.get(A, "gtx680") is not None  # name and spec agree

    def test_overwrite(self, store, A):
        store.put(A, GTX680, TuningPoint(block_height=1))
        store.put(A, GTX680, TuningPoint(block_height=3))
        assert store.get(A, GTX680).block_height == 3
        assert len(store) == 1

    def test_corrupt_file_is_empty_store(self, tmp_path, A):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert TuningStore(path).get(A, GTX680) is None

    def test_incompatible_version_is_miss(self, store, A):
        store.put(A, GTX680, TuningPoint())
        blobs = json.loads(store.path.read_text())
        for v in blobs["entries"].values():
            v["version"] = 999
        store.path.write_text(json.dumps(blobs))
        assert TuningStore(store.path).get(A, GTX680) is None


class TestCounters:
    def test_miss_then_hit(self, store, A):
        assert store.get(A, GTX680) is None
        assert (store.hits, store.misses, store.invalidations) == (0, 1, 0)
        store.put(A, GTX680, TuningPoint())
        assert store.get(A, GTX680) is not None
        assert (store.hits, store.misses, store.invalidations) == (1, 1, 0)

    def test_version_mismatch_counts_invalidation(self, store, A):
        store.put(A, GTX680, TuningPoint())
        blobs = json.loads(store.path.read_text())
        for v in blobs["entries"].values():
            v["version"] = 999
        store.path.write_text(json.dumps(blobs))
        fresh = TuningStore(store.path)
        assert fresh.get(A, GTX680) is None
        assert (fresh.hits, fresh.misses, fresh.invalidations) == (0, 1, 1)


class TestEngineIntegration:
    def test_store_skips_second_search(self, store, A, rng):
        from repro import SpMVEngine

        eng = SpMVEngine("gtx680", plan_store=store)
        first = eng.prepare(A)
        assert first.tuning is not None  # searched
        assert first.tuning.evaluated > 0
        assert first.tuning.store_checked and not first.tuning.store_hit
        assert len(store) == 1

        second = eng.prepare(A)
        # Served from the store: the hit is observable on the result and
        # zero kernel evaluations were performed.
        assert second.tuning is not None
        assert second.tuning.store_hit
        assert second.tuning.evaluated == 0
        assert second.tuning.history == []
        assert second.point == first.point
        assert second.tuning.best_point == first.point

        x = rng.standard_normal(80)
        np.testing.assert_allclose(eng.multiply(second, x).y, A @ x, atol=1e-9)

    def test_warm_start_round_trip_fresh_engine(self, store, A, rng):
        """A brand-new engine with the same store file skips the search."""
        from repro import SpMVEngine

        eng1 = SpMVEngine("gtx680", plan_store=store)
        first = eng1.prepare(A)
        assert not first.tuning.store_hit

        # Fresh engine (so a fresh plan cache), fresh store object over
        # the same file: still zero evaluations and zero plan compiles.
        eng2 = SpMVEngine("gtx680", plan_store=TuningStore(store.path))
        second = eng2.prepare(A)
        assert second.tuning.store_hit
        assert second.tuning.evaluated == 0
        assert eng2.plan_cache.misses == 0  # no kernel plans were compiled
        assert second.point == first.point
        assert eng2.plan_store.hits == 1

        x = rng.standard_normal(80)
        np.testing.assert_allclose(eng2.multiply(second, x).y, A @ x, atol=1e-9)

    def test_schema_mismatch_falls_back_to_search(self, store, A):
        """A version-bumped entry is invalidated, counted, and re-tuned."""
        from repro import SpMVEngine

        store.put(A, GTX680, TuningPoint())
        blobs = json.loads(store.path.read_text())
        for v in blobs["entries"].values():
            v["version"] = 999
        store.path.write_text(json.dumps(blobs))

        eng = SpMVEngine("gtx680", plan_store=TuningStore(store.path))
        prepared = eng.prepare(A)
        assert prepared.tuning.store_checked and not prepared.tuning.store_hit
        assert prepared.tuning.store_invalidations == 1
        assert prepared.tuning.evaluated > 0
        # The re-tuned winner was written back in the current schema.
        assert TuningStore(store.path).get(A, GTX680) == prepared.point


class TestHardening:
    """Concurrency and corruption behaviour of the store file."""

    def test_interleaved_writers_keep_both_entries(self, store, A, random_matrix):
        """Lost-update regression: two writers with stale snapshots.

        Both stores read the (empty) file before either writes.  A naive
        write-my-snapshot implementation would make the second ``put``
        clobber the first; the locked read-modify-write must keep both.
        """
        B = random_matrix(nrows=40, ncols=40, density=0.1, seed=5)
        writer_a = TuningStore(store.path)
        writer_b = TuningStore(store.path)
        # Force both to snapshot the file *before* either writes.
        assert writer_a.get(A, GTX680) is None
        assert writer_b.get(B, GTX680) is None

        writer_a.put(A, GTX680, TuningPoint(block_height=2))
        writer_b.put(B, GTX680, TuningPoint(block_height=3))

        fresh = TuningStore(store.path)
        assert fresh.get(A, GTX680).block_height == 2
        assert fresh.get(B, GTX680).block_height == 3
        assert len(fresh) == 2

    def test_on_disk_layout_is_schema_wrapped(self, store, A):
        store.put(A, GTX680, TuningPoint())
        blob = json.loads(store.path.read_text())
        assert blob["schema"] == 2
        assert isinstance(blob["entries"], dict)
        assert len(blob["entries"]) == 1

    def test_legacy_flat_layout_still_loads(self, store, A):
        store.put(A, GTX680, TuningPoint(block_height=2))
        blob = json.loads(store.path.read_text())
        # Rewrite in the version-1 layout: bare entry dict, no wrapper.
        store.path.write_text(json.dumps(blob["entries"]))
        fresh = TuningStore(store.path)
        assert fresh.get(A, GTX680).block_height == 2
        assert fresh.corruptions == 0
        # A write-back upgrades the file to the wrapped layout.
        fresh.put(A, GTX680, TuningPoint(block_height=3))
        assert json.loads(store.path.read_text())["schema"] == 2

    def test_unknown_future_schema_is_empty_but_untouched(self, store, A):
        payload = json.dumps({"schema": 99, "entries": {"x": {}}})
        store.path.write_text(payload)
        fresh = TuningStore(store.path)
        assert fresh.get(A, GTX680) is None
        assert fresh.corruptions == 0
        # The newer build's file was left exactly as it was.
        assert store.path.read_text() == payload

    def test_corrupt_file_is_quarantined(self, store, A):
        store.path.write_text("{definitely not json")
        fresh = TuningStore(store.path)
        assert fresh.get(A, GTX680) is None
        assert fresh.corruptions == 1
        corrupt = store.path.with_suffix(store.path.suffix + ".corrupt")
        assert corrupt.exists()
        assert corrupt.read_text() == "{definitely not json"
        assert not store.path.exists()
        # The store stays usable: the next put starts a fresh file.
        fresh.put(A, GTX680, TuningPoint(block_height=2))
        assert TuningStore(store.path).get(A, GTX680).block_height == 2

    def test_corruption_fault_site_end_to_end(self, store, A):
        from repro.fault import FaultPlan
        from repro.fault.injection import fault_scope

        store.put(A, GTX680, TuningPoint(block_height=2))
        plan = FaultPlan.parse("store.corruption:p=1.0,count=1,seed=5")
        with fault_scope(plan):
            fresh = TuningStore(store.path)
            assert fresh.get(A, GTX680) is None  # garbled on read
        assert fresh.corruptions == 1
        assert store.path.with_suffix(store.path.suffix + ".corrupt").exists()
        events = plan.drain_events()
        assert any(e.site == "store.corruption" for e in events)

    def test_quarantine_emits_metric(self, store, A):
        from repro.obs import Observer, obs_scope

        store.path.write_text("garbage[[[")
        obs = Observer()
        with obs_scope(obs):
            TuningStore(store.path).get(A, GTX680)
        assert obs.metrics.get("store.corruptions").value() == 1
