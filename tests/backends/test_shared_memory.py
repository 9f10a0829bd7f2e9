"""Shared-memory prepared matrices: one copy, many mappers.

Covers the :class:`~repro.core.shm.SharedArena` refcounted-unlink
contract, the ``prepare(A).share()`` pickle path (a descriptor ships,
not the arrays -- a child process maps the same pages and multiplies
bit-identically), the tuner's in-process walk (it publishes no arena),
and the serve cache's shared/owned footprint split.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro import SpMVEngine
from repro.core.shm import SharedArena, reset_shm_stats, shm_stats
from repro.errors import ReproError
from repro.gpu import get_device
from repro.serve.cache import prepared_footprint_bytes, prepared_footprint_split
from repro.tuning import AutoTuner, TuningPoint

DEVICE = get_device("gtx680")


def _child_multiply(payload, x, queue):
    """Run in a forked child: unpickle the descriptor, map, multiply."""
    prepared = pickle.loads(payload)
    try:
        engine = SpMVEngine(device="gtx680")
        res = engine.multiply(prepared, x)
        queue.put(("ok", res.y, prepared.shared, shm_stats()["attaches"]))
    except Exception as exc:  # pragma: no cover - failure reporting
        queue.put(("err", repr(exc), False, 0))
    finally:
        prepared.release_shared()


class TestSharedArena:
    @given(
        n=st.integers(min_value=1, max_value=300),
        dtype=st.sampled_from(["f8", "f4", "i4", "u1"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_exact(self, n, dtype, seed):
        rng = np.random.default_rng(seed)
        arrays = {
            "a": (rng.random(n) * 100).astype(dtype),
            "b": rng.integers(0, 255, size=(3, n)).astype(dtype),
        }
        arena = SharedArena.create(arrays)
        try:
            mapped = SharedArena.attach(arena.descriptor())
            for key, src in arrays.items():
                assert np.array_equal(mapped.view(key), src)
            mapped.close()
            # Same-process attach dedups: still the owner's arena.
            assert mapped is arena
        finally:
            arena.close()

    def test_owner_unlinks_mapper_does_not(self):
        reset_shm_stats()
        arena = SharedArena.create({"v": np.arange(8.0)})
        mapped = SharedArena.attach(arena.descriptor())
        mapped.close()  # refcount drop, no unlink
        assert shm_stats()["unlinks"] == 0
        arena.close()
        assert shm_stats()["unlinks"] == 1

    def test_missing_key_is_typed_error(self):
        arena = SharedArena.create({"v": np.arange(4.0)})
        try:
            with pytest.raises(ReproError):
                arena.view("nope")
        finally:
            arena.close()


class TestSharedPreparedMatrix:
    def _prepared(self, nrows=80, ncols=90, seed=5):
        A = sparse.random(nrows, ncols, density=0.07, random_state=seed,
                          format="csr")
        engine = SpMVEngine(device=DEVICE)
        return A, engine, engine.prepare(A, point=TuningPoint()).share()

    def test_share_is_idempotent_and_views_alias(self):
        _, _, prepared = self._prepared()
        try:
            assert prepared.shared
            arena = prepared.arena
            assert prepared.share() is prepared
            assert prepared.arena is arena
            inner = prepared.fmt
            assert arena.owns(inner.values)
            assert arena.owns(prepared.reference_csr().data)
        finally:
            prepared.release_shared()

    def test_pickle_ships_descriptor_not_arrays(self):
        A, engine, prepared = self._prepared(nrows=300, ncols=300)
        try:
            blob = pickle.dumps(prepared)
            # The packed buffers alone dwarf the pickled descriptor.
            assert len(blob) < prepared.arena.nbytes / 4
        finally:
            prepared.release_shared()

    @given(
        nrows=st.integers(min_value=3, max_value=90),
        ncols=st.integers(min_value=3, max_value=90),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_child_process_multiplies_bit_identically(self, nrows, ncols, seed):
        A = sparse.random(nrows, ncols, density=0.15, random_state=seed,
                          format="csr")
        if A.nnz == 0:
            A = sparse.csr_matrix(([1.0], ([0], [0])), shape=(nrows, ncols))
        engine = SpMVEngine(device=DEVICE)
        prepared = engine.prepare(A, point=TuningPoint()).share()
        x = np.random.default_rng(seed).standard_normal(ncols)
        try:
            golden = engine.multiply(prepared, x).y
            ctx = mp.get_context("fork")
            queue = ctx.Queue()
            proc = ctx.Process(
                target=_child_multiply, args=(pickle.dumps(prepared), x, queue)
            )
            proc.start()
            status, y, was_shared, attaches = queue.get(timeout=60)
            proc.join(timeout=60)
            assert status == "ok", y
            assert was_shared, "child should map the segment, not copy it"
            assert attaches >= 1
            assert np.array_equal(y, golden)
        finally:
            prepared.release_shared()
        # The owner's release unlinked the name: a fresh attach must fail.
        with pytest.raises((FileNotFoundError, ReproError)):
            SharedArena.attach({"name": "/nonexistent-repro-arena",
                                "layout": {}})


class TestFootprintSplit:
    def test_shared_bytes_not_charged_to_owner(self):
        A = sparse.random(120, 120, density=0.08, random_state=9, format="csr")
        engine = SpMVEngine(device=DEVICE)
        plain = engine.prepare(A, point=TuningPoint())
        shared = engine.prepare(A, point=TuningPoint()).share()
        try:
            split_plain = prepared_footprint_split(plain)
            split_shared = prepared_footprint_split(shared)
            assert split_plain["shared"] == 0
            assert split_plain["owned"] == split_plain["total"]
            assert split_shared["shared"] == shared.arena.nbytes
            assert split_shared["owned"] < split_shared["total"]
            # The LRU charge is the owned remainder only.
            assert prepared_footprint_bytes(shared) == split_shared["owned"]
            assert (
                prepared_footprint_bytes(shared)
                < prepared_footprint_bytes(plain)
            )
        finally:
            shared.release_shared()


class TestTunerSharedOperand:
    def test_share_without_workers_is_plain_serial(self, random_matrix):
        # The search evaluates in-process: no arena is published.
        A = random_matrix(nrows=60, ncols=60, seed=37)
        reset_shm_stats()
        res = AutoTuner(DEVICE).tune(A)
        assert res.best is not None
        assert shm_stats()["segments_created"] == 0
