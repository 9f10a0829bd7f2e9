"""Re-warm handles are bounded by the shard cache budget and released.

Every prepared matrix primed into (or submitted to) a fabric is kept as
a re-warm handle, by the fabric for scale-ups and by each shard for its
restarts.  Those handles live in a cache with the shard's
``cache_budget_bytes``, and a shared-memory segment a shard created for
one is released on eviction, kill and close.  A solver session that
refreshes values many times must therefore reach a steady state in
segments, file descriptors and live matrices.
"""

from __future__ import annotations

import gc
import glob
import os
import weakref
from multiprocessing import resource_tracker

import numpy as np
from scipy import sparse

from repro import ServeFabric
from repro.serve import ServeConfig
from repro.solvers import SolverSession

ONE_ENTRY = ServeConfig(batch_window_s=0.0, cache_budget_bytes=1)


def spd_matrix(n=150):
    return sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n)).tocsr()


def own_segments() -> int:
    return len(glob.glob(f"/dev/shm/reproshm-{os.getpid()}-*"))


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def footprint(fabric):
    """Own segments, own open fds, and each forked child's open fds."""
    gc.collect()
    pids = [s["server"]["worker"]["pid"] for s in fabric.stats()["shards"].values()]
    children = [len(os.listdir(f"/proc/{pid}/fd")) for pid in pids]
    return own_segments(), open_fds(), children


def refresh(session, A, times, marks=()):
    """``times`` value refreshes, one served multiply after each;
    returns ``{i: footprint}`` after each refresh ``i`` in ``marks``."""
    seen = {}
    v = np.ones(A.shape[0])
    for i in range(1, times + 1):
        session.update_values((A * (1.0 + 0.01 * i)).tocsr())
        session.multiply(v)
        if i in marks:
            seen[i] = footprint(session.server)
    return seen


def test_forked_refreshes_plateau_and_close_releases():
    resource_tracker.ensure_running()  # its pipe is not the fabric's
    A = spd_matrix()
    baseline = (own_segments(), open_fds())
    fabric = ServeFabric(2, start=False, processes=True,
                         serve_config=ONE_ENTRY)
    try:
        seen = refresh(SolverSession(A, server=fabric), A, 40, marks=(5, 40))
    finally:
        fabric.close()
    assert seen[5] == seen[40]
    # The session (and with it the last refreshed matrix, whose pages
    # stay mapped while it lives) is gone; the fabric released the rest.
    gc.collect()
    assert (own_segments(), open_fds()) == baseline


def test_in_process_budget_frees_superseded_matrices():
    A = spd_matrix()
    fabric = ServeFabric(2, start=False, serve_config=ONE_ENTRY)
    try:
        session = SolverSession(A, server=fabric)
        first = weakref.ref(session.prepared)
        refresh(session, A, 20)
        gc.collect()
        assert first() is None
    finally:
        fabric.close()


def test_caller_shared_handle_stays_shared():
    A = spd_matrix()
    fabric = ServeFabric(2, start=False, processes=True,
                         serve_config=ONE_ENTRY)
    prepared = fabric.shards[0].engine.prepare(A)
    prepared.share()
    try:
        fabric.prime(prepared)
        y = fabric.multiply(prepared, np.ones(A.shape[0])).y
        refresh(SolverSession(A, server=fabric), A, 3)  # evicts it
        fabric.close()
        assert prepared.arena is not None
        assert np.array_equal(y, np.asarray(A @ np.ones(A.shape[0])))
    finally:
        fabric.close()
        prepared.release_shared()
