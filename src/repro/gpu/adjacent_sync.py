"""Adjacent synchronization (paper section 3.2.4, after StreamScan [24]).

Segments spanning workgroup boundaries need the predecessor's partial
sum.  Instead of a second kernel behind a global barrier, yaSpMV chains
a ``Grp_sum`` array through global memory: workgroup ``X`` *without* a
row stop waits for ``Grp_sum[X-1]`` and publishes
``Grp_sum[X] = Grp_sum[X-1] + last_partial[X]``; a workgroup *with* a
row stop breaks the chain and publishes its own last partial directly.
Every workgroup ``X > 0`` still consumes ``Grp_sum[X-1]`` as the
carry-in for its first (possibly continued) segment.

This module provides both the **numerics** (:func:`chain_carries`, used
by the kernels to compute exact results) and the **cost structure**
(:func:`chain_segments`, :func:`propagation_delay`) the timing model
charges.  It also models the logical-id fallback for out-of-order
dispatch: one global atomic fetch-and-add per workgroup (<2% overhead in
the paper's experiments).
"""

from __future__ import annotations

import numpy as np

from ..errors import AdjacentSyncTimeout
from ..obs import active_observer
from ..util import check_1d, run_lengths

__all__ = [
    "SPIN_WATCHDOG_CAP",
    "chain_carries",
    "chain_carries_hazard",
    "chain_segments",
    "logical_workgroup_ids",
    "propagation_delay",
    "chain_delay",
]

#: Default spin cap the kernels pass to :func:`chain_carries_hazard`.
#: On real hardware the adjacent-sync wait is a spin on ``Grp_sum[X-1]``;
#: the paper notes it deadlocks under out-of-order dispatch unless
#: logical workgroup ids are used.  Rather than model an unbounded spin,
#: the engine's execution path caps it and surfaces a typed
#: :class:`~repro.errors.AdjacentSyncTimeout` the fallback chain can
#: route to the logical-id repair stage.
SPIN_WATCHDOG_CAP = 4096


def chain_carries(
    last_partials: np.ndarray, has_stop: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact Grp_sum chain -> per-workgroup carry-in.

    Parameters
    ----------
    last_partials:
        Each workgroup's last partial sum (the value after its internal
        scan of ``last_partial_sums``); shape ``(n_wg,)`` or
        ``(n_wg, lanes)``.
    has_stop:
        Whether each workgroup's tile contains at least one row stop.

    Returns
    -------
    ``(carry_in, grp_sum)``:
        ``carry_in[X]`` is what workgroup ``X`` adds to its first
        segment (0 for workgroup 0); ``grp_sum`` is the published array.

    The recurrence is a segmented scan over workgroups with segment
    breaks at stop-containing workgroups -- the same structure as the
    thread-level phase, one level up.
    """
    lp = np.asarray(last_partials, dtype=np.float64)
    stops = check_1d("has_stop", np.asarray(has_stop, dtype=bool))
    n = stops.shape[0]
    if lp.shape[0] != n:
        raise ValueError(
            f"last_partials length {lp.shape[0]} != has_stop length {n}"
        )
    grp_sum = np.empty_like(lp)
    carry = np.zeros_like(lp)
    running = np.zeros(lp.shape[1:], dtype=np.float64)
    for x in range(n):
        carry[x] = running
        if stops[x]:
            grp_sum[x] = lp[x]
            running = lp[x]
        else:
            grp_sum[x] = running + lp[x]
            running = grp_sum[x]
    return carry, grp_sum


def logical_workgroup_ids(arrival_order: np.ndarray) -> np.ndarray:
    """The logical-id fallback: one atomic fetch-and-add per workgroup.

    The paper (section 3.2.4) notes that when in-order dispatch cannot
    be assumed, each workgroup acquires a *logical* id from a global
    counter instead of using its physical id -- the k-th workgroup to
    arrive gets logical id k, so the data tiles and the Grp_sum chain
    are traversed in arrival order and adjacent synchronization stays
    deadlock-free (<2% overhead in the paper's experiments).

    ``arrival_order[k]`` is the physical id of the k-th arriver; returns
    ``logical[phys]`` -- each physical workgroup's acquired logical id.
    """
    order = check_1d("arrival_order", np.asarray(arrival_order, dtype=np.int64))
    n = order.shape[0]
    if n and (np.unique(order).shape[0] != n or order.min() < 0 or order.max() >= n):
        raise ValueError("arrival_order must be a permutation of 0..n-1")
    logical = np.empty(n, dtype=np.int64)
    logical[order] = np.arange(n, dtype=np.int64)
    return logical


def chain_carries_hazard(
    last_partials: np.ndarray,
    has_stop: np.ndarray,
    arrival_order: np.ndarray | None = None,
    stale_reads: np.ndarray | None = None,
    max_spin: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Grp_sum chain under dispatch/staleness hazards.

    The exact chain of :func:`chain_carries` assumes workgroup ``X-1``
    publishes before ``X`` reads.  This variant models two violations:

    * ``arrival_order`` -- workgroups execute in this (permuted) order.
      A workgroup arriving before its predecessor has published cannot
      spin forever (on real hardware this is the deadlock the paper
      warns about); with ``max_spin=None`` we model the silent
      bounded-wait outcome: it reads the initialization value (0) -- a
      *stale* carry.
    * ``stale_reads[X]`` -- workgroup ``X``'s read of ``Grp_sum[X-1]``
      returns the initialization value even though the predecessor
      published (a delayed-visibility fault that slips *past* the spin
      loop -- the watchdog cannot see it).

    ``max_spin`` arms the spin watchdog: a workgroup that would wait on
    an unpublished predecessor slot spins at most ``max_spin``
    iterations and then raises a typed
    :class:`~repro.errors.AdjacentSyncTimeout` (counted as
    ``watchdog.timeouts``) instead of silently reading a stale value.
    In this serialized arrival-order model a predecessor that has not
    published by the time its successor runs never will, so the timeout
    fires deterministically -- exactly the recoverable signal the
    engine's fallback chain routes to the logical-id repair stage.

    With ``arrival_order=None`` and ``stale_reads=None`` the result is
    identical to :func:`chain_carries`.  Callers needing immunity to
    out-of-order arrival should remap data tiles through
    :func:`logical_workgroup_ids` first -- that is the fallback path the
    engine's resilience layer exercises.
    """
    lp = np.asarray(last_partials, dtype=np.float64)
    stops = check_1d("has_stop", np.asarray(has_stop, dtype=bool))
    n = stops.shape[0]
    if lp.shape[0] != n:
        raise ValueError(
            f"last_partials length {lp.shape[0]} != has_stop length {n}"
        )
    if arrival_order is None:
        order = np.arange(n, dtype=np.int64)
    else:
        order = check_1d(
            "arrival_order", np.asarray(arrival_order, dtype=np.int64)
        )
        if order.shape[0] != n:
            raise ValueError("arrival_order length must match has_stop")
    grp_sum = np.zeros_like(lp)
    carry = np.zeros_like(lp)
    published = np.zeros(n, dtype=bool)
    zero = np.zeros(lp.shape[1:], dtype=np.float64)
    stale_count = 0
    for x in order:
        x = int(x)
        if x == 0:
            c = zero
        elif published[x - 1] and not (stale_reads is not None and stale_reads[x]):
            c = grp_sum[x - 1]
        else:
            if max_spin is not None and not published[x - 1]:
                # Bounded-wait watchdog: the predecessor will never
                # publish in this serialized schedule, so the spin cap
                # expires -- surface the deadlock as a typed timeout
                # instead of a silently wrong carry.
                obs = active_observer()
                obs.counter(
                    "watchdog.timeouts",
                    "adjacent-sync spin watchdog expiries",
                ).inc()
                raise AdjacentSyncTimeout(
                    f"workgroup {x} spun {max_spin} iterations waiting for "
                    f"Grp_sum[{x - 1}] (predecessor never published; "
                    "out-of-order dispatch without logical workgroup ids)",
                    workgroup=x,
                    spins=max_spin,
                )
            c = zero  # stale read: the initialization value
            stale_count += 1
        carry[x] = c
        grp_sum[x] = lp[x] if stops[x] else c + lp[x]
        published[x] = True
    obs = active_observer()
    if obs.enabled:
        obs.counter(
            "gpu.sync.hazard_walks", "Grp_sum chains walked under hazards"
        ).inc()
        obs.counter(
            "gpu.sync.stale_reads", "Grp_sum reads that returned init values"
        ).inc(stale_count)
        if arrival_order is not None:
            obs.counter(
                "gpu.sync.out_of_order_walks", "chains walked in permuted order"
            ).inc()
    return carry, grp_sum


def chain_segments(has_stop: np.ndarray) -> np.ndarray:
    """Lengths of the serialized update chains.

    A run of consecutive workgroups without a row stop must update
    ``Grp_sum`` strictly in order; each such run of length ``L``
    (plus the stop-carrying workgroup that terminates it) forms a chain
    of ``L + 1`` dependent updates.  Returns the chain lengths, used by
    the timing model -- long chains only arise when one matrix row spans
    many workgroups (e.g. a single huge row).
    """
    stops = check_1d("has_stop", np.asarray(has_stop, dtype=bool))
    if stops.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    vals, lens = run_lengths(~stops)
    chains = lens[vals.astype(bool)] + 1
    if chains.size == 0:
        return np.ones(1, dtype=np.int64)
    return chains.astype(np.int64)


def propagation_delay(
    finish_times: np.ndarray,
    has_stop: np.ndarray,
    hop_latency_s: float,
) -> float:
    """Extra completion time the Grp_sum chain adds beyond computation.

    ``finish_times`` are the dispatch-model completion times of each
    workgroup's *local* work.  ``Grp_sum[X]`` becomes available at::

        avail[X] = finish[X]                      if X has a stop
        avail[X] = max(finish[X], avail[X-1] + hop) otherwise

    and every workgroup X > 0 can only retire its first segment at
    ``max(finish[X], avail[X-1] + hop)``.  Returns the increase of the
    overall makespan versus chain-free execution (>= 0).
    """
    finish = np.asarray(finish_times, dtype=np.float64).ravel()
    stops = check_1d("has_stop", np.asarray(has_stop, dtype=bool))
    if stops.shape[0] != finish.shape[0]:
        raise ValueError("finish_times and has_stop must have equal length")
    return chain_delay(finish.tolist(), stops.tolist(), float(hop_latency_s))


def chain_delay(finish: list[float], has_stop: list[bool], hop_s: float) -> float:
    """:func:`propagation_delay` of checked, equal-length lists.

    The recurrence runs on Python floats, which round every operation
    as the float64 NumPy scalars it replaces do, so the result keeps its
    bits; the timing model calls it directly with the lists it builds.
    """
    if not finish:
        return 0.0
    avail = top = finish[0]
    for f, stop in zip(finish[1:], has_stop[1:]):
        ready = avail + hop_s
        retire = max(f, ready)
        if retire > top:
            top = retire
        avail = f if stop else retire
    return max(top - max(finish), 0.0)
