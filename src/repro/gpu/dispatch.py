"""Workgroup dispatch / scheduling model.

GPUs dispatch workgroups to SMs in id order as resources free up (the
in-order property the paper's adjacent synchronization relies on,
section 3.2.4).  We reproduce that with a list-scheduling model: each SM
runs up to ``max_concurrent`` workgroups; the next workgroup in id order
is placed on the SM slot that frees earliest.  The makespan over SMs,
relative to the perfectly balanced lower bound, yields the load-imbalance
factor applied by the timing model -- the quantity that blows up for
row-based kernels on skewed matrices and stays ~1 for yaSpMV's equal
tiles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = ["DispatchResult", "schedule_workgroups"]


@dataclass
class DispatchResult:
    """Outcome of list-scheduling one grid onto the SMs.

    Attributes
    ----------
    start / finish:
        Per-workgroup start and finish times in work units.
    makespan:
        Time the last workgroup finishes.
    balanced_lower_bound:
        ``total_work / total_slots`` -- the perfectly parallel time.
    """

    start: np.ndarray
    finish: np.ndarray
    makespan: float
    balanced_lower_bound: float

    @property
    def imbalance_factor(self) -> float:
        """Makespan over the balanced bound (>= 1)."""
        if self.balanced_lower_bound <= 0:
            return 1.0
        return max(self.makespan / self.balanced_lower_bound, 1.0)


def schedule_workgroups(
    costs: np.ndarray,
    num_sms: int,
    max_concurrent_per_sm: int = 1,
) -> DispatchResult:
    """List-schedule workgroups onto SM execution slots.

    ``costs`` are per-workgroup execution times in arbitrary consistent
    units.  Concurrency within an SM is modeled as ``max_concurrent``
    independent slots -- adequate for throughput accounting (real SMs
    interleave warps, but for bandwidth-bound kernels slot-level
    granularity captures the imbalance that matters).

    Workgroups are placed in id order, the in-order property adjacent
    synchronization relies on.  What an out-of-order arrival breaks is
    the *correctness* of the Grp_sum chain, not the makespan, so the
    fault-injection harness models it in
    :func:`repro.gpu.adjacent_sync.chain_carries_hazard`, not here.
    """
    costs = np.asarray(costs, dtype=np.float64).ravel()
    n = costs.shape[0]
    total_slots = max(num_sms * max_concurrent_per_sm, 1)
    start = np.zeros(n, dtype=np.float64)
    finish = np.zeros(n, dtype=np.float64)
    if n == 0:
        return DispatchResult(start, finish, 0.0, 0.0)

    total = float(costs.sum())
    if n <= total_slots:
        # Everything runs concurrently.
        finish = costs.copy()
        return DispatchResult(
            start, finish, float(costs.max()), total / total_slots
        )

    # Min-heap of slot free times.
    heap = [0.0] * total_slots
    heapq.heapify(heap)
    for i in range(n):
        t = heapq.heappop(heap)
        start[i] = t
        finish[i] = t + costs[i]
        heapq.heappush(heap, finish[i])
    return DispatchResult(
        start, finish, float(finish.max()), total / total_slots
    )
