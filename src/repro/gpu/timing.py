"""Analytical timing model: :class:`KernelStats` -> seconds -> GFLOPS.

The model captures the three first-order effects the paper's design
targets:

1. **Bandwidth**: ``t_mem = dram_bytes / effective_bandwidth`` plus a
   (cheaper) cache-throughput term for texture hits.  BCCOO's smaller
   footprint directly shrinks this term.
2. **Compute & divergence**: ``t_cmp = flops / (peak * simd_eff)``.
   SpMV is almost never compute-bound on these parts, but divergent
   row-based kernels can become so via low SIMD efficiency.
3. **Balance & synchronization**: per-workgroup work weights run through
   the dispatch model, yielding an imbalance factor >= 1 applied to the
   execution time; kernel launches, barriers, atomics and the adjacent
   synchronization chain add fixed/latency terms.

Time is ``max(t_mem, t_cmp) * imbalance + overheads``; throughput is the
paper's metric ``2 * nnz / t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import active_observer
from .adjacent_sync import chain_delay
from .counters import KernelStats
from .device import DeviceSpec
from .dispatch import schedule_workgroups

__all__ = ["TimingBreakdown", "TimingModel"]

#: Texture-cache hit bandwidth relative to DRAM bandwidth.  Hits are much
#: cheaper than DRAM but not free; 8x is a conservative aggregate ratio.
_CACHE_BW_MULTIPLIER = 8.0


@dataclass(frozen=True)
class TimingBreakdown:
    """Estimated execution time of one SpMV, with attribution.

    All components are in seconds.  ``imbalance_factor`` already
    multiplies ``t_exec``; the raw balanced time is
    ``t_exec / imbalance_factor``.  Frozen: the ``fast`` backend hands
    one memoized breakdown to every multiply of a plan.
    """

    t_total: float
    t_mem: float
    t_compute: float
    t_cache: float
    t_exec: float
    t_launch: float
    t_sync: float
    imbalance_factor: float
    bound: str  # "memory" | "compute"

    def gflops(self, nnz: int) -> float:
        """Paper metric: 2 * nnz FLOPs over the estimated time."""
        if self.t_total <= 0:
            return 0.0
        return 2.0 * nnz / self.t_total / 1e9


class TimingModel:
    """Converts kernel cost profiles to time on one device."""

    def __init__(self, device: DeviceSpec):
        self.device = device

    def estimate(self, stats: KernelStats) -> TimingBreakdown:
        dev = self.device

        t_mem = stats.dram_bytes / dev.effective_bandwidth
        t_cache = stats.cached_read_bytes / (
            dev.effective_bandwidth * _CACHE_BW_MULTIPLIER
        )
        simd = min(max(stats.simd_efficiency, 1e-3), 1.0)
        peak = dev.peak_flops_dp if stats.fp64 else dev.peak_flops
        t_cmp = stats.flops / (peak * simd)

        base = max(t_mem + t_cache, t_cmp)
        bound = "memory" if t_mem + t_cache >= t_cmp else "compute"

        imbalance = self._imbalance(stats)
        t_exec = base * imbalance

        t_launch = stats.n_launches * dev.kernel_launch_s
        t_sync = self._sync_overhead(stats, t_exec)

        total = t_exec + t_launch + t_sync + stats.extra_latency_s
        return TimingBreakdown(
            t_total=total,
            t_mem=t_mem,
            t_compute=t_cmp,
            t_cache=t_cache,
            t_exec=t_exec,
            t_launch=t_launch,
            t_sync=t_sync,
            imbalance_factor=imbalance,
            bound=bound,
        )

    def explain(self, stats: KernelStats, nnz: int | None = None) -> str:
        """Human-readable cost attribution for one kernel profile.

        The report a performance engineer wants next to a number: where
        the bytes go, which term bounds the kernel, and what the
        overheads cost relative to execution.
        """
        br = self.estimate(stats)
        dev = self.device
        total = max(br.t_total, 1e-30)

        def pct(x: float) -> str:
            return f"{100.0 * x / total:5.1f}%"

        lines = [
            f"device {dev.name}: estimated {br.t_total * 1e6:.2f} us "
            f"({br.bound}-bound"
            + (f", {br.gflops(nnz):.2f} GFLOPS" if nnz else "")
            + ")",
            f"  execution      {br.t_exec * 1e6:9.2f} us  {pct(br.t_exec)}"
            + (
                f"  (imbalance x{br.imbalance_factor:.2f})"
                if br.imbalance_factor > 1.001
                else ""
            ),
            f"    memory term  {br.t_mem * 1e6:9.2f} us   "
            f"[{stats.dram_read_bytes / 1e6:.2f} MB read, "
            f"{stats.dram_write_bytes / 1e6:.2f} MB written]",
            f"    cache term   {br.t_cache * 1e6:9.2f} us   "
            f"[{stats.cached_read_bytes / 1e6:.2f} MB served from cache]",
            f"    compute term {br.t_compute * 1e6:9.2f} us   "
            f"[{stats.flops / 1e6:.2f} MFLOP, "
            f"SIMD eff {stats.simd_efficiency:.2f}"
            + (", fp64" if stats.fp64 else "")
            + "]",
            f"  launches       {br.t_launch * 1e6:9.2f} us  {pct(br.t_launch)}"
            f"  [{stats.n_launches} kernel(s)]",
            f"  synchronization{br.t_sync * 1e6:9.2f} us  {pct(br.t_sync)}"
            f"  [{stats.barriers_per_workgroup:.0f} barriers/wg, "
            f"{stats.atomics} atomics, "
            f"chain depth {stats.max_sync_chain}]",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------ #

    def _imbalance(self, stats: KernelStats) -> float:
        """Dispatch-based makespan inflation from uneven workgroups."""
        w = stats.workgroup_work
        if w is None or w.size <= 1 or stats.workgroup_size <= 0:
            return 1.0
        concurrent = self.device.max_concurrent_workgroups(
            min(stats.workgroup_size, self.device.max_workgroup_size),
            stats.shared_mem_per_workgroup,
            stats.registers_per_thread,
        )
        result = schedule_workgroups(w, self.device.num_sms, concurrent)
        return result.imbalance_factor

    def _sync_overhead(self, stats: KernelStats, t_exec: float) -> float:
        """Barriers, atomics, and the adjacent-synchronization chain."""
        dev = self.device
        t = 0.0
        # Barriers serialize phases within a workgroup, but other
        # resident workgroups fill the stall slots: spread the total
        # barrier time over all concurrent execution contexts.
        if stats.barriers_per_workgroup and stats.n_workgroups:
            concurrent = dev.num_sms * dev.max_concurrent_workgroups(
                min(max(stats.workgroup_size, 1), dev.max_workgroup_size),
                stats.shared_mem_per_workgroup,
                stats.registers_per_thread,
            )
            total_barrier_s = (
                stats.n_workgroups * stats.barriers_per_workgroup * dev.barrier_s
            )
            t += total_barrier_s / max(concurrent, 1)
        # Atomics (logical workgroup-id tickets) pipeline through L2;
        # charge reciprocal throughput (the paper measures <2% overhead).
        if stats.atomics:
            t += stats.atomics * dev.atomic_s
        # Adjacent synchronization: the Grp_sum chain delays completion
        # only when a dependence run outlives the natural execution
        # stagger.  Approximate per-workgroup finish times as uniformly
        # staggered over t_exec and charge the chain propagation delay.
        if stats.sync_chain_lengths.size and stats.n_workgroups > 1:
            n = stats.n_workgroups
            finish = _linspace(t_exec / n, t_exec, n)
            has_stop = self._stops_from_chains(stats.sync_chain_lengths, n)
            delay = chain_delay(finish, has_stop, dev.dram_latency_s)
            t += delay
            obs = active_observer()
            if obs.enabled:
                obs.counter(
                    "gpu.sync.chains", "adjacent-sync dependence chains"
                ).inc(int(stats.sync_chain_lengths.size))
                obs.gauge(
                    "gpu.sync.max_chain", "longest Grp_sum chain (workgroups)"
                ).set(int(stats.sync_chain_lengths.max()))
                obs.histogram(
                    "gpu.sync.delay_s", "Grp_sum chain propagation delay"
                ).observe(delay)
        return t

    @staticmethod
    def _stops_from_chains(chain_lengths: np.ndarray, n_wg: int) -> list[bool]:
        """Reconstruct a has-stop pattern consistent with chain lengths."""
        has_stop = [True] * n_wg
        pos = 0
        for length in np.asarray(chain_lengths, dtype=np.int64).tolist():
            run = length - 1
            if run > 0 and pos + run <= n_wg:
                has_stop[pos : pos + run] = [False] * run
            pos += max(length, 1)
            if pos >= n_wg:
                break
        return has_stop


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """``np.linspace(start, stop, n).tolist()`` for ``n > 1``, in Python
    floats: the same rounded operations in the same order -- ``i * step
    + start``, or ``i / div * delta + start`` when the step rounds to
    zero -- with ``stop`` written last."""
    div = n - 1
    delta = stop - start
    step = delta / div
    if step == 0:
        out = [i / div * delta + start for i in range(n)]
    else:
        out = [i * step + start for i in range(n)]
    out[-1] = stop
    return out
