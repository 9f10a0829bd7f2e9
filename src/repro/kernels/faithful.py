"""Step-by-step executor of the yaSpMV kernel (Figures 9-12).

This module is the *specification*: explicit Python loops that follow
the paper's flowcharts thread by thread -- per-thread sequential
segmented scans into ``intermediate_sums`` (strategy 1) or a
per-workgroup ``result cache`` with global-memory spill (strategy 2),
``last_partial_sums`` with generated start flags, the workgroup parallel
segmented scan (skipped when every tile has a row stop), and the
``Grp_sum`` adjacent-synchronization chain.

It is orders of magnitude slower than :class:`YaSpMVKernel`'s closed
form and exists to *prove* the fast path computes the same thing: the
property tests execute both on random matrices and configurations and
require bit-for-bit agreeing results.

The 0-means-stop bit-flag convention shows up exactly as the paper
motivates: a thread whose tile ends on a row stop publishes a last
partial of **zero**, which makes every downstream accumulation
unconditional (section 2.2: "using the value '0' eliminates the
condition check").
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelConfigError
from ..fault.injection import active_plan
from ..formats.bccoo import BCCOOMatrix
from ..formats.bccoo_plus import BCCOOPlusMatrix
from ..scan.tree import tree_segmented_scan
from .config import YaSpMVConfig
from .yaspmv import LaunchPlan, block_products

__all__ = ["yaspmv_faithful", "FaithfulTrace"]


class FaithfulTrace:
    """Execution observations the tests assert on.

    Attributes
    ----------
    parallel_scans_run / parallel_scans_skipped:
        Workgroup-level scans executed vs skipped by the early check.
    cache_spills:
        Strategy 2 segment sums that overflowed the result cache into
        global memory.
    grp_sum:
        The published per-workgroup Grp_sum values (last lane state).
    """

    def __init__(self):
        self.parallel_scans_run = 0
        self.parallel_scans_skipped = 0
        self.cache_spills = 0
        self.grp_sum: list[np.ndarray] = []


def yaspmv_faithful(
    fmt,
    x: np.ndarray,
    config: YaSpMVConfig | None = None,
    trace: FaithfulTrace | None = None,
) -> np.ndarray:
    """Run the paper's kernel literally; returns ``y``."""
    cfg = config if config is not None else YaSpMVConfig()
    if isinstance(fmt, BCCOOPlusMatrix):
        y_stacked = yaspmv_faithful(fmt.stacked, x, cfg, trace)
        stride = fmt.padded_rows_per_slice
        buf = np.zeros(fmt.slice_count * stride, dtype=np.float64)
        buf[: y_stacked.shape[0]] = y_stacked
        return fmt.combine(buf)
    if not isinstance(fmt, BCCOOMatrix):
        raise KernelConfigError(
            f"expected BCCOO/BCCOO+, got {type(fmt).__name__}"
        )

    x = np.asarray(x, dtype=np.float64).ravel()
    plan = LaunchPlan(fmt, cfg)
    padded = plan.padded
    contribs = block_products(plan, x)  # (nb_padded, h)
    fault = active_plan()
    if fault is not None:
        contribs = fault.perturb_partials(contribs)

    h = fmt.block_height
    tile = cfg.effective_tile
    wg_size = cfg.workgroup_size
    wg_work = cfg.workgroup_work
    n_wg = padded.n_workgroups
    stops = padded.stops

    n_results = int(stops.sum())
    results = np.zeros((n_results, h), dtype=np.float64)

    # Section 2.4 auxiliary info: result ordinal of each thread's first
    # output, and the per-workgroup base used to index the result cache.
    thread_first_entry = np.concatenate(
        ([0], np.cumsum(stops.reshape(-1, tile).sum(axis=1))[:-1])
    ).astype(np.int64)

    cache_entries = (
        cfg.result_cache_multiple * wg_size if cfg.strategy == 2 else 0
    )

    grp_sum_prev = np.zeros(h, dtype=np.float64)  # Grp_sum[g-1]
    tr = trace if trace is not None else FaithfulTrace()

    for g in range(n_wg):
        base_block = g * wg_work
        wg_first_entry = int(thread_first_entry[g * wg_size])

        last_partials = np.zeros((wg_size, h), dtype=np.float64)
        lp_starts = np.zeros(wg_size, dtype=bool)
        # Strategy 1 keeps every intermediate sum per thread; strategy 2
        # keeps only segment sums in the cache (dashed boxes, Fig. 10).
        inter_sums = (
            np.zeros((wg_size, tile, h), dtype=np.float64)
            if cfg.strategy == 1
            else None
        )
        # Per-thread record of where each of its segment sums went
        # (strategy 2 writes them immediately; strategy 1 defers).
        first_stop_pos = np.full(wg_size, -1, dtype=np.int64)

        # ---- Phase 1: sequential per-thread segmented scan/sum.
        for t in range(wg_size):
            b0 = base_block + t * tile
            entry = int(thread_first_entry[g * wg_size + t])
            running = np.zeros(h, dtype=np.float64)
            stops_seen = 0
            for i in range(tile):
                running = running + contribs[b0 + i]
                if inter_sums is not None:
                    inter_sums[t, i] = running
                if stops[b0 + i]:
                    if first_stop_pos[t] < 0:
                        first_stop_pos[t] = i
                    if cfg.strategy == 2:
                        # Write the segment sum to the result cache or,
                        # past the cache, straight to global memory.
                        if entry + stops_seen - wg_first_entry >= cache_entries:
                            tr.cache_spills += 1
                        results[entry + stops_seen] = running
                    stops_seen += 1
                    running = np.zeros(h, dtype=np.float64)
            # A tile ending on a stop publishes last partial 0.
            last_partials[t] = running
            lp_starts[t] = stops_seen > 0

        # ---- Phase 2: parallel segmented scan of last_partial_sums.
        lp_starts_eff = lp_starts.copy()
        lp_starts_eff[0] = True
        if cfg.fine_grain and lp_starts.all():
            # Early check (section 2.4): all segment sizes are 1.
            scanned_lp = last_partials
            tr.parallel_scans_skipped += 1
        else:
            scanned_lp, _ = tree_segmented_scan(last_partials, lp_starts_eff)
            tr.parallel_scans_run += 1

        # ---- Phase 3: combine (Figures 11 / 12).
        if cfg.strategy == 1:
            for t in range(wg_size):
                entry = int(thread_first_entry[g * wg_size + t])
                stops_seen = 0
                for i in range(tile):
                    if not stops[base_block + t * tile + i]:
                        continue
                    value = inter_sums[t, i].copy()
                    if stops_seen == 0 and t > 0:
                        # First stop may close a segment spanning
                        # earlier threads of this workgroup.
                        value = value + scanned_lp[t - 1]
                    results[entry + stops_seen] = value
                    stops_seen += 1
        else:
            for t in range(1, wg_size):
                if first_stop_pos[t] < 0:
                    continue
                entry = int(thread_first_entry[g * wg_size + t])
                results[entry] = results[entry] + scanned_lp[t - 1]

        # Thread 0's duty: fold the previous workgroups' carry into this
        # workgroup's first result (result cache entry 0).
        wg_has_stop = bool(
            stops[base_block : base_block + wg_work].any()
        )
        if wg_has_stop:
            results[wg_first_entry] = results[wg_first_entry] + grp_sum_prev

        # ---- Phase 4: adjacent synchronization (Grp_sum chain).
        wg_last_partial = scanned_lp[wg_size - 1]
        if wg_has_stop:
            grp_sum = wg_last_partial.copy()
        else:
            grp_sum = grp_sum_prev + wg_last_partial
        tr.grp_sum.append(grp_sum.copy())
        grp_sum_prev = grp_sum

    # ---- Scatter results to y through the non-empty-row map.
    y_full = np.zeros(fmt.n_block_rows * h, dtype=np.float64)
    if n_results:
        rows = fmt.nonempty_block_rows[:n_results]
        y_full.reshape(-1, h)[rows] = results
    return y_full[: fmt.nrows]
