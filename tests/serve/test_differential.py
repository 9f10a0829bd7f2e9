"""Differential harness: batched serving == sequential multiply, bitwise.

The serving layer's core claim is that coalescing requests into one SpMM
dispatch changes *nothing* about the answers: for every format
(BCCOO/BCCOO+), every scan strategy, and every injected-fault scenario,
the column a request receives from a batch is **bit-identical**
(``np.array_equal``, not ``allclose``) to what a sequential
``engine.multiply`` of its vector returns.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro import Observer, ServeConfig, SpMVEngine, SpMVServer
from repro.fault import FaultPlan
from repro.tuning import TuningPoint

N = 160


def make_matrix(seed: int, n: int = N, density: float = 0.05):
    return sparse.random(n, n, density=density, random_state=seed, format="csr")


def batch_vs_sequential(engine: SpMVEngine, prepared, xs) -> None:
    """Serve ``xs`` as one coalesced batch; pin every column bitwise."""
    srv = SpMVServer(
        engine, ServeConfig(max_batch=len(xs), batch_window_s=0.0), start=False
    )
    futs = [srv.submit(prepared, x) for x in xs]
    srv.drain()
    for x, fut in zip(xs, futs):
        r = fut.result()
        expected = engine.multiply(prepared, x).y
        assert np.array_equal(r.y, expected), (
            "batched column differs bitwise from sequential multiply"
        )
    srv.close()


#: The format/strategy grid: both formats, both compute strategies,
#: both scan modes, both cross-workgroup schemes, block widths 1 to 4.
POINTS = {
    "bccoo-s1-matrix": TuningPoint(block_height=2, block_width=2).with_kernel(
        strategy=1, scan_mode="matrix"
    ),
    "bccoo-s1-tree": TuningPoint(block_height=2, block_width=2).with_kernel(
        strategy=1, scan_mode="tree"
    ),
    "bccoo-s2-matrix": TuningPoint(block_height=1, block_width=1).with_kernel(
        strategy=2, scan_mode="matrix"
    ),
    "bccoo-s2-tree": TuningPoint(block_height=1, block_width=1).with_kernel(
        strategy=2, scan_mode="tree"
    ),
    "bccoo-second-kernel": TuningPoint(block_height=1, block_width=2).with_kernel(
        strategy=2, cross_wg="second_kernel"
    ),
    "bccoo+-s1-matrix": TuningPoint(
        block_height=2, block_width=2, slice_count=4
    ).with_kernel(strategy=1, scan_mode="matrix"),
    "bccoo+-s2-tree": TuningPoint(
        block_height=1, block_width=1, slice_count=2
    ).with_kernel(strategy=2, scan_mode="tree"),
    # Width 4: an SpMM column and the SpMV add each block's products in
    # one order.
    "bccoo-1x4": TuningPoint(block_height=1, block_width=4),
    "bccoo-2x4": TuningPoint(block_height=2, block_width=4),
    "bccoo+-2x4": TuningPoint(block_height=2, block_width=4, slice_count=2),
}


class TestFormatStrategyGrid:
    @pytest.mark.parametrize("label", sorted(POINTS))
    def test_bit_identical_across_grid(self, label):
        point = POINTS[label]
        engine = SpMVEngine()
        A = make_matrix(11)
        prepared = engine.prepare(A, point=point)
        assert prepared.point.format_name == (
            "bccoo+" if point.slice_count > 1 else "bccoo"
        )
        rng = np.random.default_rng(42)
        xs = [rng.standard_normal(N) for _ in range(6)]
        batch_vs_sequential(engine, prepared, xs)

    @pytest.mark.parametrize("label", ["bccoo-s2-matrix", "bccoo+-s1-matrix"])
    def test_adversarial_value_ranges(self, label):
        """Mixed magnitudes: where FP reassociation would show up first."""
        point = POINTS[label]
        engine = SpMVEngine()
        A = make_matrix(13)
        prepared = engine.prepare(A, point=point)
        rng = np.random.default_rng(7)
        xs = [
            rng.standard_normal(N) * 1e12,
            rng.standard_normal(N) * 1e-12,
            np.where(rng.random(N) > 0.5, 1e9, -1e-9),
            np.zeros(N),
        ]
        batch_vs_sequential(engine, prepared, xs)


class TestUnderInjectedFaults:
    def test_stale_grp_sum_permissive(self):
        """Adjacent-sync staleness: the engine's containment recovers it
        identically for the batch and for each sequential multiply."""
        engine = SpMVEngine(
            policy="permissive",
            fault_plan=FaultPlan.single("sync.stale_grp_sum", seed=7, count=None),
        )
        A = make_matrix(17)
        prepared = engine.prepare(A)
        rng = np.random.default_rng(3)
        xs = [rng.standard_normal(N) for _ in range(5)]
        batch_vs_sequential(engine, prepared, xs)

    def test_nan_partial_permissive_serves_correct_answers(self):
        # NaN injection poisons values, not control flow; the batch and
        # the sequential run can hit different corruptions, so the
        # guarantee here is correctness, not bit-identity: the output
        # check's finiteness test covers every row, sampled or not, and
        # the fallback chain contains what it catches.
        engine = SpMVEngine(
            policy="permissive",
            fault_plan=FaultPlan.single("kernel.nan_partial", seed=2, count=None),
        )
        A = make_matrix(19)
        prepared = engine.prepare(A)
        srv = SpMVServer(engine, ServeConfig(batch_window_s=0.0), start=False)
        rng = np.random.default_rng(4)
        xs = [rng.standard_normal(N) for _ in range(4)]
        futs = [srv.submit(prepared, x) for x in xs]
        srv.drain()
        for x, fut in zip(xs, futs):
            y = fut.result().y
            assert not np.isnan(y).any()
            assert np.allclose(y, A @ x, rtol=1e-9, atol=1e-12)
        srv.close()

    def test_fault_plus_explicit_point(self):
        """Faults and a pinned BCCOO+ configuration compose."""
        engine = SpMVEngine(
            policy="permissive",
            fault_plan=FaultPlan.single("sync.stale_grp_sum", seed=11, count=None),
        )
        A = make_matrix(29)
        prepared = engine.prepare(A, point=POINTS["bccoo+-s2-tree"])
        rng = np.random.default_rng(6)
        xs = [rng.standard_normal(N) for _ in range(3)]
        batch_vs_sequential(engine, prepared, xs)


class TestServedEqualsGroundTruth:
    def test_against_scipy(self):
        """End to end (tuned, observed, batched) vs ``A @ x``."""
        obs = Observer()
        engine = SpMVEngine(observer=obs)
        A = make_matrix(31)
        srv = SpMVServer(engine, ServeConfig(batch_window_s=0.0), observer=obs, start=False)
        rng = np.random.default_rng(8)
        xs = [rng.standard_normal(N) for _ in range(8)]
        futs = [srv.submit(A, x) for x in xs]
        srv.drain()
        for x, fut in zip(xs, futs):
            assert np.allclose(fut.result().y, A @ x, rtol=1e-10, atol=1e-12)
        srv.close()
