"""Tests for the analytical timing model."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.gpu import GTX480, GTX680, KernelStats, TimingModel
from repro.gpu.timing import _linspace
from tests.gpu.test_adjacent_sync import numpy_scalar_delay


def _stats(**kw):
    base = dict(
        flops=2e6,
        dram_read_bytes=10e6,
        dram_write_bytes=1e6,
        workgroup_size=256,
        n_workgroups=100,
        n_launches=1,
    )
    base.update(kw)
    return KernelStats(**base)


class TestMonotonicity:
    def test_more_bytes_more_time(self):
        tm = TimingModel(GTX680)
        t1 = tm.estimate(_stats(dram_read_bytes=10e6)).t_total
        t2 = tm.estimate(_stats(dram_read_bytes=20e6)).t_total
        assert t2 > t1

    def test_more_launches_more_time(self):
        tm = TimingModel(GTX680)
        t1 = tm.estimate(_stats(n_launches=1)).t_total
        t2 = tm.estimate(_stats(n_launches=2)).t_total
        assert t2 == pytest.approx(t1 + GTX680.kernel_launch_s)

    def test_cached_cheaper_than_dram(self):
        tm = TimingModel(GTX680)
        t_dram = tm.estimate(_stats(dram_read_bytes=20e6)).t_total
        t_cache = tm.estimate(
            _stats(dram_read_bytes=10e6, cached_read_bytes=10e6)
        ).t_total
        assert t_cache < t_dram

    def test_low_simd_efficiency_can_flip_to_compute_bound(self):
        tm = TimingModel(GTX680)
        good = tm.estimate(_stats(flops=2e9, simd_efficiency=1.0))
        bad = tm.estimate(_stats(flops=2e9, simd_efficiency=0.02))
        assert bad.t_total > good.t_total
        assert bad.bound == "compute"

    def test_imbalanced_work_slower(self):
        tm = TimingModel(GTX680)
        even = tm.estimate(_stats(workgroup_work=np.ones(100)))
        w = np.ones(100)
        w[0] = 50.0
        skewed = tm.estimate(_stats(workgroup_work=w))
        assert skewed.imbalance_factor > 1.5
        assert skewed.t_total > even.t_total

    def test_atomics_add_time(self):
        tm = TimingModel(GTX680)
        t0 = tm.estimate(_stats()).t_total
        t1 = tm.estimate(_stats(atomics=10_000)).t_total
        assert t1 > t0

    def test_long_sync_chain_adds_time(self):
        tm = TimingModel(GTX680)
        short = tm.estimate(
            _stats(sync_chain_lengths=np.ones(100, dtype=np.int64))
        ).t_total
        long = tm.estimate(
            _stats(sync_chain_lengths=np.array([100], dtype=np.int64))
        ).t_total
        assert long >= short


class TestSanity:
    def test_memory_bound_spmv(self):
        # A typical SpMV profile must be memory-bound on both devices.
        for dev in (GTX480, GTX680):
            br = TimingModel(dev).estimate(_stats())
            assert br.bound == "memory"

    def test_gflops_metric(self):
        br = TimingModel(GTX680).estimate(_stats())
        nnz = 1_000_000
        assert br.gflops(nnz) == pytest.approx(2 * nnz / br.t_total / 1e9)

    def test_breakdown_adds_up(self):
        br = TimingModel(GTX680).estimate(_stats(extra_latency_s=1e-5))
        assert br.t_total == pytest.approx(
            br.t_exec + br.t_launch + br.t_sync + 1e-5
        )

    def test_kepler_faster_on_bandwidth_bound(self):
        # Slightly higher bandwidth: GTX680 should edge out GTX480 on a
        # purely bandwidth-bound profile.
        s = _stats()
        t680 = TimingModel(GTX680).estimate(s).t_total
        t480 = TimingModel(GTX480).estimate(s).t_total
        assert t680 < t480


class TestImbalanceFactor:
    def test_uniform_is_one(self):
        assert _stats(workgroup_work=np.ones(50)).imbalance_factor() == 1.0

    def test_none_is_one(self):
        assert _stats().imbalance_factor() == 1.0

    def test_sequential_merge(self):
        a = _stats(dram_read_bytes=20e6, n_launches=1)
        b = _stats(dram_read_bytes=1e6, n_launches=1, atomics=5)
        merged = a.sequential(b)
        assert merged.dram_read_bytes == 21e6
        assert merged.n_launches == 2
        assert merged.atomics == 5
        # Geometry follows the dominant (larger-traffic) kernel.
        assert merged.workgroup_size == a.workgroup_size


class TestKernelStatsEdges:
    def test_max_sync_chain_empty(self):
        assert _stats().max_sync_chain == 0

    def test_max_sync_chain(self):
        st = _stats(sync_chain_lengths=np.array([3, 7, 1], dtype=np.int64))
        assert st.max_sync_chain == 7

    def test_imbalance_empty_array(self):
        st = _stats(workgroup_work=np.empty(0))
        assert st.imbalance_factor() == 1.0

    def test_imbalance_zero_mean(self):
        st = _stats(workgroup_work=np.zeros(5))
        assert st.imbalance_factor() == 1.0

    def test_sequential_keeps_chains_from_either(self):
        a = _stats(sync_chain_lengths=np.array([4], dtype=np.int64))
        b = _stats()
        assert a.sequential(b).max_sync_chain == 4
        assert b.sequential(a).max_sync_chain == 4

    def test_register_occupancy_changes_scheduling(self):
        # Register pressure feeds the occupancy used by the dispatch
        # model: the imbalance factor must respond to it.
        w = np.ones(64)
        w[:4] = 20.0
        lean = TimingModel(GTX680).estimate(
            _stats(workgroup_work=w, registers_per_thread=16)
        )
        hungry = TimingModel(GTX680).estimate(
            _stats(workgroup_work=w, registers_per_thread=63)
        )
        assert hungry.imbalance_factor != lean.imbalance_factor


def _numpy_stops_from_chains(chain_lengths, n_wg):
    """The has-stop pattern ``TimingModel`` rebuilt as a NumPy array
    before its sync recurrences moved to Python numbers (the oracle)."""
    has_stop = np.ones(n_wg, dtype=bool)
    pos = 0
    for length in np.asarray(chain_lengths, dtype=np.int64):
        run = int(length) - 1
        if run > 0 and pos + run <= n_wg:
            has_stop[pos : pos + run] = False
        pos += max(int(length), 1)
        if pos >= n_wg:
            break
    return has_stop


@settings(max_examples=300, deadline=None)
@given(
    chains=st.lists(st.integers(1, 60), min_size=1, max_size=30),
    n=st.integers(2, 400),
    t_exec=st.one_of(
        # Up to a few hops per workgroup, where the chain delays the
        # launch, and longer launches, where it mostly does not.
        st.floats(min_value=0.0, max_value=1e-4, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
)
@example(chains=[3, 1, 5], n=7, t_exec=0.0)  # linspace's zero-step branch
@example(chains=[40], n=300, t_exec=5e-324)  # subnormal: the step rounds to 0
@example(chains=[50], n=50, t_exec=1e-6)  # one chain across the launch
def test_sync_delay_keeps_the_numpy_bits(chains, n, t_exec):
    """The adjacent-sync term of ``t_sync`` -- uniform finish times from
    ``np.linspace``, a has-stop pattern rebuilt from the chains, the
    propagation delay -- keeps its bits on Python numbers."""
    stats = _stats(
        n_workgroups=n,
        barriers_per_workgroup=0.0,
        sync_chain_lengths=np.array(chains, dtype=np.int64),
    )
    finish = np.linspace(t_exec / n, t_exec, n)
    has_stop = _numpy_stops_from_chains(stats.sync_chain_lengths, n)
    assert [t.hex() for t in _linspace(t_exec / n, t_exec, n)] == [
        t.hex() for t in finish.tolist()
    ]
    assert TimingModel._stops_from_chains(stats.sync_chain_lengths, n) == (
        has_stop.tolist()
    )
    want = numpy_scalar_delay(finish, has_stop, GTX680.dram_latency_s)
    got = TimingModel(GTX680)._sync_overhead(stats, t_exec)
    assert got.hex() == (0.0 + want).hex()
