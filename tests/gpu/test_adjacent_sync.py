"""Tests for the adjacent-synchronization model."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.gpu import (
    chain_carries,
    chain_carries_hazard,
    chain_segments,
    logical_workgroup_ids,
    propagation_delay,
)
from repro.scan import segmented_scan_inclusive


class TestChainCarries:
    def test_matches_sequential_spec(self, rng):
        lp = rng.standard_normal(30)
        hs = rng.random(30) < 0.5
        carry, grp = chain_carries(lp, hs)
        running = 0.0
        for x in range(30):
            assert carry[x] == pytest.approx(running)
            running = lp[x] if hs[x] else running + lp[x]
            assert grp[x] == pytest.approx(running)

    def test_is_segmented_scan(self, rng):
        # Grp_sum is an inclusive segmented scan whose segments restart
        # *at* each stop-carrying workgroup ("breaks such chained
        # updates and directly updates Grp_sum[X]").
        lp = rng.standard_normal(40)
        hs = rng.random(40) < 0.4
        _, grp = chain_carries(lp, hs)
        starts = hs.copy()
        starts[0] = True
        expected = segmented_scan_inclusive(lp, starts)
        np.testing.assert_allclose(grp, expected)

    def test_all_stops_identity(self, rng):
        lp = rng.standard_normal(10)
        carry, grp = chain_carries(lp, np.ones(10, dtype=bool))
        np.testing.assert_allclose(grp, lp)
        assert carry[0] == 0.0

    def test_no_stops_accumulates(self):
        lp = np.ones(5)
        carry, grp = chain_carries(lp, np.zeros(5, dtype=bool))
        np.testing.assert_allclose(grp, [1, 2, 3, 4, 5])
        np.testing.assert_allclose(carry, [0, 1, 2, 3, 4])

    def test_lanes(self, rng):
        lp = rng.standard_normal((12, 3))
        hs = rng.random(12) < 0.5
        carry, grp = chain_carries(lp, hs)
        for lane in range(3):
            c1, g1 = chain_carries(lp[:, lane], hs)
            np.testing.assert_allclose(carry[:, lane], c1)
            np.testing.assert_allclose(grp[:, lane], g1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            chain_carries(np.zeros(3), np.zeros(4, dtype=bool))

    def test_empty_input(self):
        carry, grp = chain_carries(
            np.zeros((0,)), np.zeros(0, dtype=bool)
        )
        assert carry.shape == (0,) and grp.shape == (0,)

    def test_empty_lanes(self):
        carry, grp = chain_carries(
            np.zeros((0, 4)), np.zeros(0, dtype=bool)
        )
        assert carry.shape == (0, 4) and grp.shape == (0, 4)

    def test_giant_row_no_stops_lanes(self, rng):
        # One matrix row spanning every workgroup, 2-D lane input: the
        # chain is a plain prefix sum per lane.
        lp = rng.standard_normal((9, 2))
        carry, grp = chain_carries(lp, np.zeros(9, dtype=bool))
        np.testing.assert_allclose(grp, np.cumsum(lp, axis=0))
        np.testing.assert_allclose(carry[1:], np.cumsum(lp, axis=0)[:-1])


class TestChainSegments:
    def test_all_stops_unit_chains(self):
        chains = chain_segments(np.ones(10, dtype=bool))
        assert chains.max() == 1

    def test_no_stops_one_long_chain(self):
        chains = chain_segments(np.zeros(10, dtype=bool))
        assert chains.tolist() == [11]

    def test_mixed(self):
        hs = np.array([1, 0, 0, 1, 1, 0, 1], dtype=bool)
        chains = chain_segments(hs)
        assert sorted(chains.tolist()) == [2, 3]

    def test_empty(self):
        assert chain_segments(np.array([], dtype=bool)).size == 0

    def test_no_stops_conserves_total(self, rng):
        # Chain lengths partition n+1 "updates" however the stops fall.
        hs = rng.random(50) < 0.3
        if not hs.any():
            hs[-1] = True
        assert chain_segments(hs).sum() == 50 - hs.sum() + chain_segments(hs).size


class TestPropagationDelay:
    def test_no_delay_when_chain_matches_stagger(self):
        # Workgroups finish 1 time unit apart; hop latency far smaller:
        # every Grp_sum is ready before its consumer finishes.
        finish = np.arange(1, 11, dtype=float)
        hs = np.ones(10, dtype=bool)
        assert propagation_delay(finish, hs, 1e-3) == pytest.approx(0.0, abs=1e-2)

    def test_long_chain_adds_latency(self):
        # All finish simultaneously, but no workgroup has a stop: the
        # chain serializes all ten updates.
        finish = np.ones(10)
        hs = np.zeros(10, dtype=bool)
        delay = propagation_delay(finish, hs, 0.5)
        assert delay == pytest.approx(0.5 * 9)

    def test_stops_break_the_chain(self):
        finish = np.ones(10)
        broken = propagation_delay(finish, np.ones(10, dtype=bool), 0.5)
        unbroken = propagation_delay(finish, np.zeros(10, dtype=bool), 0.5)
        assert broken < unbroken

    def test_non_negative(self, rng):
        finish = np.sort(rng.uniform(0, 1, 20))
        hs = rng.random(20) < 0.5
        assert propagation_delay(finish, hs, 1e-4) >= 0.0

    def test_empty_input(self):
        assert propagation_delay(
            np.zeros(0), np.zeros(0, dtype=bool), 0.5
        ) == 0.0

    def test_single_workgroup_no_chain(self):
        assert propagation_delay(np.array([3.0]), np.ones(1, dtype=bool), 0.5) == 0.0


def numpy_scalar_delay(finish_times, has_stop, hop_latency_s) -> float:
    """The recurrence :func:`propagation_delay` ran over NumPy scalars
    before it moved to Python floats, kept as the bit-for-bit oracle."""
    finish = np.asarray(finish_times, dtype=np.float64).ravel()
    stops = np.asarray(has_stop, dtype=bool)
    n = finish.shape[0]
    if n == 0:
        return 0.0
    base_makespan = float(finish.max())
    avail = np.empty(n, dtype=np.float64)
    retire = finish.copy()
    avail[0] = finish[0]
    for x in range(1, n):
        ready = avail[x - 1] + hop_latency_s
        retire[x] = max(finish[x], ready)
        avail[x] = finish[x] if stops[x] else max(finish[x], ready)
    return max(float(retire.max()) - base_makespan, 0.0)


#: Finish times and hop latencies are non-negative and finite, as the
#: timing model's are (uniform stagger over a non-negative ``t_exec``);
#: most are drawn on the hop's scale, where the chain matters.
_TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e300, allow_nan=False),
)


@settings(max_examples=400, deadline=None)
@given(
    workgroups=st.lists(st.tuples(_TIMES, st.booleans()), max_size=80),
    hop=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    stagger=st.booleans(),
)
@example(workgroups=[(1.0, False)] * 10, hop=0.5, stagger=False)
@example(workgroups=[(5e-324, False), (0.0, True), (5e-324, False)], hop=0.0,
         stagger=False)
# A stop resets the chain although its predecessor's carry is late.
@example(workgroups=[(0.0, False), (0.0, False), (0.0, True), (0.0, False)],
         hop=1.0, stagger=False)
def test_delay_keeps_the_numpy_loops_bits(workgroups, hop, stagger):
    finish = np.array([t for t, _ in workgroups], dtype=np.float64)
    if stagger:  # ascending, like the timing model's finish times
        finish.sort()
    stops = np.array([s for _, s in workgroups], dtype=bool)
    got = propagation_delay(finish, stops, hop)
    want = numpy_scalar_delay(finish, stops, hop)
    assert type(got) is float
    assert got.hex() == want.hex()


class TestLogicalWorkgroupIds:
    def test_inverse_of_arrival_order(self, rng):
        order = rng.permutation(12)
        logical = logical_workgroup_ids(order)
        # The k-th arriver (physical id order[k]) acquires logical id k.
        np.testing.assert_array_equal(logical[order], np.arange(12))

    def test_identity_arrival(self):
        np.testing.assert_array_equal(
            logical_workgroup_ids(np.arange(5)), np.arange(5)
        )

    def test_empty(self):
        assert logical_workgroup_ids(np.array([], dtype=np.int64)).size == 0

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            logical_workgroup_ids(np.array([0, 0, 2]))
        with pytest.raises(ValueError):
            logical_workgroup_ids(np.array([1, 2, 3]))


class TestChainCarriesHazard:
    def test_no_hazards_matches_exact(self, rng):
        lp = rng.standard_normal(25)
        hs = rng.random(25) < 0.4
        c0, g0 = chain_carries(lp, hs)
        c1, g1 = chain_carries_hazard(lp, hs)
        np.testing.assert_array_equal(c0, c1)
        np.testing.assert_array_equal(g0, g1)

    def test_identity_arrival_matches_exact(self, rng):
        lp = rng.standard_normal((18, 2))
        hs = rng.random(18) < 0.4
        c0, g0 = chain_carries(lp, hs)
        c1, g1 = chain_carries_hazard(lp, hs, arrival_order=np.arange(18))
        np.testing.assert_array_equal(c0, c1)
        np.testing.assert_array_equal(g0, g1)

    def test_stale_read_sees_initialization_value(self):
        # wg1 continues wg0's segment; a stale read loses wg0's partial.
        lp = np.array([1.0, 10.0, 100.0])
        hs = np.array([False, False, True])
        stale = np.array([False, True, False])
        carry, _ = chain_carries_hazard(lp, hs, stale_reads=stale)
        assert carry[1] == 0.0  # should have been 1.0
        c_exact, _ = chain_carries(lp, hs)
        assert c_exact[1] == 1.0

    def test_out_of_order_arrival_reads_unpublished_slot(self):
        # wg2 arrives before wg1 has published: its carry is stale 0.
        lp = np.array([1.0, 2.0, 4.0])
        hs = np.zeros(3, dtype=bool)
        carry, _ = chain_carries_hazard(
            lp, hs, arrival_order=np.array([0, 2, 1])
        )
        assert carry[2] == 0.0
        c_exact, _ = chain_carries(lp, hs)
        assert c_exact[2] == 3.0

    def test_logical_id_remap_absorbs_disorder(self, rng):
        # The section 3.2.4 fallback: remap tiles through logical ids so
        # the chain is traversed in arrival order -- the result (indexed
        # back to physical tiles) matches the exact chain on the
        # logically-ordered data.
        lp = rng.standard_normal(10)
        hs = rng.random(10) < 0.5
        order = rng.permutation(10)
        logical = logical_workgroup_ids(order)
        # Physical wg p works on tile logical[p]; equivalently the chain
        # processes tiles order[0], order[1], ... in sequence.
        c_repaired, _ = chain_carries_hazard(
            lp[order], hs[order], arrival_order=logical[order]
        )
        c_exact, _ = chain_carries(lp[order], hs[order])
        np.testing.assert_array_equal(c_repaired, c_exact)

    def test_hazard_on_stop_workgroup_is_harmless_for_grp_sum(self):
        # A stop-carrying workgroup publishes its own partial regardless
        # of what it read; only its carry-in (first segment) is wrong.
        lp = np.array([1.0, 5.0])
        hs = np.array([False, True])
        _, grp = chain_carries_hazard(
            lp, hs, stale_reads=np.array([False, True])
        )
        assert grp[1] == 5.0

    def test_empty(self):
        carry, grp = chain_carries_hazard(np.zeros(0), np.zeros(0, dtype=bool))
        assert carry.size == 0 and grp.size == 0


class TestSpinWatchdog:
    def test_unpublished_predecessor_trips_timeout(self):
        from repro.errors import AdjacentSyncTimeout

        # wg2 arrives before wg1 has published; with the watchdog armed
        # the bounded spin expires instead of reading a stale 0.
        lp = np.array([1.0, 2.0, 4.0])
        hs = np.zeros(3, dtype=bool)
        with pytest.raises(AdjacentSyncTimeout) as exc:
            chain_carries_hazard(
                lp, hs, arrival_order=np.array([0, 2, 1]), max_spin=64
            )
        assert exc.value.workgroup == 2
        assert exc.value.spins == 64

    def test_default_keeps_silent_stale_semantics(self):
        # max_spin=None (the legacy default) models the silent stale
        # read -- no exception, carry is the initialization value.
        lp = np.array([1.0, 2.0, 4.0])
        hs = np.zeros(3, dtype=bool)
        carry, _ = chain_carries_hazard(
            lp, hs, arrival_order=np.array([0, 2, 1])
        )
        assert carry[2] == 0.0

    def test_stale_read_does_not_trip_watchdog(self):
        # Delayed visibility slips PAST the spin loop: the predecessor
        # did publish, so the watchdog has nothing to wait on and the
        # stale value is read silently even with the watchdog armed.
        lp = np.array([1.0, 10.0, 100.0])
        hs = np.array([False, False, True])
        carry, _ = chain_carries_hazard(
            lp, hs, stale_reads=np.array([False, True, False]), max_spin=64
        )
        assert carry[1] == 0.0

    def test_in_order_arrival_never_trips(self, rng):
        lp = rng.standard_normal(20)
        hs = rng.random(20) < 0.4
        c0, g0 = chain_carries(lp, hs)
        c1, g1 = chain_carries_hazard(lp, hs, max_spin=1)
        np.testing.assert_array_equal(c0, c1)
        np.testing.assert_array_equal(g0, g1)

    def test_timeout_counted(self):
        from repro.errors import AdjacentSyncTimeout
        from repro.obs import Observer, obs_scope

        lp = np.array([1.0, 2.0, 4.0])
        hs = np.zeros(3, dtype=bool)
        obs = Observer()
        with obs_scope(obs):
            with pytest.raises(AdjacentSyncTimeout):
                chain_carries_hazard(
                    lp, hs, arrival_order=np.array([0, 2, 1]), max_spin=8
                )
        assert obs.metrics.get("watchdog.timeouts").value() == 1

    def test_logical_id_remap_avoids_timeout(self, rng):
        # The paper's repair: traverse in arrival order via logical ids;
        # every predecessor is then published before it is read, so the
        # armed watchdog never fires.
        lp = rng.standard_normal(12)
        hs = rng.random(12) < 0.5
        order = rng.permutation(12)
        logical = logical_workgroup_ids(order)
        c, _ = chain_carries_hazard(
            lp[order], hs[order], arrival_order=logical[order], max_spin=8
        )
        c_exact, _ = chain_carries(lp[order], hs[order])
        np.testing.assert_array_equal(c, c_exact)
