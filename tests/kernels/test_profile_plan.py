"""A profile-only launch plan counts from stop positions.

``ProfilePlan`` holds no padded array: its workgroup geometry, stop
counts and vector traffic come from the format's ``FormatProfile``.
Each member must equal what ``LaunchPlan`` reads off its padded copy --
the ``reshape(...).any``/``.sum`` results the stop positions replace --
for any stop mask, including flags that put a stop in the padding.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.formats import BCCOOMatrix, BCCOOPlusMatrix
from repro.gpu import GTX480, GTX680
from repro.kernels import YaSpMVConfig
from repro.kernels.yaspmv import LaunchPlan, ProfilePlan
from repro.kernels.yaspmv_common import FormatProfile


@st.composite
def formats_and_configs(draw):
    nrows = draw(st.integers(1, 400))
    ncols = draw(st.sampled_from([1, 7, 300, 70_000]))
    nnz = draw(st.sampled_from([0, 5, 300, 3000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = sparse.csr_matrix(
        (
            rng.standard_normal(nnz),
            (rng.integers(0, nrows, nnz), rng.integers(0, ncols, nnz)),
        ),
        shape=(nrows, ncols),
    )
    if draw(st.booleans()):
        # Empty block rows: the row map is not the identity.
        A = sparse.csr_matrix(A.multiply(np.arange(nrows)[:, None] % 3 != 0))
    h = draw(st.integers(1, 4))
    w = draw(st.sampled_from([1, 2, 4]))
    word = draw(st.sampled_from([np.uint8, np.uint16, np.uint32]))
    tile = draw(st.sampled_from([1, 3, 8, 16]))
    slices = draw(st.sampled_from([1, 1, 2, 4]))
    kwargs = dict(
        block_height=h,
        block_width=w,
        bit_word_dtype=word,
        col_storage=draw(st.sampled_from(["auto", "int32"])),
        delta_tile_size=tile,
    )
    if slices > 1:
        fmt = BCCOOPlusMatrix.from_scipy(A, slice_count=slices, **kwargs).stacked
    else:
        fmt = BCCOOMatrix.from_scipy(A, **kwargs)
    if draw(st.booleans()):
        # Flip one flag bit anywhere, padding included.
        flags = fmt.flags
        i = draw(st.integers(0, flags.nbits - 1))
        bits = flags.bits_per_word
        flags.words[i // bits] ^= flags.word_dtype.type(1 << (i % bits))
    strategy = draw(st.sampled_from([1, 2]))
    cfg = YaSpMVConfig(
        workgroup_size=draw(st.sampled_from([32, 64])),
        strategy=strategy,
        reg_size=tile,
        tile_size=tile,
        use_texture=draw(st.booleans()),
        precision=draw(st.sampled_from(["fp32", "fp64"])),
    )
    return fmt, cfg


@settings(max_examples=200, deadline=None)
@given(formats_and_configs())
def test_profile_plan_equals_padded_counts(case):
    fmt, cfg = case
    full = LaunchPlan(fmt, cfg)
    plan = ProfilePlan(fmt, cfg)
    padded = full.padded
    assert plan.nb_padded == padded.nb_padded
    assert plan.n_workgroups == padded.n_workgroups
    assert plan.n_threads_total == padded.n_threads_total
    assert plan.n_stops == int(padded.stops.sum())
    assert np.array_equal(
        plan.workgroup_stops(), padded.workgroup_stops().sum(axis=1)
    )
    assert np.array_equal(
        plan.workgroup_stops() > 0, padded.workgroup_stops().any(axis=1)
    )
    full_wg = padded.thread_stops().any(axis=1).reshape(padded.n_workgroups, -1)
    assert plan.full_workgroups() == int(full_wg.all(axis=1).sum())
    assert np.array_equal(plan.sync_chains(), full.sync_chains())
    for device in (GTX680, GTX480):
        assert plan.vector_traffic(device) == full.vector_traffic(device)


def test_formats_of_one_layout_share_their_decoded_reads():
    A = sparse.random(300, 300, density=0.03, random_state=4, format="csr")
    first = BCCOOMatrix.from_scipy(A, block_height=2, bit_word_dtype=np.uint8)
    second = BCCOOMatrix.from_scipy(A, block_height=2, bit_word_dtype=np.uint32)
    a = FormatProfile.of(first)
    b = FormatProfile.of(second, share=a)
    assert a.nblocks_padded != b.nblocks_padded
    assert b.reads is a.reads and b.stop_pos is a.stop_pos
    # A format that decodes differently keeps its own.
    other = BCCOOMatrix.from_scipy(A, block_height=2, block_width=2)
    c = FormatProfile(other, share=a)
    assert c.reads is not a.reads


def test_profile_lives_as_long_as_its_format():
    import gc

    from repro.kernels import yaspmv_common

    A = sparse.random(100, 100, density=0.05, random_state=2, format="csr")
    fmt = BCCOOMatrix.from_scipy(A)
    FormatProfile.of(fmt)
    assert fmt in yaspmv_common._PROFILES
    n = len(yaspmv_common._PROFILES)
    del fmt
    gc.collect()
    assert len(yaspmv_common._PROFILES) == n - 1


def test_profile_plan_allocates_no_padded_arrays():
    A = sparse.random(3000, 3000, density=0.002, random_state=5, format="csr")
    fmt = BCCOOMatrix.from_scipy(A)
    plan = ProfilePlan(fmt, YaSpMVConfig(workgroup_size=512, tile_size=32))
    assert plan.nb_padded > fmt.nblocks_padded  # padded by arithmetic
    for name in ProfilePlan.__slots__:
        value = getattr(plan, name)
        assert not (isinstance(value, np.ndarray) and value.size >= plan.nb_padded)


def test_shared_geometry_is_keyed_by_workgroup_count():
    """Bit words that pad one layout to different workgroup counts share
    stop positions but not geometries: with 16 blocks per workgroup, 1,960
    diagonal blocks pad to 1,960 (uint8 words, 123 workgroups) or 1,984
    (uint32, 124, the last one without a stop)."""
    A = sparse.identity(1960, format="csr")
    first = BCCOOMatrix.from_scipy(A, bit_word_dtype=np.uint8)
    second = BCCOOMatrix.from_scipy(A, bit_word_dtype=np.uint32)
    a = FormatProfile.of(first)
    b = FormatProfile.of(second, share=a)
    assert b.stop_pos is a.stop_pos
    cfg = YaSpMVConfig(workgroup_size=8, tile_size=2)
    plans = [ProfilePlan(fmt, cfg) for fmt in (first, second)]
    assert [plan.n_workgroups for plan in plans] == [123, 124]
    for fmt, plan in zip((first, second), plans):
        full = LaunchPlan(fmt, cfg)
        assert plan.full_workgroups() == full.full_workgroups()
        assert np.array_equal(plan.sync_chains(), full.sync_chains())
    assert not np.array_equal(plans[0].sync_chains(), plans[1].sync_chains())
