"""The profile-only launch the auto-tuner ranks candidates on.

``SpMVKernel.profile`` runs a launch's checks and builds its plan but
computes no sums.  For every candidate the pruned search enumerates it
must return the ``KernelStats`` of the full ``faithful`` launch, field
for field, and a candidate that raises must raise the same error class
with the same message on both paths.

The profile-only launches share one format cache, so every format of a
layout shares its memoized geometries (full workgroups, adjacent-sync
chains, vector traffic); the full launch computes its own from its
padded ``LaunchPlan``.  The timing model's estimate of the two must be
equal field for field too, down to ``t_total.hex()``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy import sparse

from repro.backends import get_backend
from repro.backends.base import kernel_for
from repro.errors import KernelConfigError, ReproError, ValidationError
from repro.formats import BCCOOMatrix
from repro.gpu import GTX480, GTX680
from repro.gpu.timing import TimingModel
from repro.kernels import YaSpMVConfig, get_kernel
from repro.kernels.yaspmv import ProfilePlan
from repro.kernels.yaspmv_common import FormatProfile
from repro.tuning import FormatCache, pruned_space

# The candidate-times golden's matrices, built once per process.  The
# suite matrices all store ushort columns; "wide" (100k columns) adds
# delta, int32 and ushort columns and bit words that change a profile.
from tests.tuning.test_candidate_times_golden import MATRICES, load

DEVICES = [pytest.param(GTX680, id="gtx680"), pytest.param(GTX480, id="gtx480")]


@pytest.fixture(scope="module")
def conversions():
    """Matrix and format cache per name, shared by both devices."""
    cache: dict[str, tuple] = {}

    def get(name: str):
        if name not in cache:
            A = load(name)
            cache[name] = (A, FormatCache(A))
        return cache[name]

    return get


def _outcome(fn):
    try:
        return fn(), None
    except ReproError as exc:
        return None, (type(exc), str(exc))


def _differing_fields(a, b) -> list[str]:
    out = []
    for f in dataclasses.fields(a):
        u, v = getattr(a, f.name), getattr(b, f.name)
        same = type(u) is type(v) and (
            np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v
        )
        if not same:
            out.append(f.name)
    return out


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("name", MATRICES)
def test_profile_equals_full_launch(name, device, conversions):
    A, formats = conversions(name)
    x = np.ones(A.shape[1])
    faithful = get_backend("faithful")
    timing = TimingModel(device)
    seen: set[str] = set()
    col_modes: set[str] = set()
    mismatches = []
    for point in pruned_space(A, device):
        fmt = formats.get(point)
        bccoo = getattr(fmt, "stacked", fmt)
        if isinstance(bccoo, BCCOOMatrix):
            col_modes.add(bccoo.col_storage)
        profile, p_err = _outcome(
            lambda: kernel_for(fmt).profile(fmt, device, config=point.kernel)
        )
        full, f_err = _outcome(
            lambda: faithful.execute(fmt, x, device, config=point.kernel).stats
        )
        if p_err is not None or f_err is not None:
            seen.add("raises")
            if p_err != f_err:
                mismatches.append((point, p_err, f_err))
            continue
        seen.add(type(fmt).__name__)
        diff = _differing_fields(profile, full)
        shared, own = timing.estimate(profile), timing.estimate(full)
        diff += _differing_fields(shared, own)
        if shared.t_total.hex() != own.t_total.hex():
            diff.append("t_total.hex()")
        if diff:
            mismatches.append((point, diff))
    assert not mismatches, mismatches[:5]
    assert {"BCCOOMatrix", "MergeCSRMatrix", "RGCSRMatrix", "raises"} <= seen
    if name == "tridiagonal":
        assert "BCCOOPlusMatrix" in seen
    if name == "wide":
        assert {"delta", "int32", "ushort"} <= col_modes


def test_profile_checks_the_row_stop_count():
    """Flags that disagree with the row map fail on both paths alike."""
    A = sparse.random(200, 200, density=0.05, random_state=3, format="csr")
    fmt = BCCOOMatrix.from_scipy(A)
    flags = fmt.flags
    i = int(np.flatnonzero(fmt.stops())[0])
    bits = flags.bits_per_word
    flags.words[i // bits] |= flags.word_dtype.type(1 << (i % bits))
    kernel = get_kernel("yaspmv")
    with pytest.raises(ValidationError) as prof:
        kernel.profile(fmt, GTX680)
    with pytest.raises(ValidationError) as full:
        kernel.run(fmt, np.ones(200), GTX680)
    assert prof.value.check == full.value.check == "row_stop_count"
    assert str(prof.value) == str(full.value)


def test_comparator_kernels_have_no_profile():
    with pytest.raises(KernelConfigError, match="no profile-only launch"):
        get_kernel("csr_vector").profile(None, GTX680)


def test_profile_rejects_a_foreign_config():
    A = sparse.random(50, 50, density=0.1, random_state=1, format="csr")
    fmt = BCCOOMatrix.from_scipy(A)
    with pytest.raises(KernelConfigError):
        get_kernel("yaspmv").profile(fmt, GTX680, config=object())


def test_memoized_geometry_is_read_only():
    """Every launch of a geometry gets the same arrays: none is writeable."""
    A = sparse.random(2000, 2000, density=0.002, random_state=6, format="csr")
    fmt = BCCOOMatrix.from_scipy(A)
    cfg = YaSpMVConfig(workgroup_size=64, tile_size=8)
    plan = ProfilePlan(fmt, cfg)
    profile = FormatProfile.of(fmt)
    chains = plan.sync_chains()
    assert chains.size
    assert ProfilePlan(fmt, cfg).sync_chains() is chains
    for array in (
        chains,
        plan.workgroup_stops(),
        profile.threads_with_stops(cfg.effective_tile),
    ):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
