"""The profile-only launch the auto-tuner ranks candidates on.

``SpMVKernel.profile`` runs a launch's checks and builds its plan but
computes no sums.  For every candidate the pruned search enumerates it
must return the ``KernelStats`` of the full ``faithful`` launch, field
for field, and a candidate that raises must raise the same error class
with the same message on both paths.
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
from repro.kernels import get_kernel
from repro.matrices import get_spec
from repro.tuning import FormatCache, pruned_space

CAP_NNZ = 4_000
SEED = 0
MATRICES = ["LP", "FEM/Harbor", "QCD", "webbase", "Circuit", "tridiagonal"]
DEVICES = [pytest.param(GTX680, id="gtx680"), pytest.param(GTX480, id="gtx480")]


def _tridiagonal(n: int = 15_000):
    return sparse.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        [-1, 0, 1],
        format="csr",
    )


@pytest.fixture(scope="module")
def conversions():
    """Matrix and format cache per name, shared by both devices."""
    cache: dict[str, tuple] = {}

    def get(name: str):
        if name not in cache:
            if name == "tridiagonal":
                A = _tridiagonal()
            else:
                spec = get_spec(name)
                A = spec.load(scale=spec.scale_for_nnz(CAP_NNZ), seed=SEED)
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
    seen: set[str] = set()
    mismatches = []
    for point in pruned_space(A, device):
        fmt = formats.get(point)
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
        if diff:
            mismatches.append((point, diff))
    assert not mismatches, mismatches[:5]
    assert {"BCCOOMatrix", "MergeCSRMatrix", "RGCSRMatrix", "raises"} <= seen
    if name == "tridiagonal":
        assert "BCCOOPlusMatrix" in seen


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
