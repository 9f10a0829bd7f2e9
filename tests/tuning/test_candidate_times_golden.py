"""Golden pin of every candidate's simulated time.

``tests/tuning/golden/candidate_times.json`` holds, per (matrix,
device), a sha256 over the auto-tuner's full history in enumeration
order -- each evaluated point with its ``time_s.hex()`` -- and the
skip-reason counts.  The matrices are five suite stand-ins at 4k nnz,
a 15k-row tridiagonal and a wide random matrix whose columns are stored
as delta, int32 and ushort across its candidates.  :func:`load` builds
each once per process, for this file and ``tests/kernels/test_profile.py``
alike: the wide matrix alone takes seconds and over a gigabyte of
scratch memory to sample.

``test_profile.py`` checks that a candidate's profile-only launch
equals its full launch; a change to cost code both launches share
would pass it and still move the ranking.  This file catches that:
every candidate must keep its exact simulated time.

The walk launches once per group of profile-equal candidates
(:meth:`~repro.tuning.FormatCache.entry`);
``test_shared_launches_equal_own_launches`` checks, on the tridiagonal
and the wide matrix, that every candidate's outcome equals the one it
gets from its own format, launch and estimate.

To regenerate after an *intentional* change to the cost model or the
search space, run this file as a script:
``PYTHONPATH=src python tests/tuning/test_candidate_times_golden.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from repro.backends.base import kernel_for
from repro.errors import ReproError
from repro.fault import FaultPlan, fault_scope
from repro.gpu import GTX480, GTX680
from repro.gpu.timing import TimingModel
from repro.matrices import get_spec
from repro.obs.stages import StageClock, stage_scope
from repro.tuning import AutoTuner, pruned_space
from repro.tuning.cache import build_format
from repro.tuning.evaluate import evaluate_candidates
from repro.util import as_csr

GOLDEN_PATH = Path(__file__).parent / "golden" / "candidate_times.json"
CAP_NNZ = 4_000
SEED = 0
MATRICES = ["LP", "FEM/Harbor", "QCD", "webbase", "Circuit", "tridiagonal", "wide"]
DEVICES = {"gtx680": GTX680, "gtx480": GTX480}


@functools.cache
def load(name: str):
    """The named test matrix, built once per process (callers copy it:
    ``as_csr`` and the format converters never write to their input)."""
    if name == "tridiagonal":
        n = 15_000
        return sparse.diags(
            [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
            [-1, 0, 1],
            format="csr",
        )
    if name == "wide":
        return sparse.random(2000, 100_000, density=3e-5, random_state=1, format="csr")
    spec = get_spec(name)
    return spec.load(scale=spec.scale_for_nnz(CAP_NNZ), seed=SEED)


def compute_entry(A, device) -> dict:
    result = AutoTuner(device).tune(A)
    digest = hashlib.sha256()
    for ev in result.history:
        digest.update(json.dumps(asdict(ev.point), sort_keys=True).encode())
        digest.update(ev.time_s.hex().encode())
    skip_reasons = list(result.skip_reasons.items())
    digest.update(json.dumps(skip_reasons).encode())
    return {
        "history_sha256": digest.hexdigest(),
        "evaluated": result.evaluated,
        "skip_reasons": dict(skip_reasons),
    }


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as f:
        return json.load(f)


def test_golden_covers_every_pair(golden):
    assert sorted(golden) == sorted(f"{m}@{d}" for m in MATRICES for d in DEVICES)


@pytest.mark.parametrize("device", sorted(DEVICES))
@pytest.mark.parametrize("name", MATRICES)
def test_candidate_times_match_golden(name, device, golden):
    entry = compute_entry(load(name), DEVICES[device])
    assert entry == golden[f"{name}@{device}"], (
        f"candidate times of {name!r} on {device} moved; if the change is "
        f"intentional, regenerate with `PYTHONPATH=src python "
        f"{Path(__file__).name}` from the repo root"
    )


def own_launches(A, device, items) -> list[tuple]:
    """Each candidate's outcome from its own format, profile-only launch
    and estimate: ``(index, time_s.hex(), skip reason)``."""
    timing = TimingModel(device)
    out = []
    for index, point in items:
        try:
            fmt = build_format(A, point)
            stats = kernel_for(fmt).profile(fmt, device, config=point.kernel)
        except ReproError as exc:
            out.append((index, None, type(exc).__name__))
            continue
        out.append((index, timing.estimate(stats).t_total.hex(), None))
    return out


def walked(items, A, device) -> tuple[list[tuple], int]:
    """The walk's outcomes, as :func:`own_launches` gives them, and the
    profile-only launches it ran."""
    clock = StageClock()
    with stage_scope(clock):
        outcomes, _ = evaluate_candidates(items, A, device)
    return [
        (
            o.index,
            None if o.evaluation is None else o.evaluation.time_s.hex(),
            o.skip_reason,
        )
        for o in outcomes
    ], clock.counts.get("profiles", 0)


#: Profile-only launches of each matrix's walk on GTX680: ushort columns
#: let all three bit words share; the wide matrix's delta columns do
#: only where padding leaves the delta tiles unchanged.
SHARED_LAUNCHES = {"tridiagonal": 296, "wide": 1052}


@pytest.mark.parametrize("name", sorted(SHARED_LAUNCHES))
def test_shared_launches_equal_own_launches(name, monkeypatch):
    A = as_csr(load(name))
    items = list(enumerate(pruned_space(A, GTX680)))
    outcomes, profiles = walked(items, A, GTX680)
    assert outcomes == own_launches(A, GTX680, items)
    assert profiles == SHARED_LAUNCHES[name]

    # Under a fault plan nothing is shared: every candidate runs its own
    # full launch, drawing from the plan, and is estimated on its own.
    estimates = []
    estimate = TimingModel.estimate

    def counting(self, stats):
        estimates.append(stats)
        return estimate(self, stats)

    monkeypatch.setattr(TimingModel, "estimate", counting)
    head = items[:216]
    plan = FaultPlan.parse("kernel.nan_partial:p=1.0,count=inf,seed=1")
    with fault_scope(plan):
        faulted, profiles = walked(head, A, GTX680)
    evaluated = sum(t is not None for _, t, _ in faulted)
    assert faulted == outcomes[: len(head)]
    assert profiles == 0
    assert len(estimates) == len(plan.events) == evaluated


if __name__ == "__main__":  # golden regeneration entry point
    data = {
        f"{name}@{device}": compute_entry(load(name), DEVICES[device])
        for name in MATRICES
        for device in DEVICES
    }
    with GOLDEN_PATH.open("w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")
