"""The winner check: only the ranked winner executes, and it must pass.

Candidates are ranked on profile-only launches; the tuner then runs the
winner's full ``faithful`` launch and compares it with the CSR
reference.  A winner that fails is quarantined like a candidate that
raised, and the next in (simulated time, enumeration index) order is
checked.  Under a fault plan the candidates run full launches, and the
check runs outside the plan, so it consumes none of its draws.
"""

from __future__ import annotations

import pytest

from repro.backends.faithful import FaithfulBackend
from repro.errors import KernelConfigError, TuningError
from repro.fault import FaultPlan, fault_scope
from repro.gpu import GTX680
from repro.matrices import get_spec
from repro.obs import Observer
from repro.tuning import AutoTuner


@pytest.fixture(scope="module")
def circuit():
    spec = get_spec("Circuit")
    return spec.load(scale=spec.scale_for_nnz(3_000), seed=0)


@pytest.fixture(scope="module")
def clean(circuit):
    return AutoTuner(GTX680).tune(circuit)


def _runner_up(result):
    """The second candidate in (simulated time, enumeration index) order."""
    ranked = sorted(
        enumerate(result.history), key=lambda item: (item[1].time_s, item[0])
    )
    assert ranked[0][1] is result.best
    return ranked[1][1]


def _fail_launches(monkeypatch, n_failures, how):
    """Make the first ``n_failures`` full faithful launches fail."""
    original = FaithfulBackend.execute
    calls = []

    def execute(self, fmt, x, device, config=None):
        calls.append(config)
        if len(calls) > n_failures:
            return original(self, fmt, x, device, config)
        if how == "raises":
            raise KernelConfigError("injected launch failure")
        if how == "wrong_gather":
            # Reads x in the wrong places: only a vector whose entries
            # differ shows it.
            return original(self, fmt, x[::-1].copy(), device, config)
        result = original(self, fmt, x, device, config)
        if how == "swapped_rows":
            # The sum of y still checks out; only a per-row comparison
            # that reaches these rows shows it.
            result.y[[-2, -1]] = result.y[[-1, -2]]
        else:
            result.y[0] += 1.0  # a wrong row: the report fails
        return result

    monkeypatch.setattr(FaithfulBackend, "execute", execute)
    return calls


@pytest.mark.parametrize(
    "how, reason",
    [
        ("raises", "KernelConfigError"),
        ("wrong_y", "ValidationError"),
        ("wrong_gather", "ValidationError"),
        ("swapped_rows", "ValidationError"),
    ],
)
def test_failed_winner_falls_to_the_runner_up(
    circuit, clean, monkeypatch, how, reason
):
    calls = _fail_launches(monkeypatch, 1, how)
    obs = Observer()
    result = AutoTuner(GTX680, observer=obs).tune(circuit)

    runner_up = _runner_up(clean)
    assert len(calls) == 2
    assert result.best_point == runner_up.point
    assert result.best.time_s == runner_up.time_s
    assert result.evaluated == clean.evaluated - 1
    assert result.skipped == clean.skipped + 1
    want = dict(clean.skip_reasons)
    want[reason] = want.get(reason, 0) + 1
    assert result.skip_reasons == want
    assert clean.best_point not in [ev.point for ev in result.history]

    checks = obs.tracer.find_all("tuner.verify")
    assert [(c.attrs["ok"], c.attrs["reason"]) for c in checks] == [
        (False, reason),
        (True, None),
    ]
    tune = obs.tracer.find("tuner.tune")
    assert all(c.parent_id == tune.span_id for c in checks)
    assert obs.metrics.get("tuner.verify_failures").value() == 1
    rejected = [
        c
        for c in obs.tracer.find_all("tuner.candidate")
        if c.attrs.get("skip_reason") == reason and "sim_time_s" not in c.attrs
    ]
    assert len(rejected) == want[reason]


def test_no_winner_passes(circuit, monkeypatch):
    calls = _fail_launches(monkeypatch, float("inf"), "raises")
    with pytest.raises(TuningError, match="winner check"):
        AutoTuner(GTX680, keep_history=False).tune(circuit)
    assert len(calls) == 404


def test_clean_run_checks_once(circuit, clean):
    obs = Observer()
    result = AutoTuner(GTX680, observer=obs).tune(circuit)
    checks = obs.tracer.find_all("tuner.verify")
    assert len(checks) == 1 and checks[0].attrs["ok"] is True
    assert checks[0].attrs["index"] is not None
    assert obs.metrics.get("tuner.verify_failures").value() == 0
    assert result.best_point == clean.best_point


@pytest.mark.parametrize(
    "spec, events",
    [
        ("kernel.nan_partial:p=1.0,count=inf,seed=1", 404),
        ("sync.stale_grp_sum:p=1.0,count=inf,seed=1", 132),
    ],
)
def test_fault_plan_tunes_on_full_launches(circuit, clean, spec, events):
    plan = FaultPlan.parse(spec)
    with fault_scope(plan):
        result = AutoTuner(GTX680).tune(circuit)
    assert result.best_point == clean.best_point
    assert result.evaluated == 404
    assert result.skip_reasons == {"KernelConfigError": 36}
    # One draw per full candidate launch, none for the winner check.
    assert len(plan.events) == events
