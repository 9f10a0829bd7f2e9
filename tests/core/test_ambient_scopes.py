"""The ambient fault plan and observer belong to the thread that installs
them.

Kernels read both through ``active_plan()`` and ``active_observer()``.
A scope entered on one thread must not reach kernels running on
another: a permissive engine's fault plan would otherwise corrupt a
clean engine's answers on a second thread.  Two threads are ordered
with events, so every interleaving below is deterministic.
"""

from __future__ import annotations

import threading

import pytest

from repro.fault import FaultPlan
from repro.fault.injection import active_plan, fault_scope
from repro.obs import NULL_OBSERVER, Observer, active_observer, obs_scope

#: (scope, reader, a fresh value to install, what a thread sees outside
#: every scope).
SCOPES = [
    pytest.param(
        fault_scope,
        active_plan,
        lambda: FaultPlan.single("kernel.nan_partial", count=None),
        None,
        id="fault_scope",
    ),
    pytest.param(obs_scope, active_observer, Observer, NULL_OBSERVER, id="obs_scope"),
]

WAIT_S = 10.0


def _run(*targets) -> None:
    errors: list[BaseException] = []

    def guarded(target):
        def run():
            try:
                target()
            except BaseException as exc:  # re-raised on the test's thread
                errors.append(exc)

        return run

    threads = [threading.Thread(target=guarded(t)) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(WAIT_S)
        assert not t.is_alive()
    if errors:
        raise errors[0]


@pytest.mark.parametrize("scope, active, make, outside", SCOPES)
def test_scope_is_invisible_on_another_thread(scope, active, make, outside):
    value = make()
    entered, checked, exited = (threading.Event() for _ in range(3))
    seen = {}

    def installer():
        with scope(value) as bound:
            assert bound is value
            entered.set()
            assert checked.wait(WAIT_S)
            seen["installer"] = active()
        exited.set()

    def bystander():
        assert entered.wait(WAIT_S)
        seen["during"] = active()
        checked.set()
        assert exited.wait(WAIT_S)
        seen["after"] = active()

    _run(installer, bystander)
    assert seen["installer"] is value
    assert seen["during"] is outside
    assert seen["after"] is outside
    assert active() is outside


@pytest.mark.parametrize("scope, active, make, outside", SCOPES)
def test_interleaved_scopes_leave_none_installed(scope, active, make, outside):
    # A enters, B enters, A exits, B exits: each thread sees its own
    # value throughout, and neither exit restores the other's value.
    a, b = make(), make()
    a_in, b_in, a_out = (threading.Event() for _ in range(3))
    seen = {}

    def first():
        with scope(a):
            a_in.set()
            assert b_in.wait(WAIT_S)
            seen["a_inside"] = active()
        seen["a_after"] = active()
        a_out.set()

    def second():
        assert a_in.wait(WAIT_S)
        with scope(b):
            b_in.set()
            assert a_out.wait(WAIT_S)
            seen["b_inside"] = active()
        seen["b_after"] = active()

    _run(first, second)
    assert seen["a_inside"] is a
    assert seen["b_inside"] is b
    assert seen["a_after"] is outside
    assert seen["b_after"] is outside
    assert active() is outside
