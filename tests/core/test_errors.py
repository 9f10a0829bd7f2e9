"""Tests for the exception hierarchy: structure and picklability.

Errors cross process boundaries (forked serve shards, pytest
workers), so every ``ReproError`` subclass must survive a pickle
round-trip with its args and structured context intact.
"""

import pickle

import pytest

import repro.errors as errors_mod
from repro.errors import FaultInjectedError, ReproError, ValidationError


def all_repro_error_classes():
    out = []
    for name in dir(errors_mod):
        obj = getattr(errors_mod, name)
        if isinstance(obj, type) and issubclass(obj, ReproError):
            out.append(obj)
    return out


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        classes = all_repro_error_classes()
        assert len(classes) >= 8  # the documented taxonomy
        for cls in classes:
            assert issubclass(cls, ReproError)

    def test_single_except_catches_everything(self):
        for cls in all_repro_error_classes():
            with pytest.raises(ReproError):
                raise cls("boom")


class TestPickling:
    @pytest.mark.parametrize(
        "cls", all_repro_error_classes(), ids=lambda c: c.__name__
    )
    def test_round_trips_args(self, cls):
        exc = cls("something broke")
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is cls
        assert clone.args == exc.args
        assert str(clone) == "something broke"

    def test_validation_error_context_survives(self):
        exc = ValidationError(
            "check failed", check="row_stop_count", detail="12 != 13"
        )
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.check == "row_stop_count"
        assert clone.detail == "12 != 13"
        assert str(clone) == "check failed"

    def test_fault_injected_error_context_survives(self):
        exc = FaultInjectedError(
            "fault detected", site="sync.stale_grp_sum", seed=7, workgroup=3
        )
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.site == "sync.stale_grp_sum"
        assert clone.seed == 7
        assert clone.workgroup == 3

    def test_context_defaults_to_none(self):
        exc = pickle.loads(pickle.dumps(FaultInjectedError("plain")))
        assert exc.site is None and exc.seed is None and exc.workgroup is None
