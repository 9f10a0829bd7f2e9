"""Every repro error must survive a pickle round-trip intact.

Forked fabric shards (:mod:`repro.serve.shard`) forward child-side
exceptions to the parent over a multiprocessing pipe, so an
unpicklable error class silently turns a *typed* failure into a broken
pipe.  This sweep constructs every exception class in
:mod:`repro.errors` -- with all its keyword attributes populated -- and
asserts the clone that comes back from ``pickle`` is the same type,
message and payload.  Adding a new error class with a pickle-hostile
``__init__`` (required positional args not forwarded to ``super()`` is
the classic trap) fails here, not in a chaos drill.
"""

from __future__ import annotations

import inspect
import pickle

import pytest

import repro.errors as errors_mod
from repro.errors import RemoteWorkerError, ReproError
from repro.serve.shard import _picklable_error

ERROR_CLASSES = sorted(
    (
        obj
        for obj in vars(errors_mod).values()
        if isinstance(obj, type)
        and issubclass(obj, ReproError)
        and obj.__module__ == "repro.errors"
    ),
    key=lambda cls: cls.__name__,
)


def _dummy_value(name: str):
    """Plausible payload for a keyword attribute, picked by name."""
    if name.endswith("_s") or name in ("fraction",):
        return 0.25
    if name in ("queue_depth", "pending", "attempts", "workgroup", "lane",
                "count"):
        return 3
    return f"dummy-{name}"


def _construct(cls):
    """Build an instance with every keyword attribute populated."""
    sig = inspect.signature(cls.__init__)
    params = list(sig.parameters.values())[1:]  # drop self
    kwargs = {}
    for param in params[1:]:  # drop the message positional
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            continue
        kwargs[param.name] = _dummy_value(param.name)
    try:
        return cls("boom", **kwargs)
    except Exception:
        # A class validating its payload still must round-trip with
        # whatever it accepts.
        return cls("boom")


def test_sweep_is_not_vacuous():
    names = {cls.__name__ for cls in ERROR_CLASSES}
    assert {"ReproError", "ShardCrashError", "RemoteWorkerError",
            "ServerOverloadedError"} <= names
    assert len(ERROR_CLASSES) >= 15


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_round_trips_through_pickle(cls):
    exc = _construct(cls)
    clone = pickle.loads(pickle.dumps(exc))
    assert type(clone) is cls
    assert str(clone) == str(exc)
    assert clone.__dict__ == exc.__dict__
    assert isinstance(clone, ReproError)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_workers_pass_it_through_unwrapped(cls):
    exc = _construct(cls)
    shipped = _picklable_error(exc)
    assert shipped is exc, (
        f"{cls.__name__} should cross the worker pipe as itself, "
        f"got {type(shipped).__name__}"
    )


class TestUnpicklableFallback:
    def test_wrapped_as_remote_worker_error(self):
        class Hostile(ReproError):
            def __init__(self, message, payload):
                super().__init__(message)
                self.payload = payload

        exc = Hostile("cannot cross", payload=lambda: None)
        shipped = _picklable_error(exc)
        assert isinstance(shipped, RemoteWorkerError)
        assert shipped.original_type == "Hostile"
        assert "cannot cross" in str(shipped)
        assert shipped.remote_traceback is not None
        # The wrapper itself must round-trip.
        clone = pickle.loads(pickle.dumps(shipped))
        assert isinstance(clone, RemoteWorkerError)
        assert clone.original_type == "Hostile"

    def test_bad_reconstructor_is_also_caught(self):
        # Pickles fine structurally, but the reduce round-trip raises:
        # __init__'s required second argument is not forwarded.
        class BadReduce(ReproError):
            def __init__(self, message, detail):
                super().__init__(message)
                self.detail = detail

        exc = BadReduce("half-picklable", "detail")
        shipped = _picklable_error(exc)
        assert isinstance(shipped, RemoteWorkerError)
        assert shipped.original_type == "BadReduce"
