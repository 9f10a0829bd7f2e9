"""Exception hierarchy for the yaSpMV reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of :mod:`repro` with a single ``except`` clause
while still being able to distinguish failure classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class FormatError(ReproError):
    """A sparse-matrix format was constructed from inconsistent arrays.

    Raised, for example, when index arrays and value arrays disagree on the
    number of stored entries, when a block size does not divide into the
    declared padded dimensions, or when a bit-flag array encodes more row
    stops than the matrix has non-empty block rows.
    """


class FormatNotApplicableError(FormatError):
    """A format cannot represent the given matrix within its resource limits.

    The canonical example is ELL on a matrix whose maximum row length makes
    the padded array exceed the configured expansion budget -- the situation
    Table 3 of the paper marks as ``N/A``.
    """


class KernelConfigError(ReproError):
    """A kernel was launched with an invalid or unsupported configuration.

    Examples: a workgroup size that is not a multiple of the warp size, a
    thread-level tile size of zero, or a shared-memory request exceeding the
    device's per-workgroup limit.
    """


class BackendError(ReproError):
    """An execution backend was requested that does not exist.

    Raised by :func:`repro.backends.get_backend` (and so by
    ``SpMVEngine(backend=...)``) for a name other than ``"faithful"`` or
    ``"fast"``; the message lists the available names.
    """


class DeviceError(ReproError):
    """A simulated-device constraint was violated.

    Raised when a kernel requests more shared memory, registers, or threads
    than the :class:`repro.gpu.device.DeviceSpec` provides.
    """


class TuningError(ReproError):
    """The auto-tuner was asked to search an empty or inconsistent space."""


class MatrixGenerationError(ReproError):
    """A synthetic matrix generator received unsatisfiable parameters."""


class ValidationError(ReproError):
    """A runtime invariant or output check failed.

    Raised by the :mod:`repro.fault` validators when a format instance
    violates a structural invariant (e.g. the bit flags encode more row
    stops than the non-empty-row map holds) or when a kernel's output
    disagrees with the sampled CSR reference beyond tolerance.

    ``check`` names the failed check; ``detail`` carries a free-form
    diagnostic string.  Both survive pickling (the message is the sole
    positional argument; extra context lives in the instance dict).
    """

    def __init__(self, message: str = "", *, check: str | None = None,
                 detail: str | None = None):
        super().__init__(message)
        self.check = check
        self.detail = detail


class DeadlineExceeded(ReproError):
    """A wall-clock budget (:class:`repro.fault.Deadline`) ran out.

    ``label`` names the operation that hit the budget; ``budget_s`` is
    the configured budget in seconds.  Both survive pickling (message is
    the sole positional argument).
    """

    def __init__(self, message: str = "", *, label: str | None = None,
                 budget_s: float | None = None):
        super().__init__(message)
        self.label = label
        self.budget_s = budget_s


class CircuitOpenError(ReproError):
    """A circuit breaker refused an attempt because its circuit is open.

    ``family`` names the kernel family whose circuit tripped.
    """

    def __init__(self, message: str = "", *, family: str | None = None):
        super().__init__(message)
        self.family = family


class CheckpointError(ReproError):
    """A tuning checkpoint file could not be used (wrong run, bad schema)."""


class AdjacentSyncTimeout(ReproError):
    """The adjacent-synchronization spin watchdog expired.

    A workgroup waited on an unpublished ``Grp_sum`` slot for more than
    the configured spin cap -- the bounded-wait version of the deadlock
    the paper warns about for out-of-order dispatch (section 3.2.4).
    ``workgroup`` is the waiting workgroup; ``spins`` the exhausted cap.
    """

    def __init__(self, message: str = "", *, workgroup: int | None = None,
                 spins: int | None = None):
        super().__init__(message)
        self.workgroup = workgroup
        self.spins = spins


class FaultInjectedError(ReproError):
    """An injected fault was detected and surfaced under strict policy.

    Carries the structured context needed to reproduce the failure:
    ``site`` (the fault-injection site identifier), ``seed`` (the
    :class:`repro.fault.FaultPlan` seed) and ``workgroup`` (the affected
    workgroup id, when the fault is localized to one).
    """

    def __init__(self, message: str = "", *, site: str | None = None,
                 seed: int | None = None, workgroup: int | None = None):
        super().__init__(message)
        self.site = site
        self.seed = seed
        self.workgroup = workgroup


class ServerOverloadedError(ReproError):
    """The serving layer shed a request under admission control.

    Raised by :meth:`repro.serve.SpMVServer.submit` when the bounded
    request queue is full (backpressure) -- callers should retry with
    backoff or route the request elsewhere.  ``queue_depth`` is the
    configured bound; ``pending`` the queue occupancy observed at
    admission time.  Both survive pickling (the message is the sole
    positional argument).
    """

    def __init__(self, message: str = "", *, queue_depth: int | None = None,
                 pending: int | None = None):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.pending = pending


class ServerClosedError(ReproError):
    """A request was submitted to a server that is shut (or shutting) down."""


class ServeTimeout(ReproError, TimeoutError):
    """A :meth:`repro.serve.ServeFuture.result` wait ran out of patience.

    Distinct from :class:`DeadlineExceeded` (the *request's* budget
    expired server-side) and from a shard failure: the request may still
    complete later -- only this caller stopped waiting.  Subclasses
    :class:`TimeoutError` for drop-in compatibility with stdlib-style
    callers.  ``waited_s`` is the wait that elapsed.  Survives pickling
    (the message is the sole positional argument).
    """

    def __init__(self, message: str = "", *, waited_s: float | None = None):
        super().__init__(message)
        self.waited_s = waited_s


class ShardCrashError(ReproError):
    """A serving-fabric shard died with requests in flight.

    Raised into the futures of every request queued on the crashed
    shard -- by the ``serve.shard_crash`` and ``serve.worker_kill``
    fault sites, or when a shard's transport dies or goes silent; the
    fabric catches it and replays the
    request on the successor shard under the retry/deadline budget.
    ``shard`` names the dead shard.  Survives pickling (the message is
    the sole positional argument).
    """

    def __init__(self, message: str = "", *, shard: str | None = None):
        super().__init__(message)
        self.shard = shard


class RemoteWorkerError(ReproError):
    """A worker-process exception that could not cross the pipe as itself.

    Everything a shard worker normally raises is picklable (the sweep in
    ``tests/serve/test_pickle_errors.py`` holds the line), but arbitrary
    third-party exceptions -- or anything carrying an unpicklable
    payload -- must never degrade into an opaque ``PicklingError`` on
    the parent side.  The worker wraps such exceptions into this class,
    preserving the original type name (``original_type``) and the full
    remote traceback text (``remote_traceback``).  Survives pickling
    (the message is the sole positional argument).
    """

    def __init__(self, message: str = "", *, original_type: str | None = None,
                 remote_traceback: str | None = None):
        super().__init__(message)
        self.original_type = original_type
        self.remote_traceback = remote_traceback

