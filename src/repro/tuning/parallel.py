"""Candidate evaluation: the auto-tuner's one evaluation path and its fan-out.

Section 4's search is the framework's cost center (the paper reports
12.8 s per matrix, dominated by kernel compilation).  Every tuner in
:mod:`repro.tuning` evaluates candidates through
:func:`evaluate_candidates` -- in-process, or on the pool workers that
:func:`run_parallel` forks -- and folds the index-tagged outcomes into
one :class:`~repro.tuning.TuningResult` the same way, so ``workers=N``
is an observable no-op on everything except wall-clock time.  An
evaluation is a profile-only launch -- the full ``faithful`` launch
under an active fault plan -- because the rank needs only the simulated
time; the fold then executes and checks the winner alone, in the
calling process.

Three design rules keep the pool bit-identical to the in-process walk:

1. **Chunking by format affinity.**  Candidates are grouped by their
   ``(base_format, block_height, block_width, bit_word)`` key.  Every
   format conversion a chunk needs is therefore performed exactly once,
   by the worker that owns the chunk -- :class:`~repro.tuning.FormatCache`
   state never crosses workers and no conversion is duplicated.
2. **Index-tagged outcomes.**  Each candidate carries its position in
   the enumeration order; the fold walks outcomes in that order, so the
   best-point tie-breaking ("first strictly faster wins") and the
   skip-reason quarantine counters come out the same regardless of
   worker scheduling.
3. **Plan-lookup replay.**  Evaluation never touches a
   :class:`~repro.tuning.KernelPlanCache`; the fold replays the plan
   lookups against the tuner's shared cache in enumeration order,
   leaving it in the same state (entries, hit and miss counters) for
   every pool width.

The pool is a fork-based process pool, and the CSR operand is published
once in a :class:`~repro.core.shm.SharedArena`: each chunk's payload
carries a descriptor, and every worker maps the same physical pages
instead of unpickling a private copy.

**Failure containment.**  A long tuning run must survive its pool:
:func:`run_parallel` catches worker death (``BrokenProcessPool`` from a
killed process, including one the ``tuner.worker_crash`` fault site
kills), requeues the lost chunks onto a freshly built pool under a
:class:`~repro.fault.RetryPolicy` (exponential backoff, deterministic
jitter), and past the retry budget falls back to evaluating the
stragglers in-process -- the index-ordered fold is oblivious to all of
it, so the result stays bit-identical.  A :class:`~repro.fault.Deadline`
is threaded down into each chunk (workers rebuild a local deadline from
the remaining seconds), and an ``on_outcome`` callback lets the tuner
journal each outcome to a :class:`~repro.tuning.TuningCheckpoint` the
moment its chunk finishes.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..backends import get_backend
from ..backends.base import kernel_for
from ..errors import ReproError, WorkerCrashError
from ..fault.injection import active_plan
from ..fault.retry import Deadline, RetryPolicy
from ..gpu.device import DeviceSpec
from ..gpu.timing import TimingModel
from ..obs import NULL_OBSERVER, obs_scope
from .cache import FormatCache
from .parameters import TuningPoint

__all__ = [
    "CandidateOutcome",
    "ChunkResult",
    "ParallelReport",
    "chunk_candidates",
    "evaluate_candidates",
    "run_parallel",
]

#: Default pool-rebuild policy when the caller supplies none: two
#: rebuilds (then in-process fallback), no real sleeping.
DEFAULT_POOL_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.0)


@dataclass(frozen=True)
class CandidateOutcome:
    """One evaluated (or quarantined) candidate, tagged with its
    position in the enumeration order."""

    index: int
    point: TuningPoint
    #: ``None`` when the candidate was quarantined.
    evaluation: object | None
    #: Error class name when quarantined (the skip-reason taxonomy).
    skip_reason: str | None = None
    #: Quarantined before the plan lookup (format conversion failed), so
    #: the fold's plan-cache replay skips it.
    format_skipped: bool = False
    #: Wall-clock seconds this candidate's evaluation took (measured
    #: where it ran; observability only -- never consulted by the fold).
    wall_s: float = 0.0


@dataclass
class ChunkResult:
    """What one pool worker reports back for its chunk."""

    outcomes: list[CandidateOutcome] = field(default_factory=list)
    #: The worker mapped the shared operand arena to evaluate this chunk.
    shm_attaches: int = 0


@dataclass
class ParallelReport:
    """Containment bookkeeping for one :func:`run_parallel` call.

    Filled in place when the caller passes one in -- the tuner reads it
    to emit ``tuner.worker_crashes`` / ``retry.attempts`` /
    ``tuner.shm.attaches`` metrics.
    """

    #: Chunks lost to a dead worker (a single crash can lose several:
    #: a broken process pool fails every in-flight future).
    lost_chunks: int = 0
    #: Pools torn down and rebuilt after a crash.
    pool_rebuilds: int = 0
    #: Chunks that ended up evaluated in-process because the rebuild
    #: budget ran out.
    serial_fallback_chunks: int = 0
    #: The deadline expired before every candidate was evaluated.
    deadline_expired: bool = False
    #: Worker attaches to the shared operand arena: each one is a
    #: zero-copy mapping in place of a pickled CSR.
    shm_attaches: int = 0
    #: Bytes in the shared operand arena.
    shm_bytes: int = 0


def chunk_candidates(
    items: list[tuple[int, TuningPoint]],
) -> list[list[tuple[int, TuningPoint]]]:
    """Group index-tagged candidates by format affinity.

    The chunk key is ``(base_format, block_height, block_width,
    bit_word)`` -- every distinct format a chunk's candidates build (the
    key determines ``TuningPoint.format_key`` up to slicing/compression)
    belongs to that chunk alone, so conversions stay worker-local.
    Chunks preserve first-occurrence order and candidates keep their
    enumeration order within a chunk.
    """
    groups: dict[tuple, list[tuple[int, TuningPoint]]] = {}
    for index, point in items:
        key = (
            point.base_format,
            point.block_height,
            point.block_width,
            point.bit_word,
        )
        groups.setdefault(key, []).append((index, point))
    return list(groups.values())


def evaluate_candidates(
    items: list[tuple[int, TuningPoint]],
    csr,
    device: DeviceSpec,
    deadline: Deadline | None = None,
    crash_after: int | None = None,
    on_outcome=None,
) -> list[CandidateOutcome]:
    """Evaluate index-tagged candidates in order: the one evaluation path.

    Each candidate's format is converted from ``csr`` (once per format
    key) and timed by the simulated cost profile of its launch.  The
    ranking reads only that profile, so with no fault plan active the
    launch is profile-only (:meth:`~repro.kernels.SpMVKernel.profile`):
    every check runs and the plan is built per call, but no sums are
    computed.  Under an active fault plan each candidate runs the full
    ``faithful`` launch against an all-ones vector instead, because the
    plan's kernel and synchronization sites fire inside the sums.  No
    per-format plan cache is left for the losing candidates to fill,
    and the tuner's fold executes and checks only the winner.

    A failing candidate is quarantined and counted by reason instead of
    aborting; genuine bugs (non-:class:`ReproError`) still propagate.
    An expired ``deadline`` stops the walk cooperatively -- completed
    outcomes are returned, the rest are simply absent (the tuner marks
    the result partial).  ``crash_after`` is the ``tuner.worker_crash``
    injection point: after that many candidates the walk raises
    :class:`WorkerCrashError` (a pool worker turns it into a hard exit).
    ``on_outcome`` fires per completed candidate (the checkpoint hook).

    Evaluation runs under a muted observer: pool workers cannot share
    the caller's observer, so the tuner records one ``tuner.candidate``
    span per outcome when it folds them -- the same trace for every
    pool width.
    """
    # Imported here: repro.tuning.tuner imports this module at top
    # level; the deferred import breaks the cycle.
    from .tuner import Evaluation

    interpreter = get_backend("faithful")
    full_launch = active_plan() is not None
    timing = TimingModel(device)
    fmt_cache = FormatCache(csr)
    x = np.ones(csr.shape[1], dtype=np.float64)
    nnz = int(csr.nnz)
    outcomes: list[CandidateOutcome] = []

    def emit(outcome: CandidateOutcome) -> None:
        outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(outcome)

    with obs_scope(NULL_OBSERVER):
        for pos, (index, point) in enumerate(items):
            if deadline is not None and deadline.expired():
                break
            if crash_after is not None and pos >= crash_after:
                raise WorkerCrashError("tuning worker killed mid-chunk (injected)")
            t0 = time.perf_counter()
            try:
                fmt = fmt_cache.get(point)
            except ReproError as exc:
                emit(
                    CandidateOutcome(
                        index=index,
                        point=point,
                        evaluation=None,
                        skip_reason=type(exc).__name__,
                        format_skipped=True,
                        wall_s=time.perf_counter() - t0,
                    )
                )
                continue
            try:
                if full_launch:
                    stats = interpreter.execute(
                        fmt, x, device, config=point.kernel
                    ).stats
                else:
                    stats = kernel_for(fmt).profile(fmt, device, config=point.kernel)
            except ReproError as exc:
                emit(
                    CandidateOutcome(
                        index=index,
                        point=point,
                        evaluation=None,
                        skip_reason=type(exc).__name__,
                        wall_s=time.perf_counter() - t0,
                    )
                )
                continue
            breakdown = timing.estimate(stats)
            emit(
                CandidateOutcome(
                    index=index,
                    point=point,
                    evaluation=Evaluation(
                        point=point,
                        time_s=breakdown.t_total,
                        gflops=breakdown.gflops(nnz),
                        breakdown=breakdown,
                    ),
                    wall_s=time.perf_counter() - t0,
                )
            )
    return outcomes


def _evaluate_chunk(payload) -> ChunkResult:
    """Pool worker entry point: evaluate one chunk on the shared operand.

    ``payload`` is ``(operand, device, items, deadline_s, crash_after)``.
    ``operand`` names the parent's :class:`SharedArena` and the CSR
    shape; the worker maps the matrix from it (zero-copy: the rebuilt
    CSR's buffers point straight at the shared pages).  The deadline
    travels as remaining seconds (a ticking clock does not pickle;
    ``None`` is unlimited) and is rebuilt locally.  An injected crash
    exits the process the way a killed worker dies, so the parent sees
    a broken pool.
    """
    import scipy.sparse as sp

    from ..core.shm import SharedArena

    operand, device, items, deadline_s, crash_after = payload
    arena = SharedArena.attach(operand["descriptor"])
    try:
        csr = sp.csr_matrix(
            (arena.view("data"), arena.view("indices"), arena.view("indptr")),
            shape=tuple(operand["shape"]),
            copy=False,
        )
        deadline = Deadline(max(deadline_s, 0.0)) if deadline_s is not None else None
        try:
            outcomes = evaluate_candidates(
                items, csr, device, deadline=deadline, crash_after=crash_after
            )
        except WorkerCrashError:
            os._exit(1)
        return ChunkResult(outcomes=outcomes, shm_attaches=1)
    finally:
        # Drop the chunk's reference to the views before unmapping; a
        # still-live view keeps the mapping alive regardless.
        csr = None
        arena.close()


def run_parallel(
    items: list[tuple[int, TuningPoint]],
    csr,
    device: DeviceSpec,
    workers: int,
    deadline: Deadline | None = None,
    retry: RetryPolicy | None = None,
    on_outcome=None,
    report: ParallelReport | None = None,
) -> list[CandidateOutcome]:
    """Fan chunks out over a fork-based process pool; return outcomes in
    enumeration order.

    The CSR's buffers are published once in a
    :class:`~repro.core.shm.SharedArena`, which the owner unlinks when
    the fan-out ends.  Worker death does not abort the run: chunks whose
    future fails with a broken-pool error are requeued onto a rebuilt
    pool under ``retry`` (:data:`DEFAULT_POOL_RETRY` when ``None``), and
    once the rebuild budget is spent the stragglers are evaluated
    in-process.  ``on_outcome`` fires for each outcome as its chunk
    completes (the checkpoint-journaling hook); ``report`` is filled in
    place with the containment bookkeeping.
    """
    chunks = chunk_candidates(items)
    if not chunks:
        return []
    from ..core.shm import SharedArena

    retry = retry if retry is not None else DEFAULT_POOL_RETRY
    report = report if report is not None else ParallelReport()
    plan = active_plan()
    arena = SharedArena.create(
        {"data": csr.data, "indices": csr.indices, "indptr": csr.indptr}
    )
    operand = {"descriptor": arena.descriptor(), "shape": list(csr.shape)}
    report.shm_bytes = arena.nbytes

    def payload_for(chunk):
        # The crash point is drawn in the parent at dispatch time: the
        # draw consumes the fault site's budget deterministically, so a
        # ``count=1`` plan kills exactly one worker no matter how the
        # pool schedules chunks -- and the requeued chunk succeeds.
        crash_after = plan.worker_crash(len(chunk)) if plan is not None else None
        deadline_s = (
            deadline.remaining()
            if deadline is not None and deadline.seconds is not None
            else None
        )
        return (operand, device, chunk, deadline_s, crash_after)

    outcomes: list[CandidateOutcome] = []

    def emit(chunk_outcomes: list[CandidateOutcome]) -> None:
        outcomes.extend(chunk_outcomes)
        if on_outcome is not None:
            for outcome in chunk_outcomes:
                on_outcome(outcome)

    try:
        pending = list(range(len(chunks)))
        attempt = 1
        while pending and attempt <= retry.max_attempts:
            # Fork is both the fastest start method and the one that
            # keeps already-imported modules (no per-worker re-import).
            pool = ProcessPoolExecutor(
                max_workers=max(1, min(workers, len(pending))),
                mp_context=mp.get_context("fork"),
            )
            lost: list[int] = []
            try:
                futures = [
                    (pool.submit(_evaluate_chunk, payload_for(chunks[ci])), ci)
                    for ci in pending
                ]
                for fut, ci in futures:
                    try:
                        result = fut.result()
                    except BrokenExecutor:
                        # A broken process pool fails *every* in-flight
                        # future, so one crash can lose several chunks --
                        # all of them land back on the requeue list.
                        lost.append(ci)
                        report.lost_chunks += 1
                        continue
                    report.shm_attaches += result.shm_attaches
                    emit(result.outcomes)
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
            pending = lost
            attempt += 1
            if pending and attempt <= retry.max_attempts:
                report.pool_rebuilds += 1
                delay = retry.delay_s(attempt - 1)
                if delay > 0:
                    time.sleep(delay)

        # Past the rebuild budget: finish the stragglers in-process.  No
        # injection here (the parent must survive) -- a chunk that keeps
        # killing workers still gets evaluated.
        for ci in pending:
            report.serial_fallback_chunks += 1
            emit(evaluate_candidates(chunks[ci], csr, device, deadline=deadline))
    finally:
        # Owner close: unmap and unlink.  Workers that already mapped
        # the segment keep valid pages until they exit.
        arena.close()

    outcomes.sort(key=lambda o: o.index)
    if deadline is not None and len(outcomes) < len(items):
        report.deadline_expired = deadline.expired()
    return outcomes
