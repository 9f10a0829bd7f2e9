"""Parallel candidate evaluation: the auto-tuner's fan-out machinery.

Section 4's search is the framework's cost center (the paper reports
12.8 s per matrix, dominated by kernel compilation), and every candidate
evaluation is independent of every other -- an embarrassingly parallel
loop that :class:`~repro.tuning.AutoTuner` nevertheless walked serially.
This module fans the candidate space out over a ``concurrent.futures``
pool and merges the results *deterministically*, so ``workers=N`` is an
observable no-op on everything except wall-clock time.

Three design rules keep the parallel path bit-identical to serial:

1. **Chunking by format affinity.**  Candidates are grouped by their
   ``(block_height, block_width, bit_word)`` triple.  Every format
   conversion a chunk needs is therefore performed exactly once, by the
   worker that owns the chunk -- :class:`~repro.tuning.FormatCache`
   state never crosses workers and no conversion is duplicated.
2. **Index-tagged outcomes.**  Each candidate carries its position in
   the enumeration order; the merge walks outcomes in that order, so the
   best-point tie-breaking ("first strictly faster wins") and the
   skip-reason quarantine counters come out exactly as the serial loop
   would produce them, regardless of worker scheduling.
3. **Plan-lookup replay.**  Workers compile against throwaway local
   :class:`~repro.tuning.KernelPlanCache` instances; the merge then
   replays the plan lookups against the tuner's *shared* cache in
   enumeration order, leaving it in the identical state (entries, hit
   and miss counters) a serial run would have left it in.

Worker processes are forked when the platform supports it (cheap, no
re-import); ``executor="thread"`` opts into a thread pool for callers
that cannot fork (the GIL limits its speedup to the NumPy-released
portions of the kernels).

**Failure containment.**  A long tuning run must survive its pool:
:func:`run_parallel` catches worker death (``BrokenProcessPool`` from a
killed process, :class:`~repro.errors.WorkerCrashError` from the
``tuner.worker_crash`` fault site on thread pools), requeues the lost
chunks onto a freshly built pool under a
:class:`~repro.fault.RetryPolicy` (exponential backoff, deterministic
jitter), and past the retry budget falls back to evaluating the
stragglers serially in-process -- the index-ordered merge is oblivious
to all of it, so the result stays bit-identical.  A
:class:`~repro.fault.Deadline` is threaded down into each chunk
(workers rebuild a local deadline from the remaining seconds), and an
``on_chunk`` callback lets the tuner journal completed chunks to a
:class:`~repro.tuning.TuningCheckpoint` the moment they finish.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from ..backends import get_backend
from ..errors import ReproError, TuningError, WorkerCrashError
from ..fault.injection import active_plan
from ..fault.retry import Deadline, RetryPolicy
from ..gpu.device import DeviceSpec
from ..gpu.timing import TimingModel
from .cache import FormatCache, KernelPlanCache
from .parameters import TuningPoint

__all__ = [
    "CandidateOutcome",
    "ChunkResult",
    "EXECUTORS",
    "ParallelReport",
    "chunk_candidates",
    "evaluate_candidates",
    "run_parallel",
]

#: Supported ``concurrent.futures`` pool kinds.
EXECUTORS = ("process", "thread")

#: Default pool-rebuild policy when the caller supplies none: two
#: rebuilds (then serial fallback), no real sleeping.
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
    #: a serial tuner would never have touched the plan cache for it.
    format_skipped: bool = False
    #: Wall-clock seconds this candidate's evaluation took (measured in
    #: the worker; observability only -- never consulted by the merge).
    wall_s: float = 0.0


@dataclass
class ChunkResult:
    """What one worker reports back for its chunk."""

    outcomes: list[CandidateOutcome] = field(default_factory=list)
    conversions: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    #: The worker mapped the shared operand arena (instead of unpickling
    #: its own CSR copy) to evaluate this chunk.
    shm_attaches: int = 0


@dataclass
class ParallelReport:
    """Containment bookkeeping for one :func:`run_parallel` call.

    Filled in place when the caller passes one in -- the tuner reads it
    to emit ``tuner.worker_crashes`` / ``retry.attempts`` metrics (the
    fan-out itself runs under a muted observer to keep traces
    executor-independent).
    """

    #: Chunks lost to a dead worker (a single crash can lose several:
    #: a broken process pool fails every in-flight future).
    lost_chunks: int = 0
    #: Pools torn down and rebuilt after a crash.
    pool_rebuilds: int = 0
    #: Chunks that ended up evaluated serially in-process because the
    #: rebuild budget ran out.
    serial_fallback_chunks: int = 0
    #: The deadline expired before every candidate was evaluated.
    deadline_expired: bool = False
    #: Worker attaches to the shared operand arena (``share_operand``):
    #: each one is a zero-copy mapping that replaced a pickled CSR.
    shm_attaches: int = 0
    #: Bytes in the shared operand arena (0 when not sharing).
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


def _crash_worker(parent_pid: int) -> None:
    """Die the way a real pool worker does (``tuner.worker_crash``).

    In a forked/spawned pool process this is an uncatchable hard exit --
    the parent observes ``BrokenProcessPool``.  In-process executions
    (thread pools, the serial fallback) must not kill the interpreter,
    so they raise :class:`WorkerCrashError` instead, which
    :func:`run_parallel` treats as the same lost-chunk signal.
    """
    if os.getpid() != parent_pid:
        os._exit(1)
    raise WorkerCrashError("tuning worker killed mid-chunk (injected)")


def evaluate_candidates(
    items: list[tuple[int, TuningPoint]],
    csr,
    x,
    device: DeviceSpec,
    fmt_cache: FormatCache,
    plan_cache: KernelPlanCache,
    deadline: Deadline | None = None,
    crash_after: int | None = None,
    parent_pid: int | None = None,
    on_outcome=None,
) -> list[CandidateOutcome]:
    """Evaluate candidates in order, mirroring the serial tuner loop.

    A failing candidate is quarantined and counted by reason instead of
    aborting; genuine bugs (non-:class:`ReproError`) still propagate.
    An expired ``deadline`` stops the walk cooperatively -- completed
    outcomes are returned, the rest are simply absent (the tuner marks
    the result partial).  ``crash_after`` is the ``tuner.worker_crash``
    injection point: the worker dies after that many candidates, losing
    its chunk.  ``on_outcome`` fires per completed candidate (the
    serial checkpoint-journaling hook).

    Candidates always run on the ``faithful`` interpreter: the ranking
    reads only the simulated cost profile, which is identical on every
    backend, and the interpreter keeps no per-format plan cache for
    the losing candidates to fill.
    """
    # Imported here: repro.tuning.tuner imports this module at top
    # level; the deferred import breaks the cycle (and re-runs cheaply
    # in spawned workers).
    from .tuner import Evaluation

    interpreter = get_backend("faithful")
    timing = TimingModel(device)
    nnz = int(csr.nnz)
    outcomes: list[CandidateOutcome] = []

    def emit(outcome: CandidateOutcome) -> None:
        outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(outcome)

    for pos, (index, point) in enumerate(items):
        if deadline is not None and deadline.expired():
            break
        if crash_after is not None and pos >= crash_after:
            _crash_worker(parent_pid if parent_pid is not None else -1)
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
        plan_cache.get(point)  # compile (or reuse) the plan
        try:
            result = interpreter.execute(fmt, x, device, config=point.kernel)
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
        breakdown = timing.estimate(result.stats)
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
    """Worker entry point: evaluate one chunk with worker-local caches.

    ``payload`` is always ``(csr, x, device, items, compile_cost,
    deadline_s, crash_after, parent_pid, shared)``.  The parent
    serializes the deadline as remaining seconds (a ticking clock does
    not pickle; ``None`` is unlimited) and the worker rebuilds it
    locally.  When ``shared`` is set, ``csr`` is ``None`` and the worker
    maps the operand out of the parent's :class:`SharedArena` instead of
    unpickling a private copy (zero-copy; the rebuilt CSR's buffers
    point straight at the shared pages).
    """
    (
        csr, x, device, items, compile_cost,
        deadline_s, crash_after, parent_pid, shared,
    ) = payload

    arena = None
    attaches = 0
    if shared is not None:
        import scipy.sparse as sp

        from ..core.shm import SharedArena

        arena = SharedArena.attach(shared["descriptor"])
        attaches = 1
        csr = sp.csr_matrix(
            (arena.view("data"), arena.view("indices"), arena.view("indptr")),
            shape=tuple(shared["shape"]),
            copy=False,
        )
    fmt_cache = None
    try:
        fmt_cache = FormatCache(csr)
        plan_cache = KernelPlanCache(compile_cost_s=compile_cost)
        deadline = Deadline(max(deadline_s, 0.0)) if deadline_s is not None else None
        outcomes = evaluate_candidates(
            items,
            csr,
            x,
            device,
            fmt_cache,
            plan_cache,
            deadline=deadline,
            crash_after=crash_after,
            parent_pid=parent_pid,
        )
        return ChunkResult(
            outcomes=outcomes,
            conversions=fmt_cache.conversions,
            plan_hits=plan_cache.hits,
            plan_misses=plan_cache.misses,
            shm_attaches=attaches,
        )
    finally:
        if arena is not None:
            # Drop the chunk's references to the views before unmapping;
            # a still-live view keeps the mapping alive regardless.
            csr = fmt_cache = None
            arena.close()


def _make_pool(executor: str, max_workers: int):
    if executor == "thread":
        return ThreadPoolExecutor(max_workers=max_workers)
    import multiprocessing as mp

    if "fork" in mp.get_all_start_methods():
        # Fork is both the fastest start method and the one that keeps
        # already-imported modules (no per-worker re-import cost).
        return ProcessPoolExecutor(
            max_workers=max_workers, mp_context=mp.get_context("fork")
        )
    return ProcessPoolExecutor(max_workers=max_workers)


def run_parallel(
    items: list[tuple[int, TuningPoint]],
    csr,
    x,
    device: DeviceSpec,
    workers: int,
    executor: str,
    compile_cost: float,
    deadline: Deadline | None = None,
    retry: RetryPolicy | None = None,
    on_chunk=None,
    report: ParallelReport | None = None,
    share_operand: bool = False,
) -> list[CandidateOutcome]:
    """Fan chunks out over a pool; return outcomes in enumeration order.

    Worker death does not abort the run: chunks whose future fails with
    a broken-pool error (or :class:`WorkerCrashError` on thread pools)
    are requeued onto a rebuilt pool under ``retry``
    (:data:`DEFAULT_POOL_RETRY` when ``None``), and once the rebuild
    budget is spent the stragglers are evaluated serially in-process.
    ``on_chunk(ChunkResult)`` fires as each chunk completes (the
    checkpoint-journaling hook); ``report`` is filled in place with the
    containment bookkeeping.  ``share_operand=True`` publishes the CSR's
    buffers once in a :class:`~repro.core.shm.SharedArena` so every
    chunk payload carries a tiny descriptor instead of a pickled matrix
    copy -- workers map the same physical pages.
    """
    if executor not in EXECUTORS:
        raise TuningError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    chunks = chunk_candidates(items)
    if not chunks:
        return []
    retry = retry if retry is not None else DEFAULT_POOL_RETRY
    plan = active_plan()
    parent_pid = os.getpid()

    arena = None
    shared = None
    if share_operand:
        from ..core.shm import SharedArena

        arena = SharedArena.create(
            {"data": csr.data, "indices": csr.indices, "indptr": csr.indptr}
        )
        shared = {"descriptor": arena.descriptor(), "shape": list(csr.shape)}
        if report is not None:
            report.shm_bytes = arena.nbytes

    def payload_for(chunk, inject: bool):
        # The crash point is drawn in the parent at dispatch time: the
        # draw consumes the fault site's budget deterministically, so a
        # ``count=1`` plan kills exactly one worker no matter how the
        # pool schedules chunks -- and the requeued chunk succeeds.
        crash_after = (
            plan.worker_crash(len(chunk)) if (inject and plan is not None) else None
        )
        deadline_s = (
            deadline.remaining()
            if deadline is not None and deadline.seconds is not None
            else None
        )
        return (
            None if shared is not None else csr,
            x,
            device,
            chunk,
            compile_cost,
            deadline_s,
            crash_after,
            parent_pid,
            shared,
        )

    def emit(result: ChunkResult) -> None:
        results.append(result)
        if on_chunk is not None:
            on_chunk(result)

    results: list[ChunkResult] = []
    try:
        pending = list(range(len(chunks)))
        attempt = 1
        while pending and attempt <= retry.max_attempts:
            max_workers = max(1, min(workers, len(pending)))
            pool = _make_pool(executor, max_workers)
            lost: list[int] = []
            try:
                futures = [
                    (pool.submit(_evaluate_chunk, payload_for(chunks[ci], True)), ci)
                    for ci in pending
                ]
                for fut, ci in futures:
                    try:
                        emit(fut.result())
                    except (BrokenExecutor, WorkerCrashError):
                        # A broken process pool fails *every* in-flight
                        # future, so one crash can lose several chunks --
                        # all of them land back on the requeue list.
                        lost.append(ci)
                        if report is not None:
                            report.lost_chunks += 1
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
            pending = lost
            attempt += 1
            if pending and attempt <= retry.max_attempts:
                if report is not None:
                    report.pool_rebuilds += 1
                delay = retry.delay_s(attempt - 1)
                if delay > 0:
                    time.sleep(delay)

        # Past the rebuild budget: finish the stragglers in-process.  No
        # injection here (the parent must survive) -- a chunk that keeps
        # killing workers still gets evaluated.
        for ci in pending:
            if report is not None:
                report.serial_fallback_chunks += 1
            emit(_evaluate_chunk(payload_for(chunks[ci], False)))
    finally:
        if arena is not None:
            # Owner close: unmap and unlink.  Workers that already
            # mapped the segment keep valid pages until they exit.
            arena.close()

    if report is not None:
        report.shm_attaches = sum(r.shm_attaches for r in results)
    outcomes = [o for result in results for o in result.outcomes]
    outcomes.sort(key=lambda o: o.index)
    if report is not None and deadline is not None and len(outcomes) < len(items):
        report.deadline_expired = deadline.expired()
    return outcomes
