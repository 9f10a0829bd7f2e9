"""Thread-safe concurrent serving layer over :class:`repro.SpMVEngine`.

The engine's entry points are single-caller: every caller pays its own
prepare (tuning + conversion) and its own kernel dispatch.  At serving
scale both costs amortize -- the paper's perfect-load-balance argument
only pays off when the framework is fed batches, and CB-SpMV/CMRS show
that blocking overheads and conversion cost must be amortized across
requests, not repaid per call.  :class:`SpMVServer` adds the three
pieces a production front-end needs:

* **micro-batching** -- concurrent single-vector requests against the
  same matrix are coalesced (max batch, plus a time window held only
  while nothing else is queued) into one
  :meth:`~repro.SpMVEngine.multiply_many` SpMM dispatch, which reads the matrix
  stream once for the whole batch; requests whose shapes cannot batch
  fall back to per-vector :meth:`~repro.SpMVEngine.multiply`;
* **prepared-matrix caching** -- an LRU :class:`~repro.serve.cache.
  PreparedCache` bounded by a byte budget (footprints from the format
  layer's own accounting), so a hot matrix is tuned and converted once,
  and a submit of a resident matrix is keyed by an exact compare
  instead of a hash;
* **admission control** -- a bounded queue that sheds with a typed
  :class:`~repro.errors.ServerOverloadedError`, and a per-request
  :class:`~repro.fault.Deadline`.  Retries and circuit breaking are the
  engine's (per kernel family) and the fabric's (per shard).

Batched and sequential execution are **bit-identical**: the SpMM path
performs, per column, exactly the floating-point operations of the
single-vector kernel (the differential test harness pins this under
every format/strategy/fault combination).

Everything is observable through ``serve.*`` spans and metrics on the
ambient observer (``repro serve``/``repro profile`` surface them).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..core.engine import PreparedMatrix, SpMVEngine, SpMVResult
from ..errors import (
    DeadlineExceeded,
    ReproError,
    ServeTimeout,
    ServerClosedError,
    ServerOverloadedError,
    ValidationError,
)
from ..fault.retry import Deadline
from ..obs import obs_scope
from ..tuning.persistence import canonical_fingerprint
from ..util import as_csr, canonical_csr
from .cache import PreparedCache

__all__ = [
    "ServeConfig",
    "ServeResponse",
    "ServeFuture",
    "SpMVServer",
    "serve_key",
]


def _values_digest(csr) -> str:
    """Hash of the nonzero values -- the part ``matrix_fingerprint`` omits.

    Tuning depends only on structure, so the tuning store's fingerprint
    deliberately excludes values; a *served* answer depends on them.  The
    serve key therefore combines both, so two matrices with identical
    sparsity but different values (the iterative-solver refresh pattern)
    never share a cache entry or a coalesced batch.
    """
    data = np.ascontiguousarray(csr.data, dtype=np.float64)
    return hashlib.sha256(data).hexdigest()[:16]


def serve_key(engine: SpMVEngine, csr) -> str:
    """The value-aware serve key of ``csr`` on ``engine``.

    ``device:pruned:structural-fingerprint:value-hash`` -- the key the
    server's cache and batch coalescing use, and the key the fabric
    consistent-hashes to pick a shard.  Every engine tunes with the
    pruned search, named in the key's second segment.  Every shard of a
    fabric runs the same device model, so the fabric-level key matches
    the one each shard computes for itself.  Both halves hash the
    canonical form (:func:`~repro.util.as_csr`), so a matrix with stored
    zeros, duplicates or unsorted columns keys like its canonical twin;
    a canonical CSR is hashed in place, without a copy.
    """
    csr = canonical_csr(csr)
    return (
        f"{engine.device.name}:pruned:"
        f"{canonical_fingerprint(csr)}:{_values_digest(csr)}"
    )


@dataclass(frozen=True)
class ServeConfig:
    """Backpressure and batching knobs of one :class:`SpMVServer`.

    Attributes
    ----------
    max_batch:
        Largest number of single-vector requests coalesced into one SpMM
        dispatch.
    batch_window_s:
        After the first request of a batch is picked up, how long the
        dispatcher may keep the batch open for same-matrix arrivals.  It
        holds the window only while nothing else is queued: once a
        request for another matrix (or a 2-D block) waits, the batch
        dispatches at once.  ``0`` coalesces only what is already queued
        (deterministic; what the tests use).
    queue_depth:
        Bounded-queue admission limit; a submit beyond it raises
        :class:`~repro.errors.ServerOverloadedError` (load shedding).
    cache_budget_bytes:
        Byte budget of the prepared-matrix LRU cache (``None`` =
        unbounded, else ``>= 0``).
    """

    max_batch: int = 32
    batch_window_s: float = 0.002
    queue_depth: int = 256
    cache_budget_bytes: int | None = 256 << 20

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValidationError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.batch_window_s < 0:
            raise ValidationError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}"
            )
        if self.queue_depth < 1:
            raise ValidationError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.cache_budget_bytes is not None and self.cache_budget_bytes < 0:
            raise ValidationError(
                f"cache_budget_bytes must be >= 0 or None, "
                f"got {self.cache_budget_bytes}"
            )


@dataclass
class ServeResponse:
    """One request's answer: the product vector plus serving context."""

    y: np.ndarray
    #: The (possibly shared) execution profile.  For a coalesced batch
    #: every member references the same batch-level :class:`SpMVResult`.
    result: SpMVResult
    batched: bool
    batch_size: int
    cache_hit: bool
    queue_wait_s: float
    #: Set by the sharded fabric: which shard served the request, and
    #: how many failovers (replays on a successor shard) it survived.
    #: ``None``/``0`` for a plain single-server response.
    shard: str | None = None
    failovers: int = 0

    def to_dict(self) -> dict:
        return {
            "kind": "serve_response",
            "batched": bool(self.batched),
            "batch_size": int(self.batch_size),
            "cache_hit": bool(self.cache_hit),
            "queue_wait_s": float(self.queue_wait_s),
            "shard": self.shard,
            "failovers": int(self.failovers),
            "result": self.result.to_dict(),
        }


class ServeFuture:
    """Completion handle for one submitted request."""

    __slots__ = ("_event", "_response", "_error")

    def __init__(self):
        self._event = threading.Event()
        self._response: ServeResponse | None = None
        self._error: BaseException | None = None

    def _complete(self, response: ServeResponse) -> None:
        self._response = response
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> ServeResponse:
        """Block until the response is ready; re-raises server-side errors.

        An exhausted ``timeout`` raises :class:`~repro.errors.
        ServeTimeout` (a ``TimeoutError`` subclass): the *wait* expired,
        not the request -- distinguishable from a shard failure or a
        server-side :class:`~repro.errors.DeadlineExceeded`, which the
        fabric's failover logic must treat differently.
        """
        if not self._event.wait(timeout):
            raise ServeTimeout(
                f"request not completed within the {timeout}s wait "
                f"(it may still complete; the server-side deadline is "
                f"separate)",
                waited_s=timeout,
            )
        if self._error is not None:
            raise self._error
        return self._response

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self._event.wait(timeout):
            raise ServeTimeout(
                f"request not completed within the {timeout}s wait",
                waited_s=timeout,
            )
        return self._error


@dataclass
class _Request:
    key: str
    #: The canonical CSR copy a miss prepares from; ``None`` when
    #: ``prepared`` is set.
    matrix: object
    #: The entry to serve from (or re-admit, if evicted before dispatch).
    prepared: PreparedMatrix | None
    x: np.ndarray
    deadline: Deadline | None
    future: ServeFuture
    enqueued_at: float
    #: 1-D requests coalesce; 2-D (multi-RHS) requests dispatch solo.
    batchable: bool = field(default=True)


class SpMVServer:
    """Concurrent SpMV front-end: micro-batching + caching + backpressure.

    Parameters
    ----------
    engine:
        The :class:`~repro.SpMVEngine` executing requests.  When omitted
        a default strict engine is built on the ``fast`` backend (the
        bit-identical vectorized path -- serving traffic is exactly the
        repeated-multiply workload it exists for; pass an explicit
        engine to choose differently).  All resilience knobs (fault
        plans, validation, permissive fallback) live on the engine and
        apply unchanged to served requests.
    config:
        A :class:`ServeConfig`; defaults are production-ish.
    observer:
        Observer receiving the ``serve.*`` spans and metrics.  Defaults
        to the engine's observer; when given explicitly it is also
        installed on the engine so serve- and engine-level telemetry
        land in one tracer.
    start:
        ``True`` (default) starts the background dispatcher thread.
        ``False`` runs threadless: callers submit and then invoke
        :meth:`drain` to process synchronously -- the deterministic mode
        the differential tests use.
    clock:
        Injectable monotonic clock for deadlines and the batch window.
    """

    def __init__(
        self,
        engine: SpMVEngine | None = None,
        config: ServeConfig | None = None,
        *,
        observer=None,
        start: bool = True,
        clock=time.monotonic,
    ):
        self.engine = (
            engine if engine is not None else SpMVEngine(backend="fast")
        )
        self.config = config if config is not None else ServeConfig()
        if observer is not None:
            # One tracer for both layers: serve.batch spans contain the
            # engine.prepare/multiply spans they trigger.
            self.engine.observer = observer
        self.obs = observer if observer is not None else self.engine.observer
        self.cache = PreparedCache(self.config.cache_budget_bytes)
        self._clock = clock
        self._queue: deque[_Request] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._in_flight = 0
        # Plain-int mirrors of the serve.* counters so a server without
        # an observer still reports; guarded by _cond's lock.
        self.n_requests = 0
        self.n_responses = 0
        self.n_shed = 0
        self.n_batches = 0
        self.n_batched_requests = 0
        self.n_batch_fallbacks = 0
        self.n_deadline_expired = 0
        self.n_internal_errors = 0
        self.n_key_matched = 0
        self.n_key_hashed = 0
        self._thread: threading.Thread | None = None
        if start:
            self._thread = threading.Thread(
                target=self._run, name="spmv-serve-dispatch", daemon=True
            )
            self._thread.start()

    # ------------------------------------------------------------------ #
    # Submission side
    # ------------------------------------------------------------------ #

    def submit(
        self,
        matrix,
        x: np.ndarray,
        *,
        timeout_s: float | None = None,
    ) -> ServeFuture:
        """Enqueue one request ``y = A @ x``; returns a future.

        ``matrix`` is a scipy sparse matrix (prepared through the cache,
        once per distinct structure *and* value set -- cached entries
        embed values, so a value refresh re-prepares) or an explicit
        :class:`~repro.core.engine.PreparedMatrix` (admitted into the
        cache as-is).  ``x`` is a single vector (coalescible) or a 2-D
        ``(ncols, k)`` block (dispatched solo through ``multiply_many``).

        The key comes from an exact match on a resident matrix when
        there is one (:meth:`PreparedCache.match`); the request then
        carries that entry and the caller's matrix is never read again.
        Otherwise the matrix is canonicalized once (a private copy, so
        later edits by the caller cannot reach the request) and hashed
        by :func:`serve_key`.

        Raises :class:`~repro.errors.ServerOverloadedError` when the
        bounded queue is full and :class:`~repro.errors.ServerClosedError`
        after :meth:`close`.
        """
        if isinstance(matrix, PreparedMatrix):
            prepared, ncols = matrix, matrix.fmt.ncols
        else:
            prepared, ncols = None, matrix.shape[1]
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2):
            raise ValidationError(
                f"x must be a vector or a (ncols, k) block, got shape {x.shape}"
            )
        if x.shape[0] != ncols:
            raise ValidationError(
                f"x has {x.shape[0]} rows, matrix has {ncols} columns"
            )
        source = matrix if prepared is None else prepared.reference_csr()
        key, entry, csr = self._key_for(source, copy=prepared is None)
        if entry is not None:
            prepared = entry.prepared
        request = self._request(key, csr, prepared, x, timeout_s)
        with self._cond:
            if self._closed:
                raise ServerClosedError("server is closed; request refused")
            if len(self._queue) >= self.config.queue_depth:
                self.n_shed += 1
                self.obs.counter(
                    "serve.shed", "requests refused by admission control"
                ).inc()
                raise ServerOverloadedError(
                    f"queue depth {self.config.queue_depth} reached; "
                    f"request shed (retry with backoff)",
                    queue_depth=self.config.queue_depth,
                    pending=len(self._queue),
                )
            self._queue.append(request)
            self.n_requests += 1
            self.obs.counter("serve.requests", "requests admitted").inc()
            self.obs.gauge("serve.queue.depth", "queued requests").set(
                len(self._queue)
            )
            self._cond.notify_all()
        return request.future

    def _key_for(self, source, copy: bool = False):
        """Key the CSR ``source``: an exact resident match, else a hash.

        Returns ``(key, entry, csr)``: ``entry`` is the matched resident
        :class:`~repro.serve.cache.CacheEntry`, or ``None`` on a miss.
        A miss hashes ``source`` with :func:`serve_key` -- with ``copy``,
        its canonical private copy (:func:`~repro.util.as_csr`) instead,
        returned as ``csr`` (else ``None``) so the caller's later edits
        cannot reach what is prepared.  Counts the outcome as
        ``serve.key.matched`` or ``serve.key.hashed``.
        """
        entry = self.cache.match(source)
        csr = None
        if entry is not None:
            key = entry.key
        else:
            if copy:
                source = csr = as_csr(source)
            key = serve_key(self.engine, source)
        with self._cond:
            if entry is not None:
                self.n_key_matched += 1
                self.obs.counter(
                    "serve.key.matched",
                    "keys taken from an exact match on a resident matrix",
                ).inc()
            else:
                self.n_key_hashed += 1
                self.obs.counter(
                    "serve.key.hashed", "keys computed by hashing (serve_key)"
                ).inc()
        return key, entry, csr

    def _request(self, key, matrix, prepared, x, timeout_s) -> _Request:
        """A queue entry for an already keyed and validated request."""
        return _Request(
            key=key,
            matrix=matrix,
            prepared=prepared,
            x=x,
            deadline=(
                None if timeout_s is None else Deadline(timeout_s, clock=self._clock)
            ),
            future=ServeFuture(),
            enqueued_at=self._clock(),
            batchable=x.ndim == 1,
        )

    def run_keyed(self, requests) -> list[ServeFuture]:
        """Queue already keyed requests and drain once; one future each.

        A request is ``(key, csr, prepared, x, timeout_s)``, ``csr`` being
        the canonical CSR a miss prepares from (``None`` when ``prepared``
        is set).  Unlike :meth:`submit` nothing is admitted or counted: a
        fabric shard has bounded its queue and counted ``serve.requests``.
        """
        queued = [self._request(*r) for r in requests]
        with self._cond:
            self._queue.extend(queued)
            self._cond.notify_all()
        self.drain()
        return [r.future for r in queued]

    def multiply(
        self, matrix, x: np.ndarray, *, timeout_s: float | None = None
    ) -> ServeResponse:
        """Blocking convenience: :meth:`submit` + wait for the result."""
        future = self.submit(matrix, x, timeout_s=timeout_s)
        if self._thread is None:
            self.drain()
        return future.result()

    def prime(self, prepared: PreparedMatrix) -> str:
        """Admit a prepared matrix into the cache ahead of traffic.

        Returns the key of the resident entry that exactly matches
        ``prepared``'s matrix, if there is one; otherwise computes the
        value-aware serve key and installs ``prepared`` under it unless
        an entry is already resident (a later submit of the same matrix
        is then a cache hit from the first request).  This is the
        solver sessions' value-refresh hook: an
        :meth:`SpMVEngine.update_values` result gets a *new* key (its
        value digest changed), so priming never clobbers the previous
        values' entry.
        """
        if not isinstance(prepared, PreparedMatrix):
            raise ValidationError(
                f"prime needs a PreparedMatrix, got {type(prepared).__name__}"
            )
        key, entry, _ = self._key_for(prepared.reference_csr())
        if entry is None and self.cache.peek(key) is None:
            self.cache.put(key, prepared)
        return key

    # ------------------------------------------------------------------ #
    # Dispatch side
    # ------------------------------------------------------------------ #

    def _run(self) -> None:
        """Dispatcher-thread main loop."""
        while True:
            batch = self._next_batch(wait=True)
            if batch is None:
                return
            self._dispatch(batch)

    def drain(self) -> int:
        """Process queued requests on the calling thread; returns count.

        The threadless (``start=False``) processing mode: batches are
        formed from whatever is queued (the window never waits, since no
        concurrent arrivals are possible) and dispatched synchronously.
        With a dispatcher thread running, ``drain`` instead blocks until
        the queue is empty and no batch is in flight.
        """
        if self._thread is not None:
            with self._cond:
                while self._queue or self._in_flight:
                    self._cond.wait(0.01)
            return 0
        done = 0
        while True:
            batch = self._next_batch(wait=False)
            if batch is None:
                return done
            done += len(batch)
            self._dispatch(batch)

    def _next_batch(self, wait: bool) -> list[_Request] | None:
        """Pop the next micro-batch: same-key 1-D requests coalesced.

        The batch window is work-conserving: it is held only while the
        queue is otherwise empty.  A request for another key (or a 2-D
        block) waiting behind the batch gains nothing from an idle
        dispatcher, and its own backlog coalesces when its turn comes.

        Returns ``None`` when the server is closed and the queue empty
        (or, with ``wait=False``, when the queue is simply empty).
        """
        cfg = self.config
        with self._cond:
            while not self._queue:
                if self._closed or not wait:
                    return None
                self._cond.wait()
            first = self._queue.popleft()
            # Claim the in-flight slot before any window wait below
            # releases the lock: a concurrent drain() must never observe
            # an empty queue with popped-but-undispatched requests.
            self._in_flight += 1
            batch = [first]
            if first.batchable:
                window_end = self._clock() + cfg.batch_window_s
                while len(batch) < cfg.max_batch:
                    for r in list(self._queue):
                        if r.batchable and r.key == first.key:
                            self._queue.remove(r)
                            batch.append(r)
                            if len(batch) >= cfg.max_batch:
                                break
                    if len(batch) >= cfg.max_batch:
                        break
                    remaining = window_end - self._clock()
                    if remaining <= 0 or self._closed or not wait or self._queue:
                        break
                    self._cond.wait(remaining)
            self.obs.gauge("serve.queue.depth", "queued requests").set(
                len(self._queue)
            )
        return batch

    def _finish(self, request: _Request, error: BaseException | None,
                response: ServeResponse | None) -> None:
        """Complete one future and count the response."""
        if error is not None:
            request.future._fail(error)
        else:
            request.future._complete(response)
        with self._cond:
            self.n_responses += 1
        self.obs.counter(
            "serve.responses", "requests completed (success or typed error)"
        ).inc()

    def _dispatch(self, batch: list[_Request]) -> None:
        obs = self.obs
        try:
            with obs_scope(obs), obs.span(
                "serve.batch", key=batch[0].key[-12:], size=len(batch)
            ) as sp:
                self._dispatch_inner(batch, sp)
        except BaseException as exc:
            # The dispatcher must never die with futures pending: an
            # unexpected (non-ReproError) exception would otherwise kill
            # the dispatch thread and leave every queued result() caller
            # blocked forever.  Resolve the batch with the error -- it
            # reaches callers through their futures -- and keep serving.
            with self._cond:
                self.n_internal_errors += 1
            obs.counter(
                "serve.internal_errors",
                "dispatches that failed with an unexpected exception",
            ).inc()
            for r in batch:
                if not r.future.done():
                    self._finish(r, exc, None)
        finally:
            with self._cond:
                self._in_flight -= 1
                self._cond.notify_all()

    def _dispatch_inner(self, batch: list[_Request], sp) -> None:
        obs = self.obs
        now = self._clock()

        live: list[_Request] = []
        for r in batch:
            if r.deadline is not None and r.deadline.expired():
                with self._cond:
                    self.n_deadline_expired += 1
                obs.counter(
                    "serve.deadline_expiries",
                    "requests expired before dispatch",
                ).inc()
                self._finish(r, DeadlineExceeded(
                    f"request deadline of {r.deadline.seconds:.3f}s expired "
                    f"while queued",
                    label="serve queue",
                    budget_s=r.deadline.seconds,
                ), None)
            else:
                live.append(r)
        sp.set(live=len(live))
        if not live:
            return

        # -- prepared-matrix cache: one logical lookup per request, so
        # hits + misses always reconciles with the admitted request
        # count; the first miss pays the prepare, the rest of the batch
        # hits the entry it just created.
        key = live[0].key
        prepared: PreparedMatrix | None = None
        hit_flags: list[bool] = []
        hits0, misses0, evict0 = (
            self.cache.hits, self.cache.misses, self.cache.evictions,
        )
        try:
            for r in live:
                found = self.cache.get(key)
                if found is None:
                    if prepared is not None:
                        found = prepared
                    elif r.prepared is not None:
                        found = r.prepared
                    else:
                        found = self.engine.prepare(r.matrix)
                    self.cache.put(key, found)
                    hit_flags.append(False)
                else:
                    hit_flags.append(True)
                prepared = found
        except ReproError as exc:
            for r in live:
                self._finish(r, exc, None)
            return
        finally:
            obs.counter("serve.cache.hits", "prepared-cache hits").inc(
                self.cache.hits - hits0
            )
            obs.counter("serve.cache.misses", "prepared-cache misses").inc(
                self.cache.misses - misses0
            )
            obs.counter(
                "serve.cache.evictions", "prepared-cache evictions"
            ).inc(self.cache.evictions - evict0)
            obs.gauge(
                "serve.cache.bytes", "prepared-cache resident footprint"
            ).set(self.cache.total_bytes)
        sp.set(cache_hit=hit_flags[0], format=prepared.point.format_name)

        # -- execute: one SpMM dispatch per device-sized chunk.  The
        # SpMM kernel's k-wide partial sums scale the per-workgroup
        # shared memory, so a coalesced batch wider than the device
        # allows would be rejected; chunking to the limit keeps every
        # dispatch on the amortized path.
        max_k = self.engine.max_batch_width(prepared)
        if len(live) > max_k:
            obs.counter(
                "serve.batch_splits",
                "batches split to the device's shared-memory width limit",
            ).inc()
            sp.set(split_k=max_k)
        for start in range(0, len(live), max_k):
            self._execute_chunk(
                live[start : start + max_k],
                hit_flags[start : start + max_k],
                prepared,
                now,
            )

    def _execute_chunk(
        self,
        live: list[_Request],
        hit_flags: list[bool],
        prepared: PreparedMatrix,
        now: float,
    ) -> None:
        """Run one device-sized chunk and complete its futures."""
        obs = self.obs
        try:
            if len(live) > 1:
                result = self.engine.multiply_many(prepared, [r.x for r in live])
            elif live[0].x.ndim == 2:
                result = self.engine.multiply_many(prepared, live[0].x)
            else:
                result = self.engine.multiply(prepared, live[0].x)
        except ReproError as exc:
            if len(live) == 1:
                self._finish(live[0], exc, None)
                return
            # Containment: one poisoned batch member must not fail the
            # rest -- retry each request alone through the engine.
            with self._cond:
                self.n_batch_fallbacks += 1
            obs.counter(
                "serve.batch_fallbacks",
                "coalesced batches re-run per-vector after a failure",
            ).inc()
            for r, was_hit in zip(live, hit_flags):
                try:
                    res = self.engine.multiply(prepared, r.x)
                except ReproError as single_exc:
                    self._finish(r, single_exc, None)
                else:
                    self._finish(r, None, ServeResponse(
                        y=res.y,
                        result=res,
                        batched=False,
                        batch_size=1,
                        cache_hit=was_hit,
                        queue_wait_s=now - r.enqueued_at,
                    ))
            return

        # -- split and complete.
        k = len(live)
        with self._cond:
            self.n_batches += 1
            if k > 1:
                self.n_batched_requests += k
        obs.counter("serve.batches", "dispatches (batched or solo)").inc()
        obs.histogram(
            "serve.batch_size", "requests per dispatch",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        ).observe(k)
        if k > 1:
            obs.counter(
                "serve.batched_requests", "requests served via coalesced SpMM"
            ).inc(k)
        for j, (r, was_hit) in enumerate(zip(live, hit_flags)):
            if k == 1:
                y = result.y
            else:
                y = np.ascontiguousarray(result.y[:, j])
            self._finish(r, None, ServeResponse(
                y=y,
                result=result,
                batched=k > 1,
                batch_size=k,
                cache_hit=was_hit,
                queue_wait_s=now - r.enqueued_at,
            ))

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests; optionally finish the queued ones.

        With ``drain=True`` (default) everything already queued is
        processed before shutdown; with ``drain=False`` queued futures
        fail with :class:`~repro.errors.ServerClosedError` -- no
        ``result()`` caller is ever left blocked.  Idempotent.
        """
        if not drain:
            self.kill()
            return
        with self._cond:
            already = self._closed
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        elif not already:
            self.drain()

    def kill(self, error: BaseException | None = None) -> int:
        """Abrupt shutdown: refuse new work, fail everything queued.

        Every still-queued future is failed with ``error`` (default a
        :class:`~repro.errors.ServerClosedError`); a batch already
        popped by the dispatcher still completes (its requests are
        mid-flight, exactly like a real process would finish the work
        already on the device).  The prepared cache is dropped -- a
        killed shard loses its device memory, so a later restart
        re-prepares.  Returns the number of futures failed.  This is
        what the fabric's ``serve.shard_crash`` fault site calls, with a
        :class:`~repro.errors.ShardCrashError` to fail with.
        """
        if error is None:
            error = ServerClosedError(
                "server closed before the request was dispatched"
            )
        with self._cond:
            self._closed = True
            doomed = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for r in doomed:
            self._finish(r, error, None)
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.cache.clear()
        return len(doomed)

    def __enter__(self) -> "SpMVServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """JSON-able snapshot of the serving counters + cache state."""
        with self._cond:
            snap = {
                "requests": self.n_requests,
                "responses": self.n_responses,
                "shed": self.n_shed,
                "batches": self.n_batches,
                "batched_requests": self.n_batched_requests,
                "batch_fallbacks": self.n_batch_fallbacks,
                "deadline_expiries": self.n_deadline_expired,
                "internal_errors": self.n_internal_errors,
                "key_matched": self.n_key_matched,
                "key_hashed": self.n_key_hashed,
                "queued": len(self._queue),
            }
        snap["cache"] = self.cache.stats()
        return snap
