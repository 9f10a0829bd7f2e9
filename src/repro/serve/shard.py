"""One fabric shard over a forked or in-process transport.

A :class:`Shard` owns everything a fabric shard does above the wire:

* **admission** -- the bounded queue and its typed refusals
  (:class:`~repro.errors.ServerOverloadedError`,
  :class:`~repro.errors.ServerClosedError`), using the serve key and the
  validated ``x`` the fabric already computed;
* **key-aware sends** -- once the server behind the transport holds a
  key, later requests for it go without their operand; if the entry was
  evicted meanwhile the server answers ``needop`` and the request is
  resent with its operand, at most once;
* **death** -- a broken pipe, an exit, a reply timeout or an injected
  crash fails every outstanding future with
  :class:`~repro.errors.ShardCrashError`, which the fabric replays on
  ring successors;
* the chaos verbs (:meth:`kill`, :meth:`kill_process`,
  :meth:`inject_hang`, :meth:`lose_arena`) and the supervisor's
  (:meth:`ping`, :meth:`respawn`, :meth:`degrade`).

Below it a transport sends one message and waits for its reply.  Both
transports run the same message handler, :func:`_handle`, on a
threadless :class:`~repro.serve.SpMVServer`:

* ``_Pipe`` forks a child process that serves behind a duplex pipe, so
  chaos drills SIGKILL a real pid.  Prepared matrices cross as
  shared-memory descriptors (:meth:`PreparedMatrix.share`), so the child
  maps the parent's pages instead of re-tuning;
* ``_Loopback`` calls the handler in-process, on a server built with the
  fabric's observer and clock.

Re-warm handles -- every prepared matrix primed into or submitted to the
shard -- are held in a :class:`~repro.serve.cache.PreparedCache` with the
shard's ``cache_budget_bytes``; respawns re-warm from what is resident
there.  A segment the shard created by sharing a handle is the shard's
to release: on eviction, :meth:`kill` and :meth:`close`.  A handle the
caller shared stays shared.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import threading
import time
import traceback
from collections import deque
from dataclasses import replace

from ..core.engine import PreparedMatrix, SpMVEngine
from ..errors import (
    RemoteWorkerError,
    ServerClosedError,
    ServerOverloadedError,
    ShardCrashError,
    ValidationError,
)
from ..fault.injection import active_plan, fault_scope
from .cache import PreparedCache
from .health import HealthPolicy, ShardHealth
from .server import ServeConfig, ServeFuture, SpMVServer

__all__ = ["Shard"]

#: Seconds a graceful close gives the child to exit before it is killed.
_STOP_GRACE_S = 2.0
#: Seconds a heartbeat waits for its answer before counting a miss.
_PING_WAIT_S = 0.1


def _picklable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round-trip, else a typed wrapper.

    The wrapper preserves the original type name and the remote
    traceback text, so a shard failure always surfaces as a readable,
    typed :class:`~repro.errors.RemoteWorkerError` -- never as the
    parent-side ``PicklingError``/``EOFError`` soup a raw ``send`` of an
    unpicklable exception produces.
    """
    try:
        clone = pickle.loads(pickle.dumps(exc))
        if type(clone) is type(exc):
            return exc
    except Exception:
        pass
    return RemoteWorkerError(
        f"{type(exc).__name__}: {exc}",
        original_type=type(exc).__name__,
        remote_traceback="".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    )


# ---------------------------------------------------------------------- #
# The message handler (runs behind both transports)
# ---------------------------------------------------------------------- #


def _handle(server: SpMVServer, msg: tuple) -> tuple:
    """Answer one message with ``("ok", payload)`` or ``("err", exc)``.

    ``("batch", requests, forget)`` runs every ``(key, operand, x,
    timeout_s)`` request -- ``operand=None`` means "serve it from your
    cache" -- through one :meth:`SpMVServer.run_keyed` drain, so same-key
    requests coalesce; the payload is one ``(kind, value)`` outcome per
    request: ``res``, ``err`` or ``needop``.  ``("prime", key, operand,
    forget)`` installs a prepared matrix, or prepares a CSR operand.
    ``forget`` lists keys the shard evicted from its re-warm handles; the
    server drops them too.  ``("ping",)`` answers with the server's stats.
    """
    try:
        if msg[0] == "ping":
            return ("ok", server.stats())
        for key in msg[-1]:
            dropped = server.cache.peek(key)
            server.cache.remove(key)
            if dropped is not None and dropped.shared and not dropped.arena.owner:
                dropped.release_shared()  # unmap a segment this process attached
        if msg[0] == "prime":
            key, operand = msg[1], msg[2]
            if server.cache.peek(key) is None:
                if not isinstance(operand, PreparedMatrix):
                    operand = server.engine.prepare(operand)
                server.cache.put(key, operand)
            return ("ok", None)
        served, requests = [], []
        for key, operand, x, timeout_s in msg[1]:
            if operand is None:
                operand = server.cache.peek(key)
            served.append(operand is not None)
            if operand is not None:
                prepared = operand if isinstance(operand, PreparedMatrix) else None
                requests.append(
                    (key, None if prepared else operand, prepared, x, timeout_s)
                )
        futures = iter(server.run_keyed(requests))
        outcomes = []
        for has_operand in served:
            if not has_operand:
                outcomes.append(("needop", None))
                continue
            future = next(futures)
            error = future.exception(timeout=0)
            if error is not None:
                outcomes.append(("err", _picklable_error(error)))
            else:
                outcomes.append(("res", future.result(timeout=0)))
        return ("ok", outcomes)
    except Exception as exc:
        return ("err", _picklable_error(exc))


def _child_main(conn, engine, config) -> None:
    """Forked child: a threadless server behind the pipe, one message at a time."""
    # The child inherits the forking thread's ambient fault scope; plan
    # draws stay parent-side (deterministic regardless of scheduling).
    with fault_scope(None), conn:
        server = SpMVServer(engine, config, start=False)
        while True:
            try:
                seq, payload = conn.recv()
            except (EOFError, OSError):
                return
            try:
                msg = pickle.loads(payload)
            except Exception as exc:  # e.g. a shared arena unlinked
                msg = ("err", _picklable_error(exc))
            if msg[0] == "stop":
                return
            if msg[0] == "hang":
                # The serve.worker_hang site: stop reading the pipe
                # forever.  Only SIGKILL gets this child back.
                while True:
                    time.sleep(3600)
            reply = msg if msg[0] == "err" else _handle(server, msg)
            try:
                conn.send((seq, reply))
            except OSError:
                return
            except Exception as exc:  # an unpicklable reply payload
                conn.send((seq, ("err", _picklable_error(exc))))


class _Gone(Exception):
    """The transport's peer is dead (broken pipe, exit, dropped server)."""


class _Timeout(Exception):
    """No reply within the wait; the peer may still be alive."""


class _Pipe:
    """Forked transport: :func:`_handle` in a child, behind a duplex pipe.

    Messages are numbered; a reply to an older message (a heartbeat that
    timed out) is discarded, so every call gets its own answer.
    """

    zero_copy = True

    def __init__(self, shard: "Shard"):
        ctx = mp.get_context("fork")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_child_main,
            args=(child_conn, shard.engine, shard.config),
            name=f"spmv-{shard.name}",
            daemon=True,
        )
        self._proc.start()
        child_conn.close()
        self._seq = 0

    @property
    def pid(self) -> int:
        return self._proc.pid

    @property
    def exitcode(self) -> int | None:
        return self._proc.exitcode

    def alive(self) -> bool:
        return self._proc.is_alive()

    def _send(self, msg: tuple) -> None:
        self._seq += 1
        payload = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            self._conn.send((self._seq, payload))
        except OSError:
            raise _Gone from None

    def call(self, msg: tuple, timeout_s: float) -> tuple:
        self._send(msg)
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                wait = min(max(deadline - time.monotonic(), 0.0), 0.05)
                if self._conn.poll(wait):
                    seq, reply = self._conn.recv()
                    if seq == self._seq:
                        return reply
                    continue
            except (EOFError, OSError):
                raise _Gone from None
            if not self._proc.is_alive():
                raise _Gone
            if time.monotonic() >= deadline:
                raise _Timeout

    def hang(self) -> None:
        self._send(("hang",))

    def kill(self) -> None:
        self._proc.kill()
        self._proc.join(timeout=5.0)
        self._conn.close()

    def close(self) -> None:
        try:
            self._send(("stop",))
        except _Gone:
            pass
        self._proc.join(timeout=_STOP_GRACE_S)
        self.kill()


class _Loopback:
    """In-process transport: :func:`_handle` on a local threadless server."""

    zero_copy = False
    pid = None
    exitcode = None

    def __init__(self, shard: "Shard"):
        self._server = SpMVServer(
            shard.engine,
            shard.config,
            observer=shard._observer,
            start=False,
            clock=shard._clock,
        )
        self._hung = False

    def alive(self) -> bool:
        return self._server is not None

    def call(self, msg: tuple, timeout_s: float) -> tuple:
        if self._server is None:
            raise _Gone
        if self._hung:
            raise _Timeout
        return _handle(self._server, msg)

    def hang(self) -> None:
        self._hung = True

    def kill(self) -> None:
        self._server = None  # a killed shard loses its cache

    close = kill


class HandleCache(PreparedCache):
    """Re-warm handles, charged in full: holding one keeps its segment."""

    def _charge(self, split: dict) -> int:
        return split["total"]


class _Pending:
    __slots__ = ("key", "operand", "x", "timeout_s", "future", "resent")

    def __init__(self, key, operand, x, timeout_s):
        self.key = key
        self.operand = operand
        self.x = x
        self.timeout_s = timeout_s
        self.future = ServeFuture()
        self.resent = False


class Shard:
    """One fabric shard: admission and failure handling over a transport.

    Parameters
    ----------
    name:
        Shard name (ring identity, metric label).
    engine:
        The engine serving the shard's requests.  A forked child
        inherits it, so custom engines (the chaos drill's corrupt shard)
        need no pickling.
    config:
        Per-shard :class:`~repro.serve.ServeConfig`: the queue bound is
        enforced here, ``cache_budget_bytes`` bounds both the server's
        cache and the re-warm handles, and ``batch_window_s`` is forced
        to 0 (the server is threadless).
    index:
        The shard's position in the fabric (scale-downs retire the
        highest).
    processes:
        ``True`` serves in a forked child (``_Pipe``), ``False``
        in-process (``_Loopback``).
    health:
        The fabric's rolling health window for this shard.
    observer:
        Receives ``serve.requests``/``serve.shed`` and the ``worker.*``
        lifecycle counters; a loopback server also reports its
        ``serve.*`` telemetry here.
    clock:
        Injectable monotonic clock of the loopback server.
    reply_timeout_s:
        How long a request or prime waits for its reply before the shard
        is declared hung, and killed.
    """

    def __init__(
        self,
        name: str,
        engine: SpMVEngine,
        config: ServeConfig | None = None,
        *,
        index: int = 0,
        processes: bool = False,
        health: ShardHealth | None = None,
        observer=None,
        clock=time.monotonic,
        reply_timeout_s: float = 5.0,
    ):
        if reply_timeout_s <= 0:
            raise ValidationError(
                f"reply_timeout_s must be > 0, got {reply_timeout_s}"
            )
        config = config if config is not None else ServeConfig()
        if config.batch_window_s != 0.0:
            config = replace(config, batch_window_s=0.0)
        self.name = name
        self.index = index
        self.engine = engine
        self.config = config
        self.health = health if health is not None else ShardHealth(HealthPolicy())
        self.reply_timeout_s = reply_timeout_s
        self.obs = observer if observer is not None else engine.observer
        self._observer = observer
        self._clock = clock
        self._make = _Pipe if processes else _Loopback
        self.dead = False        # crashed; never readmitted
        self.ejected = False     # circuit tripped; readmission possible
        self.retired = False     # scaled down; drained and closed
        self.slow_extra_s = 0.0  # injected latency (serve.shard_slow)
        self._lock = threading.RLock()
        self._transport = None
        self._closed = False
        self._queue: deque[_Pending] = deque()
        self._sent: list[_Pending] = []
        #: Re-warm handles, and the keys whose segment this shard created.
        self._handles = HandleCache(config.cache_budget_bytes)
        self._owned: set[str] = set()
        #: Evicted handle keys the server has not been told to drop yet.
        self._forget: list[str] = []
        #: Keys the server behind the transport is known to hold.
        self._server_keys: set[str] = set()
        self._last_stats: dict = {}
        self.last_exit_code: int | None = None
        self.last_error: BaseException | None = None
        # Lifetime counters (survive respawns).
        self.n_requests = self.n_responses = self.n_shed = 0
        self.counts = dict.fromkeys(
            ("spawns", "kills", "hangs", "deaths", "needop", "csr_reprimes"), 0
        )
        self.spawn()

    # ------------------------------------------------------------------ #
    # Liveness
    # ------------------------------------------------------------------ #

    @property
    def alive(self) -> bool:
        transport = self._transport
        return transport is not None and transport.alive()

    @property
    def pid(self) -> int | None:
        return None if self._transport is None else self._transport.pid

    def queued(self) -> int:
        """Requests admitted and not yet answered (the busiest-shard signal)."""
        return len(self._queue) + len(self._sent)

    def spawn(self) -> None:
        """Start a fresh transport (no-op while one is alive)."""
        with self._lock:
            if self._closed:
                raise ServerClosedError(f"shard {self.name} is closed; cannot spawn")
            if self.alive:
                return
            if self._transport is not None:
                self._on_death(hung=False)  # an exit nobody noticed yet
            self._transport = self._make(self)
            self._server_keys.clear()
            self._forget.clear()
            self.last_exit_code = None
            self.last_error = None
            self._count("worker.spawns", "shard transports started")

    def respawn(self) -> str:
        """Fresh transport plus cache re-warm; the supervisor's restart verb.

        Re-primes every resident re-warm handle: by shared-memory
        descriptor, or -- when attaching fails (``serve.arena_lost``) --
        by shipping the CSR arrays for a deterministic re-prepare.
        Returns ``"cold"`` (nothing to warm), ``"shared"`` or ``"csr"``
        (at least one key needed the fallback).  Raises if the shard
        cannot be warmed.
        """
        with self._lock:
            self.spawn()
            mode = "cold"
            for key in self._handles.keys():
                if self._prime_server(key, self._handles.peek(key)) == "csr":
                    mode = "csr"
                elif mode == "cold":
                    mode = "shared"
            return mode

    def degrade(self) -> str:
        """Serve in-process from now on, re-warmed from the handles."""
        with self._lock:
            self._make = _Loopback
            return self.respawn()

    # ------------------------------------------------------------------ #
    # Admission and priming
    # ------------------------------------------------------------------ #

    def submit(self, key: str, operand, x, *, timeout_s: float | None = None) -> ServeFuture:
        """Admit ``y = A @ x`` under ``key``; returns a future.

        ``operand`` is the canonical CSR or a
        :class:`~repro.core.engine.PreparedMatrix` (kept as a re-warm
        handle).  Raises :class:`~repro.errors.ServerClosedError` on a
        closed or down shard and :class:`~repro.errors.
        ServerOverloadedError` when the queue is full.
        """
        with self._lock:
            if self._closed:
                raise ServerClosedError(f"shard {self.name} is closed; request refused")
            if self._transport is None:
                raise ServerClosedError(
                    f"shard {self.name} is down (awaiting supervisor "
                    f"restart); request refused"
                )
            pending = self.queued()
            if pending >= self.config.queue_depth:
                self.n_shed += 1
                self.obs.counter(
                    "serve.shed", "requests refused by admission control"
                ).inc()
                raise ServerOverloadedError(
                    f"queue depth {self.config.queue_depth} reached on "
                    f"shard {self.name}; request shed (retry with backoff)",
                    queue_depth=self.config.queue_depth,
                    pending=pending,
                )
            if isinstance(operand, PreparedMatrix):
                self._hold(key, operand)
            request = _Pending(key, operand, x, timeout_s)
            self._queue.append(request)
            self.n_requests += 1
            self.obs.counter("serve.requests", "requests admitted").inc()
        return request.future

    def prime(self, key: str, prepared: PreparedMatrix) -> None:
        """Keep ``prepared`` as a re-warm handle and install it server-side."""
        with self._lock:
            self._hold(key, prepared)
            if self.alive:
                try:
                    self._prime_server(key, prepared)
                except ShardCrashError:
                    pass  # died meanwhile: the respawn re-warms from the handle

    def _hold(self, key: str, prepared: PreparedMatrix) -> None:
        if self._handles.get(key) is not None:
            return
        evicted = self._handles.put(key, prepared)
        if self._make.zero_copy and prepared.arena is None:
            prepared.share()
            self._owned.add(key)
        for entry in evicted:
            self._release(entry.key, entry.prepared)

    def _release(self, key: str, prepared: PreparedMatrix) -> None:
        self._server_keys.discard(key)
        self._forget.append(key)
        if key in self._owned:
            self._owned.discard(key)
            prepared.release_shared()

    def _release_all(self) -> None:
        for key in self._handles.keys():
            self._release(key, self._handles.peek(key))
        self._handles.clear()

    def _prime_server(self, key: str, prepared: PreparedMatrix) -> str:
        """Install one key server-side; returns ``"shared"`` or ``"csr"``."""
        status, detail = self._call(("prime", key, prepared, self._take_forget()))
        how = "shared"
        if status != "ok":
            # Attach failed (arena unlinked): ship the CSR arrays and let
            # the server re-prepare under the same deterministic tuning.
            status, detail = self._call(("prime", key, prepared.reference_csr(), []))
            if status != "ok":
                raise detail
            how = "csr"
            self._count(
                "worker.csr_reprimes",
                "restart re-primes that fell back to shipping CSR arrays",
            )
        self._server_keys.add(key)
        return how

    def _take_forget(self) -> list[str]:
        forget, self._forget = self._forget, []
        return forget

    # ------------------------------------------------------------------ #
    # The lockstep round trip
    # ------------------------------------------------------------------ #

    def _call(self, msg: tuple) -> tuple:
        """One round trip; a dead or silent transport is a shard death."""
        if self._transport is None:
            raise self._death_error()
        try:
            return self._transport.call(msg, self.reply_timeout_s)
        except _Timeout:
            self._on_death(hung=True)
        except _Gone:
            self._on_death(hung=False)
        raise self._death_error()

    def drain(self) -> int:
        """Send the queue as one batch per round trip; returns responses."""
        with self._lock:
            done = self.n_responses
            while self._queue:
                self._sent = list(self._queue)
                self._queue.clear()
                wire = [
                    (r.key,
                     None if r.key in self._server_keys and not r.resent else r.operand,
                     r.x, r.timeout_s)
                    for r in self._sent
                ]
                try:
                    status, detail = self._call(("batch", wire, self._take_forget()))
                except Exception as exc:
                    self._fail_outstanding(exc)
                    break
                batch, self._sent = self._sent, []
                if status != "ok":
                    detail = [("err", detail)] * len(batch)
                retry = []
                for request, (kind, value) in zip(batch, detail):
                    if kind == "needop" and not request.resent:
                        request.resent = True
                        self.counts["needop"] += 1
                        self._server_keys.discard(request.key)
                        retry.append(request)
                        continue
                    self.n_responses += 1
                    if kind == "res":
                        self._server_keys.add(request.key)
                        request.future._complete(value)
                    elif kind == "err":
                        request.future._fail(value)
                    else:
                        request.future._fail(RemoteWorkerError(
                            f"shard {self.name} requested the operand for "
                            f"{request.key} twice; giving up",
                            original_type="needop-loop",
                        ))
                self._queue.extendleft(reversed(retry))
            return self.n_responses - done

    # ------------------------------------------------------------------ #
    # Heartbeats, death and the chaos verbs
    # ------------------------------------------------------------------ #

    def ping(self) -> bool:
        """Heartbeat: whether the server answered within the ping wait.

        A silent answer is a miss, not a death -- the supervisor's miss
        budget decides; an exit or broken pipe is a death.
        """
        with self._lock:
            if self._transport is None:
                return False
            try:
                self._last_stats = self._transport.call(("ping",), _PING_WAIT_S)[1]
            except _Timeout:
                return False
            except _Gone:
                self._on_death(hung=False)
                return False
            return True

    def inject_hang(self) -> bool:
        """Make the server stop answering (``serve.worker_hang``)."""
        with self._lock:
            if not self.alive:
                return False
            try:
                self._transport.hang()
            except _Gone:
                self._on_death(hung=False)
                return False
            return True

    def kill_process(self, error: BaseException | None = None) -> int:
        """Kill the transport (``serve.worker_kill``); returns orphan count.

        Unlike :meth:`kill` the shard is not closed: outstanding futures
        fail (the fabric replays them) and the shard waits for its
        supervisor to :meth:`respawn` it.
        """
        with self._lock:
            if not self.alive:
                return 0
            doomed = self.queued()
            self._count("worker.kills", "shard transports killed")
            self._on_death(hung=False, error=error)
            return doomed

    def kill(self, error: BaseException | None = None) -> int:
        """Permanent crash (``serve.shard_crash``): never restarted.

        Fails everything outstanding with ``error``, kills the transport
        and releases the segments this shard created.  Returns the
        number of futures failed.
        """
        with self._lock:
            doomed = self.queued()
            self.dead = True
            self._closed = True
            self._on_death(hung=False, error=error)
            self._fail_outstanding(error if error is not None else self._death_error())
            self._release_all()
            return doomed

    def lose_arena(self) -> bool:
        """The ``serve.arena_lost`` site, drawn before a respawn re-warms.

        On fire, the oldest re-warm handle's segment is unlinked, so the
        re-prime's attach fails and the CSR fallback runs for real.
        Returns whether a segment was unlinked.
        """
        with self._lock:
            keys = self._handles.keys()
            plan = active_plan()
            if not keys or plan is None or not plan.arena_lost():
                return False
            victim = self._handles.peek(keys[0])
            if victim.arena is None:
                return False
            try:
                victim.arena._shm.unlink()
            except FileNotFoundError:
                pass
            return True

    def _death_error(self) -> BaseException:
        if self.last_error is not None:
            return self.last_error
        return ShardCrashError(f"shard {self.name} is down", shard=self.name)

    def _on_death(self, *, hung: bool, error: BaseException | None = None) -> None:
        transport, self._transport = self._transport, None
        if transport is None:
            return
        if hung:
            self._count("worker.hangs", "shards killed after reply-timeout silence")
        transport.kill()
        self.last_exit_code = transport.exitcode
        if error is None:
            reason = (
                "went silent (reply timeout) and was killed"
                if hung
                else f"died (exit code {self.last_exit_code})"
            )
            error = ShardCrashError(
                f"shard {self.name} {reason} with requests in flight",
                shard=self.name,
            )
        self.last_error = error
        self._count("worker.deaths", "shard transports lost", hung=str(hung).lower())
        self._fail_outstanding(error)

    def _count(self, metric: str, help_text: str, **labels) -> None:
        self.counts[metric.removeprefix("worker.")] += 1
        self.obs.counter(metric, help_text).inc(worker=self.name, **labels)

    def _fail_outstanding(self, error: BaseException) -> None:
        doomed = self._sent + list(self._queue)
        self._sent = []
        self._queue.clear()
        for request in doomed:
            self.n_responses += 1
            request.future._fail(error)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self, drain: bool = True) -> None:
        """Stop the shard; ``drain=True`` answers queued requests first.

        Whatever is still queued fails with
        :class:`~repro.errors.ServerClosedError`; the segments this
        shard created are released.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            if drain:
                self.drain()
            self._closed = True
            transport, self._transport = self._transport, None
            if transport is not None:
                transport.close()
                self.last_exit_code = transport.exitcode
            self._fail_outstanding(ServerClosedError(
                f"shard {self.name} closed before the request was dispatched"
            ))
            self._release_all()

    def stats(self) -> dict:
        """JSON-able snapshot, shaped like :meth:`SpMVServer.stats`.

        Admission and lifecycle counters are the shard's own; batch and
        cache numbers are the server's, refreshed by a heartbeat when
        the shard is up.
        """
        self.ping()
        server = self._last_stats
        with self._lock:
            snap = {
                "requests": self.n_requests,
                "responses": self.n_responses,
                "shed": self.n_shed,
            }
            for key in ("batches", "batched_requests", "batch_fallbacks",
                        "deadline_expiries", "internal_errors"):
                snap[key] = server.get(key, 0)
            snap["queued"] = self.queued()
            snap["cache"] = server.get("cache") or PreparedCache().stats()
            snap["worker"] = {
                "pid": self.pid,
                "alive": self.alive,
                "exit_code": self.last_exit_code,
                **self.counts,
                "primed_keys": len(self._handles),
            }
            return snap
