"""Sharded serving fabric: consistent hashing, failover, tenant fairness.

One :class:`~repro.serve.SpMVServer` saturates one simulated device.
:class:`ServeFabric` scales the serving layer out the way yaSpMV scales
a kernel across execution units: partition the key space, keep every
shard busy, and *repair* irregularity (here: shard death and
corruption) instead of letting it stall the pipeline -- the
optimistically-dispatch-then-repair philosophy of Liu & Vinter's
speculative segmented sum, applied to servers.

Architecture::

    submit(A, x, tenant=..) ──► per-tenant queues
                                      │
                     equal-share stride scheduler
                                      │
                 ShardRouter: consistent hash of the value-aware
                 serve key over N shards (32 virtual nodes each)
                                      │
          ┌──────────────┬────────────┴─┬──────────────┐
       shard-0         shard-1        shard-2        ...
        Shard           Shard          Shard       (admission, failure path)
      own engine      own engine     own engine
      transport       transport      transport     (forked pipe or loopback)
          │               │              │
      ShardHealth     ShardHealth    ShardHealth   (rolling windows)
          └── sick? ──► CircuitBreaker.trip ──► ejected, keys re-routed
                        cooldown ──► half-open ──► ONE probe ──► readmit

Failure containment:

* a shard that dies mid-flight (the ``serve.shard_crash`` fault site, or
  :meth:`ServeFabric.kill_shard`) fails its queued futures with
  :class:`~repro.errors.ShardCrashError`; the fabric **replays** each on
  the key's next preferred live shard, at once, under the request's
  remaining :class:`~repro.fault.Deadline` and the fabric's
  ``max_attempts`` budget (``fabric.failovers`` counts the replays);
* a shard whose rolling window turns sick (too many errors) is ejected
  via :meth:`CircuitBreaker.trip` and readmitted through the breaker's
  half-open single-probe lifecycle;
* per-tenant queues dequeued in equal-share rotation keep one busy
  tenant from starving the rest; a tenant with nothing queued or in
  flight is forgotten, so tenant names cost nothing once drained.

Because every shard runs the same device model and tuning search, a
failed-over request recomputes the **bit-identical** product the dead
shard would have produced -- the chaos drill (:mod:`repro.serve.chaos`)
diffs a faulted fabric against a pristine single server and requires
equality, not closeness.

Shards run under the fabric's single pump (either the caller's thread
via :meth:`drain`, or the fabric's own pump thread with ``start=True``),
each one round trip to its threadless server per drain, so scheduling is
deterministic given the submission order -- which is what makes seeded
chaos drills replayable.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.engine import PreparedMatrix, SpMVEngine
from ..errors import (
    CircuitOpenError,
    DeadlineExceeded,
    ReproError,
    ServerClosedError,
    ServerOverloadedError,
    ShardCrashError,
    ValidationError,
)
from ..fault.injection import active_plan
from ..fault.retry import (
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)
from ..obs import obs_scope
from ..util import as_csr
from .health import HealthPolicy, ShardHealth
from .server import ServeConfig, ServeFuture, serve_key
from .shard import HandleCache, Shard
from .supervisor import Autoscaler, ShardSupervisor

__all__ = ["ShardRouter", "ServeFabric"]


def _hash64(text: str) -> int:
    """Stable 64-bit ring position (sha256 prefix; never ``hash()``)."""
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
    )


#: Virtual nodes per shard on the consistent-hash ring.
VNODES = 32
#: Seconds an ejected shard stays open before the half-open
#: readmission probe.
BREAKER_COOLDOWN_S = 5.0


class ShardRouter:
    """Consistent-hash ring over shard names, :data:`VNODES` virtual
    nodes per shard.

    :meth:`preference` returns *every* shard in ring order from the
    key's position: element 0 is the owner, element 1 the first
    successor (the failover target when the owner is dead or ejected),
    and so on.  The ring is immutable -- liveness filtering is the
    fabric's job, so ejecting a shard re-routes exactly its key range
    and nothing else.
    """

    def __init__(self, names: list[str]):
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate shard names: {names}")
        if not names:
            raise ValidationError("router needs at least one shard")
        self.names = list(names)
        self._ring: list[tuple[int, str]] = sorted(
            (_hash64(f"{name}#{v}"), name)
            for name in names
            for v in range(VNODES)
        )

    def preference(self, key: str) -> list[str]:
        """All shards, ring order from ``key``'s position (owner first)."""
        start = bisect.bisect_right(self._ring, (_hash64(key), "￿"))
        order: list[str] = []
        n = len(self._ring)
        for i in range(n):
            name = self._ring[(start + i) % n][1]
            if name not in order:
                order.append(name)
                if len(order) == len(self.names):
                    break
        return order

    def owner(self, key: str) -> str:
        return self.preference(key)[0]

    def share(self, keys: list[str]) -> dict[str, int]:
        """How many of ``keys`` each shard owns (diagnostics/tests)."""
        counts = {name: 0 for name in self.names}
        for key in keys:
            counts[self.owner(key)] += 1
        return counts


@dataclass
class _FabricRequest:
    tenant: str
    #: What gets submitted to a shard server: the canonical CSR, or a
    #: caller-supplied PreparedMatrix (shard caches admit it as-is).
    operand: object
    x: np.ndarray
    key: str
    deadline: Deadline | None
    future: ServeFuture
    enqueued_at: float
    attempts: int = 0
    tried: list[str] = field(default_factory=list)
    shard: str | None = None
    shard_future: ServeFuture | None = None
    forwarded_at: float = 0.0
    probe: bool = False


class ServeFabric:
    """Sharded, health-aware, tenant-fair front-end over N shard servers.

    Parameters
    ----------
    shards:
        Shard count (at least 1).
    device:
        Simulated device model every shard runs (bit-identity across
        shards requires one device model; heterogeneous fabrics would
        need per-device golden outputs).
    engine_factory:
        ``f(shard_index) -> SpMVEngine`` -- override to give individual
        shards special engines (the chaos drill builds one *corrupted*
        shard this way).  Default builds
        ``SpMVEngine(device=device, backend="fast")`` per shard (the
        bit-identical vectorized path; pass a factory to choose
        differently).
    serve_config:
        Per-shard :class:`ServeConfig` (each shard's server runs
        threadless under the fabric's pump; ``batch_window_s`` is
        forced to 0).
    health_policy:
        The rolling window each shard is judged on (:class:`HealthPolicy`);
        :data:`~repro.fault.retry.FAILURE_THRESHOLD` consecutive dispatch
        failures trip a shard's circuit even before its window judges it
        sick.
    max_attempts:
        Failover budget: a request is attempted on at most this many
        shards.  A replay is forwarded at once; it waits only for the
        successor shard's turn in the pump.
    observer:
        Receives ``fabric.*``, the shards' admission and lifecycle
        counters, and the ``serve.*`` telemetry of in-process shards.
    start:
        ``True`` starts the pump thread; ``False`` runs threadless --
        callers drive with :meth:`drain` (the deterministic drill mode).
    clock:
        Injectable monotonic clock, shared with every shard server and
        the breaker.
    processes:
        ``True`` serves every :class:`~repro.serve.shard.Shard` from a
        real forked child that maps shared-memory prepared matrices and
        can be SIGKILLed for real; ``False`` serves in-process.  Either
        way a :class:`~repro.serve.ShardSupervisor` heartbeats, restarts
        and degrades the shards at the top of every pump round.
    reply_timeout_s:
        How long a shard waits for its server's reply before declaring
        it hung and killing it.
    restart_policy:
        The supervisor's respawn budget and backoff
        (:class:`~repro.fault.RetryPolicy`).
    autoscale:
        ``True`` lets an :class:`~repro.serve.Autoscaler` add one replica
        to the built ``shards`` under load and retire it when idle, from
        the fabric's own load gauges, rebuilding the consistent-hash
        ring on every action.  Works in both in-process and process
        mode.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        device: str = "gtx680",
        engine_factory=None,
        serve_config: ServeConfig | None = None,
        health_policy: HealthPolicy | None = None,
        max_attempts: int = 3,
        observer=None,
        start: bool = True,
        clock=time.monotonic,
        processes: bool = False,
        reply_timeout_s: float = 5.0,
        restart_policy: RetryPolicy | None = None,
        autoscale: bool = False,
    ):
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        self.serve_config = (
            serve_config if serve_config is not None else ServeConfig()
        )
        self.health_policy = (
            health_policy if health_policy is not None else HealthPolicy()
        )
        if max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.max_attempts = max_attempts
        self._clock = clock

        if engine_factory is None:
            engine_factory = (  # noqa: E731
                lambda i: SpMVEngine(device=device, backend="fast")
            )
        self._engine_factory = engine_factory
        self._observer = observer
        self._processes = processes
        self._reply_timeout_s = reply_timeout_s
        #: Handles primed fabric-wide; scale-ups re-warm new replicas
        #: from what is resident here.
        self._handles = HandleCache(self.serve_config.cache_budget_bytes)
        self.shards: list[Shard] = []
        for i in range(shards):
            self.shards.append(self._spawn_shard(i))
        self._next_index = shards
        self._by_name = {s.name: s for s in self.shards}
        self.router = ShardRouter([s.name for s in self.shards])
        self.supervisor = ShardSupervisor(
            restart_policy, observer=observer, clock=clock
        )
        self.autoscaler: Autoscaler | None = None
        if autoscale:
            self.autoscaler = Autoscaler(shards, observer=observer)
        self.breaker = CircuitBreaker(BREAKER_COOLDOWN_S, clock=clock)
        self.obs = observer if observer is not None else self.shards[0].obs

        self._cond = threading.Condition()
        self._closed = False
        self._pumping = False
        self._queues: dict[str, deque[_FabricRequest]] = {}
        self._passes: dict[str, float] = {}
        self._vtime = 0.0
        self._tenant_pending: dict[str, int] = {}
        self._pending: list[_FabricRequest] = []
        # Plain-int mirrors of the fabric.* metrics (guarded by _cond).
        self.n_requests = 0
        self.n_responses = 0
        self.n_failovers = 0
        self.n_ejections = 0
        self.n_readmissions = 0
        self.n_shard_crashes = 0
        self.n_worker_kills = 0
        self.n_worker_hangs = 0
        self._gauge_live()

        self._thread: threading.Thread | None = None
        if start:
            self._thread = threading.Thread(
                target=self._run, name="spmv-fabric-pump", daemon=True
            )
            self._thread.start()

    # ------------------------------------------------------------------ #
    # Shard construction
    # ------------------------------------------------------------------ #

    def _spawn_shard(self, index: int) -> Shard:
        return Shard(
            f"shard-{index}",
            self._engine_factory(index),
            self.serve_config,
            index=index,
            processes=self._processes,
            health=ShardHealth(self.health_policy),
            observer=self._observer,
            clock=self._clock,
            reply_timeout_s=self._reply_timeout_s,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def live_shards(self) -> list[str]:
        """Shards currently routable (not dead/retired, circuit not open)."""
        out = []
        for s in self.shards:
            if s.dead or s.retired:
                continue
            if self.breaker.state(s.name) == BREAKER_OPEN:
                continue
            out.append(s.name)
        return out

    def _gauge_live(self) -> None:
        self.obs.gauge(
            "fabric.live_shards", "shards currently routable"
        ).set(len(self.live_shards()))

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(
        self,
        matrix,
        x: np.ndarray,
        *,
        tenant: str = "default",
        timeout_s: float | None = None,
    ) -> ServeFuture:
        """Enqueue ``y = A @ x`` for ``tenant``; returns a future.

        ``matrix`` is a scipy sparse matrix or an explicit
        :class:`~repro.core.engine.PreparedMatrix` (forwarded to the
        owning shard as-is, so its cache admits the caller's prepared
        instance -- the solver sessions' value-refresh path).
        ``timeout_s`` is the request's deadline; without it the request
        has none.

        Raises :class:`~repro.errors.ServerClosedError` after
        :meth:`close`.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2):
            raise ValidationError(
                f"x must be a vector or a (ncols, k) block, got shape {x.shape}"
            )
        if isinstance(matrix, PreparedMatrix):
            operand = matrix
            csr = matrix.reference_csr()
        else:
            operand = csr = as_csr(matrix)
        if x.shape[0] != csr.shape[1]:
            raise ValidationError(
                f"x has {x.shape[0]} rows, matrix has {csr.shape[1]} columns"
            )
        key = serve_key(self.shards[0].engine, csr)
        deadline = (
            None if timeout_s is None else Deadline(timeout_s, clock=self._clock)
        )
        future = ServeFuture()
        request = _FabricRequest(
            tenant=tenant,
            operand=operand,
            x=x,
            key=key,
            deadline=deadline,
            future=future,
            enqueued_at=self._clock(),
        )
        with self._cond:
            if self._closed:
                raise ServerClosedError("fabric is closed; request refused")
            queue = self._queues.get(tenant)
            if queue is None:
                queue = self._queues[tenant] = deque()
                # A new (or returning, forgotten) tenant starts at the
                # current virtual time: its idle past earns no burst
                # against the others.
                self._passes[tenant] = self._vtime
                self._tenant_pending[tenant] = 0
            queue.append(request)
            self._tenant_pending[tenant] += 1
            self.n_requests += 1
            self.obs.counter("fabric.requests", "requests admitted").inc()
            self._cond.notify_all()
        return future

    def multiply(self, matrix, x, *, tenant: str = "default",
                 timeout_s: float | None = None):
        """Blocking convenience: :meth:`submit` + :meth:`drain` + result."""
        future = self.submit(matrix, x, tenant=tenant, timeout_s=timeout_s)
        if self._thread is None:
            self.drain()
        return future.result()

    # ------------------------------------------------------------------ #
    # Pump
    # ------------------------------------------------------------------ #

    def _run(self) -> None:
        """Pump-thread main loop (threaded mode).

        The idle wait is bounded so housekeeping rounds (heartbeats,
        restarts, scale decisions) still happen while no traffic flows.
        """
        while True:
            with self._cond:
                if not self._has_work():
                    if self._closed:
                        return
                    self._cond.wait(0.05)  # then an idle housekeeping round
                if self._closed and not self._has_work():
                    return
            self.pump_once()
            with self._cond:
                self._cond.notify_all()

    def _has_work(self) -> bool:
        # _pumping covers the transient gap while a pump pass holds
        # requests in neither a queue nor _pending (mid-forward/collect)
        # -- without it a concurrent drain() could observe "idle" and
        # let close() fail requests that are actually in flight.
        return (
            self._pumping
            or bool(self._pending)
            or any(self._queues.values())
        )

    def drain(self) -> int:
        """Pump until nothing is queued or in flight; returns responses.

        Threadless mode processes on the calling thread; with a pump
        thread running, blocks until the fabric is idle.
        """
        if self._thread is not None:
            with self._cond:
                while self._has_work():
                    self._cond.wait(0.01)
            return 0
        done0 = self.n_responses
        while True:
            with self._cond:
                if not self._has_work():
                    break
            self.pump_once()
        return self.n_responses - done0

    def pump_once(self) -> None:
        """One deterministic scheduling round.

        Order matters for the chaos story: (0) supervision housekeeping
        -- heartbeats, worker restarts, autoscale decisions -- so a
        worker killed last round is healed before new traffic routes,
        (1) forward queued requests to their shards, (2) apply seeded
        chaos draws -- so an injected crash genuinely kills requests
        *mid-flight*, (3) drain the threadless shard servers, (4)
        collect completions and fail over.
        """
        with self._cond:
            self._pumping = True
        try:
            with obs_scope(self.obs):
                self.supervisor.tick(self.shards)
                if self.autoscaler is not None:
                    self._autoscale()
                self._schedule()
                self._apply_chaos()
                for shard in self.shards:
                    if not shard.dead and not shard.retired:
                        shard.drain()
                self._collect()
        finally:
            with self._cond:
                self._pumping = False
                self._cond.notify_all()

    def tick(self, rounds: int = 1) -> None:
        """Run ``rounds`` pump rounds even when idle (threadless mode).

        Supervision and autoscaling only act inside pump rounds; a
        threadless fabric with no queued work would otherwise never
        restart a dead worker or scale the fleet down.  Chaos drills
        call this after the workload to let the scale-down hysteresis
        observe the idle fleet.
        """
        for _ in range(rounds):
            self.pump_once()

    # -- step 1: equal-share scheduling -------------------------------- #

    def _schedule(self) -> None:
        while True:
            with self._cond:
                tenant = self._next_tenant_locked()
                if tenant is None:
                    return
                request = self._queues[tenant].popleft()
            self._forward(request)

    def _next_tenant_locked(self) -> str | None:
        """Stride scheduling: smallest pass among non-empty queues wins,
        ties by tenant name; each pick advances the winner's pass by 1."""
        best: str | None = None
        for tenant, queue in self._queues.items():
            if not queue:
                continue
            if best is None or (
                (self._passes[tenant], tenant) < (self._passes[best], best)
            ):
                best = tenant
        if best is None:
            return None
        self._vtime = self._passes[best]
        self._passes[best] += 1.0
        return best

    # -- step 2: seeded chaos ------------------------------------------ #

    def _busiest(self, candidates: list[Shard]) -> Shard | None:
        """Most-loaded shard (forwarded + queued), ties by name."""
        if not candidates:
            return None
        load: dict[str, int] = {s.name: 0 for s in candidates}
        for req in self._pending:
            if req.shard in load:
                load[req.shard] += 1
        for s in candidates:
            load[s.name] += s.queued()
        return min(candidates, key=lambda s: (-load[s.name], s.name))

    def _apply_chaos(self) -> None:
        plan = active_plan()
        if plan is None:
            return
        live = [s for s in self.shards if s.name in set(self.live_shards())]
        if plan.shard_crash(len(live)):
            victim = self._busiest(live)
            if victim is not None:
                self.kill_shard(victim.name)
                live = [s for s in live if s.name != victim.name]
        delay = plan.shard_slow(len(live))
        if delay is not None:
            calm = [s for s in live if s.slow_extra_s == 0.0]
            victim = self._busiest(calm or live)
            if victim is not None:
                victim.slow_extra_s += delay
                self.obs.counter(
                    "fabric.slowed_shards", "shard-slow injections"
                ).inc(shard=victim.name)
        workers = [s for s in live if s.alive]
        if plan.worker_kill(len(workers)):
            victim = self._busiest(workers)
            if victim is not None:
                self.kill_worker(victim.name)
                workers = [s for s in workers if s.name != victim.name]
        if plan.worker_hang(len(workers)):
            victim = self._busiest(workers)
            if victim is not None and victim.inject_hang():
                with self._cond:
                    self.n_worker_hangs += 1
                self.obs.counter(
                    "fabric.worker_hangs", "worker-hang injections"
                ).inc(shard=victim.name)

    def kill_worker(self, name: str) -> int:
        """Kill ``name``'s server (``serve.worker_kill``): a forked
        child is SIGKILLed, a loopback drops its server and cache.

        Unlike :meth:`kill_shard` the shard is *not* marked dead: its
        in-flight futures fail (and replay on ring successors) and the
        supervisor restarts it on a later tick.  Returns the number of
        requests the kill orphaned; 0 for an already-down shard.
        """
        shard = self._by_name[name]
        if not shard.alive:
            return 0
        with self._cond:
            self.n_worker_kills += 1
        self.obs.counter(
            "fabric.worker_kills", "shard servers killed mid-flight"
        ).inc(shard=name)
        return shard.kill_process(ShardCrashError(
            f"server of shard {name} was killed with requests in flight",
            shard=name,
        ))

    def kill_shard(self, name: str) -> int:
        """Crash ``name`` mid-flight: its queued futures fail with
        :class:`~repro.errors.ShardCrashError` and the fabric replays
        them on ring successors.  Dead shards are never readmitted.
        Returns the number of in-flight requests the crash orphaned.
        """
        shard = self._by_name[name]
        if shard.dead:
            return 0
        with self._cond:
            self.n_shard_crashes += 1
        self.obs.counter(
            "fabric.shard_crashes", "shards killed mid-flight"
        ).inc(shard=name)
        doomed = shard.kill(ShardCrashError(
            f"shard {name} crashed with requests in flight", shard=name
        ))
        self._gauge_live()
        return doomed

    # -- fabric-wide priming and autoscaling --------------------------- #

    def prime(self, prepared: PreparedMatrix) -> str:
        """Warm every routable shard's cache with ``prepared``.

        Each shard keeps the handle for its restarts (a forked shard
        maps it through shared memory instead of re-tuning), and the
        fabric keeps it for scale-ups, both within the shard cache
        budget.  Returns the serve key the fabric routes the matrix
        under.
        """
        key = serve_key(
            self.shards[0].engine, prepared.reference_csr()
        )
        self._handles.put(key, prepared)
        for shard in self.shards:
            if shard.dead or shard.retired:
                continue
            shard.prime(key, prepared)
        return key

    def _rebuild_router(self) -> None:
        names = [
            s.name for s in self.shards if not s.dead and not s.retired
        ]
        self.router = ShardRouter(names)

    def _autoscale(self) -> None:
        # The scaler reasons about *fleet size* (replicas that exist and
        # could serve), not instantaneous routability: a breaker-open
        # replica is capacity in recovery, and counting it as absent
        # would double-provision every ejection.  Breaker pressure is
        # recorded alongside in the decision log.
        assert self.autoscaler is not None
        fleet = [s for s in self.shards if not s.dead and not s.retired]
        with self._cond:
            queued = sum(len(q) for q in self._queues.values())
            in_flight = len(self._pending)
        open_breakers = sum(
            1 for s in fleet
            if self.breaker.state(s.name) == BREAKER_OPEN
        )
        action = self.autoscaler.observe(
            queued=queued,
            in_flight=in_flight,
            live=len(fleet),
            open_breakers=open_breakers,
        )
        if action == "up":
            self._scale_up()
        elif action == "down":
            self._scale_down()

    def _scale_up(self) -> None:
        shard = self._spawn_shard(self._next_index)
        self._next_index += 1
        for key in self._handles.keys():
            shard.prime(key, self._handles.peek(key))
        self.shards.append(shard)
        self._by_name[shard.name] = shard
        self._rebuild_router()
        self.obs.counter(
            "fabric.scale_ups", "replicas added by the autoscaler"
        ).inc(shard=shard.name)
        self._gauge_live()

    def _scale_down(self) -> None:
        candidates = [
            s for s in self.shards if not s.dead and not s.retired
        ]
        if len(candidates) <= 1:
            return
        # Retire the newest replica: the ring change is the exact inverse
        # of the scale-up that added it, so steady-state keys go home.
        victim = max(candidates, key=lambda s: s.index)
        victim.retired = True
        self._rebuild_router()
        victim.close(drain=True)
        self.obs.counter(
            "fabric.scale_downs", "replicas retired by the autoscaler"
        ).inc(shard=victim.name)
        self._gauge_live()

    # -- step 3 happens inline in pump_once ---------------------------- #

    # -- step 4: completion, health, failover -------------------------- #

    def _forward(self, request: _FabricRequest) -> None:
        """Route one request to the best live shard and submit it."""
        if request.deadline is not None and request.deadline.expired():
            self._complete(request, DeadlineExceeded(
                f"request deadline of {request.deadline.seconds:.3f}s "
                f"expired before dispatch",
                label="fabric queue",
                budget_s=request.deadline.seconds,
            ), None)
            return
        preference = self.router.preference(request.key)
        # Prefer shards this request has not failed on yet; fall back to
        # re-trying a previously-tried (still live) shard only when the
        # ring offers nothing fresh.
        ordered = (
            [n for n in preference if n not in request.tried]
            + [n for n in preference if n in request.tried]
        )
        last_refusal: ReproError | None = None
        for name in ordered:
            shard = self._by_name[name]
            if shard.dead or shard.retired:
                continue
            state = self.breaker.state(name)
            if state == BREAKER_OPEN:
                continue
            probe = False
            if state == BREAKER_HALF_OPEN:
                if not self.breaker.allow(name):
                    continue  # another request holds the probe slot
                probe = True
            timeout = (
                None if request.deadline is None
                else max(request.deadline.remaining(), 0.0)
            )
            try:
                shard_future = shard.submit(
                    request.key, request.operand, request.x, timeout_s=timeout
                )
            except (ServerOverloadedError, ServerClosedError) as exc:
                if probe:
                    # The probe could not even be enqueued: count it as
                    # a failed probe (the circuit re-opens and the shard
                    # gets another chance after the next cooldown).
                    self.breaker.record_failure(name)
                last_refusal = exc
                continue
            request.attempts += 1
            request.tried.append(name)
            request.shard = name
            request.shard_future = shard_future
            request.forwarded_at = self._clock()
            request.probe = probe
            with self._cond:
                self._pending.append(request)
            return
        self._complete(request, last_refusal or CircuitOpenError(
            "no live shard available for this key "
            f"({len(self.live_shards())} of {len(self.shards)} routable)",
            family="fabric",
        ), None)

    def _collect(self) -> None:
        with self._cond:
            pending, self._pending = self._pending, []
        for request in pending:
            if not request.shard_future.done():
                with self._cond:
                    self._pending.append(request)
                continue
            shard = self._by_name[request.shard]
            error = request.shard_future.exception(timeout=0)
            latency = (
                self._clock() - request.forwarded_at + shard.slow_extra_s
            )
            if error is None:
                self._on_success(request, shard, latency)
            else:
                self._on_failure(request, shard, error, latency)

    def _on_success(self, request: _FabricRequest, shard: Shard,
                    latency: float) -> None:
        if request.probe:
            # Readmit first (resets the window), then record: the fresh
            # window starts with the successful probe, not empty.
            self._readmit(shard)
        elif not shard.ejected:
            # A request forwarded before its shard was ejected must not
            # close the circuit: only the half-open probe readmits.
            self.breaker.record_success(shard.name)
        shard.health.record_success(latency)
        if not shard.dead and not shard.ejected and not shard.health.healthy():
            self._eject(shard)  # a success in a window still too erroneous
        response = replace(
            request.shard_future._response,
            shard=shard.name,
            failovers=request.attempts - 1,
            queue_wait_s=self._clock() - request.enqueued_at,
        )
        self._complete(request, None, response)

    def _on_failure(self, request: _FabricRequest, shard: Shard,
                    error: BaseException, latency: float) -> None:
        crash = isinstance(error, (ShardCrashError, ServerClosedError))
        if not shard.dead:
            shard.health.record_failure(latency)
            if request.probe:
                self.breaker.record_failure(shard.name)  # re-opens
                shard.ejected = True
                self._gauge_live()
            else:
                self.breaker.record_failure(shard.name)
                if not shard.ejected and (
                    not shard.health.healthy()
                    or self.breaker.state(shard.name) == BREAKER_OPEN
                ):
                    self._eject(shard)
        if isinstance(error, DeadlineExceeded):
            self._complete(request, error, None)  # budget gone: no replay
            return
        if request.attempts >= self.max_attempts:
            self._complete(request, error, None)
            return
        if request.deadline is not None and request.deadline.expired():
            self._complete(request, DeadlineExceeded(
                f"deadline expired after {request.attempts} attempt(s); "
                f"last error: {type(error).__name__}: {error}",
                label="fabric failover",
                budget_s=request.deadline.seconds,
            ), None)
            return
        with self._cond:
            self.n_failovers += 1
        self.obs.counter(
            "fabric.failovers",
            "requests replayed on a successor shard",
        ).inc(shard=shard.name, crash=str(crash).lower())
        self._forward(request)

    def _eject(self, shard: Shard) -> None:
        self.breaker.trip(shard.name)
        shard.ejected = True
        with self._cond:
            self.n_ejections += 1
        self.obs.counter(
            "fabric.ejections", "shards ejected by the health tracker"
        ).inc(shard=shard.name)
        self._gauge_live()

    def _readmit(self, shard: Shard) -> None:
        self.breaker.record_success(shard.name)  # half-open -> closed
        shard.ejected = False
        shard.health.reset()
        with self._cond:
            self.n_readmissions += 1
        self.obs.counter(
            "fabric.readmissions", "ejected shards readmitted after a probe"
        ).inc(shard=shard.name)
        self._gauge_live()

    def _complete(self, request: _FabricRequest,
                  error: BaseException | None, response) -> None:
        if error is not None:
            request.future._fail(error)
        else:
            request.future._complete(response)
        with self._cond:
            self.n_responses += 1
            tenant = request.tenant
            left = self._tenant_pending.get(tenant, 1) - 1
            if left > 0 or self._queues.get(tenant):
                self._tenant_pending[tenant] = max(left, 0)
            else:
                # Nothing queued or in flight: forget the tenant, so a
                # fabric serving many short-lived tenants does not grow.
                self._queues.pop(tenant, None)
                self._passes.pop(tenant, None)
                self._tenant_pending.pop(tenant, None)
        self.obs.counter(
            "fabric.responses", "requests completed (success or typed error)"
        ).inc()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self, drain: bool = True) -> None:
        """Shut the fabric down; ``drain=False`` fails queued futures."""
        if drain and not self._closed:
            if self._thread is not None:
                self.drain()
            else:
                with self._cond:
                    closed_now = self._closed
                if not closed_now:
                    self.drain()
        with self._cond:
            self._closed = True
            abandoned: list[_FabricRequest] = []
            for queue in self._queues.values():
                abandoned.extend(queue)
                queue.clear()
            abandoned.extend(self._pending)
            self._pending = []
            self._cond.notify_all()
        for request in abandoned:
            self._complete(request, ServerClosedError(
                "fabric closed before the request was dispatched"
            ), None)
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        for shard in self.shards:
            if not shard.dead and not shard.retired:
                shard.close(drain=False)
        self._handles.clear()

    def __enter__(self) -> "ServeFabric":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """JSON-able snapshot: fabric counters + per-shard detail.

        The aggregate ``cache``/``batches``/``shed`` keys sum over the
        shard servers so :class:`~repro.serve.ReplayReport` summaries
        work unchanged against a fabric.
        """
        with self._cond:
            snap = {
                "requests": self.n_requests,
                "responses": self.n_responses,
                "failovers": self.n_failovers,
                "ejections": self.n_ejections,
                "readmissions": self.n_readmissions,
                "shard_crashes": self.n_shard_crashes,
                "worker_kills": self.n_worker_kills,
                "worker_hangs": self.n_worker_hangs,
                "processes": self._processes,
                "queued": sum(len(q) for q in self._queues.values()),
                "in_flight": len(self._pending),
                "tenants": {
                    t: {"pending": self._tenant_pending.get(t, 0)}
                    for t in sorted(self._queues)
                },
            }
        snap["live_shards"] = len(self.live_shards())
        shard_stats = {}
        agg_cache = {"hits": 0, "misses": 0, "evictions": 0, "total_bytes": 0}
        batches = batched = shed = 0
        for s in self.shards:
            server_snap = s.stats()
            for k in agg_cache:
                agg_cache[k] += server_snap["cache"].get(k, 0)
            batches += server_snap["batches"]
            batched += server_snap["batched_requests"]
            shed += server_snap["shed"]
            shard_stats[s.name] = {
                "dead": s.dead,
                "ejected": s.ejected,
                "retired": s.retired,
                "breaker": self.breaker.state(s.name),
                "slow_extra_s": s.slow_extra_s,
                "health": s.health.stats(),
                "server": server_snap,
            }
        snap["shards"] = shard_stats
        snap["cache"] = agg_cache
        snap["batches"] = batches
        snap["batched_requests"] = batched
        snap["shed"] = shed
        snap["supervisor"] = self.supervisor.stats()
        if self.autoscaler is not None:
            snap["autoscaler"] = self.autoscaler.stats()
        return snap
