"""repro.serve -- the concurrent serving layer.

A thread-safe front-end that turns the single-caller
:class:`~repro.SpMVEngine` into a traffic-ready service:
:class:`SpMVServer` micro-batches concurrent single-vector requests for
the same matrix into one SpMM dispatch, keeps prepared (tuned +
converted) matrices in a footprint-budgeted LRU
:class:`~repro.serve.cache.PreparedCache`, and applies admission
control (bounded queue, per-request deadlines, typed
:class:`~repro.errors.ServerOverloadedError` shedding).  It neither
retries nor breaks circuits: the engine does both per kernel family.
See ``docs/serving.md``.

:class:`ServeFabric` scales the layer out: it consistent-hashes the
value-aware serve key across N shard servers with per-shard health
tracking (:mod:`repro.serve.health`), circuit-breaker ejection and
readmission, deterministic failover under the retry/deadline budget,
and per-tenant queues dequeued in equal-share rotation -- retries and
breaking per shard.  Each shard is one :class:`Shard` over a forked or
in-process transport (:mod:`repro.serve.shard`), driving its server
through :meth:`SpMVServer.run_keyed`.  The differential
chaos drill (:mod:`repro.serve.chaos`, ``repro chaos``) pins the
fabric's outputs bit-identical to a single pristine server while a
seeded fault plan kills shards mid-flight.

Batched serving is bit-identical to sequential ``engine.multiply`` per
vector -- the differential test harness pins this across formats,
scan strategies and injected faults.
"""

from .cache import CacheEntry, PreparedCache, prepared_footprint_bytes
from .chaos import ChaosReport, chaos_plan, run_chaos_drill
from .fabric import ServeFabric, ShardRouter
from .health import HealthPolicy, ShardHealth
from .replay import ReplayReport, ReplaySpec, load_requests, run_replay
from .server import (
    ServeConfig,
    ServeFuture,
    ServeResponse,
    SpMVServer,
    serve_key,
)
from .shard import Shard
from .supervisor import Autoscaler, ShardSupervisor

__all__ = [
    "Autoscaler",
    "Shard",
    "ShardSupervisor",
    "CacheEntry",
    "ChaosReport",
    "chaos_plan",
    "run_chaos_drill",
    "HealthPolicy",
    "PreparedCache",
    "prepared_footprint_bytes",
    "ReplayReport",
    "ReplaySpec",
    "ServeFabric",
    "ShardHealth",
    "ShardRouter",
    "load_requests",
    "run_replay",
    "ServeConfig",
    "ServeFuture",
    "ServeResponse",
    "serve_key",
    "SpMVServer",
]
