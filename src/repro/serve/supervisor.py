"""Shard supervision and metric-driven replica autoscaling.

A :class:`~repro.serve.shard.Shard` knows how to *die* well (typed
failures, exit codes, hang kills); this module owns coming *back*:

* :class:`ShardSupervisor` -- ticked once per fabric pump round, it
  heartbeats every live shard against a miss budget, detects deaths
  (a SIGKILLed child shows a negative exit code), respawns dead shards
  under a :class:`~repro.fault.RetryPolicy` backoff schedule (re-warming
  the value-aware cache keys each shard holds, with the
  ``serve.arena_lost`` CSR-reship fallback), reaps shared-memory
  segments orphaned by the death (:func:`repro.core.shm.reap_orphans`),
  and -- when a forked shard exhausts its restart budget -- **degrades**
  it to in-process serving on the same engine, so the replica keeps
  serving bit-identical answers with a logged reason instead of
  silently shrinking the fleet.  Forked and in-process shards go
  through the same calls.
* :class:`Autoscaler` -- a deterministic policy loop over the load
  signals the fabric already exports (queue depth, in-flight count,
  breaker state): a pressured round adds one replica, a run of idle
  rounds takes it away again, and a post-action cooldown plus the idle
  count give hysteresis so the fleet never flaps.  Every round appends
  a decision record, so a seeded drill can assert the exact scaling
  trajectory.

Both are plain deterministic state machines driven by the fabric's pump
(no timers of their own), which is what keeps chaos drills replayable:
the same seeded fault plan against the same workload produces the same
kills, the same restarts and the same scale decisions.
"""

from __future__ import annotations

import time

from ..core.shm import reap_orphans
from ..fault.retry import RetryPolicy

__all__ = ["ShardSupervisor", "Autoscaler"]

#: Consecutive unanswered heartbeats before a shard is declared hung
#: and killed.  A responsive server answers every ping, so the budget
#: only penalizes genuine silence.
_MISS_BUDGET = 3


class _ShardState:
    """Supervision bookkeeping for one shard."""

    __slots__ = ("misses", "restart_attempts", "next_restart_at")

    def __init__(self):
        self.misses = 0
        self.restart_attempts = 0
        self.next_restart_at = 0.0


class ShardSupervisor:
    """Owns the shards' liveness: heartbeats, restarts, degrade.

    The fabric calls :meth:`tick` at the top of every pump round with
    its current shard list; everything else is driven from there.  The
    supervisor never *routes* -- it only brings shards back up and
    leaves traffic decisions to the fabric's forwarding and breaker
    logic.

    Parameters
    ----------
    restart_policy:
        :class:`~repro.fault.RetryPolicy` governing respawns of one
        shard: ``max_attempts`` failed respawns in a row degrade the
        shard to in-process serving, ``delay_s(attempt)`` spaces the
        attempts (deterministic seeded jitter).
    observer:
        Receives ``supervisor.*`` counters.
    clock:
        Injectable monotonic clock for backoff spacing.
    """

    def __init__(
        self,
        restart_policy: RetryPolicy | None = None,
        *,
        observer=None,
        clock=time.monotonic,
    ):
        self.restart_policy = (
            restart_policy
            if restart_policy is not None
            else RetryPolicy(max_attempts=3, base_delay_s=0.05)
        )
        self.obs = observer
        self._clock = clock
        self._states: dict[str, _ShardState] = {}
        #: Append-only decision log: dicts with ``action`` in
        #: {"hang_kill", "restart", "restart_failed", "degrade", "reap"}.
        self.decisions: list[dict] = []
        # Lifetime counters.
        self.n_restarts = 0
        self.n_degraded = 0
        self.n_hang_kills = 0
        self.n_reaped = 0
        self.n_arena_lost = 0

    def _state(self, name: str) -> _ShardState:
        state = self._states.get(name)
        if state is None:
            state = self._states[name] = _ShardState()
        return state

    def _count(self, metric: str, help_text: str, **labels) -> None:
        if self.obs is not None:
            self.obs.counter(metric, help_text).inc(**labels)

    def _log(self, action: str, shard: str, **detail) -> None:
        self.decisions.append({"action": action, "shard": shard, **detail})

    # ------------------------------------------------------------------ #
    # The tick
    # ------------------------------------------------------------------ #

    def tick(self, shards) -> None:
        """One supervision round over ``shards``.

        Order: heartbeat the live shards, kill the ones over the miss
        budget, then drive dead ones through the restart -> backoff ->
        degrade ladder.  Crashed (``dead``) and retired shards are the
        fabric's, not ours to heal.
        """
        for shard in shards:
            if shard.dead or shard.retired:
                continue
            state = self._state(shard.name)
            if shard.alive:
                self._heartbeat(shard, state)
            if not shard.alive:
                self._heal(shard, state)

    def _heartbeat(self, shard, state: _ShardState) -> None:
        if shard.ping():
            state.misses = 0
            return
        state.misses += 1
        if state.misses > _MISS_BUDGET:
            self.n_hang_kills += 1
            self._count(
                "supervisor.hang_kills",
                "shards killed after exhausting the heartbeat miss budget",
                shard=shard.name,
            )
            self._log(
                "hang_kill", shard.name,
                misses=state.misses,
                budget=_MISS_BUDGET,
            )
            shard.kill_process()
            state.misses = 0

    def _heal(self, shard, state: _ShardState) -> None:
        policy = self.restart_policy
        if state.restart_attempts >= policy.max_attempts:
            self._degrade(shard, state)
            return
        now = self._clock()
        if now < state.next_restart_at:
            return  # backoff not yet elapsed; try again next tick
        self._reap(shard.name)
        exit_code = shard.last_exit_code
        if shard.lose_arena():
            self.n_arena_lost += 1
            self._count(
                "supervisor.arena_lost",
                "shared arenas found missing at restart re-prime time",
                shard=shard.name,
            )
        try:
            state.restart_attempts += 1
            mode = shard.respawn()
        except Exception as exc:
            state.next_restart_at = now + policy.delay_s(state.restart_attempts)
            self._count(
                "supervisor.restart_failures",
                "shard respawn attempts that failed",
                shard=shard.name,
            )
            self._log(
                "restart_failed", shard.name,
                attempt=state.restart_attempts,
                error=f"{type(exc).__name__}: {exc}",
                retry_in_s=round(state.next_restart_at - now, 4),
            )
            if state.restart_attempts >= policy.max_attempts:
                self._degrade(shard, state)
            return
        state.restart_attempts = 0
        state.next_restart_at = 0.0
        state.misses = 0
        self.n_restarts += 1
        self._count(
            "supervisor.restarts", "shards respawned after death",
            shard=shard.name,
        )
        self._log(
            "restart", shard.name,
            exit_code=exit_code,
            warm_mode=mode,
            pid=shard.pid,
        )

    def _degrade(self, shard, state: _ShardState) -> None:
        reason = (
            f"respawn failed {self.restart_policy.max_attempts} "
            f"time(s); falling back to an in-process shard"
        )
        # Re-warmed from the shard's handles, so degraded serving stays
        # cache-hot and bit-identical.
        shard.degrade()
        state.restart_attempts = 0
        state.next_restart_at = 0.0
        self.n_degraded += 1
        self._count(
            "supervisor.degraded",
            "shards degraded to in-process after exhausting restarts",
            shard=shard.name,
        )
        self._log("degrade", shard.name, reason=reason)

    def _reap(self, shard_name: str) -> None:
        reaped = reap_orphans()
        if reaped:
            self.n_reaped += len(reaped)
            self._count(
                "arena.reaped",
                "orphaned shared-memory segments reclaimed",
                shard=shard_name,
            )
            self._log("reap", shard_name, segments=reaped)

    def stats(self) -> dict:
        """JSON-able snapshot (fabric ``stats()['supervisor']``)."""
        return {
            "restarts": self.n_restarts,
            "degraded": self.n_degraded,
            "hang_kills": self.n_hang_kills,
            "reaped": self.n_reaped,
            "arena_lost": self.n_arena_lost,
            "decisions": list(self.decisions),
        }


# ---------------------------------------------------------------------- #
# Autoscaling
# ---------------------------------------------------------------------- #


#: Per-replica load (queued + in-flight, divided by the fleet size) at
#: or above which a round counts as *pressured*; one pressured round
#: adds a replica.
HIGH_LOAD = 2.0
#: Consecutive *idle* rounds (nothing queued or in flight) before the
#: added replica is retired.  Scaling up is deliberately quicker than
#: scaling down.
DOWN_AFTER = 2
#: Rounds after any action during which the autoscaler only observes
#: (lets the previous action take effect before judging again).
COOLDOWN_ROUNDS = 1


class Autoscaler:
    """Deterministic grow/shrink decisions from the fabric's load gauges.

    The fleet stays between ``min_shards`` (the fabric's built shard
    count) and one more replica.  One :meth:`observe` call per pump
    round.  The inputs are exactly the signals the obs layer already
    exports -- queue depth and in-flight count (``fabric.queued`` /
    ``fabric.in_flight``), and the fleet size and open-breaker count
    (``fabric.live_shards``) -- so the scaler adds policy, not plumbing.
    Every round appends a decision record with the observed load and
    the reason, making scaling trajectories assertable in seeded tests.
    """

    def __init__(self, min_shards: int, *, observer=None):
        self.min_shards = min_shards
        self.max_shards = min_shards + 1
        self.obs = observer
        self.decisions: list[dict] = []
        self.n_scale_ups = 0
        self.n_scale_downs = 0
        self._round = 0
        self._pressured_rounds = 0
        self._idle_rounds = 0
        self._cooldown = 0

    def observe(
        self, *, queued: int, in_flight: int, live: int, open_breakers: int
    ) -> str | None:
        """Judge one round; returns ``"up"``, ``"down"`` or ``None``.

        The caller (the fabric) owns *applying* the action -- spawning
        or retiring a replica and rebuilding the ring -- so the scaler
        stays a pure, replayable policy function.
        """
        self._round += 1
        total = queued + in_flight
        load = total / max(live, 1)
        pressured = load >= HIGH_LOAD
        idle = total == 0
        action: str | None = None
        reason = "steady"
        if self._cooldown > 0:
            self._cooldown -= 1
            reason = "cooldown"
        else:
            if pressured:
                self._pressured_rounds += 1
                self._idle_rounds = 0
            elif idle:
                self._idle_rounds += 1
                self._pressured_rounds = 0
            else:
                self._pressured_rounds = 0
                self._idle_rounds = 0
            if pressured and live < self.max_shards:
                action = "up"
                reason = (
                    f"load {load:.2f}/replica >= {HIGH_LOAD} for "
                    f"{self._pressured_rounds} round(s)"
                )
                self.n_scale_ups += 1
            elif (
                self._idle_rounds >= DOWN_AFTER
                and live > self.min_shards
            ):
                action = "down"
                reason = (
                    f"total load {total} <= 0.0 for "
                    f"{self._idle_rounds} round(s)"
                )
                self.n_scale_downs += 1
            elif pressured:
                reason = f"pressured {self._pressured_rounds}/1"
            elif idle:
                reason = f"idle {self._idle_rounds}/{DOWN_AFTER}"
        if action is not None:
            self._pressured_rounds = 0
            self._idle_rounds = 0
            self._cooldown = COOLDOWN_ROUNDS
            if self.obs is not None:
                self.obs.counter(
                    "autoscaler.actions", "replica scale decisions"
                ).inc(action=action)
        self.decisions.append({
            "round": self._round,
            "action": action,
            "reason": reason,
            "queued": int(queued),
            "in_flight": int(in_flight),
            "live": int(live),
            "open_breakers": int(open_breakers),
            "load_per_replica": round(load, 4),
        })
        return action

    def stats(self) -> dict:
        """JSON-able snapshot (fabric ``stats()['autoscaler']``)."""
        return {
            "scale_ups": self.n_scale_ups,
            "scale_downs": self.n_scale_downs,
            "rounds": self._round,
            "decisions": list(self.decisions),
        }
