"""Deterministic fault injection for the simulated SpMV engine.

The paper's correctness story rests on invariants that real deployments
cannot take on faith: adjacent synchronization (section 3.2.4) assumes
in-order workgroup dispatch, and the bit-flag/delta compressions
(sections 2.1-2.2) silently produce a wrong ``y`` if a single word is
corrupted.  This module perturbs the *simulated* execution at those
exact weak points so the validation layer and the engine's fallback
chain can be exercised end to end.

Design:

* A :class:`FaultPlan` is a composition of :class:`FaultSpec` entries,
  one per *site* (see :data:`FAULT_SITES`).  Every random decision draws
  from a per-site ``numpy`` generator seeded from ``(plan seed, site)``,
  so a plan is deterministic and its per-site behaviour is independent
  of which other sites are enabled.
* Each spec carries an injection *budget* (``count``); once spent, the
  site goes quiet.  A budget of 1 models a transient fault -- the
  engine's bounded retry then succeeds on the second attempt --
  while ``count=None`` models a persistent fault that forces the
  fallback chain all the way down.
* Instrumented code (``kernels.yaspmv_common``, ``kernels.yaspmv``)
  consults :func:`active_plan`; with no plan installed every hook is a
  no-op and the hot path is byte-for-byte the un-instrumented
  computation.  The active plan is per thread: a plan installed by
  :func:`fault_scope` on one thread never reaches kernels running on
  another.

Injection never mutates a format instance: perturbations apply to the
*decoded copies* a kernel launch reads, exactly like a corrupted device
buffer would.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..errors import ReproError

__all__ = [
    "FAULT_SITES",
    "FaultSpec",
    "FaultEvent",
    "FaultPlan",
    "fault_scope",
    "active_plan",
    "resolve_site",
]

#: Every instrumented injection site.
FAULT_SITES: tuple[str, ...] = (
    # Adjacent synchronization: a workgroup's Grp_sum read returns the
    # initialization value instead of the predecessor's published sum.
    "sync.stale_grp_sum",
    # Workgroups arrive out of id order (the in-order-dispatch assumption
    # breaks); harmless iff the logical-id atomic fallback is active.
    "dispatch.out_of_order",
    # One bit of the bit-flag stream flips (a corrupted flag word read).
    "format.bitflag_flip",
    # The delta-compressed column-index stream is truncated: indices past
    # a cut point decode to the last good value.
    "format.column_truncate",
    # Tile partial sums are corrupted with NaN / Inf.
    "kernel.nan_partial",
    "kernel.inf_partial",
    # The persistent tuning store's JSON file is truncated/garbled on
    # disk (torn write by another process, bit rot).
    "store.corruption",
    # A serving-fabric shard dies with requests in flight (decided in
    # the fabric's pump loop, budgeted).
    "serve.shard_crash",
    # A serving-fabric shard turns slow: every dispatch on it carries
    # `fraction` seconds of extra simulated latency until the health
    # tracker ejects it.
    "serve.shard_slow",
    # A fabric shard's server is killed: a forked child is SIGKILL'd for
    # real, an in-process loopback drops its server and cache.  In-flight
    # futures fail, and the supervisor must detect the death and restart
    # the shard (a degraded shard restarts in-process).
    "serve.worker_kill",
    # A fabric shard's server goes silent: a forked child stops reading
    # its pipe, a loopback times out every call.  Heartbeats miss and
    # the reply timeout trips; the supervisor kills and restarts it.
    "serve.worker_hang",
    # The shared-memory arena backing a worker's warm cache keys is
    # unlinked before a restart re-prime: re-attachment fails and the
    # supervisor falls back to shipping CSR arrays for deterministic
    # re-preparation in the child.
    "serve.arena_lost",
)


def resolve_site(name: str) -> str:
    """Resolve a full site name or an unambiguous suffix of one.

    ``"stale_grp_sum"`` -> ``"sync.stale_grp_sum"``; ambiguous or
    unknown names raise a :class:`~repro.errors.ReproError` listing the
    candidates.
    """
    if name in FAULT_SITES:
        return name
    matches = [s for s in FAULT_SITES if s.endswith("." + name) or s.split(".", 1)[1] == name]
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise ReproError(f"ambiguous fault site {name!r}: matches {matches}")
    raise ReproError(f"unknown fault site {name!r}; known: {FAULT_SITES}")


@dataclass(frozen=True)
class FaultSpec:
    """One site's injection policy.

    Attributes
    ----------
    site:
        One of :data:`FAULT_SITES`.
    probability:
        Chance the site fires at each opportunity (one kernel launch is
        one opportunity).
    count:
        Injection budget; ``None`` = unbounded (persistent fault).
    fraction:
        Site-specific intensity knob: fraction of blocks corrupted
        (``kernel.*``) or the relative cut position (``format.column_truncate``).
    """

    site: str
    probability: float = 1.0
    count: int | None = 1
    fraction: float = 0.25

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ReproError(
                f"unknown fault site {self.site!r}; known: {FAULT_SITES}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.count is not None and self.count < 1:
            raise ReproError(f"count must be >= 1 or None, got {self.count}")
        if not 0.0 < self.fraction <= 1.0:
            raise ReproError(f"fraction must be in (0, 1], got {self.fraction}")


@dataclass(frozen=True)
class FaultEvent:
    """Record of one injection that actually happened."""

    site: str
    detail: tuple = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extra = ", ".join(f"{k}={v}" for k, v in self.detail)
        return f"{self.site}({extra})" if extra else self.site


class FaultPlan:
    """A seeded, composable set of fault specs.

    ``reset()`` rewinds every per-site generator and budget, so the same
    plan object replays identically -- tests and the CLI rely on that.
    """

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0):
        self.seed = int(seed)
        self.specs: dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.site in self.specs:
                raise ReproError(f"duplicate fault spec for site {spec.site!r}")
            self.specs[spec.site] = spec
        self.events: list[FaultEvent] = []
        self._rng: dict[str, np.random.Generator] = {}
        self._budget: dict[str, int | None] = {}
        self.reset()

    # ------------------------------------------------------------------ #

    @classmethod
    def single(cls, site: str, seed: int = 0, **kw) -> "FaultPlan":
        """Plan with one spec -- the common test/CLI shape."""
        return cls([FaultSpec(site=resolve_site(site), **kw)], seed=seed)

    @classmethod
    def parse(cls, spec: str, seed: int | None = None) -> "FaultPlan":
        """Build a plan from a compact spec string -- the one factory
        behind the CLI ``--fault`` flag, ``SpMVEngine(fault_plan="...")``
        and test fixtures.

        Grammar (whitespace-tolerant)::

            spec  := entry (';' entry)*
            entry := site [':' opt (',' opt)*]
            opt   := ('p'|'prob'|'probability') '=' float
                   | 'count' '=' (int | 'inf')
                   | ('f'|'fraction') '=' float
                   | 'seed' '=' int          # plan-wide

        ``site`` is a full :data:`FAULT_SITES` name or any unambiguous
        suffix of one (``"stale_grp_sum"`` -> ``"sync.stale_grp_sum"``).
        Examples::

            FaultPlan.parse("stale_grp_sum:p=0.01,seed=7")
            FaultPlan.parse("nan_partial:count=1;bitflag_flip:count=inf")

        An explicit ``seed=`` argument overrides any ``seed=`` option in
        the string.
        """
        if not isinstance(spec, str) or not spec.strip():
            raise ReproError(f"empty fault spec {spec!r}")
        specs: list[FaultSpec] = []
        parsed_seed: int | None = None
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            site_part, _, opts_part = entry.partition(":")
            kwargs: dict = {"site": resolve_site(site_part.strip())}
            for opt in filter(None, (o.strip() for o in opts_part.split(","))):
                key, eq, value = opt.partition("=")
                key, value = key.strip(), value.strip()
                if not eq or not value:
                    raise ReproError(
                        f"malformed fault option {opt!r} in {entry!r} "
                        "(expected key=value)"
                    )
                try:
                    if key in ("p", "prob", "probability"):
                        kwargs["probability"] = float(value)
                    elif key == "count":
                        kwargs["count"] = (
                            None if value.lower() in ("inf", "none") else int(value)
                        )
                    elif key in ("f", "fraction"):
                        kwargs["fraction"] = float(value)
                    elif key == "seed":
                        parsed_seed = int(value)
                    else:
                        raise ReproError(
                            f"unknown fault option {key!r} in {entry!r}; "
                            "known: p/probability, count, f/fraction, seed"
                        )
                except ValueError as exc:
                    raise ReproError(
                        f"bad value for fault option {opt!r} in {entry!r}: {exc}"
                    ) from None
            specs.append(FaultSpec(**kwargs))
        if not specs:
            raise ReproError(f"fault spec {spec!r} names no sites")
        if seed is None:
            seed = parsed_seed if parsed_seed is not None else 0
        return cls(specs, seed=seed)

    @classmethod
    def coerce(cls, plan: "FaultPlan | str | None") -> "FaultPlan | None":
        """Pass plans through, :meth:`parse` strings, keep ``None``."""
        if plan is None or isinstance(plan, FaultPlan):
            return plan
        if isinstance(plan, str):
            return cls.parse(plan)
        raise ReproError(
            f"fault_plan must be a FaultPlan, a spec string or None, "
            f"got {type(plan).__name__}"
        )

    def reset(self) -> None:
        """Rewind generators, budgets and the event log."""
        self.events = []
        for i, site in enumerate(FAULT_SITES):
            if site in self.specs:
                self._rng[site] = np.random.default_rng([self.seed, i])
                self._budget[site] = self.specs[site].count
        # Drop state of sites no longer spec'd (defensive; specs are fixed).
        for site in list(self._rng):
            if site not in self.specs:
                del self._rng[site], self._budget[site]

    def targets(self, prefix: str) -> bool:
        """True if any spec'd site starts with ``prefix`` (budget or not).

        Used by kernels to choose the instrumented execution path; the
        path itself stays exact when budgets are exhausted.
        """
        return any(site.startswith(prefix) for site in self.specs)

    def drain_events(self) -> list[FaultEvent]:
        """Return and clear the events recorded since the last drain."""
        out, self.events = self.events, []
        return out

    # ------------------------------------------------------------------ #
    # Firing machinery
    # ------------------------------------------------------------------ #

    def _fire(self, site: str) -> FaultSpec | None:
        """Draw the site's trigger; consumes budget only when it fires."""
        spec = self.specs.get(site)
        if spec is None:
            return None
        budget = self._budget[site]
        if budget is not None and budget <= 0:
            return None
        if spec.probability < 1.0 and self._rng[site].random() >= spec.probability:
            return None
        if budget is not None:
            self._budget[site] = budget - 1
        return spec

    def _record(self, site: str, **detail) -> None:
        self.events.append(FaultEvent(site=site, detail=tuple(detail.items())))

    # ------------------------------------------------------------------ #
    # Site hooks (called by instrumented code; copy-on-write)
    # ------------------------------------------------------------------ #

    def perturb_partials(self, contribs: np.ndarray) -> np.ndarray:
        """NaN/Inf corruption of per-block partial sums (``kernel.*``)."""
        out = contribs
        for site, value in (
            ("kernel.nan_partial", np.nan),
            ("kernel.inf_partial", np.inf),
        ):
            spec = self._fire(site)
            if spec is None or out.shape[0] == 0:
                continue
            n = out.shape[0]
            k = max(int(round(n * spec.fraction)), 1)
            idx = self._rng[site].choice(n, size=min(k, n), replace=False)
            if out is contribs:
                out = contribs.copy()
            out[idx] = value
            self._record(site, blocks=int(idx.shape[0]))
        return out

    def perturb_stops(self, stops: np.ndarray, n_valid: int) -> np.ndarray:
        """Flip one valid bit of the stop mask (``format.bitflag_flip``)."""
        spec = self._fire("format.bitflag_flip")
        if spec is None or n_valid == 0:
            return stops
        pos = int(self._rng["format.bitflag_flip"].integers(n_valid))
        out = stops.copy()
        out[pos] = ~out[pos]
        self._record("format.bitflag_flip", bit=pos, was_stop=bool(stops[pos]))
        return out

    def perturb_columns(self, cols: np.ndarray, n_valid: int) -> np.ndarray:
        """Truncate the column stream (``format.column_truncate``):
        indices past the cut decode to the last value before it, the
        signature of a delta stream whose tail went missing."""
        spec = self._fire("format.column_truncate")
        if spec is None or n_valid < 2:
            return cols
        cut = int(n_valid * (1.0 - spec.fraction))
        cut = min(max(cut, 1), n_valid - 1)
        out = cols.copy()
        out[cut:n_valid] = out[cut - 1]
        self._record("format.column_truncate", cut=cut, n_valid=n_valid)
        return out

    def dispatch_order(self, n_workgroups: int) -> np.ndarray | None:
        """Out-of-order arrival permutation, or ``None`` when quiet."""
        spec = self._fire("dispatch.out_of_order")
        if spec is None or n_workgroups < 2:
            return None
        order = self._rng["dispatch.out_of_order"].permutation(n_workgroups)
        # Guarantee genuine disorder (a sampled identity would silently
        # make the fault a no-op).
        if np.array_equal(order, np.arange(n_workgroups)):
            order[[0, -1]] = order[[-1, 0]]
        self._record("dispatch.out_of_order", n_workgroups=n_workgroups)
        return order

    def shard_crash(self, n_live: int) -> bool:
        """Whether a serving shard dies this scheduling round
        (``serve.shard_crash``).

        The draw happens in the *parent* (the fabric's pump loop) so it
        is deterministic regardless of shard scheduling.  The fabric picks the victim itself -- the busiest
        live shard -- so a seeded drill reliably kills a shard with
        requests in flight; this hook only decides *when*.  Never fires
        with a single live shard left (killing the last replica would
        make every outcome an error instead of a failover).
        """
        spec = self._fire("serve.shard_crash")
        if spec is None or n_live < 2:
            return False
        self._record("serve.shard_crash", n_live=n_live)
        return True

    def shard_slow(self, n_live: int) -> float | None:
        """Extra per-dispatch latency for a shard turning slow
        (``serve.shard_slow``), or ``None`` when quiet.

        The returned delay is ``fraction`` seconds of *simulated*
        latency -- the fabric feeds it to the victim shard's health
        window rather than sleeping, so drills stay fast and
        deterministic.
        """
        spec = self._fire("serve.shard_slow")
        if spec is None or n_live < 2:
            return None
        self._record("serve.shard_slow", n_live=n_live, delay_s=spec.fraction)
        return float(spec.fraction)

    def worker_kill(self, n_live: int) -> bool:
        """Whether a shard's server is killed this scheduling round
        (``serve.worker_kill``): a forked child by SIGKILL, a loopback
        by dropping its server.

        Parent-side draw, same contract as :meth:`shard_crash`: the
        fabric picks the victim (the busiest live shard) so a seeded
        drill reliably kills a server with requests in flight, and never
        fires with a single live replica left.  Unlike ``shard_crash``
        the shard is *not* marked dead -- the supervisor is expected to
        detect the death and restart it.
        """
        spec = self._fire("serve.worker_kill")
        if spec is None or n_live < 2:
            return False
        self._record("serve.worker_kill", n_live=n_live)
        return True

    def worker_hang(self, n_live: int) -> bool:
        """Whether a shard's server goes silent this round
        (``serve.worker_hang``).

        The victim stops answering (a forked child stops reading its
        pipe); detection is the shard's and the supervisor's job (reply
        timeout / heartbeat miss budget), after which the shard is killed
        and restarted.  Never fires with a single live replica left.
        """
        spec = self._fire("serve.worker_hang")
        if spec is None or n_live < 2:
            return False
        self._record("serve.worker_hang", n_live=n_live)
        return True

    def arena_lost(self) -> bool:
        """Whether a restarting shard's shared arena has vanished
        (``serve.arena_lost``).

        Drawn by a restarting shard just before it re-primes its warm
        cache keys: on fire, one handle's segment is unlinked first, so
        the attach fails and the CSR-reship fallback path is exercised
        end to end.
        """
        spec = self._fire("serve.arena_lost")
        if spec is None:
            return False
        self._record("serve.arena_lost")
        return True

    def corrupt_store_text(self, text: str) -> str | None:
        """Garbled replacement for a tuning-store file
        (``store.corruption``), or ``None`` when quiet.

        Models a torn write: the tail ``fraction`` of the file is cut
        and replaced by bytes that cannot parse as JSON, so the store's
        corruption-quarantine path is exercised end to end.
        """
        spec = self._fire("store.corruption")
        if spec is None:
            return None
        cut = max(int(len(text) * (1.0 - spec.fraction)), 0)
        self._record("store.corruption", cut=cut, length=len(text))
        return text[:cut] + '\x00{"torn":'

    def stale_mask(self, n_workgroups: int) -> np.ndarray | None:
        """Mask of workgroups whose Grp_sum read is stale, or ``None``."""
        spec = self._fire("sync.stale_grp_sum")
        if spec is None or n_workgroups < 2:
            return None
        # Workgroup 0 has no predecessor to read.
        wg = int(self._rng["sync.stale_grp_sum"].integers(1, n_workgroups))
        mask = np.zeros(n_workgroups, dtype=bool)
        mask[wg] = True
        self._record("sync.stale_grp_sum", workgroup=wg)
        return mask


# ---------------------------------------------------------------------- #
# Active-plan scope
# ---------------------------------------------------------------------- #

class _Active(threading.local):
    """This thread's active fault plan; none until a scope installs one."""

    plan: FaultPlan | None = None


_ACTIVE = _Active()


def active_plan() -> FaultPlan | None:
    """This thread's plan, installed by the innermost :func:`fault_scope`,
    if any."""
    return _ACTIVE.plan


class fault_scope:
    """Install ``plan`` as this thread's active fault plan for the
    dynamic extent of a ``with`` block, which binds the plan.

    ``fault_scope(None)`` is an explicit clean scope: no plan is active
    inside it, letting callers write one code path for both injected and
    clean runs.
    """

    __slots__ = ("_plan", "_previous")

    def __init__(self, plan: FaultPlan | None):
        self._plan = plan

    def __enter__(self) -> FaultPlan | None:
        self._previous = _ACTIVE.plan
        _ACTIVE.plan = self._plan
        return self._plan

    def __exit__(self, *exc) -> bool:
        _ACTIVE.plan = self._previous
        return False
