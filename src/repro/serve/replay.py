"""Request-trace replay: feed a JSON-lines workload through a server.

The ``repro serve --requests file.jsonl`` CLI mode replays recorded
workloads.  Each line describes one burst of requests against one
matrix::

    {"matrix": "QCD", "count": 16, "seed": 0}
    {"matrix": "path/to/matrix.mtx", "count": 4, "k": 2}
    {"matrix": "Dense", "count": 8, "cap": 50000, "timeout_s": 5.0}

``matrix`` is a Table 2 suite name or a ``.mtx`` path; ``count`` random
right-hand sides (seeded by ``seed``) are submitted back to back, so
consecutive same-matrix lines exercise the micro-batcher and the
prepared-matrix cache.  ``k > 1`` submits 2-D multi-RHS blocks instead
of single vectors.

:func:`run_replay` returns a :class:`ReplayReport` with the serving
counters, verification outcome and wall time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError, ValidationError
from .server import SpMVServer

__all__ = ["ReplaySpec", "ReplayReport", "load_requests", "run_replay"]


@dataclass(frozen=True)
class ReplaySpec:
    """One replay line: ``count`` requests against ``matrix``."""

    matrix: str
    count: int = 1
    seed: int = 0
    cap: int = 150_000
    k: int = 1
    timeout_s: float | None = None

    def __post_init__(self):
        # Field values come straight from untrusted JSON: check types
        # before the range comparisons so a malformed request file
        # surfaces as a clean ValidationError, never a TypeError.
        if not isinstance(self.matrix, str) or not self.matrix:
            raise ValidationError(
                f"matrix must be a non-empty string, got {self.matrix!r}"
            )
        for name in ("count", "seed", "cap", "k"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(
                    f"{name} must be an integer, got {value!r}"
                )
        if self.timeout_s is not None and (
            isinstance(self.timeout_s, bool)
            or not isinstance(self.timeout_s, (int, float))
        ):
            raise ValidationError(
                f"timeout_s must be a number or null, got {self.timeout_s!r}"
            )
        if self.count < 1:
            raise ValidationError(f"count must be >= 1, got {self.count}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.cap < 1:
            raise ValidationError(f"cap must be >= 1, got {self.cap}")
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")


@dataclass
class ReplayReport:
    """Outcome of one replay run."""

    requests: int
    ok: int
    errors: list[str]
    max_abs_err: float
    wall_s: float
    stats: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.requests - self.ok

    def to_dict(self) -> dict:
        return {
            "kind": "replay_report",
            "requests": int(self.requests),
            "ok": int(self.ok),
            "failed": int(self.failed),
            "errors": list(self.errors),
            "max_abs_err": float(self.max_abs_err),
            "wall_s": float(self.wall_s),
            "stats": self.stats,
        }

    def summary(self) -> str:
        cache = self.stats.get("cache", {})
        lines = [
            f"requests : {self.requests} ({self.ok} ok, {self.failed} failed)",
            f"batches  : {self.stats.get('batches', 0)} "
            f"({self.stats.get('batched_requests', 0)} requests coalesced)",
            f"cache    : {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses / "
            f"{cache.get('evictions', 0)} evictions "
            f"({cache.get('total_bytes', 0)} bytes resident)",
            f"shed     : {self.stats.get('shed', 0)}",
            f"max |y - A@x| = {self.max_abs_err:.2e}",
            f"wall     : {self.wall_s:.3f}s",
        ]
        return "\n".join(lines)


def load_requests(path) -> list[ReplaySpec]:
    """Parse a JSON-lines request file (blank lines and ``#`` comments ok)."""
    specs: list[ReplaySpec] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                blob = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            if not isinstance(blob, dict) or "matrix" not in blob:
                raise ValidationError(
                    f"{path}:{lineno}: each line needs a 'matrix' field"
                )
            known = {"matrix", "count", "seed", "cap", "k", "timeout_s"}
            unknown = set(blob) - known
            if unknown:
                raise ValidationError(
                    f"{path}:{lineno}: unknown fields {sorted(unknown)}"
                )
            try:
                specs.append(ReplaySpec(**blob))
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            except TypeError as exc:
                # Belt and braces: any type mismatch the spec's own
                # checks don't catch still gets the file:line context.
                raise ValidationError(
                    f"{path}:{lineno}: bad field value: {exc}"
                ) from exc
    if not specs:
        raise ValidationError(f"{path}: no requests found")
    return specs


def _load_matrix(name: str, cap: int):
    from ..matrices import get_spec, read_matrix_market

    if name.endswith(".mtx"):
        return read_matrix_market(name)
    spec = get_spec(name)
    return spec.load(scale=spec.scale_for_nnz(cap))


def run_replay(specs, server: SpMVServer) -> ReplayReport:
    """Replay ``specs`` (a path or a list of :class:`ReplaySpec`).

    Requests of each line are submitted back to back and the server is
    drained between lines only when threadless, so a threaded server
    sees realistic concurrent pressure.  Every response is checked
    against ``A @ x``; the report carries the largest absolute error.
    The caller owns ``server`` and closes it.

    ``server`` may also be a :class:`~repro.serve.ServeFabric` -- it
    exposes the same ``submit``/``drain``/``stats`` surface, so replays
    drive the sharded path unchanged (``repro serve --shards N``).
    """
    if isinstance(specs, (str, bytes)) or hasattr(specs, "__fspath__"):
        specs = load_requests(specs)
    matrices: dict[tuple[str, int], object] = {}
    pending: list[tuple[object, np.ndarray, object]] = []
    t0 = time.perf_counter()
    errors: list[str] = []
    attempted = 0
    for spec in specs:
        mkey = (spec.matrix, spec.cap)
        if mkey not in matrices:
            matrices[mkey] = _load_matrix(spec.matrix, spec.cap)
        A = matrices[mkey]
        rng = np.random.default_rng(spec.seed)
        for _ in range(spec.count):
            if spec.k == 1:
                x = rng.standard_normal(A.shape[1])
            else:
                x = rng.standard_normal((A.shape[1], spec.k))
            attempted += 1
            try:
                fut = server.submit(A, x, timeout_s=spec.timeout_s)
            except ReproError as exc:
                errors.append(f"{spec.matrix}: {type(exc).__name__}: {exc}")
                continue
            pending.append((A, x, fut))
    if server._thread is None:
        server.drain()
    n_ok = 0
    max_err = 0.0
    for A, x, fut in pending:
        try:
            resp = fut.result(timeout=120.0)
        except ReproError as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        n_ok += 1
        ref = A @ x
        max_err = max(max_err, float(np.abs(resp.y - ref).max(initial=0.0)))
    wall = time.perf_counter() - t0
    return ReplayReport(
        requests=attempted,
        ok=n_ok,
        errors=errors,
        max_abs_err=max_err,
        wall_s=wall,
        stats=server.stats(),
    )
