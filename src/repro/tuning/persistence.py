"""Persisting tuned configurations.

Auto-tuning costs seconds per matrix; production libraries persist the
winner so later runs skip the search (the paper's framework keeps its
compiled-kernel hash table for the same reason).  This module stores
:class:`TuningPoint` records in a small JSON file keyed by a structural
matrix fingerprint plus the device name:

* the fingerprint hashes the sparsity *structure* (shape, nnz, row-
  pointer and column arrays), not the values -- tuned configurations
  depend only on structure;
* entries are versioned; loading an entry written by an incompatible
  schema returns a miss instead of an error.

The file itself is crash- and concurrency-safe: writes re-read the file
under an advisory lock before merging (so two processes tuning
different matrices never clobber each other's entries), the replace is
atomic and fsync'd (a crash mid-``put`` leaves the previous complete
file), the top-level payload carries a ``schema`` field, and an
unparseable file is *quarantined* -- renamed to ``<name>.corrupt`` and
treated as empty -- instead of wedging every later run.

Typical use::

    store = TuningStore("~/.cache/repro-tuning.json")
    point = store.get(A, device) or tune_and_put(store, A, device)
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..fault.injection import active_plan
from ..gpu.device import DeviceSpec
from ..kernels.config import YaSpMVConfig
from ..obs import active_observer
from ..util import as_csr
from .parameters import TuningPoint

try:  # pragma: no cover - platform-dependent
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

__all__ = ["matrix_fingerprint", "TuningStore"]

#: Per-entry payload version (embedded in each entry as ``version``).
_SCHEMA_VERSION = 1

#: Top-level file layout version.  Version 2 wraps the entries as
#: ``{"schema": 2, "entries": {...}}``; the version-1 layout (a bare
#: entry dict) is still accepted on read.
_STORE_SCHEMA = 2


@contextlib.contextmanager
def _locked(path: Path):
    """Advisory exclusive lock for read-modify-write on ``path``.

    Uses ``flock`` on a sibling ``.lock`` file so the data file itself
    can still be atomically replaced while held.  On platforms without
    ``fcntl`` the lock degrades to a no-op (single-process safety only).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX
        yield
        return
    lock_path = path.with_suffix(path.suffix + ".lock")
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    with open(lock_path, "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def matrix_fingerprint(matrix) -> str:
    """Structural hash of a sparse matrix (values excluded)."""
    return canonical_fingerprint(as_csr(matrix))


def canonical_fingerprint(csr) -> str:
    """:func:`matrix_fingerprint` of a CSR that is already canonical.

    Hashes the buffers in place, with no canonicalizing copy.  The index
    arrays are hashed at int64 width whatever their dtype, so the value
    (and every stored entry keyed by it) does not depend on scipy's
    choice of index dtype.
    """
    h = hashlib.sha256()
    h.update(np.asarray(csr.shape, dtype=np.int64))
    h.update(np.int64(csr.nnz))
    h.update(np.ascontiguousarray(csr.indptr, dtype=np.int64))
    h.update(np.ascontiguousarray(csr.indices, dtype=np.int64))
    return h.hexdigest()[:24]


def _encode(point: TuningPoint) -> dict:
    return {
        "version": _SCHEMA_VERSION,
        "block_height": point.block_height,
        "block_width": point.block_width,
        "bit_word": point.bit_word,
        "col_compress": point.col_compress,
        "slice_count": point.slice_count,
        "base_format": point.base_format,
        "kernel": asdict(point.kernel),
    }


def _decode(blob: dict) -> TuningPoint | None:
    if blob.get("version") != _SCHEMA_VERSION:
        return None
    try:
        return TuningPoint(
            block_height=blob["block_height"],
            block_width=blob["block_width"],
            bit_word=blob["bit_word"],
            col_compress=blob["col_compress"],
            slice_count=blob["slice_count"],
            # Entries written before the related-work formats existed
            # carry no base_format; they are all BCCOO.
            base_format=blob.get("base_format", "bccoo"),
            kernel=YaSpMVConfig(**blob["kernel"]),
        )
    except Exception:
        # Malformed or future-version entry: treat as a cache miss.
        return None


class TuningStore:
    """JSON-backed store of tuned configurations.

    The file is read lazily and written eagerly (every ``put`` persists),
    so concurrent readers see a consistent snapshot and a crashed run
    loses at most nothing.
    """

    def __init__(self, path):
        self.path = Path(path).expanduser()
        self._entries: dict[str, dict] | None = None
        #: Lookup statistics for this store instance.  An *invalidation*
        #: is a lookup that found an entry but could not use it (schema
        #: version mismatch or malformed payload); it also counts as a
        #: miss, so ``hits + misses`` equals total lookups.
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: Store files quarantined as corrupt (renamed ``.corrupt``).
        self.corruptions = 0

    # ------------------------------------------------------------------ #

    def _key(self, matrix, device: DeviceSpec | str) -> str:
        dev = device if isinstance(device, str) else device.name
        return f"{dev}:{matrix_fingerprint(matrix)}"

    def _quarantine(self) -> None:
        """Sideline an unparseable store file and continue empty.

        The file is renamed to ``<name>.corrupt`` (preserving the bytes
        for post-mortem) so the next write starts a fresh, valid store
        instead of failing on every run.
        """
        self.corruptions += 1
        target = self.path.with_suffix(self.path.suffix + ".corrupt")
        try:
            os.replace(self.path, target)
        except OSError:
            pass
        obs = active_observer()
        if obs.enabled:
            obs.counter(
                "store.corruptions", "tuning-store files quarantined as corrupt"
            ).inc()

    def _read_file(self) -> dict[str, dict]:
        """Parse the on-disk file into an entry dict (never raises).

        Accepts both the current ``{"schema": 2, "entries": {...}}``
        layout and the legacy bare-dict layout.  Unparseable files are
        quarantined (see :meth:`_quarantine`); files from an unknown
        future schema are left in place and treated as empty.
        """
        if not self.path.exists():
            return {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return {}
        plan = active_plan()
        if plan is not None:
            garbled = plan.corrupt_store_text(text)
            if garbled is not None:
                # Fault injection garbles the *on-disk* file so the real
                # quarantine path (rename + fresh store) is exercised.
                self.path.write_text(garbled, encoding="utf-8")
                text = garbled
        try:
            blob = json.loads(text)
        except json.JSONDecodeError:
            self._quarantine()
            return {}
        if not isinstance(blob, dict):
            self._quarantine()
            return {}
        if "schema" not in blob:
            # Legacy (version-1) layout: the entries are the top level.
            return blob
        if blob.get("schema") == _STORE_SCHEMA and isinstance(
            blob.get("entries"), dict
        ):
            return blob["entries"]
        # A future schema this build cannot read: leave the file alone
        # (a newer build owns it) and act as an empty store.
        return {}

    def _write_file(self, entries: dict[str, dict]) -> None:
        """Atomically persist ``entries`` (tmp + fsync + rename)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {"schema": _STORE_SCHEMA, "entries": entries},
            indent=1,
            sort_keys=True,
        )
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    def _load(self) -> dict[str, dict]:
        if self._entries is None:
            self._entries = self._read_file()
        return self._entries

    # ------------------------------------------------------------------ #

    def get(self, matrix, device: DeviceSpec | str) -> TuningPoint | None:
        """Stored configuration for (matrix structure, device), or None."""
        blob = self._load().get(self._key(matrix, device))
        if blob is None:
            self.misses += 1
            return None
        point = _decode(blob)
        if point is None:
            self.invalidations += 1
            self.misses += 1
            return None
        self.hits += 1
        return point

    def put(self, matrix, device: DeviceSpec | str, point: TuningPoint) -> None:
        """Persist a configuration (overwrites any previous entry).

        The write is a locked read-modify-write: the file is *re-read*
        under the lock and the new entry merged into what is actually on
        disk -- not into this instance's possibly stale snapshot -- so
        concurrent writers updating different keys both survive (the
        classic lost-update race).  The replace itself is atomic and
        fsync'd, so a crash mid-``put`` leaves the previous complete
        file.
        """
        key = self._key(matrix, device)
        blob = _encode(point)
        with _locked(self.path):
            entries = self._read_file()
            entries[key] = blob
            self._write_file(entries)
            self._entries = entries

    def __len__(self) -> int:
        return len(self._load())
