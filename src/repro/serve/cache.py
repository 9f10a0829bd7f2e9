"""Footprint-budgeted cache of prepared (tuned + converted) matrices.

Preparing a matrix is the expensive half of serving: the auto-tuner
search plus the BCCOO/BCCOO+ conversion dwarf a single multiply by
orders of magnitude (the CMRS observation: format-conversion cost must
be cached, not repaid per call).  :class:`PreparedCache` keeps
:class:`~repro.core.engine.PreparedMatrix` instances keyed by the
matrix's structural fingerprint *plus a hash of its values* (a prepared
entry embeds the values, so same-structure/different-values matrices
must not share one) and evicts least-recently-used entries when the
total *byte footprint* exceeds a budget.

The byte accounting reuses the format layer's own model: each entry is
charged ``fmt.footprint_bytes()`` (the :mod:`repro.formats.footprint`
accounting the auto-tuner prunes with) plus the retained CSR operand's
actual array bytes, so the budget maps directly onto device/host memory
a production deployment would spend.  Buffers living in a shared-memory
arena (:meth:`PreparedMatrix.share`) are resident once system-wide and
are therefore *reported* (``stats()["shared_bytes"]``) but not charged
against the budget -- see :func:`prepared_footprint_split`.

A server finds a resident entry without hashing through :meth:`PreparedCache.match`:
an index from each entry's CSR signature (shape, stored entries, index
and value dtypes) to its keys lets a submitted CSR be compared, byte for
byte, against the few resident matrices it could be.

Thread-safe; hit/miss/eviction counters are kept both on the instance
(for tests and reports) and mirrored to the ambient observer as
``serve.cache.*`` metrics by the server.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..core.engine import PreparedMatrix

__all__ = [
    "PreparedCache",
    "prepared_footprint_bytes",
    "prepared_footprint_split",
    "CacheEntry",
]


#: Resident entries of one signature a :meth:`PreparedCache.match` compares,
#: most recently inserted first, before the caller falls back to hashing.
MATCH_CANDIDATES = 4


def _signature(csr) -> tuple:
    """What two CSRs must share before their arrays are worth comparing."""
    return (
        csr.shape,
        csr.data.shape[0],
        csr.indptr.dtype,
        csr.indices.dtype,
        csr.data.dtype,
    )


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays of one dtype (equal signatures ensure it) hold
    the same bytes.

    Identity first; then an exact compare of unsigned-integer views, so
    NaNs equal themselves and ``-0.0`` differs from ``0.0``, as in a hash
    of the bytes.
    """
    if a is b:
        return True
    if a.dtype.itemsize not in (1, 2, 4, 8):
        return a.tobytes() == b.tobytes()
    view = f"u{a.dtype.itemsize}"
    return bool(np.array_equal(a.view(view), b.view(view)))


def prepared_footprint_split(prepared: PreparedMatrix) -> dict:
    """Owned/shared/total byte accounting for one prepared matrix.

    ``total`` is the classic footprint: the converted format pays its
    :meth:`footprint_bytes` (the same accounting
    :mod:`repro.formats.footprint` uses for Table 3 and the tuner's
    block pruning) and the retained CSR source pays its actual array
    sizes (``data``/``indices``/``indptr``); a lazily-decoded entry
    (``csr is None``) counts the format alone.

    ``shared`` is the portion living in a
    :class:`~repro.core.shm.SharedArena` segment
    (:meth:`PreparedMatrix.share`): those pages exist **once**
    system-wide no matter how many caches or processes map them, so a
    budget that charged them per entry would double-count.  ``owned``
    (= ``total - shared``, floored at zero) is what an LRU budget
    should charge.
    """
    total = int(prepared.fmt.footprint_bytes())
    csr = prepared.csr
    if csr is not None:
        total += int(csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)
    shared = int(prepared.arena.nbytes) if prepared.shared else 0
    return {"owned": max(total - shared, 0), "shared": shared, "total": total}


def prepared_footprint_bytes(prepared: PreparedMatrix) -> int:
    """Bytes one cached entry is charged for: the *owned* portion of
    :func:`prepared_footprint_split` -- shared-memory buffers are
    resident once system-wide and must not be charged per entry."""
    return prepared_footprint_split(prepared)["owned"]


@dataclass
class CacheEntry:
    """One cached prepared matrix plus its charged footprint."""

    key: str
    prepared: PreparedMatrix
    #: Owned bytes -- what the LRU budget charges.
    nbytes: int
    #: Bytes resident in a shared-memory arena (reported, not charged).
    shared_nbytes: int = 0
    #: :func:`_signature` of the entry's CSR; ``None`` when the entry has
    #: no decoded CSR yet and so cannot be matched.
    signature: tuple | None = None


class PreparedCache:
    """LRU cache of prepared matrices bounded by a byte budget.

    Parameters
    ----------
    budget_bytes:
        Eviction threshold for the summed entry footprints.  ``None``
        disables eviction (unbounded).  A single entry larger than the
        whole budget is still admitted -- evicting it would make every
        request re-tune, the pathological thrash case -- so the bound is
        "total <= budget whenever more than one entry is resident".
    """

    def __init__(self, budget_bytes: int | None = None):
        if budget_bytes is not None and budget_bytes < 0:
            from ..errors import ReproError

            raise ReproError(
                f"budget_bytes must be >= 0 or None, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: Signature -> resident keys, in insertion order.
        self._index: dict[tuple, list[str]] = {}
        self._lock = threading.Lock()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> PreparedMatrix | None:
        """Look up ``key``; counts a hit or miss and refreshes recency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.prepared

    def peek(self, key: str) -> PreparedMatrix | None:
        """Look up without touching recency or the hit/miss counters."""
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else entry.prepared

    def match(self, csr) -> CacheEntry | None:
        """The resident entry whose CSR is exactly ``csr``, or ``None``.

        Only a scipy CSR is matched.  Of the resident entries with its
        :func:`_signature`, at most :data:`MATCH_CANDIDATES` are compared,
        most recently inserted first: values, then column indices, then
        row pointers, each by identity and then byte for byte.  Touches
        neither recency nor the hit/miss counters; an entry evicted while
        it was being compared is not returned.
        """
        if not (sparse.issparse(csr) and csr.format == "csr"):
            return None
        signature = _signature(csr)
        with self._lock:
            keys = self._index.get(signature)
            if not keys:
                return None
            candidates = [self._entries[k] for k in keys[-MATCH_CANDIDATES:]]
        for entry in reversed(candidates):
            resident = entry.prepared.csr
            if (
                _same_bits(csr.data, resident.data)
                and _same_bits(csr.indices, resident.indices)
                and _same_bits(csr.indptr, resident.indptr)
            ):
                with self._lock:
                    if self._entries.get(entry.key) is entry:
                        return entry
                return None
        return None

    def _unindex(self, entry: CacheEntry) -> None:
        """Drop ``entry`` from the signature index (lock held)."""
        if entry.signature is None:
            return
        keys = self._index[entry.signature]
        keys.remove(entry.key)
        if not keys:
            del self._index[entry.signature]

    def put(self, key: str, prepared: PreparedMatrix) -> list[CacheEntry]:
        """Insert (or replace) ``key``; returns the entries evicted.

        Eviction walks the LRU order until the total footprint fits the
        budget again, never evicting the entry just inserted (see class
        docstring for the single-oversized-entry policy).
        """
        split = prepared_footprint_split(prepared)
        csr = prepared.csr
        evicted: list[CacheEntry] = []
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.total_bytes -= old.nbytes
                self._unindex(old)
            entry = CacheEntry(
                key=key,
                prepared=prepared,
                nbytes=self._charge(split),
                shared_nbytes=split["shared"],
                signature=None if csr is None else _signature(csr),
            )
            self._entries[key] = entry
            self.total_bytes += entry.nbytes
            if entry.signature is not None:
                self._index.setdefault(entry.signature, []).append(key)
            if self.budget_bytes is not None:
                while self.total_bytes > self.budget_bytes and len(self._entries) > 1:
                    victim_key = next(iter(self._entries))
                    if victim_key == key:
                        # The new entry is the LRU head only when it is
                        # also the sole survivor candidate; never evict it.
                        break
                    victim = self._entries.pop(victim_key)
                    self.total_bytes -= victim.nbytes
                    self._unindex(victim)
                    self.evictions += 1
                    evicted.append(victim)
        return evicted

    def _charge(self, split: dict) -> int:
        """What an entry counts against the budget: its owned bytes
        (shared pages are resident once system-wide, whoever maps them)."""
        return split["owned"]

    def remove(self, key: str) -> bool:
        """Drop ``key`` if resident; returns whether anything was removed.

        Not counted as an eviction -- evictions are budget pressure;
        this is an explicit invalidation (the fabric drops a crashed
        shard's entries, a solver drops a matrix it finished with).
        """
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self.total_bytes -= entry.nbytes
            self._unindex(entry)
            return True

    def keys(self) -> list[str]:
        """Resident keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._index.clear()
            self.total_bytes = 0

    def stats(self) -> dict:
        """Counter snapshot (JSON-able)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "total_bytes": int(self.total_bytes),
                "shared_bytes": int(
                    sum(e.shared_nbytes for e in self._entries.values())
                ),
                "budget_bytes": self.budget_bytes,
                "hits": int(self.hits),
                "misses": int(self.misses),
                "evictions": int(self.evictions),
            }
