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

Thread-safe; hit/miss/eviction counters are kept both on the instance
(for tests and reports) and mirrored to the ambient observer as
``serve.cache.*`` metrics by the server.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..core.engine import PreparedMatrix

__all__ = [
    "PreparedCache",
    "prepared_footprint_bytes",
    "prepared_footprint_split",
    "CacheEntry",
]


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

    def put(self, key: str, prepared: PreparedMatrix) -> list[CacheEntry]:
        """Insert (or replace) ``key``; returns the entries evicted.

        Eviction walks the LRU order until the total footprint fits the
        budget again, never evicting the entry just inserted (see class
        docstring for the single-oversized-entry policy).
        """
        split = prepared_footprint_split(prepared)
        evicted: list[CacheEntry] = []
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.total_bytes -= old.nbytes
            entry = CacheEntry(
                key=key,
                prepared=prepared,
                nbytes=self._charge(split),
                shared_nbytes=split["shared"],
            )
            self._entries[key] = entry
            self.total_bytes += entry.nbytes
            if self.budget_bytes is not None:
                while self.total_bytes > self.budget_bytes and len(self._entries) > 1:
                    victim_key = next(iter(self._entries))
                    if victim_key == key:
                        # The new entry is the LRU head only when it is
                        # also the sole survivor candidate; never evict it.
                        break
                    victim = self._entries.pop(victim_key)
                    self.total_bytes -= victim.nbytes
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
            return True

    def keys(self) -> list[str]:
        """Resident keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
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
