"""Zero-copy prepared-matrix buffers over ``multiprocessing.shared_memory``.

A :class:`SharedArena` packs a set of named ndarrays into **one**
shared-memory segment.  The owning process creates it; any process can
:meth:`attach` from the picklable :meth:`descriptor` and map the same
physical pages as zero-copy ndarray views -- the point being that
out-of-process serve shards read one copy of a prepared matrix instead
of each deserializing its own.

Lifecycle (the refcounted-unlink contract):

* ``create`` copies the arrays in once and registers the arena in a
  per-process table keyed by segment name.
* ``attach`` in the *same* process dedups through that table (refcount
  up); in a *different* process it maps the segment read-write and
  unregisters it from that process's ``resource_tracker`` -- attaching
  must never cause a tracker to unlink a segment the owner still serves
  (the well-known multi-process ``SharedMemory`` footgun).
* ``close`` drops one reference.  At zero the descriptor is closed
  and, in the owning process only, the segment is unlinked.  Every view
  pins the mapping, so views that outlive the close stay valid and the
  pages are unmapped when the last of them is collected.  Unlinking
  removes the name; processes already attached keep valid mappings.

Module counters (:func:`shm_stats`) account segments, bytes, attaches
and unlinks so tests can assert "one copy, N mappers" instead of
trusting the plumbing.
"""

from __future__ import annotations

import os
import re
import secrets
import threading
from multiprocessing import shared_memory

import numpy as np

from ..errors import ReproError

__all__ = ["SharedArena", "shm_stats", "reset_shm_stats", "reap_orphans"]

#: 64-byte alignment for every array inside a segment (cache-line clean).
_ALIGN = 64

#: Segment names embed the creating pid -- ``reproshm-<pid>-<token>`` --
#: so :func:`reap_orphans` can tell a dead owner's leak from a live
#: owner's working set without any side-channel bookkeeping.
_NAME_PREFIX = "reproshm"
_NAME_RE = re.compile(rf"^{_NAME_PREFIX}-(\d+)-[0-9a-f]+$")

_lock = threading.Lock()
#: Per-process registry: segment name -> live SharedArena (refcount dedup).
_arenas: dict[str, "SharedArena"] = {}
_stats = {
    "segments_created": 0,
    "bytes_shared": 0,
    "attaches": 0,
    "unlinks": 0,
    "reaped": 0,
}


def shm_stats() -> dict:
    """Snapshot of this process's shared-memory accounting counters."""
    with _lock:
        return dict(_stats)


def reset_shm_stats() -> None:
    """Zero the counters (test isolation helper)."""
    with _lock:
        for key in _stats:
            _stats[key] = 0


def _round_up(n: int, multiple: int) -> int:
    return ((n + multiple - 1) // multiple) * multiple


def _segment_name() -> str:
    return f"{_NAME_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` currently names a live process."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists but not ours
        return True
    return True


def reap_orphans(shm_dir: str = "/dev/shm") -> list[str]:
    """Unlink arena segments whose owning process is gone.

    An owner that dies by SIGKILL never runs :meth:`SharedArena.close`,
    so its segments outlive it as ``/dev/shm`` files.  Because segment
    names embed the creator's pid, a scan can attribute each leak: any
    ``reproshm-<pid>-*`` entry whose pid no longer exists is an orphan
    and is unlinked here.  Segments of live processes -- including this
    one -- are never touched.  Returns the reaped segment names;
    ``shm_stats()['reaped']`` counts them.  The supervisor calls this
    after detecting worker death; it is also safe to call at any time.
    """
    reaped: list[str] = []
    try:
        entries = os.listdir(shm_dir)
    except OSError:  # pragma: no cover - non-Linux / no tmpfs
        return reaped
    for entry in entries:
        match = _NAME_RE.match(entry)
        if match is None:
            continue
        pid = int(match.group(1))
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(shm_dir, entry))
        except OSError:  # pragma: no cover - raced another reaper
            continue
        reaped.append(entry)
    if reaped:
        with _lock:
            _stats["reaped"] += len(reaped)
    return reaped


def _open_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without resource-tracker registration.

    Python 3.13 grew ``SharedMemory(..., track=False)`` for exactly
    this; on older interpreters registration is suppressed for the
    duration of the open (under the module lock, so concurrent arena
    operations cannot slip a real registration into the window).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - exercised on < 3.13
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip_shm(rname, rtype):
        if rtype != "shared_memory":
            original(rname, rtype)

    with _lock:
        resource_tracker.register = _skip_shm
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SharedArena:
    """One shared-memory segment holding a set of named ndarrays.

    Never constructed directly -- use :meth:`create` (owner) or
    :meth:`attach` (mapper).
    """

    def __init__(self, shm, layout: dict, owner: bool):
        self._shm = shm
        #: key -> (dtype_str, shape_tuple, offset)
        self._layout = layout
        self._owner = owner
        #: Ownership is pid-scoped: a fork-inherited copy of an owning
        #: arena must never unlink the segment the real owner serves.
        self._pid = os.getpid()
        self._refs = 1
        self._closed = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(cls, arrays: dict[str, np.ndarray]) -> "SharedArena":
        """Pack ``arrays`` (copied once) into a fresh segment."""
        if not arrays:
            raise ReproError("SharedArena.create needs at least one array")
        layout: dict[str, tuple[str, tuple, int]] = {}
        offset = 0
        for key, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            layout[key] = (arr.dtype.str, tuple(arr.shape), offset)
            offset += _round_up(max(arr.nbytes, 1), _ALIGN)
        while True:
            try:
                shm = shared_memory.SharedMemory(
                    name=_segment_name(), create=True, size=max(offset, 1)
                )
                break
            except FileExistsError:  # pragma: no cover - 32-bit token clash
                continue
        arena = cls(shm, layout, owner=True)
        for key, arr in arrays.items():
            view = arena.view(key)
            view[...] = np.ascontiguousarray(arr)
        with _lock:
            _arenas[shm.name] = arena
            _stats["segments_created"] += 1
            _stats["bytes_shared"] += int(shm.size)
        return arena

    @classmethod
    def attach(cls, descriptor: dict) -> "SharedArena":
        """Map the segment a :meth:`descriptor` names.

        Same-process attaches dedup onto the existing arena (refcount
        up); cross-process attaches open a new mapping and detach it
        from this process's ``resource_tracker`` so a mapper exiting (or
        its tracker cleaning up) can never unlink a segment the owner
        still serves.
        """
        name = descriptor["name"]
        with _lock:
            existing = _arenas.get(name)
            if (
                existing is not None
                and not existing._closed
                and existing._pid == os.getpid()
            ):
                existing._refs += 1
                _stats["attaches"] += 1
                return existing
        # A non-owning mapper must not let its resource tracker unlink
        # (or even track) the segment -- ownership stays with `create`.
        # Registration is suppressed during the open rather than undone
        # after it: register/unregister pairs from sibling workers race
        # in the shared tracker's name *set* (CPython bpo-39959) and
        # spray KeyError tracebacks.
        shm = _open_untracked(name)
        layout = {
            key: (dtype, tuple(shape), int(off))
            for key, (dtype, shape, off) in descriptor["layout"].items()
        }
        arena = cls(shm, layout, owner=False)
        with _lock:
            _arenas[name] = arena
            _stats["attaches"] += 1
        return arena

    # ------------------------------------------------------------------ #
    # Introspection / views
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def nbytes(self) -> int:
        return int(self._shm.size)

    @property
    def owner(self) -> bool:
        return self._owner

    def keys(self) -> list[str]:
        return list(self._layout)

    def descriptor(self) -> dict:
        """Picklable handle another process attaches from."""
        return {
            "name": self._shm.name,
            "layout": {
                key: (dtype, list(shape), off)
                for key, (dtype, shape, off) in self._layout.items()
            },
        }

    def view(self, key: str) -> np.ndarray:
        """Zero-copy ndarray view of one packed array."""
        if self._closed:
            raise ReproError(f"arena {self.name} is closed")
        try:
            dtype, shape, off = self._layout[key]
        except KeyError:
            raise ReproError(
                f"arena {self.name} holds no array {key!r}; "
                f"known: {sorted(self._layout)}"
            ) from None
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        # A memoryview slice pins the mapping (numpy itself holds no
        # buffer export), so closing the arena cannot unmap it under a
        # live view: the pages stay mapped until the last view is gone.
        window = self._shm.buf[off:off + nbytes]
        return np.frombuffer(window, dtype=dtype).reshape(shape)

    def owns(self, arr: np.ndarray) -> bool:
        """Whether ``arr`` is (a view of) memory inside this segment."""
        base = arr
        while base.base is not None and isinstance(base.base, np.ndarray):
            base = base.base
        try:
            return base.__array_interface__["data"][0] in self._span()
        except Exception:
            return False

    def _span(self) -> range:
        start = np.frombuffer(self._shm.buf, dtype=np.uint8).__array_interface__[
            "data"
        ][0]
        return range(start, start + self._shm.size)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drop one reference; at zero, unmap (and unlink when owner)."""
        with _lock:
            if self._closed:
                return
            self._refs -= 1
            if self._refs > 0:
                return
            self._closed = True
            if _arenas.get(self._shm.name) is self:
                _arenas.pop(self._shm.name, None)
            unlink = self._owner and self._pid == os.getpid()
            if unlink:
                _stats["unlinks"] += 1
        try:
            self._shm.close()
        except BufferError:
            # Live views pin the mapping, which is unmapped when the last
            # of them is collected.  The descriptor is not needed for
            # that: close it now, and drop the pinned mmap so the
            # SharedMemory finalizer does not retry the close.
            os.close(self._shm._fd)
            self._shm._fd = -1
            self._shm._mmap = None
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            if not self._closed:
                self._refs = 1
                self.close()
        except Exception:
            pass
