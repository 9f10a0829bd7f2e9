"""Global-memory streams.

GPUs service a warp's loads as whole aligned *transactions* (128 B on
both Fermi and Kepler).  A format array that a kernel's warps read or
write in unit stride -- values, column indices, bit flags, row
pointers, results -- costs :func:`stream_bytes`: its bytes rounded up
to whole transactions.  The multiplied vector's gathers are charged by
the texture-cache model (:func:`repro.gpu.caches.vector_read_traffic`),
and the comparator kernels whose lanes read apart add their 32 B
sector waste in :mod:`repro.kernels.baselines`.
"""

from __future__ import annotations

from ..util import ceil_div

__all__ = ["stream_bytes"]


def stream_bytes(n_elements: int, element_bytes: int, transaction_bytes: int = 128) -> int:
    """DRAM bytes for a perfectly coalesced unit-stride stream.

    Rounded up to whole transactions -- the floor cost of reading an
    array once.
    """
    total = n_elements * element_bytes
    return ceil_div(total, transaction_bytes) * transaction_bytes if total else 0
