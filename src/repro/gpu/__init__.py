"""Simulated SIMT device substrate.

Stands in for the paper's GTX480/GTX680: device descriptors with the
published specs, a memory-coalescing model, a texture-cache model, a
workgroup dispatch model with in-order scheduling, adjacent
synchronization, and the analytical timing model that converts kernel
cost profiles into seconds and GFLOPS.
"""

from .adjacent_sync import (
    chain_carries,
    chain_carries_hazard,
    chain_segments,
    logical_workgroup_ids,
    propagation_delay,
)
from .caches import LRUCache, vector_read_traffic, windowed_miss_estimate
from .counters import KernelStats
from .device import GTX480, GTX680, DeviceSpec, available_devices, get_device
from .dispatch import DispatchResult, schedule_workgroups
from .memory import stream_bytes
from .timing import TimingBreakdown, TimingModel

__all__ = [
    "chain_carries",
    "chain_carries_hazard",
    "logical_workgroup_ids",
    "chain_segments",
    "propagation_delay",
    "LRUCache",
    "vector_read_traffic",
    "windowed_miss_estimate",
    "KernelStats",
    "GTX480",
    "GTX680",
    "DeviceSpec",
    "available_devices",
    "get_device",
    "DispatchResult",
    "schedule_workgroups",
    "stream_bytes",
    "TimingBreakdown",
    "TimingModel",
]
