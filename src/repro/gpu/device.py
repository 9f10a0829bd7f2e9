"""Simulated-device descriptors (the paper's GTX480 and GTX680).

A :class:`DeviceSpec` carries the published architectural parameters the
timing model needs.  SpMV is bandwidth-bound, so the numbers that matter
most are DRAM bandwidth, the achievable fraction of it under streaming
loads, cache sizes (for multiplied-vector locality) and the fixed costs
(kernel launch, barrier, atomic) that separate one-kernel yaSpMV from
two-kernel baselines.

Sources for the specs: NVIDIA GF100/GK104 whitepapers and the paper's
own setup (section 5).  GTX480 = Fermi, 15 SMs, 177.4 GB/s, 1345 GFLOPS
single precision; GTX680 = Kepler, 8 SMXs, 192.3 GB/s, 3090 GFLOPS.
Kepler's FLOP-to-byte ratio is twice Fermi's, which is why the paper's
bandwidth savings pay off *more* on the GTX680 -- a shape our model
reproduces by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import DeviceError

__all__ = ["DeviceSpec", "GTX480", "GTX680", "get_device", "available_devices"]


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural parameters of one simulated GPU."""

    name: str
    arch: str
    num_sms: int
    cores_per_sm: int
    warp_size: int
    clock_ghz: float
    #: Theoretical DRAM bandwidth, bytes/second.
    dram_bandwidth: float
    #: Fraction of theoretical bandwidth a streaming kernel achieves.
    achievable_bw_fraction: float
    #: Single-precision peak, FLOP/s.
    peak_flops: float
    #: Double-precision peak, FLOP/s (GeForce parts are heavily cut:
    #: GF100 runs fp64 at 1/8 of fp32, GK104 at a dismal 1/24).
    peak_flops_dp: float
    shared_mem_per_sm: int
    max_shared_mem_per_workgroup: int
    registers_per_sm: int
    max_registers_per_thread: int
    max_threads_per_sm: int
    max_workgroups_per_sm: int
    max_workgroup_size: int
    l2_bytes: int
    #: Per-SM texture / read-only data cache, bytes.
    tex_cache_bytes: int
    #: Cache line granularity for the texture path, bytes.
    tex_line_bytes: int
    #: Per-SM L1 available to *global* loads, bytes.  Fermi (GF100)
    #: caches global loads in its 16/48 KB L1, softening scattered
    #: gathers; Kepler GK104 disabled L1 for global loads (0).  This is
    #: the architectural reason row-based CSR kernels hold up better on
    #: the GTX480 and the paper's relative gains are larger on GTX680.
    l1_global_bytes: int
    #: Global-memory transaction size after coalescing, bytes.
    transaction_bytes: int
    #: Fixed kernel-launch overhead, seconds.
    kernel_launch_s: float
    #: DRAM round-trip latency, seconds (drives adjacent-sync chains).
    dram_latency_s: float
    #: Sustained same-address global-atomic service time, seconds per op
    #: (reciprocal throughput; atomics pipeline through L2, they do not
    #: pay full DRAM latency each).
    atomic_s: float
    #: Workgroup barrier cost, seconds.
    barrier_s: float

    # ------------------------------------------------------------------ #

    @property
    def total_cores(self) -> int:
        return self.num_sms * self.cores_per_sm

    @property
    def effective_bandwidth(self) -> float:
        """Bandwidth a well-coalesced streaming kernel sees, bytes/s."""
        return self.dram_bandwidth * self.achievable_bw_fraction

    @property
    def flop_byte_ratio(self) -> float:
        """Peak FLOPs per byte of DRAM bandwidth (Kepler ~2x Fermi)."""
        return self.peak_flops / self.dram_bandwidth

    def max_concurrent_workgroups(
        self,
        workgroup_size: int,
        shared_mem_per_workgroup: int = 0,
        registers_per_thread: int = 0,
    ) -> int:
        """Occupancy: concurrent workgroups one SM sustains.

        Limited by the thread budget, the workgroup-slot budget, the
        shared-memory budget and (when reported) the register file; at
        least 1 if the workgroup fits at all.
        """
        if workgroup_size < 1 or workgroup_size > self.max_workgroup_size:
            raise DeviceError(
                f"workgroup size {workgroup_size} outside [1, {self.max_workgroup_size}] "
                f"on {self.name}"
            )
        if shared_mem_per_workgroup > self.max_shared_mem_per_workgroup:
            raise DeviceError(
                f"workgroup requests {shared_mem_per_workgroup} B shared memory; "
                f"{self.name} allows {self.max_shared_mem_per_workgroup}"
            )
        by_threads = self.max_threads_per_sm // workgroup_size
        by_slots = self.max_workgroups_per_sm
        if shared_mem_per_workgroup > 0:
            by_shmem = self.shared_mem_per_sm // shared_mem_per_workgroup
        else:
            by_shmem = by_slots
        if registers_per_thread > 0:
            by_regs = self.registers_per_sm // (
                registers_per_thread * workgroup_size
            )
        else:
            by_regs = by_slots
        return max(1, min(by_threads, by_slots, by_shmem, by_regs))

    def with_overrides(self, **kw) -> "DeviceSpec":
        """Copy with selected fields replaced (for what-if studies)."""
        return replace(self, **kw)

    def __hash__(self) -> int:
        # Equal specs share a name, so hashing the name alone agrees
        # with equality; a ``with_overrides`` copy that keeps the name
        # hashes alike and still compares unequal.  Memos keyed by a
        # device look it up on every launch, and the generated hash
        # walks all the fields.
        return hash(self.name)


GTX480 = DeviceSpec(
    name="gtx480",
    arch="fermi-gf100",
    num_sms=15,
    cores_per_sm=32,
    warp_size=32,
    clock_ghz=1.401,
    dram_bandwidth=177.4e9,
    achievable_bw_fraction=0.75,
    peak_flops=1345.0e9,
    peak_flops_dp=168.0e9,
    shared_mem_per_sm=48 * 1024,
    max_shared_mem_per_workgroup=48 * 1024,
    registers_per_sm=32768,
    max_registers_per_thread=63,
    max_threads_per_sm=1536,
    max_workgroups_per_sm=8,
    max_workgroup_size=1024,
    l2_bytes=768 * 1024,
    tex_cache_bytes=12 * 1024,
    tex_line_bytes=32,
    l1_global_bytes=16 * 1024,
    transaction_bytes=128,
    kernel_launch_s=5.0e-6,
    dram_latency_s=500e-9,
    atomic_s=8e-9,
    barrier_s=40e-9,
)

GTX680 = DeviceSpec(
    name="gtx680",
    arch="kepler-gk104",
    num_sms=8,
    cores_per_sm=192,
    warp_size=32,
    clock_ghz=1.006,
    dram_bandwidth=192.26e9,
    achievable_bw_fraction=0.78,
    peak_flops=3090.0e9,
    peak_flops_dp=129.0e9,
    shared_mem_per_sm=48 * 1024,
    max_shared_mem_per_workgroup=48 * 1024,
    registers_per_sm=65536,
    max_registers_per_thread=63,
    max_threads_per_sm=2048,
    max_workgroups_per_sm=16,
    max_workgroup_size=1024,
    l2_bytes=512 * 1024,
    tex_cache_bytes=48 * 1024,
    tex_line_bytes=32,
    l1_global_bytes=0,
    transaction_bytes=128,
    kernel_launch_s=4.0e-6,
    dram_latency_s=450e-9,
    atomic_s=4e-9,
    barrier_s=30e-9,
)

_DEVICES = {d.name: d for d in (GTX480, GTX680)}


def get_device(name: str) -> DeviceSpec:
    """Look up a device spec by name (``"gtx480"`` or ``"gtx680"``)."""
    try:
        return _DEVICES[name.lower()]
    except KeyError:
        raise DeviceError(
            f"unknown device {name!r}; available: {sorted(_DEVICES)}"
        ) from None


def available_devices() -> dict[str, DeviceSpec]:
    """Read-only view of the device registry."""
    return dict(_DEVICES)
