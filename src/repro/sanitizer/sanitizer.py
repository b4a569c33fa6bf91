"""The communication sanitizer: hook-driven shadow-state checking.

``CommSanitizer(machine, runtime)`` attaches to every observation
point the platform exposes:

* ``Machine.mem_hooks``     -- every interpreted load/store, in both
  address spaces (stale-read, lost-update, pointer-mixing);
* ``Machine.launch_hooks``  -- kernel epoch tracking;
* ``Machine.heap_hooks`` / ``Machine.frame_exit_hooks`` -- allocation
  unit lifetime (shadow expiry on free and scope exit);
* ``GpuDevice.observers``   -- the simulated driver API
  (``cuMemAlloc``/``cuMemFree``/``cuMemcpyHtoD``/``cuMemcpyDtoH``);
* ``CgcmRuntime.op_hooks``  -- ``map``/``unmap``/``release`` and their
  array variants (refcount shadowing, dirty-bit maintenance,
  double-release detection).

Attach it *before* the run starts and call :meth:`finish` after it
ends; ``finish`` performs the end-of-run checks (reference leaks,
kernel updates that were never copied back) and returns the
structured :class:`~repro.sanitizer.violations.SanitizerReport`.

The sanitizer is an observer: it never changes program-visible
behavior and never charges modelled time, so a sanitized run produces
byte-identical output to an unsanitized one.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from ..gpu.device import DriverEvent, GpuDevice
from ..interp.machine import Machine
from ..memory.layout import is_device_address
from ..runtime.cgcm import AllocationInfo, CgcmRuntime
from .shadow import ShadowState, ShadowUnit
from .violations import SanitizerReport, SanitizerViolation, ViolationKind

#: Safety valve: stop recording after this many violations so a buggy
#: loop cannot flood memory with one record per iteration.
MAX_VIOLATIONS = 200


class CommSanitizer:
    """Shadow-state tracker for one machine's communication behavior."""

    def __init__(self, machine: Machine,
                 runtime: Optional[CgcmRuntime] = None,
                 max_violations: int = MAX_VIOLATIONS):
        self.machine = machine
        self.runtime = runtime
        self.device: GpuDevice = machine.device
        self.shadow = ShadowState()
        self.violations: List[SanitizerViolation] = []
        self.max_violations = max_violations
        #: Mirrors the runtime's global epoch (one tick per launch).
        self.epoch = 0
        self.stats: Dict[str, int] = {
            "kernel_launches": 0, "maps": 0, "unmaps": 0, "releases": 0,
            "host_accesses": 0, "device_accesses": 0, "htod_copies": 0,
            "dtoh_copies": 0, "evictions": 0, "restores": 0,
            "refreshes": 0, "fallback_flushes": 0, "shared_attaches": 0,
        }
        #: Device base mid-eviction: its cuMemFree is the runtime
        #: reclaiming memory, not a lifetime bug.
        self._evicting: Optional[int] = None
        self._finished = False
        #: Independent mirror of the multi-GPU coordinator's coherence
        #: state: unit base -> devices holding a valid copy, and the
        #: home assignment each unit was given.  Maintained purely
        #: from coordinator events plus the map op-hook, never read
        #: back from the coordinator -- so a coordinator that skips a
        #: broadcast cannot also hide the evidence.
        self._mg_valid: Dict[int, set] = {}
        self._mg_home: Dict[int, int] = {}
        self._multigpu = getattr(runtime, "multigpu", None)
        machine.mem_hooks.append(self._on_mem)
        machine.launch_hooks.append(self._on_launch)
        machine.heap_hooks.append(self._on_heap)
        machine.frame_exit_hooks.append(self._on_frame_exit)
        self.device.observers.append(self._on_device)
        if runtime is not None:
            runtime.op_hooks.append(self._on_op)
        if self._multigpu is not None:
            self._multigpu.hooks.append(self._on_multigpu)
            self.stats.update({"mg_broadcasts": 0, "mg_gathers": 0,
                               "mg_launches": 0})

    # -- recording ----------------------------------------------------------

    def _record(self, kind: ViolationKind, unit: str, message: str,
                address: Optional[int] = None) -> None:
        if len(self.violations) >= self.max_violations:
            return
        self.violations.append(
            SanitizerViolation(kind, unit, message, self.epoch, address))

    # -- machine hooks -------------------------------------------------------

    def _on_launch(self, machine: Machine, kernel, grid: int,
                   args: List) -> None:
        self.epoch += 1
        self.stats["kernel_launches"] += 1

    def _on_heap(self, machine: Machine, kind: str, address: int,
                 size: int) -> None:
        if kind == "free" and address:
            self.shadow.drop_base(address)

    def _on_frame_exit(self, machine: Machine, frame_id: int) -> None:
        self.shadow.drop_frame(frame_id)

    def _on_mem(self, machine: Machine, kind: str, address: int,
                size: int) -> None:
        if machine.mode == "gpu":
            self.stats["device_accesses"] += 1
            if not is_device_address(address):
                self._record(
                    ViolationKind.POINTER_MIX, f"address {address:#x}",
                    "kernel dereferenced a host pointer", address)
                return
            unit = self.shadow.device_unit_at(address)
            if unit is None:
                # Device stack or scratch outside any mapped unit.
                return
            if kind == "store":
                unit.device_dirty = True
                unit.lost_reported = False
                if unit.shared:
                    # Dedup: one report per unit; the attach-digest
                    # check at finish() still covers later stores.
                    unit.shared = False
                    self._record(
                        ViolationKind.SHARED_MUTATION, unit.label,
                        "kernel stored to a read-only unit whose "
                        "device copy is shared across serve requests",
                        address)
            elif unit.host_dirty \
                    and unit.stale_reported_epoch != self.epoch:
                unit.stale_reported_epoch = self.epoch
                self._record(
                    ViolationKind.STALE_READ, unit.label,
                    f"kernel read device copy (synced at epoch "
                    f"{unit.map_epoch if unit.sync_epoch < 0 else unit.sync_epoch}) "
                    "but the host copy was modified since the last "
                    "HtoD transfer", address)
        else:
            self.stats["host_accesses"] += 1
            if is_device_address(address):
                self._record(
                    ViolationKind.POINTER_MIX, f"address {address:#x}",
                    "host code dereferenced a device pointer", address)
                return
            if self.runtime is None:
                return
            unit = self.shadow.host_unit_at(address,
                                            self.runtime.alloc_map)
            if unit is None:
                return
            if kind == "store":
                if unit.info.ref_count > 0 \
                        and unit.info.device_ptr is not None:
                    unit.host_dirty = True
            elif unit.device_dirty and not unit.lost_reported:
                unit.lost_reported = True
                self._record(
                    ViolationKind.LOST_UPDATE, unit.label,
                    "host read a unit whose device copy is dirty and "
                    "was never unmapped (kernel update lost)", address)

    # -- device driver observer ----------------------------------------------

    def _on_device(self, event: DriverEvent, address: int,
                   size: int) -> None:
        if event == DriverEvent.HTOD:
            self.stats["htod_copies"] += 1
        elif event == DriverEvent.DTOH:
            self.stats["dtoh_copies"] += 1
        elif event in (DriverEvent.FREE, DriverEvent.FREE_ASYNC):
            unit = self.shadow.device_unit_at(address)
            if unit is None:
                return
            if unit.info.ref_count > 0 and address != self._evicting:
                self._record(
                    ViolationKind.DEVICE_FREE_LIVE, unit.label,
                    f"cuMemFree of device buffer backing a unit with "
                    f"{unit.info.ref_count} live map reference(s)",
                    address)
            # The buffer is gone either way; stop matching it.
            if unit.device_base is not None:
                self.shadow.unregister_device(unit.device_base)

    # -- runtime operation hooks ----------------------------------------------

    def _on_op(self, stage: str, op: str, ptr: int,
               info: AllocationInfo) -> None:
        unit = self.shadow.unit_for(info)
        if stage == "pre":
            if op == "map":
                unit.pre_ref = info.ref_count
            elif op == "unmap":
                assert self.runtime is not None
                unit.will_copy = (
                    info.device_ptr is not None
                    and info.resident and not info.needs_refresh
                    and not info.is_read_only
                    and info.epoch != self.runtime.global_epoch)
            elif op == "evict":
                assert self.runtime is not None
                self._evicting = info.device_ptr
                unit.will_copy = (
                    not info.is_read_only and not info.is_array
                    and not info.needs_refresh
                    and info.epoch != self.runtime.global_epoch)
            elif op in ("restore", "refresh", "flush"):
                pass
            elif op == "release":
                self.stats["releases"] += 1
                unit.pre_ref = info.ref_count
                if info.ref_count <= 0:
                    self._record(
                        ViolationKind.DOUBLE_RELEASE, unit.label,
                        "release with zero outstanding references "
                        "(double release or release without map)", ptr)
            return
        # -- post stage ------------------------------------------------------
        if op == "map":
            self.stats["maps"] += 1
            if unit.pre_ref == 0:
                # A fresh HtoD copy: both images are now identical.
                unit.host_dirty = False
                unit.device_dirty = False
                unit.lost_reported = False
                unit.map_epoch = self.epoch
                self.shadow.register_device(unit)
                if info.base in self._mg_home:
                    # The upload targets the unit's home device and
                    # invalidates every peer copy.
                    self._mg_valid[info.base] = {self._mg_home[info.base]}
            if info.ref_count != unit.ref + 1:
                self._desync(unit, info, "map")
            unit.ref = info.ref_count
        elif op == "unmap":
            self.stats["unmaps"] += 1
            if unit.will_copy:
                # A DtoH copy happened: the device image won.
                unit.host_dirty = False
                unit.device_dirty = False
                unit.lost_reported = False
                unit.sync_epoch = self.epoch
                unit.will_copy = False
        elif op == "evict":
            self.stats["evictions"] += 1
            self._evicting = None
            if unit.will_copy:
                # The eviction write-back: the device image won.
                unit.host_dirty = False
                unit.device_dirty = False
                unit.lost_reported = False
                unit.sync_epoch = self.epoch
            unit.will_copy = False
            if unit.device_base is not None:
                # The FREE observer usually already unregistered it;
                # this is the belt to its braces.
                self.shadow.unregister_device(unit.device_base)
        elif op == "restore":
            # A full HtoD re-copy at the unit's stable device address:
            # both images are identical again.
            self.stats["restores"] += 1
            unit.host_dirty = False
            unit.device_dirty = False
            unit.lost_reported = False
            unit.map_epoch = self.epoch
            self.shadow.register_device(unit)
        elif op == "refresh":
            # HtoD re-copy of a host-authoritative resident unit (a
            # CPU-fallback launch wrote the host bytes).
            self.stats["refreshes"] += 1
            unit.host_dirty = False
            unit.device_dirty = False
            unit.lost_reported = False
            unit.map_epoch = self.epoch
        elif op == "flush":
            # DtoH write-back ahead of a CPU-fallback launch.
            self.stats["fallback_flushes"] += 1
            unit.host_dirty = False
            unit.device_dirty = False
            unit.lost_reported = False
            unit.sync_epoch = self.epoch
        elif op == "share":
            # The runtime elided this unit's HtoD: its device copy is
            # shared with another in-flight request.  Record the
            # content digest so finish() can prove the copy stayed
            # byte-identical, and flag sharing of anything mutable.
            self.stats["shared_attaches"] += 1
            unit.shared = True
            unit.shared_digest = hashlib.sha256(
                self.machine.cpu_memory.read(info.base,
                                             info.size)).digest()
            if not info.is_read_only:
                unit.shared = False
                self._record(
                    ViolationKind.SHARED_MUTATION, unit.label,
                    "runtime shared the device copy of a unit that is "
                    "not marked read-only", ptr)
        elif op == "release":
            if info.ref_count != unit.ref - 1:
                self._desync(unit, info, "release")
            unit.ref = info.ref_count
            if info.device_ptr is None and unit.device_base is not None:
                # Freed by the release; the observer usually already
                # unregistered it, this is the belt to its braces.
                self.shadow.unregister_device(unit.device_base)

    # -- multi-GPU coordinator observer ---------------------------------------

    def _on_multigpu(self, event: str, payload: dict) -> None:
        """Mirror coordinator coherence events and check launches.

        ``place``/``broadcast``/``gather`` maintain the mirror;
        ``launch`` is the checkpoint: every operand must already hold
        a valid copy on every device the launch runs on, or the read
        observes a peer's stale memory.
        """
        if event == "place":
            info = payload["unit"]
            self._mg_home[info.base] = payload["device"]
            self._mg_valid[info.base] = {payload["device"]}
        elif event == "broadcast":
            self.stats["mg_broadcasts"] += 1
            info = payload["unit"]
            self._mg_valid.setdefault(info.base, set()).add(payload["dst"])
        elif event == "gather":
            self.stats["mg_gathers"] += 1
            info = payload["unit"]
            self._mg_valid[info.base] = {payload["dst"]}
            self._mg_home[info.base] = payload["dst"]
        elif event == "launch":
            self.stats["mg_launches"] += 1
            devices = payload["devices"]
            for info in payload["reads"]:
                valid = self._mg_valid.get(info.base, set())
                for d in devices:
                    if d not in valid:
                        self._record(
                            ViolationKind.CROSS_DEVICE_STALE,
                            info.name or f"{info.base:#x}",
                            f"kernel {payload['kernel']} launched on "
                            f"gpu{d} but the device holds no valid "
                            f"copy of the unit (valid on "
                            f"{sorted(valid) or 'no device'}; missing "
                            "peer broadcast)")

    def _desync(self, unit: ShadowUnit, info: AllocationInfo,
                op: str) -> None:
        self._record(
            ViolationKind.SHADOW_DESYNC, unit.label,
            f"after {op}: runtime reference count {info.ref_count} != "
            f"shadow expectation {unit.ref + (1 if op == 'map' else -1)}")

    # -- end of run -----------------------------------------------------------

    def finish(self) -> SanitizerReport:
        """End-of-run checks; idempotent."""
        if not self._finished:
            self._finished = True
            for base in sorted(self.shadow.units):
                unit = self.shadow.units[base]
                if unit.info.ref_count > 0:
                    self._record(
                        ViolationKind.REFCOUNT_LEAK, unit.label,
                        f"{unit.info.ref_count} map reference(s) never "
                        "released by program exit")
                if unit.device_dirty and not unit.lost_reported:
                    unit.lost_reported = True
                    self._record(
                        ViolationKind.LOST_UPDATE, unit.label,
                        "device copy dirty at program exit; the final "
                        "unmap was skipped (kernel update lost)")
                if unit.shared_digest is not None \
                        and unit.device_base is not None:
                    digest = hashlib.sha256(self.device.memory.read(
                        unit.device_base, unit.info.size)).digest()
                    if digest != unit.shared_digest:
                        self._record(
                            ViolationKind.SHARED_MUTATION, unit.label,
                            "device bytes of a shared read-only unit "
                            "no longer match the content recorded at "
                            "share time")
        return SanitizerReport(tuple(self.violations), dict(self.stats))
