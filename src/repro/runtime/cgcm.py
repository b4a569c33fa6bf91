"""The CGCM run-time library (paper section 3).

Tracks allocation units (globals, heap blocks, escaping stack
variables) in a self-balancing tree map and translates CPU pointers to
equivalent GPU pointers:

* ``map(ptr)``     -- Algorithm 1: copy the allocation unit to the GPU
  (allocating if needed), bump its reference count, return the
  translated pointer.  Interior pointers keep their offset.
* ``unmap(ptr)``   -- Algorithm 2: copy the unit back to CPU memory if
  its epoch is stale and it is not read-only; at most one copy per
  epoch (epochs advance on every kernel launch).
* ``release(ptr)`` -- Algorithm 3: drop a reference; free the device
  buffer at zero (never for globals).
* ``mapArray`` / ``unmapArray`` / ``releaseArray`` -- the same for
  doubly-indirect pointers: each element is translated, and the
  translated pointer array is what lands in device memory.
* ``declareGlobal`` / ``declareAlloca`` -- registration entry points
  inserted by the compiler; heap allocations are tracked automatically
  by wrapping malloc/calloc/realloc/free.

Attach to a machine with ``CgcmRuntime(machine)``; this registers the
externals, the heap wrappers, the kernel-launch epoch hook, and the
frame-exit expiry for stack registrations.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import (CgcmRuntimeError, CgcmUnsupportedError, GpuLaunchError,
                      GpuOomError, GpuTransferError)
from ..gpu.faults import MAX_FAULT_RETRIES
from ..gpu.timing import (LANE_COMM, LANE_GPU, STREAM_COMPUTE, STREAM_D2H,
                          STREAM_H2D)
from ..interp.machine import Machine
from ..ir.instructions import Call
from ..ir.module import Module
from ..ir.values import GlobalVariable
from ..memory.layout import DEVICE_BASE, DEVICE_CAPACITY
from .allocmap import AvlTreeMap
# The entry-point name tables live in the registry (runtime/api.py);
# they are re-exported here so historical import sites keep working.
from .api import (ASYNC_RUNTIME_FUNCTIONS, ASYNC_VARIANTS,  # noqa: F401
                  ARRAY_FUNCTIONS, ENTRY_POINTS, MAP_ARRAY_FUNCTIONS,
                  MAP_FUNCTIONS, RELEASE_ARRAY_FUNCTIONS, RELEASE_FUNCTIONS,
                  RUNTIME_FUNCTION_NAMES, RUNTIME_SIGNATURES, SYNC_FUNCTION,
                  UNMAP_ARRAY_FUNCTIONS, UNMAP_FUNCTIONS)

#: Modelled CPU ops per run-time library call (tree lookup + bookkeeping).
_RUNTIME_CALL_OPS = 30

#: First virtual address of the sentinel range: translated pointers
#: minted for allocation units that could not get device memory even
#: after eviction.  The range lies beyond the simulated device, so a
#: sentinel pointer can never be dereferenced by a kernel -- the
#: launch gate degrades any launch whose operands include one to the
#: CPU path before the grid runs.
_SENTINEL_BASE = DEVICE_BASE + DEVICE_CAPACITY


def declare_runtime(module: Module) -> Dict[str, "object"]:
    """Declare every run-time entry point in ``module`` (idempotent)."""
    return {name: module.declare_function(name, sig)
            for name, sig in RUNTIME_SIGNATURES.items()}


class AllocationInfo:
    """Base, size, and GPU state of one allocation unit.

    The two resilience fields qualify ``device_ptr``:

    * ``resident`` -- False when the unit's device range is minted
      (translated pointers exist) but no device memory currently backs
      it: the unit was evicted under memory pressure, or never got
      memory at all (sentinel range).  Invariant: a non-resident
      unit's *host* bytes are authoritative.
    * ``needs_refresh`` -- the host copy is newer than the resident
      device copy (a CPU-fallback launch wrote it); the next GPU
      launch using the unit re-copies host-to-device first.
    """

    __slots__ = ("base", "size", "is_global", "name", "is_read_only",
                 "ref_count", "epoch", "device_ptr", "is_array", "frame_id",
                 "resident", "needs_refresh")

    def __init__(self, base: int, size: int, is_global: bool = False,
                 name: str = "", is_read_only: bool = False,
                 frame_id: Optional[int] = None):
        self.base = base
        self.size = size
        self.is_global = is_global
        self.name = name
        self.is_read_only = is_read_only
        self.ref_count = 0
        self.epoch = -1
        self.device_ptr: Optional[int] = None
        self.is_array = False
        self.frame_id = frame_id
        self.resident = True
        self.needs_refresh = False

    @property
    def end(self) -> int:
        return self.base + self.size

    def __repr__(self) -> str:
        kind = "global " if self.is_global else ""
        return (f"<AllocationInfo {kind}[{self.base:#x},{self.end:#x}) "
                f"refs={self.ref_count} dev={self.device_ptr}>")


class CgcmRuntime:
    """The run-time half of CGCM, attached to one machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.device = machine.device
        self.alloc_map = AvlTreeMap()
        self.global_epoch = 0
        self._stack_regs: Dict[int, List[int]] = {}
        #: Streams discipline: async entry points overlap, and the
        #: machine's host load/store guard synchronizes in-flight
        #: write-backs before the CPU touches their host region.
        self.streams = getattr(machine, "streams", False)
        #: In-flight DtoH write-backs: unit base -> (unit end, modelled
        #: finish time of the copy on the d2h stream).
        self._pending_writebacks: Dict[int, tuple] = {}
        #: Times the guard or an external forced a host synchronize.
        self.guard_syncs = 0
        #: Observers of run-time library operations, called as
        #: ``hook(stage, op, ptr, info)`` with stage "pre" (before the
        #: operation mutates any state) or "post" (after it finished),
        #: and op one of "map"/"unmap"/"release" or -- from the
        #: resilience subsystem -- "evict"/"restore"/"refresh"/"flush".
        #: ``mapArray`` and ``releaseArray`` notify for the
        #: pointer-array unit itself; per-element work (and all of
        #: ``unmapArray``'s) notifies through the scalar entry points
        #: they call.
        self.op_hooks: List[Callable[[str, str, int, AllocationInfo],
                                     None]] = []
        #: Serve-layer cross-request sharing registry (see
        #: ``repro.serve.sharing.SharedMappingRegistry``).  When set,
        #: the first map of a read-only unit whose exact content is
        #: already device-resident on behalf of another in-flight
        #: request elides the modelled HtoD charge: the bytes still
        #: land in this machine's device memory (the simulator's
        #: eager-data model needs them there), but the modelled world
        #: shares one device copy.  None = every map pays its copy.
        self.shared_mappings = None
        machine.launch_hooks.append(self._on_launch)
        machine.heap_hooks.append(self._on_heap)
        machine.frame_exit_hooks.append(self._on_frame_exit)
        machine.externals.update({
            "map": lambda m, a: self.map_ptr(int(a[0])),
            "unmap": lambda m, a: self.unmap_ptr(int(a[0])),
            "release": lambda m, a: self.release_ptr(int(a[0])),
            "mapArray": lambda m, a: self.map_array(int(a[0])),
            "unmapArray": lambda m, a: self.unmap_array(int(a[0])),
            "releaseArray": lambda m, a: self.release_array(int(a[0])),
            "declareAlloca": lambda m, a: self.declare_alloca(int(a[0])),
            "declareGlobal": self._declare_global_external,
            "mapAsync": lambda m, a: self.map_ptr_async(int(a[0])),
            "unmapAsync": lambda m, a: self.unmap_ptr_async(int(a[0])),
            "mapArrayAsync": lambda m, a: self.map_array_async(int(a[0])),
            "unmapArrayAsync":
                lambda m, a: self.unmap_array_async(int(a[0])),
            "cgcmSync": lambda m, a: self.sync(),
        })
        machine.external_types.update(RUNTIME_SIGNATURES)
        if self.streams:
            machine.writeback_guard = (self._pending_writebacks,
                                       self._guard_mem)
            self._wrap_memory_externals()
        #: Resilience subsystem (repro.resilience): armed whenever the
        #: device can fail (fault injector or heap cap).  The runtime
        #: then owns the machine's launch gate, an LRU of evictable
        #: units, and a device-address index for reverse translation.
        self.resilient = (machine.device.fault_injector is not None
                          or machine.device.heap_limit is not None)
        #: Multi-GPU coordinator (repro.multigpu) when the execution
        #: runs under a multi-device topology; it owns per-unit device
        #: homes, routes transfers onto per-device lanes/streams via
        #: the op-hook pipeline, and shards DOALL grids.  None for the
        #: classic single-device platform.
        self.multigpu = None
        #: Resident, evictable (non-global) units in least-recently-
        #: used order: dict insertion order, oldest first.
        self._lru: Dict[int, AllocationInfo] = {}
        #: Every unit with a minted device range (resident, evicted,
        #: or sentinel), keyed by device base -- the reverse index the
        #: launch gate uses to identify operand units from launch args.
        self._device_index = AvlTreeMap()
        #: Next virtual address handed to a unit that could not get
        #: device memory at all (see ``_SENTINEL_BASE``).
        self._sentinel_cursor = _SENTINEL_BASE
        #: Units a CPU-fallback launch wrote; the launch hook marks
        #: them host-authoritative after it bumps the epoch.
        self._fallback_marks: List[AllocationInfo] = []
        #: Host addresses of the globals each kernel (plus callees)
        #: references, cached per kernel name: globals reach device
        #: code without appearing in the launch argument list.
        self._kernel_globals_cache: Dict[str, Tuple[int, ...]] = {}
        if self.resilient:
            machine.launch_gate = self._launch_gate

    # -- registration ------------------------------------------------------

    def declare_global(self, name: str, base: int, size: int,
                       is_read_only: bool = False) -> None:
        """Register a global variable's allocation unit."""
        info = AllocationInfo(base, size, is_global=True, name=name,
                              is_read_only=is_read_only)
        self.alloc_map.insert(base, info)

    def declare_all_globals(self) -> None:
        """Convenience used by tests and manual-mode programs: register
        every module global (the compiler pass inserts equivalent
        ``declareGlobal`` calls at the top of ``main``)."""
        for gv in self.machine.module.globals.values():
            self.declare_global(gv.name,
                                self.machine.layout.address_of(gv.name),
                                gv.size, gv.is_read_only)

    def _declare_global_external(self, machine: Machine, args: List) -> None:
        name = machine.cpu_memory.read_c_string(int(args[0])).decode()
        self.declare_global(name, int(args[1]), int(args[2]),
                            bool(int(args[3])))

    def declare_alloca(self, size: int) -> int:
        """Allocate stack memory and register it; the registration
        expires when the owning function returns."""
        machine = self.machine
        frame = machine.current_frame
        if frame is None:
            raise CgcmRuntimeError("declareAlloca outside any function")
        base = machine.stack_allocate(size)
        info = AllocationInfo(base, size, frame_id=frame.frame_id)
        self.alloc_map.insert(base, info)
        self._stack_regs.setdefault(frame.frame_id, []).append(base)
        return base

    # -- streams guard -------------------------------------------------------

    #: Externals that read or write host memory without going through
    #: the interpreter's load/store path (and hence the write-back
    #: guard); under streams they synchronize pending write-backs
    #: first, exactly like a guarded load would.
    _MEMORY_EXTERNAL_NAMES = ("memcpy", "memset", "print_str", "free",
                              "realloc")

    def _wrap_memory_externals(self) -> None:
        externals = self.machine.externals
        for name in self._MEMORY_EXTERNAL_NAMES:
            handler = externals.get(name)
            if handler is None:
                continue
            externals[name] = self._make_syncing_handler(handler)

    def _make_syncing_handler(self, handler: Callable) -> Callable:
        def wrapped(machine: Machine, args: List):
            if self._pending_writebacks:
                self._sync_pending()
            return handler(machine, args)
        return wrapped

    def _guard_mem(self, machine: Machine, kind: str, address: int,
                   size: int) -> None:
        """``Machine.writeback_guard``: stall the host until an
        overlapping in-flight write-back completes before the CPU
        touches its region.

        Data is already in place (the simulator's eager-data model);
        this models the synchronize a real async implementation needs,
        charging the wait as idle time rather than modelled ops.
        Device addresses can never overlap host regions, so the
        machine consults the guard from host-mode code only, and only
        while a write-back is pending.
        """
        end = address + size
        for base, (unit_end, _finish) in self._pending_writebacks.items():
            if address < unit_end and base < end:
                self._sync_pending()
                return

    def _sync_pending(self) -> None:
        """Host-synchronize the d2h stream and retire every pending
        write-back.  Charges no modelled ops: the cost is purely the
        host cursor waiting for the copies to drain."""
        clock = self.machine.clock
        if self.multigpu is not None:
            for stream in self.multigpu.d2h_streams():
                clock.stream_synchronize(stream)
        else:
            clock.stream_synchronize(STREAM_D2H)
        self._pending_writebacks.clear()
        self.guard_syncs += 1

    def sync(self) -> None:
        """``cgcmSync``: make every deferred write-back CPU-visible.

        Inserted by the comm-overlap transform before CPU code that
        reads a sunk unmap's region; a no-op under the serial
        discipline (there is nothing in flight to wait for).
        """
        if not self.streams:
            return
        self.machine.flush_cpu()
        if self._pending_writebacks:
            self._sync_pending()

    # -- hooks ---------------------------------------------------------------

    def _on_launch(self, machine: Machine, kernel, grid: int,
                   args: List) -> None:
        self.global_epoch += 1
        if self._fallback_marks:
            # The gate degraded this launch to the CPU path: the CPU
            # grid is about to write the *host* copies of the operand
            # units.  Post-bump they are current-as-of-this-epoch on
            # the host (so unmap skips the stale device copy) and
            # stale on the device (so the next GPU launch refreshes).
            for info in self._fallback_marks:
                info.epoch = self.global_epoch
                info.needs_refresh = True
            self._fallback_marks = []

    def _on_heap(self, machine: Machine, kind: str, address: int,
                 size: int) -> None:
        if kind == "malloc":
            if address:
                self.alloc_map.insert(address,
                                      AllocationInfo(address, size))
        elif kind == "free":
            if not address:
                return
            entry = self.alloc_map.find(address)
            if entry is None:
                return
            if entry.ref_count > 0:
                raise CgcmRuntimeError(
                    f"free of heap block {address:#x} still mapped to the "
                    f"GPU ({entry.ref_count} references)")
            self.alloc_map.remove(address)

    def _on_frame_exit(self, machine: Machine, frame_id: int) -> None:
        for base in self._stack_regs.pop(frame_id, ()):
            info = self.alloc_map.find(base)
            if info is None:
                continue
            if info.ref_count > 0:
                raise CgcmRuntimeError(
                    f"stack variable at {base:#x} left scope while still "
                    f"mapped to the GPU")
            self.alloc_map.remove(base)

    # -- lookup ----------------------------------------------------------------

    def lookup(self, ptr: int) -> AllocationInfo:
        """Allocation unit containing ``ptr`` (greatestLTE + bound check)."""
        self._charge()
        entry = self.alloc_map.find_le(ptr)
        if entry is not None:
            info = entry[1]
            if ptr < info.end:
                return info
        raise CgcmRuntimeError(
            f"pointer {ptr:#x} does not belong to any tracked allocation "
            "unit (unregistered stack variable, foreign pointer, or "
            "out-of-bounds arithmetic)")

    def _charge(self) -> None:
        self.machine.charge_ops(_RUNTIME_CALL_OPS)

    def _notify(self, stage: str, op: str, ptr: int,
                info: AllocationInfo) -> None:
        for hook in self.op_hooks:
            hook(stage, op, ptr, info)

    # -- Algorithm 1: map -------------------------------------------------------

    def map_ptr(self, ptr: int) -> int:
        info = self.lookup(ptr)
        if self.op_hooks:
            self._notify("pre", "map", ptr, info)
        if info.ref_count == 0:
            if not info.is_global:
                if self.resilient:
                    self._alloc_device(info)
                else:
                    info.device_ptr = self.device.mem_alloc(info.size)
            else:
                info.device_ptr = self.device.module_get_global(info.name)
                info.resident = True
            self.machine.flush_cpu()
            if info.resident:
                if not self._shared_attach(ptr, info):
                    self._htod_from(info.device_ptr, info.base, info.size)
            info.epoch = self.global_epoch
            info.needs_refresh = False
            self._track_device(info)
        elif self.resilient and not info.is_global:
            self._touch(info)
        info.ref_count += 1
        assert info.device_ptr is not None
        if self.op_hooks:
            self._notify("post", "map", ptr, info)
        return info.device_ptr + (ptr - info.base)

    def _shared_attach(self, ptr: int, info: AllocationInfo) -> bool:
        """Cross-request sharing fast path for one first-map HtoD copy.

        Only read-only scalar units are eligible (pointer-array device
        payloads hold per-request translated pointers).  On a registry
        hit the unit's bytes are written into this machine's device
        memory *without* a modelled transfer -- in the modeled world
        the in-flight holder's device copy is shared -- and the hook
        pipeline is told via a ``share`` operation so the sanitizer
        can verify the copy is never mutated.  Returns True when the
        charged copy was elided.
        """
        registry = self.shared_mappings
        if registry is None or not info.is_read_only or info.is_array:
            return False
        content = self.machine.cpu_memory.read(info.base, info.size)
        if not registry.attach(info.name or hex(info.base), content):
            return False
        self.device.memory.write(info.device_ptr, content)
        clock = self.machine.clock
        clock.count("shared_attaches")
        clock.count("htod_bytes_saved", info.size)
        if self.op_hooks:
            self._notify("post", "share", ptr, info)
        return True

    # -- Algorithm 2: unmap -----------------------------------------------------

    def unmap_ptr(self, ptr: int) -> None:
        info = self.lookup(ptr)
        if self.op_hooks:
            self._notify("pre", "unmap", ptr, info)
        if info.epoch == self.global_epoch or info.is_read_only:
            if self.op_hooks:
                self._notify("post", "unmap", ptr, info)
            return
        if not info.resident or info.needs_refresh:
            # Resilience invariant: a non-resident (evicted/sentinel)
            # or CPU-fallback-written unit's host bytes are already
            # authoritative; there is nothing newer to copy back.
            info.epoch = self.global_epoch
            if self.op_hooks:
                self._notify("post", "unmap", ptr, info)
            return
        if info.device_ptr is None:
            raise CgcmRuntimeError(
                f"unmap of {ptr:#x}: allocation unit has no device copy")
        self.machine.flush_cpu()
        self._dtoh_into(info.device_ptr, info.size, info.base)
        info.epoch = self.global_epoch
        if self.op_hooks:
            self._notify("post", "unmap", ptr, info)

    # -- Algorithm 3: release ---------------------------------------------------

    def release_ptr(self, ptr: int) -> None:
        info = self.lookup(ptr)
        if self.op_hooks:
            self._notify("pre", "release", ptr, info)
        if info.ref_count <= 0:
            raise CgcmRuntimeError(
                f"release of {ptr:#x} below zero references")
        info.ref_count -= 1
        if info.ref_count == 0 and not info.is_global:
            assert info.device_ptr is not None
            if self.streams:
                # Stream-ordered free: the d2h stream is FIFO, so the
                # buffer outlives any in-flight write-back of it
                # without stalling the host.
                self.device.mem_free_async(info.device_ptr,
                                           self._d2h_stream(info))
            elif info.resident:
                self.device.mem_free(info.device_ptr)
            if self.resilient or self.multigpu is not None:
                self._device_index.remove(info.device_ptr)
                self._lru.pop(info.base, None)
            info.device_ptr = None
            info.resident = True
            info.needs_refresh = False
        if self.op_hooks:
            self._notify("post", "release", ptr, info)

    # -- array (doubly indirect) variants ----------------------------------------

    def _read_pointer_array(self, info: AllocationInfo) -> List[int]:
        return self.machine.cpu_memory.read_u64_array(
            info.base, info.size // 8)

    def map_array(self, ptr: int) -> int:
        info = self.lookup(ptr)
        if self.op_hooks:
            self._notify("pre", "map", ptr, info)
        if info.ref_count == 0:
            elements = self._read_pointer_array(info)
            for element in elements:
                if element:
                    depth_guard = self.lookup(element)
                    if depth_guard.is_array:
                        raise CgcmUnsupportedError(
                            "pointers with three or more degrees of "
                            "indirection are not supported (CGCM "
                            "restriction, paper section 2.3)")
            translated = [self.map_ptr(e) if e else 0 for e in elements]
            if not info.is_global:
                if self.resilient:
                    self._alloc_device(info)
                else:
                    info.device_ptr = self.device.mem_alloc(info.size)
            else:
                info.device_ptr = self.device.module_get_global(info.name)
                info.resident = True
            self.machine.flush_cpu()
            if info.resident:
                payload = struct.pack(f"<{len(translated)}Q", *translated)
                self._htod(info.device_ptr, payload)
            info.epoch = self.global_epoch
            info.needs_refresh = False
            info.is_array = True
            self._track_device(info)
        elif self.resilient and not info.is_global:
            self._touch(info)
        info.ref_count += 1
        assert info.device_ptr is not None
        if self.op_hooks:
            self._notify("post", "map", ptr, info)
        return info.device_ptr + (ptr - info.base)

    def unmap_array(self, ptr: int) -> None:
        info = self.lookup(ptr)
        for element in self._read_pointer_array(info):
            if element:
                self.unmap_ptr(element)

    def release_array(self, ptr: int) -> None:
        info = self.lookup(ptr)
        if info.ref_count <= 0:
            if self.op_hooks:
                self._notify("pre", "release", ptr, info)
            raise CgcmRuntimeError(
                f"releaseArray of {ptr:#x} below zero references")
        if info.ref_count == 1:
            for element in self._read_pointer_array(info):
                if element:
                    self.release_ptr(element)
            info.is_array = False
        self.release_ptr(ptr)

    # -- resilience subsystem (repro.resilience) ----------------------------------
    #
    # Active when the device can fail (fault injector or heap cap).
    # Three mechanisms keep observables byte-identical under faults:
    #
    # * bounded retry + modelled backoff for transient alloc/transfer/
    #   launch faults;
    # * LRU eviction of quiescent units under memory pressure, with
    #   address-stable restore (an evicted unit re-materializes at the
    #   device address its translated pointers were minted for; freed
    #   ranges of still-minted units are never handed to new units);
    # * graceful degradation: a launch whose operands cannot all be
    #   resident runs its grid on the CPU path against host memory.

    def _track_device(self, info: AllocationInfo) -> None:
        """Index a freshly mapped unit's device range.

        Maintained for the resilience subsystem (reverse translation
        in the launch gate) and for the multi-GPU coordinator (operand
        discovery when sharding); a no-op otherwise.
        """
        if not self.resilient and self.multigpu is None:
            return
        self._device_index.insert(info.device_ptr, info)
        if not info.is_global and info.resident:
            self._lru.pop(info.base, None)
            self._lru[info.base] = info

    def _touch(self, info: AllocationInfo) -> None:
        """Mark a unit most-recently-used (dict order: oldest first)."""
        if info.base in self._lru:
            self._lru[info.base] = self._lru.pop(info.base)

    def _minted_ranges(self) -> List[Tuple[int, int]]:
        """Device ranges of evicted units that must not be reused: a
        new allocation landing there would make the evicted unit's
        already-minted translated pointers ambiguous."""
        return [(info.device_ptr, info.device_ptr + info.size)
                for info in self._device_index.values()
                if not info.resident and info.device_ptr is not None
                and info.device_ptr < _SENTINEL_BASE]

    def _backoff(self, lane: str) -> None:
        """Charge the modelled wait before retrying a failed driver call."""
        clock = self.machine.clock
        clock.advance(lane, clock.model.fault_backoff_s, "fault backoff")
        clock.count("fault_retries")

    def _htod(self, device_ptr: int, data: bytes) -> None:
        """``memcpy_htod`` with bounded retry for injected bus faults."""
        device = self.device
        if device.fault_injector is None:
            device.memcpy_htod(device_ptr, data)
            return
        attempts = 0
        while True:
            try:
                device.memcpy_htod(device_ptr, data)
                return
            except GpuTransferError:
                attempts += 1
                if attempts > MAX_FAULT_RETRIES:
                    raise
                self._backoff(LANE_COMM)

    def _dtoh(self, device_ptr: int, size: int) -> bytes:
        """``memcpy_dtoh`` with bounded retry for injected bus faults."""
        device = self.device
        if device.fault_injector is None:
            return device.memcpy_dtoh(device_ptr, size)
        attempts = 0
        while True:
            try:
                return device.memcpy_dtoh(device_ptr, size)
            except GpuTransferError:
                attempts += 1
                if attempts > MAX_FAULT_RETRIES:
                    raise
                self._backoff(LANE_COMM)

    def _htod_from(self, device_ptr: int, host_address: int,
                   size: int) -> None:
        """Whole-unit host-to-device copy, segment to segment.

        :meth:`_htod` without the staging ``bytes``: the serial
        map/restore/refresh transfers always move one contiguous
        unit, so the payload slices straight across the two address
        spaces.  Same bounded retry."""
        device = self.device
        host_memory = self.machine.cpu_memory
        if device.fault_injector is None:
            device.memcpy_htod_from(device_ptr, host_memory,
                                    host_address, size)
            return
        attempts = 0
        while True:
            try:
                device.memcpy_htod_from(device_ptr, host_memory,
                                        host_address, size)
                return
            except GpuTransferError:
                attempts += 1
                if attempts > MAX_FAULT_RETRIES:
                    raise
                self._backoff(LANE_COMM)

    def _dtoh_into(self, device_ptr: int, size: int,
                   host_address: int) -> None:
        """Whole-unit device-to-host write-back, segment to segment
        (:meth:`_dtoh` without the staging ``bytes``)."""
        device = self.device
        host_memory = self.machine.cpu_memory
        if device.fault_injector is None:
            device.memcpy_dtoh_into(device_ptr, size, host_memory,
                                    host_address)
            return
        attempts = 0
        while True:
            try:
                device.memcpy_dtoh_into(device_ptr, size, host_memory,
                                        host_address)
                return
            except GpuTransferError:
                attempts += 1
                if attempts > MAX_FAULT_RETRIES:
                    raise
                self._backoff(LANE_COMM)

    def _alloc_device(self, info: AllocationInfo) -> bool:
        """Get device memory for a freshly mapped unit, resiliently.

        Transient (injected) OOM is retried with backoff; capacity OOM
        evicts least-recently-used units and retries.  When the unit
        cannot be placed at all, it gets a *sentinel* range beyond the
        device so pointer translation still yields unique, stable
        addresses; the launch gate keeps any kernel from ever
        dereferencing them.  Returns True when the unit is resident.
        """
        avoid = self._minted_ranges()
        transient_retries = 0
        while True:
            try:
                info.device_ptr = self.device.mem_alloc(info.size, avoid)
                info.resident = True
                return True
            except GpuOomError as oom:
                if oom.transient:
                    transient_retries += 1
                    if transient_retries <= MAX_FAULT_RETRIES:
                        self._backoff(LANE_COMM)
                        continue
                if self._evict_one(frozenset()):
                    avoid = self._minted_ranges()
                    continue
                break
        info.device_ptr = self._sentinel_cursor
        self._sentinel_cursor += max((info.size + 15) // 16 * 16, 16)
        info.resident = False
        self.machine.clock.count("sentinel_units")
        return False

    def _evict_one(self, pinned: "frozenset") -> bool:
        """Evict the least-recently-used unpinned unit; False if none."""
        for base, info in self._lru.items():
            if base in pinned:
                continue
            self._evict(info)
            return True
        return False

    def _evict(self, info: AllocationInfo) -> None:
        """Reclaim one unit's device memory, preserving coherence.

        A dirty device copy (stale epoch) is written back through the
        existing DtoH path first, so the invariant "non-resident =>
        host bytes authoritative" holds.  Pointer-array units never
        write back: their device payload holds *translated* pointers
        and kernels cannot store pointers, so it is never meaningfully
        dirty -- the host array already holds the host originals.
        """
        if self.op_hooks:
            self._notify("pre", "evict", info.base, info)
        if (not info.is_read_only and not info.is_array
                and not info.needs_refresh
                and info.epoch != self.global_epoch):
            self._dtoh_into(info.device_ptr, info.size, info.base)
            info.epoch = self.global_epoch
        self.device.mem_free(info.device_ptr)
        info.resident = False
        self._lru.pop(info.base, None)
        self.machine.clock.count("device_evictions")
        if self.op_hooks:
            self._notify("post", "evict", info.base, info)

    def _array_payload(self, info: AllocationInfo) -> bytes:
        """Re-translate a pointer-array unit's device payload from the
        host array (element device ranges are address-stable, so the
        result is identical to what the original ``mapArray`` wrote)."""
        translated = []
        for element in self._read_pointer_array(info):
            if not element:
                translated.append(0)
                continue
            entry = self.alloc_map.find_le(element)
            if entry is None or element >= entry[1].end \
                    or entry[1].device_ptr is None:
                raise CgcmRuntimeError(
                    f"array unit {info.base:#x}: element {element:#x} has "
                    "no device translation during restore")
            einfo = entry[1]
            translated.append(einfo.device_ptr + (element - einfo.base))
        return struct.pack(f"<{len(translated)}Q", *translated)

    def _restore(self, info: AllocationInfo) -> None:
        """Re-materialize an evicted unit at its stable device address."""
        if self.op_hooks:
            self._notify("pre", "restore", info.base, info)
        self.machine.flush_cpu()
        if info.is_array:
            self._htod(info.device_ptr, self._array_payload(info))
        else:
            self._htod_from(info.device_ptr, info.base, info.size)
        info.resident = True
        info.epoch = self.global_epoch
        info.needs_refresh = False
        self._lru[info.base] = info
        self.machine.clock.count("device_restores")
        if self.op_hooks:
            self._notify("post", "restore", info.base, info)

    def _refresh(self, info: AllocationInfo) -> None:
        """Re-copy a host-authoritative resident unit to the device
        (its host copy was written by a CPU-fallback launch)."""
        if self.op_hooks:
            self._notify("pre", "refresh", info.base, info)
        self.machine.flush_cpu()
        if info.is_array:
            self._htod(info.device_ptr, self._array_payload(info))
        else:
            self._htod_from(info.device_ptr, info.base, info.size)
        info.epoch = self.global_epoch
        info.needs_refresh = False
        self.machine.clock.count("device_refreshes")
        if self.op_hooks:
            self._notify("post", "refresh", info.base, info)

    def _unit_for_device_ptr(self, ptr: int) -> Optional[AllocationInfo]:
        """The unit whose minted device range contains ``ptr``."""
        entry = self._device_index.find_le(ptr)
        if entry is None:
            return None
        info = entry[1]
        if info.device_ptr is None or ptr >= info.device_ptr + info.size:
            return None
        return info

    def _kernel_global_bases(self, kernel) -> Tuple[int, ...]:
        """Host base addresses of every global ``kernel`` (or anything
        it calls) references.  Globals reach device code without ever
        appearing in the launch argument list, so the gate must
        discover their units here."""
        cached = self._kernel_globals_cache.get(kernel.name)
        if cached is not None:
            return cached
        names = set()
        seen = set()
        stack = [kernel]
        while stack:
            fn = stack.pop()
            if fn.name in seen or not getattr(fn, "blocks", None):
                continue
            seen.add(fn.name)
            for inst in fn.instructions():
                for operand in inst.operands:
                    if isinstance(operand, GlobalVariable):
                        names.add(operand.name)
                if isinstance(inst, Call):
                    stack.append(inst.callee)
        layout = self.machine.layout
        bases = []
        for name in names:
            try:
                bases.append(layout.address_of(name))
            except KeyError:
                pass
        cached = tuple(sorted(bases))
        self._kernel_globals_cache[kernel.name] = cached
        return cached

    def _operand_units(self, kernel, args: List) -> List[AllocationInfo]:
        """Allocation units a launch can reach: every arg that
        reverse-translates to a minted device range, every mapped
        global the kernel references, and -- for pointer-array units
        -- every element unit the kernel can load a (translated)
        pointer to."""
        units: Dict[int, AllocationInfo] = {}

        def add(info: AllocationInfo) -> None:
            if info.base in units:
                return
            units[info.base] = info
            if not info.is_array:
                return
            for element in self._read_pointer_array(info):
                if not element:
                    continue
                entry = self.alloc_map.find_le(element)
                if entry is None:
                    continue
                einfo = entry[1]
                if element < einfo.end and einfo.device_ptr is not None:
                    add(einfo)

        for arg in args:
            if not isinstance(arg, int):
                continue
            info = self._unit_for_device_ptr(arg)
            if info is not None:
                add(info)
        for base in self._kernel_global_bases(kernel):
            entry = self.alloc_map.find(base)
            if entry is not None and entry.device_ptr is not None:
                add(entry)
        return list(units.values())

    def _resident_overlap(
            self, info: AllocationInfo) -> Optional[AllocationInfo]:
        """A resident unit occupying part of ``info``'s stable range."""
        start, end = info.device_ptr, info.device_ptr + info.size
        for other in self._device_index.values():
            if other is info or not other.resident \
                    or other.device_ptr is None:
                continue
            if other.device_ptr < end \
                    and start < other.device_ptr + other.size:
                return other
        return None

    def _make_room_at(self, info: AllocationInfo,
                      pinned: "frozenset") -> bool:
        """Free ``info``'s stable device range for an address-stable
        restore: evict resident squatters (never pinned co-operands),
        then LRU-evict until the heap cap admits the block."""
        while True:
            blocker = self._resident_overlap(info)
            if blocker is not None:
                if blocker.base in pinned or blocker.is_global:
                    return False
                self._evict(blocker)
                continue
            if self.device.mem_alloc_at(info.device_ptr, info.size):
                return True
            if not self._evict_one(pinned):
                return False

    def _ensure_resident(self, operands: List[AllocationInfo]) -> bool:
        """Make every operand unit device-resident, or report that the
        launch must degrade to the CPU path."""
        pinned = frozenset(info.base for info in operands)
        for info in operands:
            if info.resident:
                continue
            if info.device_ptr >= _SENTINEL_BASE:
                return False
            if not self._make_room_at(info, pinned):
                return False
            self._restore(info)
        return True

    def _launch_admit(self, kernel_name: str, grid: int) -> bool:
        """Driver launch call with bounded retry for injected faults."""
        attempts = 0
        while True:
            try:
                self.device.launch_begin(kernel_name, grid)
                return True
            except GpuLaunchError:
                attempts += 1
                if attempts > MAX_FAULT_RETRIES:
                    return False
                self._backoff(LANE_GPU)

    def _prepare_fallback(self, operands: List[AllocationInfo],
                          args: List) -> List:
        """Degrade one launch to the CPU path (byte-identical).

        Brings the host bytes of every operand up to date (writing
        back device-newer copies), registers the operands for
        host-authoritative marking after the epoch bump, and returns
        the launch arguments reverse-translated to host addresses.
        """
        self.machine.flush_cpu()
        for info in operands:
            if (info.resident and not info.needs_refresh
                    and not info.is_read_only and not info.is_array
                    and info.epoch != self.global_epoch):
                if self.op_hooks:
                    self._notify("pre", "flush", info.base, info)
                self._dtoh_into(info.device_ptr, info.size, info.base)
                info.epoch = self.global_epoch
                if self.op_hooks:
                    self._notify("post", "flush", info.base, info)
        self._fallback_marks = [info for info in operands
                                if not info.is_read_only
                                and not info.is_array]
        host_args: List = []
        for arg in args:
            if isinstance(arg, int):
                info = self._unit_for_device_ptr(arg)
                if info is not None:
                    host_args.append(info.base + (arg - info.device_ptr))
                    continue
            host_args.append(arg)
        return host_args

    def _launch_gate(self, kernel, grid: int, args: List) -> Optional[List]:
        """Admission control for one launch (see Machine.launch_gate).

        Returns None to run on the GPU (operands resident and
        refreshed, driver call admitted) or the reverse-translated
        host argument list to degrade the launch to the CPU path.
        """
        self._charge()
        operands = self._operand_units(kernel, args)
        if self._ensure_resident(operands):
            for info in operands:
                if info.needs_refresh:
                    self._refresh(info)
            if self._launch_admit(kernel.name, grid):
                for info in operands:
                    if not info.is_global:
                        self._touch(info)
                return None
        return self._prepare_fallback(operands, args)

    # -- asynchronous entry points (streams subsystem) ----------------------------

    def _h2d_stream(self, info: AllocationInfo) -> str:
        """Upload stream for one unit: the well-known ``h2d`` stream,
        or -- under a multi-device topology -- the h2d stream of the
        device the unit is homed on, so uploads bound for different
        devices overlap each other."""
        if self.multigpu is not None:
            return self.multigpu.h2d_stream(info)
        return STREAM_H2D

    def _d2h_stream(self, info: AllocationInfo) -> str:
        """Write-back stream for one unit (see :meth:`_h2d_stream`)."""
        if self.multigpu is not None:
            return self.multigpu.d2h_stream(info)
        return STREAM_D2H

    def map_ptr_async(self, ptr: int) -> int:
        """Prefetching ``map``: identical unit bookkeeping, but the
        HtoD copy is issued on the h2d stream without blocking the
        host.  A later launch orders itself after the copy via the
        stream cursor (see ``Machine.launch_evaluated``).  Falls back
        to :meth:`map_ptr` under the serial discipline."""
        if not self.streams:
            return self.map_ptr(ptr)
        info = self.lookup(ptr)
        if self.op_hooks:
            self._notify("pre", "map", ptr, info)
        if info.ref_count == 0:
            if not info.is_global:
                info.device_ptr = self.device.mem_alloc(info.size)
            else:
                info.device_ptr = self.device.module_get_global(info.name)
            self.machine.flush_cpu()
            data = self.machine.cpu_memory.read(info.base, info.size)
            finish = self.device.memcpy_htod_async(
                info.device_ptr, data, self._h2d_stream(info),
                after=self._writeback_deps(info))
            info.epoch = self.global_epoch
            self._track_device(info)
            if self.multigpu is not None:
                self.multigpu.note_htod(info, finish)
        info.ref_count += 1
        assert info.device_ptr is not None
        if self.op_hooks:
            self._notify("post", "map", ptr, info)
        return info.device_ptr + (ptr - info.base)

    def _writeback_deps(self, info: AllocationInfo) -> tuple:
        """Event edge for re-mapping a unit whose previous device copy
        is still being written back: the fresh HtoD must not start
        before the old DtoH finished (the host bytes it transfers are
        final only then).  Retires the unit's pending entry."""
        pending = self._pending_writebacks.pop(info.base, None)
        if pending is None:
            return ()
        return (pending[1],)

    def unmap_ptr_async(self, ptr: int) -> None:
        """Deferred-write-back ``unmap``: the DtoH copy is issued on
        the d2h stream, ordered after every launch so far (compute
        stream event), and registered so any CPU access of the host
        region synchronizes first.  Falls back to :meth:`unmap_ptr`
        under the serial discipline."""
        if not self.streams:
            return self.unmap_ptr(ptr)
        info = self.lookup(ptr)
        if self.op_hooks:
            self._notify("pre", "unmap", ptr, info)
        if info.epoch == self.global_epoch or info.is_read_only:
            if self.op_hooks:
                self._notify("post", "unmap", ptr, info)
            return
        if info.device_ptr is None:
            raise CgcmRuntimeError(
                f"unmapAsync of {ptr:#x}: allocation unit has no device "
                "copy")
        self.machine.flush_cpu()
        clock = self.machine.clock
        deps = (clock.event_record(STREAM_COMPUTE),)
        if self.multigpu is not None:
            deps = deps + self.multigpu.unmap_deps(info)
        data, finish = self.device.memcpy_dtoh_async(
            info.device_ptr, info.size, self._d2h_stream(info), after=deps)
        self.machine.cpu_memory.write(info.base, data)
        info.epoch = self.global_epoch
        self._pending_writebacks[info.base] = (info.end, finish)
        if self.op_hooks:
            self._notify("post", "unmap", ptr, info)

    def map_array_async(self, ptr: int) -> int:
        """Asynchronous :meth:`map_array`: elements prefetch through
        :meth:`map_ptr_async`, then the translated pointer array is
        itself copied on the h2d stream."""
        if not self.streams:
            return self.map_array(ptr)
        info = self.lookup(ptr)
        if self.op_hooks:
            self._notify("pre", "map", ptr, info)
        if info.ref_count == 0:
            elements = self._read_pointer_array(info)
            for element in elements:
                if element:
                    depth_guard = self.lookup(element)
                    if depth_guard.is_array:
                        raise CgcmUnsupportedError(
                            "pointers with three or more degrees of "
                            "indirection are not supported (CGCM "
                            "restriction, paper section 2.3)")
            translated = [self.map_ptr_async(e) if e else 0
                          for e in elements]
            if not info.is_global:
                info.device_ptr = self.device.mem_alloc(info.size)
            else:
                info.device_ptr = self.device.module_get_global(info.name)
            self.machine.flush_cpu()
            payload = struct.pack(f"<{len(translated)}Q", *translated)
            finish = self.device.memcpy_htod_async(
                info.device_ptr, payload, self._h2d_stream(info),
                after=self._writeback_deps(info))
            info.epoch = self.global_epoch
            info.is_array = True
            self._track_device(info)
            if self.multigpu is not None:
                self.multigpu.note_htod(info, finish)
        info.ref_count += 1
        assert info.device_ptr is not None
        if self.op_hooks:
            self._notify("post", "map", ptr, info)
        return info.device_ptr + (ptr - info.base)

    def unmap_array_async(self, ptr: int) -> None:
        """Asynchronous :meth:`unmap_array`: every element's
        write-back is deferred through :meth:`unmap_ptr_async`."""
        if not self.streams:
            return self.unmap_array(ptr)
        info = self.lookup(ptr)
        for element in self._read_pointer_array(info):
            if element:
                self.unmap_ptr_async(element)

    # -- introspection -----------------------------------------------------------

    @property
    def mapped_units(self) -> int:
        return sum(1 for info in self.alloc_map.values()
                   if info.ref_count > 0)

    def info_for(self, ptr: int) -> AllocationInfo:
        """Lookup without charging model time (tests/baselines)."""
        entry = self.alloc_map.find_le(ptr)
        if entry is None or ptr >= entry[1].end:
            raise CgcmRuntimeError(f"untracked pointer {ptr:#x}")
        return entry[1]
