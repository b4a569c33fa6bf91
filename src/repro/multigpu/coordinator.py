"""Multi-GPU execution coordinator.

Attached to one :class:`~repro.interp.machine.Machine` +
:class:`~repro.runtime.cgcm.CgcmRuntime` pair when the execution runs
under a multi-device :class:`~repro.gpu.topology.Topology`.  The
coordinator is purely a *scheduler*: it never moves bytes (the
simulator's eager-data model keeps one physical backing store, which
is why N-device runs stay byte-identical to one device); it decides
which modelled lane and stream every span lands on.

Responsibilities:

* **Homes.**  Every allocation unit the runtime maps gets a *home*
  device, from the static :class:`~repro.multigpu.placement.\
  PlacementPlan` (globals by name, anonymous heap units by static
  size, the rest least-loaded).  Host<->device transfers for a unit
  occupy its home device's comm lane and h2d/d2h streams, so uploads
  bound for different devices overlap.
* **Coherence.**  Per unit, the set of devices holding a valid copy
  (``valid``) and the modelled time each copy becomes usable
  (``ready``).  Launches reading a unit on a device without a valid
  copy trigger a peer *broadcast* over the topology's links; writes
  invalidate every copy but the home's, via a *gather*.
* **Sharding.**  A DOALL kernel whose operands span several homes may
  have its grid split into contiguous blocks, one per operand device,
  each scheduled on that device's compute stream -- collectives and
  shards on different devices overlap, GC3-style.

The runtime calls the coordinator directly, and only where a unit's
routing or coherence state changes: a first map homes the unit and
routes its upload (:meth:`~MultiGpuCoordinator.begin_first_map`,
:meth:`~MultiGpuCoordinator.end_first_map`), every unmap of a homed
unit routes its write-back and waits for the home copy
(:meth:`~MultiGpuCoordinator.begin_unmap`), and the last release of a
heap or stack unit drops its home
(:meth:`~MultiGpuCoordinator.drop_home`).  ``CgcmRuntime.op_hooks``
stays free for observers.  What a launch schedule reads but never
changes is derived once: lane and stream names per coordinator, the
size pool and kernel write sets per plan, and the globals a kernel
references per kernel function (``repro.runtime.cgcm``).

Observers subscribe through :attr:`MultiGpuCoordinator.hooks` and
receive ``hook(event, payload)`` with event ``"place"`` /
``"broadcast"`` / ``"gather"`` / ``"launch"``; the communication
sanitizer mirrors the valid sets independently and reports a
cross-device stale read if a launch beats its broadcast.  Payloads
are built only while some observer is attached.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..gpu.topology import Topology
from ..interp.machine import Machine
from ..runtime.cgcm import AllocationInfo, CgcmRuntime
from .placement import PlacementPlan


class UnitHome:
    """Dynamic per-unit device state (keyed by the unit's host base)."""

    __slots__ = ("home", "valid", "ready", "label")

    def __init__(self, home: int, label: Optional[str] = None):
        self.home = home
        #: Devices holding a complete, current copy of the unit.
        self.valid: Set[int] = set()
        #: Modelled time each device's copy becomes usable.
        self.ready: Dict[int, float] = {}
        #: Placement-plan label this unit matched, if any -- the key
        #: into the plan's static per-kernel read/write sets.
        self.label = label

    def ready_on(self, device: int) -> float:
        return self.ready.get(device, 0.0)


class MultiGpuCoordinator:
    """Schedules one execution across a multi-device topology."""

    def __init__(self, machine: Machine, runtime: CgcmRuntime,
                 topology: Topology, plan: Optional[PlacementPlan] = None,
                 auto_broadcast: bool = True):
        self.machine = machine
        self.runtime = runtime
        self.topology = topology
        self.plan = plan
        #: When False, launches skip the peer broadcasts their reads
        #: need -- a seeded defect the sanitizer tests lean on.  Real
        #: executions always construct with True.
        self.auto_broadcast = auto_broadcast
        self.clock = machine.clock
        self.device = machine.device
        #: Observers: ``hook(event, payload_dict)``.
        self.hooks: List[Callable[[str, dict], None]] = []
        self._homes: Dict[int, UnitHome] = {}
        self._loads = [0] * topology.num_devices
        devices = topology.devices()
        #: Per-device lane and stream names, indexed by device.
        self._gpu_lanes = tuple(map(topology.gpu_lane, devices))
        self._comm_lanes = tuple(map(topology.comm_lane, devices))
        self._h2d_streams = tuple(map(topology.h2d_stream, devices))
        self.d2h_streams = tuple(map(topology.d2h_stream, devices))
        self._compute_streams = tuple(map(topology.compute_stream, devices))
        #: How many of the plan's statically sized labels of each size
        #: anonymous units have matched so far (FIFO, in label order).
        self._pool_taken: Dict[int, int] = {}
        #: kernel name -> labels it writes, or None when some launch
        #: site's operands could not be traced (be conservative).
        self._kernel_writes = plan.kernel_writes if plan is not None \
            else {}
        for gpu_lane, comm_lane in zip(self._gpu_lanes, self._comm_lanes):
            self.clock.add_lane(gpu_lane)
            self.clock.add_lane(comm_lane)
        runtime.multigpu = self
        machine.grid_scheduler = self.schedule_launch

    # -- observers -----------------------------------------------------------

    def _emit(self, event: str, **payload) -> None:
        """Tell every observer; callers check :attr:`hooks` first."""
        for hook in self.hooks:
            hook(event, payload)

    # -- unit homes ----------------------------------------------------------

    def _place(self, info: AllocationInfo) -> UnitHome:
        """Assign a freshly mapped unit its home device."""
        home: Optional[int] = None
        label: Optional[str] = None
        if self.plan is not None:
            if info.is_global:
                label = f"g:{info.name}"
                home = self.plan.assignment.get(label)
                if home is None:
                    label = None
            else:
                # Anonymous heap/stack unit: consume a statically-
                # placed site of the same byte size, in label order.
                # Allocation order is program order, identical across
                # engines, so this match is deterministic.
                pool = self.plan.size_pool.get(info.size, ())
                taken = self._pool_taken.get(info.size, 0)
                if taken < len(pool):
                    label, home = pool[taken]
                    self._pool_taken[info.size] = taken + 1
        if home is None:
            home = min(self.topology.devices(),
                       key=lambda d: (self._loads[d], d))
        state = UnitHome(home, label)
        self._homes[info.base] = state
        self._loads[home] += info.size
        self.clock.count("multigpu_placements")
        if self.hooks:
            self._emit("place", unit=info, device=home)
        return state

    # -- runtime entry points: lane routing and coherence --------------------
    #
    # The runtime calls these where a unit's routing or coherence state
    # changes, each just before the op hooks of the same stage, so
    # observers see every operation after the coordinator acted on it.
    # Only copies charge ``device.comm_lane``: a first map's upload and
    # an unmap's write-back.

    def begin_first_map(self, info: AllocationInfo) -> str:
        """A first map (reference count 0) starts: home the unit if it
        has none and route its upload onto the home's comm lane.
        Returns the comm lane :meth:`end_first_map` restores."""
        state = self._homes.get(info.base)
        if state is None:
            state = self._place(info)
        device = self.device
        lane = device.comm_lane
        device.comm_lane = self._comm_lanes[state.home]
        return lane

    def end_first_map(self, info: AllocationInfo, lane: str,
                      finish: Optional[float]) -> None:
        """A first map finished: the upload (blocking, so the host is
        at its end, or async with finish time ``finish``) made the home
        copy the only valid one."""
        self.device.comm_lane = lane
        state = self._homes[info.base]
        home = state.home
        state.valid = {home}
        if finish is not None:
            state.ready[home] = finish
        host = self.clock.host_time_s
        if host > state.ready_on(home):
            state.ready[home] = host

    def begin_unmap(self, info: AllocationInfo) -> Optional[str]:
        """An unmap of ``info`` starts: route any write-back onto the
        home's comm lane, and make the host wait for the gather that
        completed the home copy (a blocking write-back reads it; an
        async one is thereby ordered after it).  Returns the comm lane
        to restore after the unmap, or None for an unhomed unit."""
        state = self._homes.get(info.base)
        if state is None:
            return None
        device = self.device
        lane = device.comm_lane
        device.comm_lane = self._comm_lanes[state.home]
        self.clock.host_wait(state.ready_on(state.home))
        return lane

    def drop_home(self, info: AllocationInfo) -> None:
        """The last release of heap or stack unit ``info`` freed its
        device copy: it has no home until it is mapped again."""
        state = self._homes.pop(info.base, None)
        if state is not None:
            self._loads[state.home] -= info.size

    def h2d_stream(self, info: AllocationInfo) -> str:
        state = self._homes.get(info.base)
        return self._h2d_streams[state.home if state else 0]

    def d2h_stream(self, info: AllocationInfo) -> str:
        state = self._homes.get(info.base)
        return self.d2h_streams[state.home if state else 0]

    # -- collectives ---------------------------------------------------------

    def _peer_copy(self, src: int, dst: int, size: int, after: float,
                   label: str) -> float:
        """Schedule one peer copy along the topology's route.

        Each directed link is both an engine lane and a FIFO stream:
        copies over distinct links overlap, copies over one link
        serialize.  Multi-hop (ring) routes chain one span per link.
        Returns the modelled finish time.
        """
        per_hop = self.topology.link.transfer_time(size)
        finish = after
        for a, b in self.topology.path(src, dst):
            lane = self.topology.p2p_lane(a, b)
            self.clock.add_lane(lane)
            finish = self.clock.schedule(lane, per_hop, lane, label,
                                         after=(finish,))
        self.clock.count("p2p_copies")
        self.clock.count("p2p_bytes", size)
        return finish

    def _broadcast(self, info: AllocationInfo, state: UnitHome,
                   dst: int) -> None:
        """Give device ``dst``, which lacks one, a valid copy of
        ``info``."""
        valid = state.valid
        src = state.home if state.home in valid \
            else min(valid) if valid else state.home
        label = f"bcast {info.name or hex(info.base)} gpu{src}->gpu{dst}" \
            if self.clock.record_events else ""
        finish = self._peer_copy(src, dst, info.size, state.ready_on(src),
                                 label)
        valid.add(dst)
        state.ready[dst] = finish
        if self.hooks:
            self._emit("broadcast", unit=info, src=src, dst=dst)

    # -- grid scheduling -----------------------------------------------------

    def schedule_launch(self, kernel, grid: int, args: List,
                        total_ops: int, max_ops: int,
                        duration: float) -> bool:
        """Machine grid-scheduler hook: place one launch's span(s).

        Always returns True -- under a multi-device topology every
        grid launch is scheduled here, so even unsharded kernels run
        on the device holding (most of) their operands.
        """
        homes = self._homes
        units = []
        device = -1
        mixed = False
        for info in self.runtime._operand_units(kernel, args):
            state = homes.get(info.base)
            if state is None:
                continue
            units.append((info, state))
            if device < 0:
                device = state.home
            elif state.home != device:
                mixed = True
        # Everything mapped is read; written means writable AND the
        # plan's static access summary says this kernel writes the
        # unit's label (conservatively written when either side is
        # unknown).  Pointer-array device payloads hold translated
        # pointers kernels cannot overwrite (CGCM restriction), so
        # they are never gathered.
        writes = []
        if grid > 0:
            written = self._kernel_writes.get(kernel.name)
            writes = [(info, state) for info, state in units
                      if not info.is_read_only and not info.is_array
                      and (written is None or state.label is None
                           or state.label in written)]
        # Operands on one device (or none) run there; only operands
        # spread over several devices may shard or need a primary.
        if mixed:
            exec_devices = sorted({state.home for _, state in units})
            shards = self._shard_plan(kernel, grid, exec_devices, writes,
                                      total_ops, max_ops, duration)
            if shards is not None:
                self._schedule_sharded(kernel, grid, units, writes,
                                       shards, total_ops, max_ops)
                return True
            # The device homing the most operand bytes runs the grid.
            sizes = dict.fromkeys(exec_devices, 0)
            for info, state in units:
                sizes[state.home] += info.size
            device = max(exec_devices, key=lambda d: (sizes[d], -d))
        elif device < 0:
            device = 0
        if self.auto_broadcast:
            for info, state in units:
                if device not in state.valid:
                    self._broadcast(info, state, device)
        if self.hooks:
            self._emit("launch", kernel=kernel.name, devices=[device],
                       reads=[info for info, _ in units],
                       writes=[info for info, _ in writes])
        clock = self.clock
        finish = clock.schedule(
            self._gpu_lanes[device], duration,
            self._compute_streams[device],
            f"{kernel.name}[{grid}/{grid}]" if clock.record_events else "",
            after=(self._operands_ready(device, units),))
        # Writes collapse each written unit to a single valid copy and
        # *re-home* it onto the executing device -- gathering it back
        # would ping-pong loop-carried units between their static home
        # and the device the loop actually runs on, one full round
        # trip per iteration.
        for info, state in writes:
            if state.home != device:
                self._loads[state.home] -= info.size
                self._loads[device] += info.size
                state.home = device
            state.valid = {device}
            state.ready[device] = max(state.ready_on(device), finish)
            if self.hooks:
                self._emit("gather", unit=info, dst=device)
        clock.count("multi_device_launches")
        return True

    def _operands_ready(self, device: int, units) -> float:
        """When a grid on ``device`` may start: after that device's copy
        streams and every operand's copy there."""
        clock = self.clock
        after = max(clock.stream_cursor(self._h2d_streams[device]),
                    clock.stream_cursor(self.d2h_streams[device]))
        for _, state in units:
            ready = state.ready.get(device, 0.0)
            if ready > after:
                after = ready
        return after

    def _schedule_sharded(self, kernel, grid: int, units, writes,
                          shards: List[Tuple[int, int]], total_ops: int,
                          max_ops: int) -> None:
        """Place a launch split into ``shards``: a compute span per
        shard device, then the written slices gathered to each unit's
        home over peer links."""
        clock = self.clock
        clock.count("sharded_launches")
        devices = [d for d, _ in shards]
        if self.auto_broadcast:
            for info, state in units:
                for d in devices:
                    if d not in state.valid:
                        self._broadcast(info, state, d)
        if self.hooks:
            self._emit("launch", kernel=kernel.name, devices=devices,
                       reads=[info for info, _ in units],
                       writes=[info for info, _ in writes])
        model = clock.model
        finishes: Dict[int, float] = {}
        for d, n_d in shards:
            dur = model.kernel_launch_latency_s \
                + model.gpu_time(total_ops * n_d / grid, max_ops)
            finishes[d] = clock.schedule(
                self._gpu_lanes[d], dur, self._compute_streams[d],
                f"{kernel.name}[{n_d}/{grid}]",
                after=(self._operands_ready(d, units),))
        for info, state in writes:
            ready = state.ready_on(state.home)
            for d, n_d in shards:
                if d == state.home:
                    ready = max(ready, finishes[d])
                    continue
                finish = self._peer_copy(
                    d, state.home, info.size * n_d // grid, finishes[d],
                    f"gather {info.name or hex(info.base)} "
                    f"gpu{d}->gpu{state.home}")
                ready = max(ready, finish)
            state.valid = {state.home}
            state.ready[state.home] = ready
            if self.hooks:
                self._emit("gather", unit=info, dst=state.home)
        clock.count("multi_device_launches")

    def _shard_plan(self, kernel, grid: int, exec_devices: List[int],
                    writes, total_ops: int, max_ops: int,
                    duration: float) -> Optional[List[Tuple[int, int]]]:
        """Contiguous grid split across operand devices, or None.

        Only DOALL-marked kernels shard (iteration order is free), and
        only when the modelled compute saved beats the recurring
        gather cost -- a broadcast of a read-only operand is paid once
        and then amortized, but written units gather home every
        launch.
        """
        k = len(exec_devices)
        if k < 2 or grid < k or not getattr(kernel, "is_doall", False):
            return None
        model = self.clock.model
        n_max = -(-grid // k)
        shard_dur = model.kernel_launch_latency_s \
            + model.gpu_time(total_ops * n_max / grid, max_ops)
        gather_bytes = sum(info.size for info, _ in writes)
        recurring = self.topology.link.transfer_time(gather_bytes) \
            if gather_bytes else 0.0
        if duration - shard_dur <= recurring:
            return None
        base, rem = divmod(grid, k)
        return [(d, base + (1 if i < rem else 0))
                for i, d in enumerate(exec_devices)]
