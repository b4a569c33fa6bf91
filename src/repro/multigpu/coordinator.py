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

Observers subscribe through :attr:`MultiGpuCoordinator.hooks` and
receive ``hook(event, payload)`` with event ``"place"`` /
``"broadcast"`` / ``"gather"`` / ``"launch"``; the communication
sanitizer mirrors the valid sets independently and reports a
cross-device stale read if a launch beats its broadcast.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..gpu.topology import Topology
from ..interp.machine import Machine
from ..runtime.cgcm import AllocationInfo, CgcmRuntime
from .placement import PlacementPlan

#: Op-hook operations that bracket a comm-lane retarget (fired with
#: both "pre" and "post" stages, possibly nested for array elements).
_ROUTED_OPS = frozenset({"map", "unmap", "release"})


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
        #: (comm-lane, was-first-map) bracket stack for nested ops.
        self._route_stack: List[Tuple[str, bool]] = []
        #: Static sizes from the plan still available for matching
        #: anonymous heap/stack units, FIFO per size in label order.
        self._size_pool: Dict[int, List[Tuple[str, int]]] = {}
        #: kernel name -> labels it writes, or None when some launch
        #: site's operands could not be traced (be conservative).
        self._kernel_writes: Dict[str, Optional[Set[str]]] = {}
        if plan is not None:
            for label in sorted(plan.assignment):
                if label.startswith("g:"):
                    continue
                size = plan.graph.sizes.get(label, 0)
                if size > 0:
                    self._size_pool.setdefault(size, []).append(
                        (label, plan.assignment[label]))
            for site in plan.graph.launches:
                if site.unknown \
                        or self._kernel_writes.get(site.kernel,
                                                   set()) is None:
                    self._kernel_writes[site.kernel] = None
                else:
                    self._kernel_writes.setdefault(
                        site.kernel, set()).update(site.writes)
        for d in topology.devices():
            self.clock.add_lane(topology.gpu_lane(d))
            self.clock.add_lane(topology.comm_lane(d))
        runtime.multigpu = self
        runtime.op_hooks.append(self._on_op)
        machine.grid_scheduler = self.schedule_launch

    # -- observers -----------------------------------------------------------

    def _emit(self, event: str, **payload) -> None:
        if self.hooks:
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
                pool = self._size_pool.get(info.size)
                if pool:
                    label, home = pool.pop(0)
        if home is None:
            home = min(self.topology.devices(),
                       key=lambda d: (self._loads[d], d))
        state = UnitHome(home, label)
        self._homes[info.base] = state
        self._loads[home] += info.size
        self.clock.count("multigpu_placements")
        self._emit("place", unit=info, device=home)
        return state

    # -- runtime op-hook: lane routing and coherence updates -----------------

    def _on_op(self, stage: str, op: str, ptr: int,
               info: AllocationInfo) -> None:
        if op not in _ROUTED_OPS:
            return
        if stage == "pre":
            state = self._homes.get(info.base)
            first_map = False
            if state is None and op == "map":
                state = self._place(info)
                first_map = True
            elif op == "map" and info.ref_count == 0:
                first_map = True
            self._route_stack.append((self.device.comm_lane, first_map))
            if state is not None:
                self.device.comm_lane = self.topology.comm_lane(state.home)
                if op == "unmap":
                    # A blocking write-back reads the home copy: wait
                    # for the gather that completed it.
                    self.clock.host_wait(state.ready_on(state.home))
            return
        # stage == "post"
        if not self._route_stack:
            return
        lane, first_map = self._route_stack.pop()
        self.device.comm_lane = lane
        state = self._homes.get(info.base)
        if state is None:
            return
        if op == "map" and first_map:
            # The upload (sync: host already dragged to its end;
            # async: note_htod recorded the finish) made the home
            # copy the only valid one.
            state.valid = {state.home}
            host = self.clock.host_time_s
            if host > state.ready_on(state.home):
                state.ready[state.home] = host
        elif op == "release" and info.ref_count == 0 \
                and not info.is_global:
            self._homes.pop(info.base, None)
            self._loads[state.home] -= info.size

    def note_htod(self, info: AllocationInfo, finish: float) -> None:
        """Record an async upload's finish as the home copy's ready
        time (called by the runtime's async map paths)."""
        state = self._homes.get(info.base)
        if state is None:
            return
        state.valid = {state.home}
        state.ready[state.home] = finish

    def unmap_deps(self, info: AllocationInfo) -> Tuple[float, ...]:
        """Extra event edges an async write-back of ``info`` must wait
        for: the gather that made the home copy complete."""
        state = self._homes.get(info.base)
        if state is None:
            return ()
        return (state.ready_on(state.home),)

    def h2d_stream(self, info: AllocationInfo) -> str:
        state = self._homes.get(info.base)
        return self.topology.h2d_stream(state.home if state else 0)

    def d2h_stream(self, info: AllocationInfo) -> str:
        state = self._homes.get(info.base)
        return self.topology.d2h_stream(state.home if state else 0)

    def d2h_streams(self) -> List[str]:
        return [self.topology.d2h_stream(d)
                for d in self.topology.devices()]

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
                   targets: List[int]) -> None:
        """Give every target device a valid copy of ``info``."""
        for dst in targets:
            if dst in state.valid:
                continue
            src = state.home if state.home in state.valid \
                else min(state.valid) if state.valid else state.home
            finish = self._peer_copy(
                src, dst, info.size, state.ready_on(src),
                f"bcast {info.name or hex(info.base)} "
                f"gpu{src}->gpu{dst}")
            state.valid.add(dst)
            state.ready[dst] = finish
            self._emit("broadcast", unit=info, src=src, dst=dst)

    # -- grid scheduling -----------------------------------------------------

    def _may_write(self, kernel_name: str, label: Optional[str]) -> bool:
        """Whether ``kernel_name`` may write the unit behind ``label``.

        True unless the placement plan has a complete access summary
        for the kernel AND the unit matched a plan label that summary
        omits from its write set -- only provably read-only operands
        skip the post-launch ownership transfer.
        """
        if label is None:
            return True
        written = self._kernel_writes.get(kernel_name, None)
        if written is None:
            return True
        return label in written

    def schedule_launch(self, kernel, grid: int, args: List,
                        total_ops: int, max_ops: int,
                        duration: float) -> bool:
        """Machine grid-scheduler hook: place one launch's span(s).

        Always returns True -- under a multi-device topology every
        grid launch is scheduled here, so even unsharded kernels run
        on the device holding (most of) their operands.
        """
        topo = self.topology
        clock = self.clock
        model = clock.model
        units = [(info, state)
                 for info in self.runtime._operand_units(kernel, args)
                 for state in (self._homes.get(info.base),)
                 if state is not None]
        # Everything mapped is read; written means writable AND the
        # plan's static access summary says this kernel writes the
        # unit's label (conservatively written when either side is
        # unknown).  Pointer-array device payloads hold translated
        # pointers kernels cannot overwrite (CGCM restriction), so
        # they are never gathered.
        writes = [(info, state) for info, state in units
                  if not info.is_read_only and not info.is_array
                  and grid > 0
                  and self._may_write(kernel.name, state.label)]
        exec_devices = sorted({state.home for _, state in units}) or [0]
        shards = self._shard_plan(kernel, grid, exec_devices, units,
                                  writes, total_ops, max_ops, duration)
        if shards is None:
            primary = max(
                exec_devices,
                key=lambda d: (sum(info.size for info, state in units
                                   if state.home == d), -d))
            shards = [(primary, grid)]
        else:
            clock.count("sharded_launches")
        shard_devices = [d for d, _ in shards]
        if self.auto_broadcast:
            for info, state in units:
                self._broadcast(info, state, shard_devices)
        self._emit("launch", kernel=kernel.name, devices=shard_devices,
                   reads=[info for info, _ in units],
                   writes=[info for info, _ in writes])
        # Compute spans: one per shard, on the shard device's compute
        # stream, after that device's copy streams and operand copies.
        finishes: Dict[int, float] = {}
        for d, n_d in shards:
            dur = model.kernel_launch_latency_s
            if grid and n_d:
                dur += model.gpu_time(total_ops * n_d / grid, max_ops)
            deps = [clock.stream_cursor(topo.h2d_stream(d)),
                    clock.stream_cursor(topo.d2h_stream(d))]
            for info, state in units:
                deps.append(state.ready_on(d))
            finishes[d] = clock.schedule(
                topo.gpu_lane(d), dur, topo.compute_stream(d),
                f"{kernel.name}[{n_d}/{grid}]", after=tuple(deps))
        # Writes collapse each written unit to a single valid copy.
        # Unsharded launches *re-home* the unit onto the executing
        # device -- gathering it back would ping-pong loop-carried
        # units between their static home and the device the loop
        # actually runs on, one full round trip per iteration.
        # Sharded launches produced partial writes on every shard
        # device, so the slices gather to the home over peer links.
        for info, state in writes:
            if len(shards) == 1:
                d = shards[0][0]
                if d != state.home:
                    self._loads[state.home] -= info.size
                    self._loads[d] += info.size
                    state.home = d
                state.valid = {d}
                state.ready[d] = max(state.ready_on(d), finishes[d])
                self._emit("gather", unit=info, dst=d)
                continue
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
            self._emit("gather", unit=info, dst=state.home)
        clock.count("multi_device_launches")
        return True

    def _shard_plan(self, kernel, grid: int, exec_devices: List[int],
                    units, writes, total_ops: int, max_ops: int,
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
