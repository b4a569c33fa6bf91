"""Idealized inspector-executor baseline (paper section 6.3).

"For comparison, we simulate an idealized inspector-executor system.
The inspector-executor system has an oracle for scheduling and
transfers exactly one byte between CPU and GPU for each accessed
allocation unit.  A compiler creates the inspector from the original
loop.  To measure performance ignoring applicability constraints, the
inspector-executor simulation ignores its applicability guard."

Concretely, for every kernel launch of a DOALL-parallelized (but
communication-unmanaged) program:

* the **inspector** walks the loop's address computations sequentially
  on the CPU: modelled as a few CPU ops per dynamic memory access;
* the **scheduler** is an oracle: zero cost;
* transfers move one byte per accessed allocation unit in, and one
  byte per written unit out, each paying the per-copy latency -- the
  pattern remains *cyclic* (both directions on every launch);
* the **executor** runs the grid with the normal GPU cost model.

Because placement is oracle-perfect, the simulation executes kernels
against host memory directly (mode ``"ie"``): correctness is free, and
only the modelled time differs.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..gpu.timing import CostModel, LANE_COMM, LANE_CPU, LANE_GPU
from ..interp.machine import Machine
from ..ir.instructions import LaunchKernel
from ..ir.module import Module
from ..ir.types import Type
from ..memory.flatmem import FlatMemory
from ..runtime.allocmap import AvlTreeMap
from ..runtime.cgcm import AllocationInfo

#: Modelled CPU ops per dynamic memory access during inspection.
INSPECTION_OPS_PER_ACCESS = 1


class _RecordingMemory:
    """Wraps a FlatMemory, recording every typed access address."""

    def __init__(self, inner: FlatMemory):
        self._inner = inner
        self.reads: List[int] = []
        self.writes: List[int] = []

    def load_scalar(self, address: int, type_: Type):
        self.reads.append(address)
        return self._inner.load_scalar(address, type_)

    def store_scalar(self, address: int, type_: Type, value) -> None:
        self.writes.append(address)
        self._inner.store_scalar(address, type_, value)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class InspectorExecutorMachine(Machine):
    """Executes a parallelized module under the idealized IE model."""

    def __init__(self, module: Module,
                 cost_model: Optional[CostModel] = None,
                 record_events: bool = False):
        super().__init__(module, cost_model, record_events)
        self._units = AvlTreeMap()
        for name, address, size in self.layout.items():
            self._units.insert(address, AllocationInfo(
                address, size, is_global=True, name=name))
        self.heap_hooks.append(self._track_heap)
        self._recorder: Optional[_RecordingMemory] = None

    # -- allocation-unit tracking ------------------------------------------

    def _track_heap(self, machine: Machine, kind: str, address: int,
                    size: int) -> None:
        if kind == "malloc" and address:
            self._units.insert(address, AllocationInfo(address, size))
        elif kind == "free" and address:
            self._units.remove(address)

    def _unit_of(self, address: int) -> int:
        """Base address of the allocation unit containing ``address``
        (stack and unregistered memory fall back to identity)."""
        entry = self._units.find_le(address)
        if entry is not None and address < entry[1].end:
            return entry[1].base
        return address & ~0xFFF  # coarse bucket for stack words

    # -- the IE launch model ---------------------------------------------------

    @property
    def memory(self) -> FlatMemory:
        if self.mode == "ie" and self._recorder is not None:
            return self._recorder  # type: ignore[return-value]
        return super().memory

    def _launch(self, inst: LaunchKernel, frame) -> None:
        kernel = inst.kernel
        grid = int(self.eval(inst.grid, frame))
        args = [self.eval(a, frame) for a in inst.args]
        self.flush_cpu()
        for hook in self.launch_hooks:
            hook(self, kernel, grid, args)
        self.kernel_launch_count += 1
        self.clock.count("kernel_launches")

        recorder = _RecordingMemory(self.cpu_memory)
        self._recorder = recorder
        previous_mode = self.mode
        self.mode = "ie"
        self._gpu_ops = 0
        max_ops = 0
        try:
            for tid in range(grid):
                before = self._gpu_ops
                self.call(kernel, [tid] + args)
                thread_ops = self._gpu_ops - before
                if thread_ops > max_ops:
                    max_ops = thread_ops
            total_ops = self._gpu_ops
        finally:
            self.mode = previous_mode
            self._recorder = None
            self._gpu_ops = 0

        model = self.clock.model
        accesses = len(recorder.reads) + len(recorder.writes)
        read_units: Set[int] = {self._unit_of(a) for a in recorder.reads}
        written_units: Set[int] = {self._unit_of(a)
                                   for a in recorder.writes}
        self.clock.count("ie_accesses", accesses)
        self.clock.count("ie_read_units", len(read_units))
        self.clock.count("ie_written_units", len(written_units))

        # Inspector: sequential CPU walk of the address computations.
        inspect_seconds = model.cpu_time(
            accesses * INSPECTION_OPS_PER_ACCESS)
        self.clock.advance(LANE_CPU, inspect_seconds,
                           f"inspect {kernel.name}")
        # Cyclic transfers: one byte per accessed unit each way.
        in_units = read_units | written_units
        if in_units:
            self.clock.advance(LANE_COMM,
                               model.transfer_time(len(in_units)),
                               f"IE HtoD {len(in_units)}B")
            self.clock.count("htod_copies")
            self.clock.count("htod_bytes", len(in_units))
        if written_units:
            self.clock.advance(LANE_COMM,
                               model.transfer_time(len(written_units)),
                               f"IE DtoH {len(written_units)}B")
            self.clock.count("dtoh_copies")
            self.clock.count("dtoh_bytes", len(written_units))
        # Executor: normal GPU grid timing.
        duration = model.kernel_launch_latency_s
        if grid:
            duration += model.gpu_time(total_ops, max_ops)
        self.clock.advance(LANE_GPU, duration, f"{kernel.name}[{grid}]")
