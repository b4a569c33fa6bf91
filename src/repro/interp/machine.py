"""The IR interpreter: executes modules on the simulated platform.

One :class:`Machine` owns the whole simulated platform for a program
run: CPU memory (globals/heap/stack), the GPU device, the shared
cost-model clock, and the external-function table.  CPU code runs by
direct interpretation against CPU memory; ``launch`` instructions run
kernel grids thread-by-thread against *device* memory, charging GPU
time for the modelled parallel execution.

Address spaces are strictly separate: kernels cannot touch host
memory, host code cannot touch device memory, and kernels may not
store pointers (a documented CGCM restriction).

Three execution engines share this machine model:

* ``engine="tree"`` -- the tree-walking interpreter in
  :meth:`Machine._execute`: the reference semantics.
* ``engine="compiled"`` -- the closure compiler in
  :mod:`repro.interp.codegen`: each function is translated once into
  flat per-block lists of zero-argument closures and cached on the
  machine.
* ``engine="source"`` -- the source compiler in
  :mod:`repro.interp.srcgen`: each function is emitted as real Python
  source (registers as locals, blocks as a ``while``-dispatched jump
  table, typed-memoryview loads/stores), ``compile()``-d, and cached
  on the machine.

Both ahead-of-time engines must be observationally *and*
clock-for-clock indistinguishable from the tree-walker (see
``tests/interp/test_engine_equivalence.py``).
"""

from __future__ import annotations

import math
import struct
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import CgcmUnsupportedError, InterpError
from ..gpu.device import GpuDevice
from ..gpu.timing import (CostModel, LANE_CPU, LANE_GPU, STREAM_COMPUTE,
                          STREAM_D2H, STREAM_H2D, SimClock)
from ..ir.function import Function
from ..ir.instructions import (Alloca, BinaryOp, Branch, Call, Cast, Compare,
                               CondBranch, GetElementPtr, LaunchKernel, Load,
                               Return, Select, Store, Unreachable)
from ..ir.module import Module
from ..ir.types import ArrayType, FloatType, IntType, PointerType, StructType
from ..ir.values import (Argument, Constant, GlobalVariable, UndefValue,
                         Value)
from ..memory.flatmem import FlatMemory
from ..memory.heap import Heap
from ..memory.layout import GlobalLayout, STACK_BASE, make_cpu_memory
from .externals import (ExitProgram, GPU_SAFE, call_cost, default_externals,
                        external_signatures)

#: Modelled op cost per interpreted instruction class.
_OP_COSTS = {
    "load": 2, "store": 2, "gep": 1, "binop": 1, "cmp": 1, "cast": 1,
    "select": 1, "br": 1, "cbr": 1, "ret": 1, "alloca": 2, "call": 5,
    "launch": 5, "unreachable": 0,
}
_DIV_EXTRA = 8

MAX_CALL_DEPTH = 256

#: Engines :class:`Machine` can execute IR with.
ENGINES = ("tree", "compiled", "source")

_F32_STRUCT = struct.Struct("<f")


class Frame:
    """One activation record."""

    __slots__ = ("function", "regs", "sp_base", "frame_id")

    def __init__(self, function: Function, frame_id: int, sp_base: int):
        self.function = function
        #: Register file; materialized by the tree-walker only (the
        #: ahead-of-time engines keep registers in Python locals).
        self.regs: Optional[Dict[Value, Union[int, float]]] = None
        self.sp_base = sp_base
        self.frame_id = frame_id


#: Memoized :func:`needs_frame` verdicts (weak: fuzz corpora churn
#: through throwaway functions).
_NEEDS_FRAME: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def needs_frame(fn: Function) -> bool:
    """Whether activations of ``fn`` can touch their own frame.

    Only stack allocation reads the current frame: ``alloca``
    instructions register into it, and the ``declareAlloca`` runtime
    entry point resolves ``Machine.current_frame``.  Everything else
    -- including nested calls, which push their own frames -- is
    frame-oblivious, so the ahead-of-time engines skip the frame
    push/pop (but not the frame-id sequencing or the exit-hook
    sweep) for functions without either.
    """
    cached = _NEEDS_FRAME.get(fn)
    if cached is None:
        cached = any(
            isinstance(inst, Alloca)
            or (isinstance(inst, Call) and inst.callee.is_declaration
                and inst.callee.name == "declareAlloca")
            for inst in fn.instructions())
        _NEEDS_FRAME[fn] = cached
    return cached


class Machine:
    """Interprets one module on the simulated CPU+GPU platform."""

    def __init__(self, module: Module,
                 cost_model: Optional[CostModel] = None,
                 record_events: bool = False,
                 engine: str = "tree",
                 streams: bool = False,
                 fault_injector: Optional["object"] = None,
                 device_heap_limit: Optional[int] = None):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of "
                             f"{ENGINES}")
        self.module = module
        self.engine = engine
        #: Overlap-aware timing discipline: kernel launches become
        #: asynchronous (scheduled on the "compute" stream) and the
        #: runtime may issue transfers on the "h2d"/"d2h" streams.
        self.streams = streams
        self.clock = SimClock(cost_model, record_events)
        if streams:
            self.clock.enable_streams()
        self.cpu_memory = make_cpu_memory()
        self.layout = GlobalLayout(module)
        self.layout.install(self.cpu_memory)
        self.heap = Heap(self.cpu_memory, "heap")
        self.device = GpuDevice(self.clock, fault_injector=fault_injector,
                                heap_limit=device_heap_limit)
        self.device.load_module(self.layout)
        self.externals = default_externals()
        self.external_types = external_signatures()
        self.stdout: List[str] = []
        self.rng_state = 0x9E3779B97F4A7C15
        self.mode = "cpu"
        self._cpu_sp = STACK_BASE
        self._gpu_sp = self.device.stack_base
        self._frame_counter = 0
        self._depth = 0
        self._frame_stack: List[Frame] = []
        self._pending_cpu_ops = 0
        self._gpu_ops = 0
        #: Dynamic count of interpreted IR instructions (both engines;
        #: the compiled engine bumps it once per basic-block entry).
        self.executed_instructions = 0
        #: Compiled-code cache: (function, mode, armed hook set,
        #: guarded) -> compiled callable.
        self._compiled: Dict[tuple, Callable] = {}
        self.kernel_launch_count = 0
        #: Admission gate run before each launch, set by the resilient
        #: runtime.  Called as ``gate(kernel, grid, args)``; it ensures
        #: operand residency (evicting/restoring under memory pressure)
        #: and performs the driver launch call with retry.  Returns
        #: None to proceed on the GPU, or the reverse-translated host
        #: argument list to degrade this launch to the CPU path.
        self.launch_gate: Optional[Callable] = None
        #: Hooks fired before each kernel launch:
        #: ``hook(machine, kernel, grid, args)``.
        self.launch_hooks: List[Callable] = []
        #: Hooks fired after a GPU launch's modelled duration is known:
        #: ``hook(machine, kernel_name, grid, total_ops, max_ops,
        #: duration)``.  CPU-fallback launches never fire these (their
        #: cost lands on the CPU lane).  The serve layer records per-
        #: launch costs here to re-price batched grid dispatches.
        self.launch_cost_hooks: List[Callable] = []
        #: Hooks fired when a function returns: ``hook(machine, frame_id)``.
        self.frame_exit_hooks: List[Callable] = []
        #: Hooks fired on heap activity: ``hook(machine, kind, addr, size)``.
        self.heap_hooks: List[Callable] = []
        #: Observers fired before every interpreted load/store:
        #: ``hook(machine, kind, address, size)`` with kind "load" or
        #: "store".  Observers only (the sanitizer attaches here): they
        #: never change modelled time, and arming one selects the
        #: hook-calling compiled variants.  Empty by default so the
        #: hot path pays nothing.
        self.mem_hooks: List[Callable] = []
        #: Streams write-back guard, armed by the runtime before the
        #: run: ``(pending, guard)``, the runtime's dict of in-flight
        #: DtoH write-backs and ``guard(machine, kind, address,
        #: size)``, which stalls the host until an overlapping one
        #: lands.  Only host-mode accesses consult it (device addresses
        #: never overlap a host region), ahead of ``mem_hooks`` and only
        #: while ``pending`` is non-empty.  None = no guard.
        self.writeback_guard: Optional[Tuple[Dict, Callable]] = None
        #: Multi-GPU grid placement: called as ``scheduler(kernel,
        #: grid, args, total_ops, max_ops, duration)`` after the grid's
        #: cost is known.  Returning True means the scheduler placed
        #: the launch's modelled span(s) itself (possibly sharded
        #: across devices) and the default single-device charging is
        #: skipped.  Set by ``repro.multigpu.MultiGpuCoordinator``.
        self.grid_scheduler: Optional[Callable] = None

    # -- plumbing ----------------------------------------------------------

    @property
    def mode(self) -> str:
        """Which code is executing: "cpu", "gpu", or a baseline mode."""
        return self._mode

    @mode.setter
    def mode(self, value: str) -> None:
        # The active address space is cached on every mode switch so
        # the per-access ``memory`` read is one attribute load instead
        # of a string compare (mode switches are rare; accesses are
        # the hottest path in the interpreter).
        self._mode = value
        self._active_memory = self.device.memory if value == "gpu" \
            else self.cpu_memory

    @property
    def memory(self) -> FlatMemory:
        """The address space current code executes against.

        Mode "cpu" and "ie" (the inspector-executor baseline's oracle
        placement) use host memory; mode "gpu" uses device memory.
        """
        return self._active_memory

    @property
    def in_kernel(self) -> bool:
        return self._mode != "cpu"

    def charge_ops(self, ops: int) -> None:
        if self.mode == "cpu":
            self._pending_cpu_ops += ops
        else:
            self._gpu_ops += ops

    def flush_cpu(self) -> None:
        """Convert accumulated CPU ops into clock time."""
        if self._pending_cpu_ops:
            self.clock.advance(LANE_CPU,
                               self.clock.model.cpu_time(self._pending_cpu_ops),
                               "cpu")
            self._pending_cpu_ops = 0

    def notify_heap(self, kind: str, address: int, size: int) -> None:
        for hook in self.heap_hooks:
            hook(self, kind, address, size)

    def global_address(self, name: str) -> int:
        """Host address of a global (for tests and the harness)."""
        return self.layout.address_of(name)

    def read_global(self, name: str) -> bytes:
        gv = self.module.get_global(name)
        return self.cpu_memory.read(self.layout.address_of(name), gv.size)

    # -- entry points --------------------------------------------------------

    def run(self, entry: str = "main",
            args: Sequence[Union[int, float]] = ()) -> int:
        """Execute ``entry`` to completion; returns its exit code."""
        fn = self.module.get_function(entry)
        try:
            result = self.call(fn, list(args))
        except ExitProgram as exit_:
            result = exit_.code
        self.flush_cpu()
        return int(result) if result is not None else 0

    def call(self, fn: Function, args: List[Union[int, float]]):
        """Call a function (defined or external) with evaluated args."""
        if fn.is_declaration:
            return self._call_external(fn.name, args)
        if len(args) != len(fn.args):
            raise InterpError(f"@{fn.name}: expected {len(fn.args)} args, "
                              f"got {len(args)}")
        if self._depth >= MAX_CALL_DEPTH:
            raise InterpError(f"call depth exceeded at @{fn.name}")
        mode = self._mode
        code = None
        if self.engine != "tree" and (mode == "cpu" or mode == "gpu"):
            code = self.compiled_for(fn)
        self._depth += 1
        sp_base = self._gpu_sp if mode == "gpu" else self._cpu_sp
        self._frame_counter += 1
        frame = Frame(fn, self._frame_counter, sp_base)
        self._frame_stack.append(frame)
        try:
            if code is not None:
                return code(args)
            frame.regs = {}
            for formal, actual in zip(fn.args, args):
                frame.regs[formal] = actual
            return self._execute(frame)
        finally:
            if self._mode == "gpu":
                self._gpu_sp = sp_base
            else:
                self._cpu_sp = sp_base
            self._frame_stack.pop()
            for hook in self.frame_exit_hooks:
                hook(self, frame.frame_id)
            self._depth -= 1

    def compiled_for(self, fn: Function):
        """The cached compiled variant of ``fn`` for the current mode.

        Variants are keyed by (function, mode, armed hook *set*):
        globals resolve to different addresses per address space, and
        armed ``mem_hooks`` select hook-calling load/store code so the
        sanitizer observes exactly what the tree-walker would show it.
        Keying by the hook set's identity (not just "any hooks?")
        guarantees a body compiled while one combination of
        sanitizer/fault/trace hooks was armed is never reused under a
        different combination -- and an unhooked body is never reused
        once hooks arm.  CPU-mode variants of a machine with a
        ``writeback_guard`` are *guarded*: they check the guard before
        every load/store.  GPU-mode variants never are.
        """
        guarded = self.writeback_guard is not None and self._mode == "cpu"
        key = (fn, self._mode, tuple(self.mem_hooks), guarded)
        code = self._compiled.get(key)
        if code is None:
            hooked = bool(self.mem_hooks)
            if self.engine == "source":
                from .srcgen import compile_function_source
                code = compile_function_source(self, fn, self._mode,
                                               hooked, guarded)
            else:
                from .codegen import compile_function
                code = compile_function(self, fn, self._mode, hooked,
                                        guarded)
            self._compiled[key] = code
        return code

    def _is_device_stack(self, address: int) -> bool:
        segment = self.device.memory.segment("device-stack")
        return segment.contains(address)

    @property
    def current_frame(self) -> Optional[Frame]:
        """The innermost IR frame (externals run in their caller's frame)."""
        return self._frame_stack[-1] if self._frame_stack else None

    def stack_allocate(self, size: int, align: int = 16) -> int:
        """Bump-allocate in the current frame's stack (for declareAlloca)."""
        if self.mode == "gpu":
            address = (self._gpu_sp + align - 1) // align * align
            self._gpu_sp = address + size
        else:
            address = (self._cpu_sp + align - 1) // align * align
            self._cpu_sp = address + size
        if size:
            self.memory.fill(address, size, 0)
        return address

    def _call_external(self, name: str, args: List):
        handler = self.externals.get(name)
        if handler is None:
            raise InterpError(f"call to undefined external @{name}")
        if self.in_kernel and name not in GPU_SAFE:
            raise InterpError(f"kernel called host-only external @{name}")
        self.charge_ops(call_cost(name))
        return handler(self, args)

    # -- evaluation ------------------------------------------------------------

    def eval(self, value: Value, frame: Frame) -> Union[int, float]:
        if isinstance(value, Constant):
            return value.value
        if value in frame.regs:
            return frame.regs[value]
        if isinstance(value, GlobalVariable):
            if self.mode == "gpu":
                return self.device.module_get_global(value.name)
            return self.layout.address_of(value.name)
        if isinstance(value, UndefValue):
            return 0
        raise InterpError(f"read of undefined register {value.ref} in "
                          f"@{frame.function.name} (no value was ever "
                          "written to it on this path)")

    # -- the interpreter loop --------------------------------------------------

    def _execute(self, frame: Frame):
        block = frame.function.entry_block
        regs = frame.regs
        evaluate = self.eval
        # A frame's mode is fixed for its lifetime, so the host-only
        # write-back guard resolves once per activation.
        guard = self.writeback_guard if self._mode != "gpu" else None
        pending = guard[0] if guard is not None else None
        while True:
            for inst in block.instructions:
                self.executed_instructions += 1
                self.charge_ops(_OP_COSTS.get(inst.opcode, 1))
                if isinstance(inst, Load):
                    address = evaluate(inst.pointer, frame)
                    if pending:
                        guard[1](self, "load", int(address), inst.type.size)
                    if self.mem_hooks:
                        for hook in self.mem_hooks:
                            hook(self, "load", int(address), inst.type.size)
                    regs[inst] = self.memory.load_scalar(
                        int(address), inst.type)
                elif isinstance(inst, Store):
                    value = evaluate(inst.value, frame)
                    address = evaluate(inst.pointer, frame)
                    if pending:
                        guard[1](self, "store", int(address),
                                 inst.value.type.size)
                    if self.mem_hooks:
                        for hook in self.mem_hooks:
                            hook(self, "store", int(address),
                                 inst.value.type.size)
                    if self.mode == "gpu" and inst.value.type.is_pointer \
                            and not self._is_device_stack(int(address)):
                        # Spilling a pointer to the thread's private
                        # stack is fine; storing one into data is the
                        # restriction (paper section 2.3).
                        raise CgcmUnsupportedError(
                            f"kernel @{frame.function.name} stores a "
                            "pointer into memory (CGCM restriction)")
                    self.memory.store_scalar(int(address),
                                             inst.value.type, value)
                elif isinstance(inst, GetElementPtr):
                    regs[inst] = self._gep(inst, frame)
                elif isinstance(inst, BinaryOp):
                    regs[inst] = self._binop(inst, frame)
                elif isinstance(inst, Compare):
                    regs[inst] = self._compare(inst, frame)
                elif isinstance(inst, Cast):
                    regs[inst] = self._cast(inst, frame)
                elif isinstance(inst, Select):
                    cond = evaluate(inst.condition, frame)
                    chosen = inst.if_true if cond else inst.if_false
                    regs[inst] = evaluate(chosen, frame)
                elif isinstance(inst, Alloca):
                    regs[inst] = self._alloca(inst, frame)
                elif isinstance(inst, Call):
                    args = [evaluate(a, frame) for a in inst.args]
                    result = self.call(inst.callee, args)
                    if inst.produces_value:
                        regs[inst] = result
                elif isinstance(inst, LaunchKernel):
                    self._launch(inst, frame)
                elif isinstance(inst, Branch):
                    block = inst.target
                    break
                elif isinstance(inst, CondBranch):
                    cond = evaluate(inst.condition, frame)
                    block = inst.if_true if cond else inst.if_false
                    break
                elif isinstance(inst, Return):
                    if inst.value is None:
                        return None
                    return evaluate(inst.value, frame)
                elif isinstance(inst, Unreachable):
                    raise InterpError(
                        f"reached unreachable in @{frame.function.name}")
                else:
                    raise InterpError(f"cannot interpret {inst.opcode}")
            else:
                raise InterpError(
                    f"block {block.name} in @{frame.function.name} fell "
                    "through without a terminator")

    # -- instruction semantics -----------------------------------------------

    def _alloca(self, inst: Alloca, frame: Frame) -> int:
        count = int(self.eval(inst.count, frame))
        if count < 0:
            raise InterpError("alloca with negative count")
        size = inst.allocated_type.size * count
        align = max(inst.allocated_type.align, 8)
        if self.mode == "gpu":
            address = (self._gpu_sp + align - 1) // align * align
            self._gpu_sp = address + size
        else:
            address = (self._cpu_sp + align - 1) // align * align
            self._cpu_sp = address + size
        if size:
            self.memory.fill(address, size, 0)
        return address

    def _gep(self, inst: GetElementPtr, frame: Frame) -> int:
        address = int(self.eval(inst.pointer, frame))
        pointee = inst.pointer.type.pointee
        indices = inst.indices
        address += int(self.eval(indices[0], frame)) * pointee.size
        current = pointee
        for index in indices[1:]:
            if isinstance(current, ArrayType):
                current = current.element
                address += int(self.eval(index, frame)) * current.size
            elif isinstance(current, StructType):
                field = int(self.eval(index, frame))
                address += current.field_offset(field)
                current = current.fields[field][1]
            else:
                raise InterpError(f"gep into non-aggregate {current}")
        return address

    def _binop(self, inst: BinaryOp, frame: Frame):
        lhs = self.eval(inst.lhs, frame)
        rhs = self.eval(inst.rhs, frame)
        op = inst.op
        type_ = inst.type
        if isinstance(type_, FloatType):
            if op == "add":
                return lhs + rhs
            if op == "sub":
                return lhs - rhs
            if op == "mul":
                return lhs * rhs
            if op == "div":
                self.charge_ops(_DIV_EXTRA)
                if rhs == 0.0:
                    return float("inf") if lhs > 0 else (
                        float("-inf") if lhs < 0 else float("nan"))
                return lhs / rhs
            if op == "rem":
                self.charge_ops(_DIV_EXTRA)
                return float("nan") if rhs == 0.0 else float(
                    lhs - rhs * _trunc_div_float(lhs, rhs))
            raise InterpError(f"float binop {op}")
        assert isinstance(type_, (IntType, PointerType))
        lhs, rhs = int(lhs), int(rhs)
        if op == "add":
            result = lhs + rhs
        elif op == "sub":
            result = lhs - rhs
        elif op == "mul":
            result = lhs * rhs
        elif op == "div":
            self.charge_ops(_DIV_EXTRA)
            result = _trunc_div_int(lhs, rhs)
        elif op == "rem":
            self.charge_ops(_DIV_EXTRA)
            result = lhs - rhs * _trunc_div_int(lhs, rhs)
        elif op == "and":
            result = lhs & rhs
        elif op == "or":
            result = lhs | rhs
        elif op == "xor":
            result = lhs ^ rhs
        elif op == "shl":
            result = lhs << (rhs & 63)
        elif op == "shr":
            result = lhs >> (rhs & 63)
        else:
            raise InterpError(f"int binop {op}")
        if isinstance(type_, IntType):
            return type_.wrap(result)
        return result & 0xFFFFFFFFFFFFFFFF

    def _compare(self, inst: Compare, frame: Frame) -> int:
        lhs = self.eval(inst.lhs, frame)
        rhs = self.eval(inst.rhs, frame)
        pred = inst.pred
        if pred == "eq":
            return int(lhs == rhs)
        if pred == "ne":
            return int(lhs != rhs)
        if pred == "lt":
            return int(lhs < rhs)
        if pred == "le":
            return int(lhs <= rhs)
        if pred == "gt":
            return int(lhs > rhs)
        return int(lhs >= rhs)

    def _cast(self, inst: Cast, frame: Frame):
        value = self.eval(inst.value, frame)
        kind = inst.kind
        to_type = inst.type
        if kind in ("bitcast", "inttoptr"):
            return int(value) & 0xFFFFFFFFFFFFFFFF if to_type.is_pointer \
                else value
        if kind == "ptrtoint":
            assert isinstance(to_type, IntType)
            return to_type.wrap(int(value))
        if kind in ("trunc", "zext", "sext"):
            assert isinstance(to_type, IntType)
            src_type = inst.value.type
            assert isinstance(src_type, IntType)
            if kind == "zext":
                value = int(value) & ((1 << src_type.bits) - 1)
            return to_type.wrap(int(value))
        if kind in ("fptrunc", "fpext"):
            if to_type == FloatType(32):
                return _round_f32(float(value))
            return float(value)
        if kind == "sitofp":
            return float(int(value))
        if kind == "fptosi":
            assert isinstance(to_type, IntType)
            fvalue = float(value)
            if fvalue != fvalue or fvalue in (float("inf"), float("-inf")):
                return 0
            return to_type.wrap(int(fvalue))
        raise InterpError(f"cast kind {kind}")

    # -- kernel launches -----------------------------------------------------

    def _launch(self, inst: LaunchKernel, frame: Frame) -> None:
        grid = int(self.eval(inst.grid, frame))
        args = [self.eval(a, frame) for a in inst.args]
        self.launch_evaluated(inst.kernel, grid, args)

    def launch_evaluated(self, kernel: Function, grid: int,
                         args: List[Union[int, float]]) -> None:
        """Run one kernel grid with already-evaluated operands.

        Shared by both engines: the tree-walker evaluates the launch
        operands through :meth:`eval`, compiled code through register
        slots, and everything from the launch hooks onwards is
        identical.
        """
        if grid < 0:
            raise InterpError(f"negative grid size {grid}")
        self.flush_cpu()
        cpu_args: Optional[List] = None
        if self.launch_gate is not None:
            # The resilient runtime admits the launch: residency is
            # ensured (or the launch degrades to the CPU path) and the
            # driver call happens inside the gate, with retry.  Runs
            # before the launch hooks so the gate sees the pre-bump
            # epoch, matching what map/refresh recorded.
            cpu_args = self.launch_gate(kernel, grid, args)
        else:
            self.device.launch_begin(kernel.name, grid)
        for hook in self.launch_hooks:
            hook(self, kernel, grid, args)
        self.kernel_launch_count += 1
        if cpu_args is not None:
            self.clock.count("cpu_fallback_launches")
            for tid in range(grid):
                self.call(kernel, [tid] + cpu_args)
            return
        self.clock.count("kernel_launches")
        previous_mode = self.mode
        self.mode = "gpu"
        self._gpu_ops = 0
        total_ops = 0
        max_ops = 0
        try:
            if self.engine != "tree" and not kernel.is_declaration:
                max_ops = self._run_grid_compiled(kernel, grid, args)
            else:
                for tid in range(grid):
                    before = self._gpu_ops
                    self.call(kernel, [tid] + args)
                    thread_ops = self._gpu_ops - before
                    if thread_ops > max_ops:
                        max_ops = thread_ops
            total_ops = self._gpu_ops
        finally:
            self.mode = previous_mode
            self._gpu_ops = 0
        model = self.clock.model
        duration = model.kernel_launch_latency_s
        if grid:
            duration += model.gpu_time(total_ops, max_ops)
        if self.launch_cost_hooks:
            for hook in self.launch_cost_hooks:
                hook(self, kernel.name, grid, total_ops, max_ops, duration)
        if self.grid_scheduler is not None \
                and self.grid_scheduler(kernel, grid, args, total_ops,
                                        max_ops, duration):
            return
        if not self.streams:
            self.clock.advance(LANE_GPU, duration, f"{kernel.name}[{grid}]")
            return
        # Streams discipline: the launch is asynchronous.  Thread
        # execution above already happened eagerly (data effects are
        # immediate in the simulator); only the modelled span is
        # scheduled.  The kernel waits for every transfer issued so
        # far -- default-stream semantics against the copy streams --
        # which is exactly the ordering the runtime's event edges need:
        # operand HtoD copies precede the launch in program order, and
        # in-flight DtoH write-backs must drain before device memory
        # they cover can be reused.
        clock = self.clock
        clock.schedule(
            LANE_GPU, duration, STREAM_COMPUTE, f"{kernel.name}[{grid}]",
            after=(clock.stream_cursor(STREAM_H2D),
                   clock.stream_cursor(STREAM_D2H)))

    def _run_grid_compiled(self, kernel: Function, grid: int,
                           args: List[Union[int, float]]) -> int:
        """Per-thread kernel loop for the ahead-of-time engines.

        Inlines the compiled-code path of :meth:`call` -- the
        per-thread bookkeeping (depth, stack pointer, frame,
        ``frame_exit_hooks``) is identical, but the callee
        resolution, arity check, and depth test hoist out of the
        loop.  The compiled body is re-resolved if the armed hook
        set changes mid-grid, matching what per-thread
        :meth:`compiled_for` lookups would select.  Returns the
        max per-thread op count for the GPU time model.
        """
        if len(args) + 1 != len(kernel.args):
            raise InterpError(f"@{kernel.name}: expected "
                              f"{len(kernel.args)} args, got "
                              f"{len(args) + 1}")
        if self._depth >= MAX_CALL_DEPTH:
            raise InterpError(f"call depth exceeded at @{kernel.name}")
        code = self.compiled_for(kernel)
        snapshot = list(self.mem_hooks)
        stack = self._frame_stack
        frame_type = Frame
        framed = needs_frame(kernel)
        # Threads run sequentially and each restores the stack
        # pointer, so the save/restore base is loop-invariant; the
        # argument list is reused because the emitted prologue
        # unpacks it into locals before any nested call can run.
        sp_base = self._gpu_sp
        argv = [0] + args
        max_ops = 0
        self._depth += 1
        try:
            for tid in range(grid):
                before = self._gpu_ops
                if self.mem_hooks != snapshot:
                    code = self.compiled_for(kernel)
                    snapshot = list(self.mem_hooks)
                self._frame_counter += 1
                if framed:
                    frame = frame_type(kernel, self._frame_counter,
                                       sp_base)
                    stack.append(frame)
                    argv[0] = tid
                    try:
                        code(argv)
                    finally:
                        self._gpu_sp = sp_base
                        stack.pop()
                        for hook in self.frame_exit_hooks:
                            hook(self, frame.frame_id)
                else:
                    # Frame-oblivious kernel: keep the frame-id
                    # sequencing and the exit-hook sweep, skip the
                    # frame object and stack-pointer churn.
                    fid = self._frame_counter
                    argv[0] = tid
                    try:
                        code(argv)
                    finally:
                        for hook in self.frame_exit_hooks:
                            hook(self, fid)
                thread_ops = self._gpu_ops - before
                if thread_ops > max_ops:
                    max_ops = thread_ops
        finally:
            self._depth -= 1
        return max_ops


def _trunc_div_int(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise InterpError("integer division by zero")
    quotient = lhs // rhs
    if (lhs % rhs != 0) and ((lhs < 0) != (rhs < 0)):
        quotient += 1
    return quotient


def _trunc_div_float(lhs: float, rhs: float) -> float:
    return math.trunc(lhs / rhs)


def _round_f32(value: float) -> float:
    # The format is pre-compiled once at module load; per-call
    # struct.pack("<f", ...) re-parses the format string on every
    # float32 rounding, which sits on the cast hot path.
    return _F32_STRUCT.unpack(_F32_STRUCT.pack(value))[0]
