"""Communication management: insert map/unmap/release around launches.

Paper section 4: for each GPU function spawn, the compiler determines
the live-in values with a liveness analysis, infers which of them are
pointers (and their indirection depth) by *usage* rather than by the
unreliable C types, then:

* before the launch, inserts ``map``/``mapArray`` for every live-in
  pointer and rewrites the launch to pass the translated GPU pointer;
* after the launch, inserts ``unmap``/``unmapArray`` for every live-out
  pointer, then ``release``/``releaseArray`` to drop the references.

Globals used by the kernel are live-ins too; mapping them populates
their device-resident named regions (``cuModuleGetGlobal``), which the
kernel's global references resolve to.

Escaping stack variables are rewritten from plain allocas to
``declareAlloca`` so the run-time can find their allocation units
(paper section 3.1).
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..ir.function import Function
from ..ir.instructions import (Alloca, BinaryOp, Call, Cast, GetElementPtr,
                               Instruction, LaunchKernel)
from ..ir.module import Module
from ..ir.types import ArrayType, I64, RAW_PTR
from ..ir.values import Constant, GlobalVariable, Value
from ..analysis.alias import ordered_roots, underlying_objects
from ..analysis.typeinfer import infer_pointer_depths
from ..runtime.api import map_name, release_name, unmap_name
from ..runtime.cgcm import declare_runtime


class CommunicationManager:
    """Inserts run-time library calls for every kernel launch."""

    def __init__(self, module: Module):
        self.module = module
        self.runtime = declare_runtime(module)
        self._converted_allocas: Set[Alloca] = set()
        #: (launch, map calls, unmap calls, release calls) per launch,
        #: mostly for tests and the optimization passes.
        self.managed: List[Tuple[LaunchKernel, List[Call], List[Call],
                                 List[Call]]] = []

    def run(self) -> None:
        for fn in list(self.module.defined_functions()):
            if fn.is_kernel:
                continue
            for launch in [i for i in fn.instructions()
                           if isinstance(i, LaunchKernel)]:
                self.manage_launch(fn, launch)

    # -- one launch -------------------------------------------------------

    def manage_launch(self, fn: Function, launch: LaunchKernel) -> None:
        """Insert communication management around one launch (also used
        for launches created later by the glue-kernel pass)."""
        depths = infer_pointer_depths(launch.kernel, self.module)
        depths.require_supported()
        live_in = depths.live_in_depths()

        block = launch.parent
        assert block is not None
        #: (raw host pointer value, depth) in mapping order.
        mapped: List[Tuple[Value, int]] = []
        before: List[Instruction] = []
        map_calls: List[Call] = []

        # Live-in pointer arguments: map and rewrite the launch operand.
        for position, formal in enumerate(launch.kernel.args[1:]):
            depth = live_in.get(formal, 0)
            if depth < 1:
                continue
            actual = launch.args[position]
            self._register_escaping_allocas(fn, actual)
            # Alloca conversion rewrites every use, including the
            # launch operand: re-read it.
            actual = launch.args[position]
            # The declared type may be a lie (paper section 4): a value
            # *used* as a pointer can arrive as an integer, so pick the
            # cast by the actual IR type, not by the inference.
            if actual.type.is_pointer:
                raw = Cast("bitcast", actual, RAW_PTR)
            else:
                raw = Cast("inttoptr", actual, RAW_PTR)
            map_call = Call(self.runtime[map_name(depth)], [raw])
            if actual.type.is_pointer:
                back = Cast("bitcast", map_call, actual.type)
            else:
                back = Cast("ptrtoint", map_call, actual.type)
            for inst in (raw, map_call, back):
                inst.name = fn.unique_name("comm")
            before.extend([raw, map_call, back])
            launch.operands[1 + position] = back
            mapped.append((raw, depth))
            map_calls.append(map_call)

        # Live-in globals: mapping fills the device named region.
        for value, depth in live_in.items():
            if not isinstance(value, GlobalVariable):
                continue
            base = self._global_base(fn, value, before)
            raw = Cast("bitcast", base, RAW_PTR)
            raw.name = fn.unique_name("comm")
            map_call = Call(self.runtime[map_name(depth)], [raw])
            map_call.name = fn.unique_name("comm")
            before.extend([raw, map_call])
            mapped.append((raw, depth))
            map_calls.append(map_call)

        index = block.index(launch)
        for offset, inst in enumerate(before):
            inst.parent = block
            block.instructions.insert(index + offset, inst)

        # After the launch: unmap everything, then release everything.
        after: List[Instruction] = []
        unmap_calls: List[Call] = []
        release_calls: List[Call] = []
        for raw, depth in mapped:
            call = Call(self.runtime[unmap_name(depth)], [raw])
            after.append(call)
            unmap_calls.append(call)
        for raw, depth in mapped:
            call = Call(self.runtime[release_name(depth)], [raw])
            after.append(call)
            release_calls.append(call)
        index = block.index(launch)
        for offset, inst in enumerate(after):
            inst.parent = block
            block.instructions.insert(index + 1 + offset, inst)

        self.managed.append((launch, map_calls, unmap_calls, release_calls))


    def _global_base(self, fn: Function, gv: GlobalVariable,
                     before: List[Instruction]) -> Value:
        """A scalar pointer to the global's first byte (arrays need a
        GEP so the bitcast source is a simple element pointer)."""
        if isinstance(gv.value_type, ArrayType):
            gep = GetElementPtr(gv, [Constant(I64, 0), Constant(I64, 0)])
            gep.name = fn.unique_name("comm")
            before.append(gep)
            return gep
        return gv

    # -- escaping stack variables ------------------------------------------------

    def _register_escaping_allocas(self, fn: Function,
                                   pointer: Value) -> None:
        for root in ordered_roots(underlying_objects(pointer)):
            if isinstance(root, Alloca) and root.function is fn \
                    and root not in self._converted_allocas:
                self._convert_alloca(fn, root)
                self._converted_allocas.add(root)

    def _convert_alloca(self, fn: Function, alloca: Alloca) -> None:
        """Replace ``alloca T, n`` with ``declareAlloca(n * sizeof T)``."""
        block = alloca.parent
        assert block is not None
        index = block.index(alloca)
        new_insts: List[Instruction] = []
        element_size = alloca.allocated_type.size
        if isinstance(alloca.count, Constant):
            size_value: Value = Constant(alloca.count.type,
                                         alloca.count.value * element_size)
        else:
            mul = BinaryOp("mul", alloca.count,
                           Constant(alloca.count.type, element_size))
            mul.name = fn.unique_name("size")
            new_insts.append(mul)
            size_value = mul
        declare = Call(self.runtime["declareAlloca"], [size_value])
        declare.name = fn.unique_name(alloca.name or "stackvar")
        typed = Cast("bitcast", declare, alloca.type)
        typed.name = fn.unique_name(alloca.name or "stackvar")
        new_insts.extend([declare, typed])

        block.instructions.pop(index)
        alloca.parent = None
        for offset, inst in enumerate(new_insts):
            inst.parent = block
            block.instructions.insert(index + offset, inst)
        for inst in fn.instructions():
            inst.replace_operand(alloca, typed)


def insert_communication(module: Module) -> CommunicationManager:
    """Run the communication-management pass over ``module``."""
    manager = CommunicationManager(module)
    manager.run()
    return manager
