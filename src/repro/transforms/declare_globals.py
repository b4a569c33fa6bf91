"""Insert ``declareGlobal`` registration calls before main runs.

Paper section 3.1: "To track global variables, the compiler inserts
calls to the run-time library's declareGlobal function before main.
Declaring addresses at run-time rather than at compile-time or
link-time avoids the problems caused by position independent code and
address space layout randomization."

We insert the calls at the top of ``main``'s entry block.  Each call
passes the global's name (as a string constant), address, size, and
read-only flag.
"""

from __future__ import annotations

from typing import List

from ..errors import TransformError
from ..ir.builder import IRBuilder
from ..ir.instructions import Instruction
from ..ir.module import Module
from ..ir.types import ArrayType, I8, RAW_PTR
from ..ir.values import GlobalVariable
from ..runtime.cgcm import declare_runtime


def insert_global_declarations(module: Module,
                               entry: str = "main") -> List[Instruction]:
    """Register every (pre-existing) global with the run-time library."""
    runtime = declare_runtime(module)
    declare_global = runtime["declareGlobal"]
    main = module.get_function(entry)
    if main.is_declaration:
        raise TransformError(f"@{entry} is not defined")

    snapshot = [gv for gv in module.globals.values()]
    inserted: List[Instruction] = []
    entry_block = main.entry_block

    # Build the instruction sequence in a scratch block, then splice it
    # at the very top of the entry block.
    scratch = main.new_block("declare.globals")
    builder = IRBuilder(scratch)
    for gv in snapshot:
        name_gv = _name_string(module, gv)
        name_ptr = builder.gep(name_gv, [0, 0])
        raw = builder.bitcast(_address_of(builder, gv), RAW_PTR)
        call = builder.call(declare_global, [
            name_ptr, raw, builder.i64(gv.size),
            builder.i64(1 if gv.is_read_only else 0)])
        inserted.append(call)

    main.blocks.remove(scratch)
    for offset, inst in enumerate(scratch.instructions):
        inst.parent = entry_block
        entry_block.instructions.insert(offset, inst)
    return inserted


def _address_of(builder: IRBuilder, gv: GlobalVariable):
    """The global's base address as an i8 pointer-compatible value."""
    if isinstance(gv.value_type, ArrayType):
        return builder.gep(gv, [0, 0])
    return gv


def _name_string(module: Module, gv: GlobalVariable) -> GlobalVariable:
    name = f".gname.{gv.name}"
    existing = module.globals.get(name)
    if existing is not None:
        return existing
    data = gv.name.encode("utf-8")
    return module.add_global(name, ArrayType(I8, len(data) + 1), gv.name,
                             is_read_only=True)
