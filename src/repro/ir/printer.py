"""Textual form of the repro IR.

The printed form round-trips through :mod:`repro.ir.parser`, which the
test-suite uses both to check the printer and to write IR fixtures
compactly.  The syntax is LLVM-flavoured::

    global @A : [8 x f64] = zero
    declare @sqrt : f64 (f64)
    kernel @k(%tid: i64, %A: ptr<f64>) -> void { ... }
    func @main() -> i32 {
    entry:
      %i = add i64 %a, i64 1
      cbr i1 %c, label %body, label %exit
    }
"""

from __future__ import annotations

from typing import List

from .block import BasicBlock
from .function import Function
from .instructions import (Alloca, BinaryOp, Branch, Call, Cast, Compare,
                           CondBranch, GetElementPtr, Instruction,
                           LaunchKernel, Load, Return, Select, Store,
                           Unreachable)
from .module import Module
from .values import GlobalRef, Initializer, Value


def operand_to_str(value: Value) -> str:
    """Print an operand with its type, e.g. ``i64 %i`` or ``f64 2.5``."""
    return f"{value.type} {value.ref}"


def initializer_to_str(init: Initializer) -> str:
    if init is None:
        return "zero"
    if isinstance(init, bytes):
        return "c" + _quote_bytes(init)
    if isinstance(init, str):
        return "s" + _quote_bytes(init.encode("utf-8"))
    if isinstance(init, GlobalRef):
        if init.offset:
            return f"@{init.name}+{init.offset}"
        return f"@{init.name}"
    if isinstance(init, (int, float)):
        return repr(init)
    if isinstance(init, list):
        return "{ " + ", ".join(initializer_to_str(e) for e in init) + " }"
    raise TypeError(f"unprintable initializer: {init!r}")


def _quote_bytes(data: bytes) -> str:
    out = ['"']
    for byte in data:
        char = chr(byte)
        if char == '"':
            out.append('\\"')
        elif char == "\\":
            out.append("\\\\")
        elif 32 <= byte < 127:
            out.append(char)
        else:
            out.append(f"\\{byte:02x}")
    out.append('"')
    return "".join(out)


def instruction_to_str(inst: Instruction) -> str:
    """Render one instruction (without indentation)."""
    if isinstance(inst, Alloca):
        return (f"{inst.ref} = alloca {inst.allocated_type}, "
                f"{operand_to_str(inst.count)}")
    if isinstance(inst, Load):
        return f"{inst.ref} = load {operand_to_str(inst.pointer)}"
    if isinstance(inst, Store):
        return (f"store {operand_to_str(inst.value)}, "
                f"{operand_to_str(inst.pointer)}")
    if isinstance(inst, GetElementPtr):
        indices = ", ".join(operand_to_str(i) for i in inst.indices)
        return f"{inst.ref} = gep {operand_to_str(inst.pointer)}, {indices}"
    if isinstance(inst, BinaryOp):
        return (f"{inst.ref} = {inst.op} {operand_to_str(inst.lhs)}, "
                f"{operand_to_str(inst.rhs)}")
    if isinstance(inst, Compare):
        return (f"{inst.ref} = cmp {inst.pred} {operand_to_str(inst.lhs)}, "
                f"{operand_to_str(inst.rhs)}")
    if isinstance(inst, Cast):
        return (f"{inst.ref} = cast {inst.kind} "
                f"{operand_to_str(inst.value)} to {inst.type}")
    if isinstance(inst, Select):
        return (f"{inst.ref} = select {operand_to_str(inst.condition)}, "
                f"{operand_to_str(inst.if_true)}, "
                f"{operand_to_str(inst.if_false)}")
    if isinstance(inst, Call):
        args = ", ".join(operand_to_str(a) for a in inst.args)
        prefix = f"{inst.ref} = " if inst.produces_value else ""
        return f"{prefix}call @{inst.callee.name}({args})"
    if isinstance(inst, LaunchKernel):
        args = ", ".join(operand_to_str(a) for a in inst.args)
        return (f"launch @{inst.kernel.name}"
                f"[{operand_to_str(inst.grid)}]({args})")
    if isinstance(inst, Branch):
        return f"br label %{inst.target.name}"
    if isinstance(inst, CondBranch):
        return (f"cbr {operand_to_str(inst.condition)}, "
                f"label %{inst.if_true.name}, label %{inst.if_false.name}")
    if isinstance(inst, Return):
        if inst.value is None:
            return "ret void"
        return f"ret {operand_to_str(inst.value)}"
    if isinstance(inst, Unreachable):
        return "unreachable"
    raise TypeError(f"unprintable instruction: {inst!r}")


def block_to_str(block: BasicBlock) -> str:
    lines = [f"{block.name}:"]
    lines.extend(f"  {instruction_to_str(i)}" for i in block.instructions)
    return "\n".join(lines)


def function_to_str(fn: Function) -> str:
    params = ", ".join(f"%{a.name}: {a.type}" for a in fn.args)
    keyword = "kernel" if fn.is_kernel else "func"
    header = f"{keyword} @{fn.name}({params}) -> {fn.return_type}"
    if fn.is_declaration:
        param_types = ", ".join(str(t) for t in fn.type.param_types)
        variadic = ", ..." if fn.type.variadic else ""
        return f"declare @{fn.name} : {fn.return_type} ({param_types}{variadic})"
    body = "\n".join(block_to_str(b) for b in fn.blocks)
    return f"{header} {{\n{body}\n}}"


def module_to_str(module: Module) -> str:
    parts: List[str] = [f'module "{module.name}"']
    for struct in module.structs.values():
        fields = ", ".join(f"{ty} {name}" for name, ty in struct.fields)
        parts.append(f"struct %{struct.name} {{ {fields} }}")
    for gv in module.globals.values():
        ro = " readonly" if gv.is_read_only else ""
        parts.append(f"global @{gv.name} : {gv.value_type} = "
                     f"{initializer_to_str(gv.initializer)}{ro}")
    for fn in module.functions.values():
        if fn.is_declaration:
            parts.append(function_to_str(fn))
    for fn in module.functions.values():
        if not fn.is_declaration:
            parts.append(function_to_str(fn))
    return "\n\n".join(parts) + "\n"
