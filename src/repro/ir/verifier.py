"""Structural verifier for IR modules.

Run after construction and after every transform in the test-suite.
Construction-time checks (operand types) already reject most bad IR;
the verifier adds whole-function and whole-module invariants.
"""

from __future__ import annotations

from typing import Set

from ..errors import IRError
from .function import Function
from .instructions import (Call, Instruction, LaunchKernel, Return,
                           Terminator)
from .module import Module
from .types import I64, VOID
from .values import Argument, Constant, GlobalVariable, UndefValue, Value


def verify_module(module: Module) -> None:
    """Raise :class:`IRError` on the first broken invariant found."""
    for fn in module.functions.values():
        if not fn.is_declaration:
            verify_function(fn, module)


def verify_function(fn: Function, module: Module) -> None:
    if fn.is_kernel:
        if fn.return_type != VOID:
            raise IRError(f"kernel @{fn.name} must return void")
        if not fn.args or fn.args[0].type != I64:
            raise IRError(f"kernel @{fn.name} must take an i64 thread id "
                          "as its first parameter")
    if not fn.blocks:
        raise IRError(f"@{fn.name}: defined function has no blocks")

    defined: Set[Value] = set(fn.args)
    names: Set[str] = set()
    for block in fn.blocks:
        if block.parent is not fn:
            raise IRError(f"@{fn.name}/{block.name}: wrong parent link")
        if block.name in names:
            raise IRError(f"@{fn.name}: duplicate block name {block.name}")
        names.add(block.name)
        if not block.instructions:
            raise IRError(f"@{fn.name}/{block.name}: empty block")
        seen_terminator = False
        for i, inst in enumerate(block.instructions):
            is_last = i == len(block.instructions) - 1
            if seen_terminator:
                raise IRError(
                    f"@{fn.name}/{block.name}: instruction after "
                    f"terminator: {inst.opcode} at {i}")
            if inst.is_terminator:
                seen_terminator = True
                if not is_last:
                    # Diagnosed on the *next* iteration with the
                    # offending trailing instruction named; keep
                    # scanning so that message wins.
                    continue
            elif is_last:
                raise IRError(
                    f"@{fn.name}/{block.name}: terminator misplaced at "
                    f"instruction {i}")
            if inst.parent is not block:
                raise IRError(f"@{fn.name}/{block.name}: instruction has "
                              f"wrong parent link: {inst!r}")
            if inst.produces_value:
                if inst in defined:
                    raise IRError(f"@{fn.name}: instruction defined twice")
                defined.add(inst)
        term = block.instructions[-1]
        if isinstance(term, Return):
            _check_return(fn, term)
        if isinstance(term, Terminator):
            for succ in term.successors:
                if succ not in fn.blocks:
                    raise IRError(
                        f"@{fn.name}/{block.name}: branch to foreign "
                        f"block {succ.name}")

    # Every block must be reachable from the entry: transforms that
    # carve up the CFG must erase what they disconnect, and the
    # dataflow passes in repro.staticcheck assume a connected CFG.
    reachable: Set[object] = set()
    work = [fn.entry_block]
    while work:
        block = work.pop()
        if block in reachable:
            continue
        reachable.add(block)
        work.extend(block.successors)
    for block in fn.blocks:
        if block not in reachable:
            raise IRError(f"@{fn.name}/{block.name}: block unreachable "
                          "from entry")

    _check_operands(fn, module, defined)
    for inst in fn.instructions():
        if isinstance(inst, Call):
            _check_call(fn, inst, module)
        elif isinstance(inst, LaunchKernel):
            _check_launch(fn, inst, module)


def _check_return(fn: Function, term: Return) -> None:
    if fn.return_type == VOID:
        if term.value is not None:
            raise IRError(f"@{fn.name}: void function returns a value")
    else:
        if term.value is None:
            raise IRError(f"@{fn.name}: missing return value")
        if term.value.type != fn.return_type:
            raise IRError(
                f"@{fn.name}: returns {term.value.type}, "
                f"declared {fn.return_type}")


def _check_operands(fn: Function, module: Module,
                    defined: Set[Value]) -> None:
    for inst in fn.instructions():
        for op in inst.operands:
            if isinstance(op, (Constant, UndefValue)):
                continue
            if isinstance(op, GlobalVariable):
                if module.globals.get(op.name) is not op:
                    raise IRError(f"@{fn.name}: operand references global "
                                  f"@{op.name} not in module")
                continue
            if isinstance(op, Argument):
                if op.function is not fn:
                    raise IRError(f"@{fn.name}: foreign argument %{op.name}")
                continue
            if isinstance(op, Instruction):
                if op not in defined:
                    raise IRError(f"@{fn.name}: use of undefined register "
                                  f"%{op.name} in {inst.opcode}")
                continue
            raise IRError(f"@{fn.name}: unexpected operand {op!r}")


def _check_call(fn: Function, inst: Call, module: Module) -> None:
    callee = inst.callee
    if module.functions.get(callee.name) is not callee:
        raise IRError(f"@{fn.name}: call to @{callee.name} not in module")
    ftype = callee.type
    if ftype.variadic:
        if len(inst.args) < len(ftype.param_types):
            raise IRError(f"@{fn.name}: too few args to @{callee.name}")
    elif len(inst.args) != len(ftype.param_types):
        raise IRError(f"@{fn.name}: call to @{callee.name} has "
                      f"{len(inst.args)} args, expected "
                      f"{len(ftype.param_types)}")
    for arg, expected in zip(inst.args, ftype.param_types):
        if arg.type != expected:
            raise IRError(
                f"@{fn.name}: call to @{callee.name}: argument type "
                f"{arg.type} != parameter type {expected}")


def _check_launch(fn: Function, inst: LaunchKernel, module: Module) -> None:
    kernel = inst.kernel
    if not kernel.is_kernel:
        raise IRError(f"@{fn.name}: launch of non-kernel @{kernel.name}")
    if module.functions.get(kernel.name) is not kernel:
        raise IRError(f"@{fn.name}: launch of @{kernel.name} not in module")
    expected = kernel.type.param_types[1:]
    if len(inst.args) != len(expected):
        raise IRError(f"@{fn.name}: launch of @{kernel.name} has "
                      f"{len(inst.args)} args, expected {len(expected)}")
    for arg, ty in zip(inst.args, expected):
        if arg.type != ty:
            raise IRError(f"@{fn.name}: launch of @{kernel.name}: "
                          f"argument type {arg.type} != {ty}")
