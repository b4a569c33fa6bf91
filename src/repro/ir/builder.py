"""IRBuilder: convenience API for emitting instructions.

The builder tracks an insertion block and appends instructions to it,
naming every value-producing instruction uniquely within the function.
It mirrors LLVM's IRBuilder in spirit but stays intentionally small.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..errors import IRError
from .block import BasicBlock
from .function import Function
from .instructions import (Alloca, BinaryOp, Branch, Call, Cast, Compare,
                           CondBranch, GetElementPtr, Instruction,
                           LaunchKernel, Load, Return, Select, Store,
                           Unreachable)
from .types import IntType, PointerType, Type, I32, I64
from .values import Constant, Value

#: Python scalars are auto-wrapped into constants where a Value is expected.
Operand = Union[Value, int, float]


class IRBuilder:
    """Emits instructions at the end of a current basic block."""

    def __init__(self, block: Optional[BasicBlock] = None):
        self.block = block

    @property
    def function(self) -> Function:
        if self.block is None or self.block.parent is None:
            raise IRError("builder is not positioned inside a function")
        return self.block.parent

    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    def _emit(self, inst: Instruction, hint: str = "t") -> Instruction:
        if self.block is None:
            raise IRError("builder has no insertion block")
        if inst.produces_value and not inst.name:
            inst.name = self.function.unique_name(hint)
        self.block.append(inst)
        return inst

    def _value(self, operand: Operand, type_hint: Optional[Type] = None) -> Value:
        if isinstance(operand, Value):
            return operand
        if type_hint is None:
            type_hint = I64 if isinstance(operand, int) else None
        if type_hint is None:
            raise IRError(f"cannot infer constant type for {operand!r}")
        return Constant(type_hint, operand)

    # -- constants -------------------------------------------------------

    @staticmethod
    def const(type_: Type, value: Union[int, float]) -> Constant:
        return Constant(type_, value)

    @staticmethod
    def i64(value: int) -> Constant:
        return Constant(I64, value)

    @staticmethod
    def i32(value: int) -> Constant:
        return Constant(I32, value)

    # -- memory ----------------------------------------------------------

    def alloca(self, allocated_type: Type, count: Operand = 1,
               name: str = "") -> Alloca:
        count_v = self._value(count, I64)
        return self._emit(Alloca(allocated_type, count_v, name),
                          name or "addr")  # type: ignore[return-value]

    def load(self, ptr: Value, name: str = "") -> Load:
        return self._emit(Load(ptr, name), name or "val")  # type: ignore

    def store(self, value: Operand, ptr: Value) -> Store:
        if not isinstance(ptr.type, PointerType):
            raise IRError("store target must be a pointer")
        value_v = self._value(value, ptr.type.pointee)
        return self._emit(Store(value_v, ptr))  # type: ignore[return-value]

    def gep(self, ptr: Value, indices: Sequence[Operand],
            name: str = "") -> GetElementPtr:
        index_vs = [self._value(i, I64) for i in indices]
        return self._emit(GetElementPtr(ptr, index_vs, name),
                          name or "elem")  # type: ignore[return-value]

    # -- arithmetic ------------------------------------------------------

    def binop(self, op: str, lhs: Value, rhs: Operand,
              name: str = "") -> BinaryOp:
        rhs_v = self._value(rhs, lhs.type)
        return self._emit(BinaryOp(op, lhs, rhs_v, name),
                          name or op)  # type: ignore[return-value]

    def add(self, lhs: Value, rhs: Operand, name: str = "") -> BinaryOp:
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Operand, name: str = "") -> BinaryOp:
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Operand, name: str = "") -> BinaryOp:
        return self.binop("mul", lhs, rhs, name)

    def div(self, lhs: Value, rhs: Operand, name: str = "") -> BinaryOp:
        return self.binop("div", lhs, rhs, name)

    def rem(self, lhs: Value, rhs: Operand, name: str = "") -> BinaryOp:
        return self.binop("rem", lhs, rhs, name)

    def cmp(self, pred: str, lhs: Value, rhs: Operand,
            name: str = "") -> Compare:
        rhs_v = self._value(rhs, lhs.type)
        return self._emit(Compare(pred, lhs, rhs_v, name),
                          name or "cond")  # type: ignore[return-value]

    def select(self, cond: Value, if_true: Value, if_false: Value,
               name: str = "") -> Select:
        return self._emit(Select(cond, if_true, if_false, name),
                          name or "sel")  # type: ignore[return-value]

    # -- casts -----------------------------------------------------------

    def cast(self, kind: str, value: Value, to_type: Type,
             name: str = "") -> Value:
        if value.type == to_type and kind == "bitcast":
            return value
        return self._emit(Cast(kind, value, to_type, name),
                          name or kind)  # type: ignore[return-value]

    def int_cast(self, value: Value, to_type: IntType,
                 name: str = "") -> Value:
        """Sign-extend or truncate an integer to ``to_type``."""
        if value.type == to_type:
            return value
        assert isinstance(value.type, IntType)
        kind = "sext" if value.type.size < to_type.size else "trunc"
        return self.cast(kind, value, to_type, name)

    def bitcast(self, value: Value, to_type: Type, name: str = "") -> Value:
        if value.type == to_type:
            return value
        return self.cast("bitcast", value, to_type, name)

    # -- control flow ----------------------------------------------------

    def br(self, target: BasicBlock) -> Branch:
        return self._emit(Branch(target))  # type: ignore[return-value]

    def cbr(self, cond: Value, if_true: BasicBlock,
            if_false: BasicBlock) -> CondBranch:
        return self._emit(CondBranch(cond, if_true, if_false))  # type: ignore

    def ret(self, value: Optional[Operand] = None) -> Return:
        value_v: Optional[Value] = None
        if value is not None:
            value_v = self._value(value, self.function.return_type)
        return self._emit(Return(value_v))  # type: ignore[return-value]

    def unreachable(self) -> Unreachable:
        return self._emit(Unreachable())  # type: ignore[return-value]

    # -- calls -----------------------------------------------------------

    def call(self, callee: Function, args: Sequence[Operand],
             name: str = "") -> Call:
        ftype = callee.type
        if (not ftype.variadic and len(args) != len(ftype.param_types)):
            raise IRError(
                f"call to @{callee.name}: expected "
                f"{len(ftype.param_types)} args, got {len(args)}")
        arg_vs = []
        for i, arg in enumerate(args):
            hint = ftype.param_types[i] if i < len(ftype.param_types) else None
            arg_vs.append(self._value(arg, hint))
        return self._emit(Call(callee, arg_vs, name),
                          name or callee.name)  # type: ignore[return-value]

    def launch(self, kernel: Function, grid: Operand,
               args: Sequence[Value]) -> LaunchKernel:
        if not kernel.is_kernel:
            raise IRError(f"@{kernel.name} is not a kernel")
        grid_v = self._value(grid, I64)
        return self._emit(LaunchKernel(kernel, grid_v, list(args)))  # type: ignore
