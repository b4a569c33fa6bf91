"""Instruction set of the repro IR.

The IR is a register machine over typed virtual registers.  Each
instruction that produces a value *is* that value (it subclasses
:class:`Value`), as in LLVM.  Control flow uses explicit basic blocks
with a single terminator at the end of each block.

There is no phi instruction: the MiniC frontend emits allocas for
mutable locals (clang ``-O0`` style), which is also the representation
CGCM's analyses expect -- the interesting objects are allocation units
in memory, not SSA values.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TYPE_CHECKING

from ..errors import IRError
from .types import (ArrayType, FloatType, IntType, PointerType, StructType,
                    Type, VOID, I1, I64, pointer_to)
from .values import Constant, Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from .block import BasicBlock
    from .function import Function

#: Integer-only binary opcodes.
INT_ONLY_BINOPS = frozenset({"and", "or", "xor", "shl", "shr"})
#: All binary opcodes; arithmetic ones work on both ints and floats.
BINARY_OPS = frozenset({"add", "sub", "mul", "div", "rem"}) | INT_ONLY_BINOPS
#: Comparison predicates (signed for integers).
COMPARE_PREDICATES = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})
#: Cast kinds.
CAST_KINDS = frozenset({
    "bitcast", "trunc", "zext", "sext", "fptrunc", "fpext",
    "sitofp", "fptosi", "ptrtoint", "inttoptr",
})


class Instruction(Value):
    """Base class: a typed value computed from ``operands``."""

    opcode = "?"

    def __init__(self, type_: Type, operands: Sequence[Value],
                 name: str = ""):
        super().__init__(type_, name)
        self.operands: List[Value] = list(operands)
        self.parent: Optional["BasicBlock"] = None

    @property
    def is_terminator(self) -> bool:
        return False

    @property
    def produces_value(self) -> bool:
        return not self.type.is_void

    @property
    def function(self) -> Optional["Function"]:
        return self.parent.parent if self.parent is not None else None

    def replace_operand(self, old: Value, new: Value) -> int:
        """Replace every occurrence of ``old`` in operands; returns count."""
        count = 0
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new
                count += 1
        return count

    def erase(self) -> None:
        """Unlink this instruction from its parent block."""
        if self.parent is not None:
            self.parent.instructions.remove(self)
            self.parent = None


class Alloca(Instruction):
    """Reserve ``count`` x ``allocated_type`` bytes in the stack frame.

    The result is the address of the first element.  Every engine
    allocates when the alloca executes, not at function entry: each
    dynamic execution bumps the frame's stack pointer and zero-fills
    fresh bytes, and the function's return releases them all.
    """

    opcode = "alloca"

    def __init__(self, allocated_type: Type, count: Value, name: str = ""):
        super().__init__(pointer_to(allocated_type), [count], name)
        self.allocated_type = allocated_type

    @property
    def count(self) -> Value:
        return self.operands[0]


class Load(Instruction):
    """Read a scalar of the pointee type from memory."""

    opcode = "load"

    def __init__(self, ptr: Value, name: str = ""):
        if not isinstance(ptr.type, PointerType):
            raise IRError(f"load from non-pointer {ptr.type}")
        super().__init__(ptr.type.pointee, [ptr], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class Store(Instruction):
    """Write a scalar value to memory."""

    opcode = "store"

    def __init__(self, value: Value, ptr: Value):
        if not isinstance(ptr.type, PointerType):
            raise IRError(f"store to non-pointer {ptr.type}")
        super().__init__(VOID, [value, ptr])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


def gep_result_type(ptr_type: Type, indices: Sequence[Value]) -> PointerType:
    """Compute the result type of a GEP, LLVM-style.

    The first index steps over whole pointees; each later index drills
    into an array element or (with a constant index) a struct field.
    """
    if not isinstance(ptr_type, PointerType):
        raise IRError(f"gep base must be a pointer, got {ptr_type}")
    if not indices:
        raise IRError("gep requires at least one index")
    current: Type = ptr_type.pointee
    for index in indices[1:]:
        if isinstance(current, ArrayType):
            current = current.element
        elif isinstance(current, StructType):
            if not isinstance(index, Constant):
                raise IRError("struct gep index must be constant")
            fields = current.fields
            if not 0 <= index.value < len(fields):
                raise IRError(f"struct index {index.value} out of range")
            current = fields[index.value][1]
        else:
            raise IRError(f"cannot index into {current}")
    return pointer_to(current)


class GetElementPtr(Instruction):
    """Pointer arithmetic: compute the address of a sub-element."""

    opcode = "gep"

    def __init__(self, ptr: Value, indices: Sequence[Value], name: str = ""):
        result = gep_result_type(ptr.type, list(indices))
        super().__init__(result, [ptr, *indices], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> List[Value]:
        return self.operands[1:]


class BinaryOp(Instruction):
    """Two-operand arithmetic/logic; operand types must match."""

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in BINARY_OPS:
            raise IRError(f"unknown binary op {op!r}")
        if lhs.type != rhs.type:
            raise IRError(f"binop operand mismatch: {lhs.type} vs {rhs.type}")
        if op in INT_ONLY_BINOPS and not isinstance(lhs.type, IntType):
            raise IRError(f"{op} requires integer operands, got {lhs.type}")
        if not (lhs.type.is_integer or lhs.type.is_float):
            raise IRError(f"binop on non-arithmetic type {lhs.type}")
        super().__init__(lhs.type, [lhs, rhs], name)
        self.op = op

    opcode = "binop"

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class Compare(Instruction):
    """Relational comparison producing an ``i1``."""

    opcode = "cmp"

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = ""):
        if pred not in COMPARE_PREDICATES:
            raise IRError(f"unknown compare predicate {pred!r}")
        if lhs.type != rhs.type:
            raise IRError(f"cmp operand mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(I1, [lhs, rhs], name)
        self.pred = pred

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class Cast(Instruction):
    """Convert a value between types (width, signedness, ptr/int)."""

    opcode = "cast"

    def __init__(self, kind: str, value: Value, to_type: Type,
                 name: str = ""):
        if kind not in CAST_KINDS:
            raise IRError(f"unknown cast kind {kind!r}")
        _check_cast(kind, value.type, to_type)
        super().__init__(to_type, [value], name)
        self.kind = kind

    @property
    def value(self) -> Value:
        return self.operands[0]


def _check_cast(kind: str, from_type: Type, to_type: Type) -> None:
    int_to_int = isinstance(from_type, IntType) and isinstance(to_type, IntType)
    fp_to_fp = isinstance(from_type, FloatType) and isinstance(to_type, FloatType)
    rules = {
        "trunc": int_to_int and from_type.size >= to_type.size,
        "zext": int_to_int and from_type.size <= to_type.size,
        "sext": int_to_int and from_type.size <= to_type.size,
        "fptrunc": fp_to_fp and from_type.size >= to_type.size,
        "fpext": fp_to_fp and from_type.size <= to_type.size,
        "sitofp": isinstance(from_type, IntType) and isinstance(to_type, FloatType),
        "fptosi": isinstance(from_type, FloatType) and isinstance(to_type, IntType),
        "ptrtoint": from_type.is_pointer and isinstance(to_type, IntType),
        "inttoptr": isinstance(from_type, IntType) and to_type.is_pointer,
        "bitcast": (from_type.is_pointer and to_type.is_pointer)
        or from_type == to_type,
    }
    if not rules[kind]:
        raise IRError(f"invalid {kind}: {from_type} -> {to_type}")


class Select(Instruction):
    """``cond ? if_true : if_false`` without control flow."""

    opcode = "select"

    def __init__(self, cond: Value, if_true: Value, if_false: Value,
                 name: str = ""):
        if cond.type != I1:
            raise IRError("select condition must be i1")
        if if_true.type != if_false.type:
            raise IRError("select arms must have the same type")
        super().__init__(if_true.type, [cond, if_true, if_false], name)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def if_true(self) -> Value:
        return self.operands[1]

    @property
    def if_false(self) -> Value:
        return self.operands[2]


class Call(Instruction):
    """Direct call to a module function or declared external."""

    opcode = "call"

    def __init__(self, callee: "Function", args: Sequence[Value],
                 name: str = ""):
        ftype = callee.type
        super().__init__(ftype.return_type, list(args), name)
        self.callee = callee

    @property
    def args(self) -> List[Value]:
        return self.operands


class LaunchKernel(Instruction):
    """Spawn a 1-D grid of ``grid`` GPU threads running ``kernel``.

    The kernel's first formal parameter receives the thread id
    (0..grid-1); ``args`` bind the remaining parameters.  This models
    the CUDA ``kernel<<<...>>>(args)`` spawn in the paper's listings.
    """

    opcode = "launch"

    def __init__(self, kernel: "Function", grid: Value,
                 args: Sequence[Value]):
        if grid.type != I64:
            raise IRError("launch grid size must be i64")
        super().__init__(VOID, [grid, *args])
        self.kernel = kernel

    @property
    def grid(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> List[Value]:
        return self.operands[1:]


class Terminator(Instruction):
    """Base for instructions that end a basic block."""

    @property
    def is_terminator(self) -> bool:
        return True

    @property
    def successors(self) -> List["BasicBlock"]:
        return []


class Branch(Terminator):
    """Unconditional jump."""

    opcode = "br"

    def __init__(self, target: "BasicBlock"):
        super().__init__(VOID, [])
        self.target = target

    @property
    def successors(self) -> List["BasicBlock"]:
        return [self.target]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.target is old:
            self.target = new


class CondBranch(Terminator):
    """Two-way conditional jump on an ``i1``."""

    opcode = "cbr"

    def __init__(self, cond: Value, if_true: "BasicBlock",
                 if_false: "BasicBlock"):
        if cond.type != I1:
            raise IRError("cbr condition must be i1")
        super().__init__(VOID, [cond])
        self.if_true = if_true
        self.if_false = if_false

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def successors(self) -> List["BasicBlock"]:
        return [self.if_true, self.if_false]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.if_true is old:
            self.if_true = new
        if self.if_false is old:
            self.if_false = new


class Return(Terminator):
    """Return from the current function, optionally with a value."""

    opcode = "ret"

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None


class Unreachable(Terminator):
    """Marks control flow that must never be reached."""

    opcode = "unreachable"

    def __init__(self):
        super().__init__(VOID, [])
