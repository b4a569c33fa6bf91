"""Type system for the repro IR.

The IR is typed much like LLVM's: integers of fixed bit width, IEEE
floats, pointers with a pointee type, fixed-length arrays, named
structs, and function types.  Sizes and alignments follow a 64-bit
LP64 data model (pointers are 8 bytes).

Types are immutable and compared structurally; the common scalar types
are exposed as module-level singletons (``I32``, ``F64``, ...).
"""

from __future__ import annotations

from typing import Sequence, Tuple

POINTER_SIZE = 8
POINTER_ALIGN = 8


class Type:
    """Base class for all IR types."""

    @property
    def size(self) -> int:
        """Size of a value of this type in bytes."""
        raise NotImplementedError

    @property
    def align(self) -> int:
        """Natural alignment of this type in bytes."""
        raise NotImplementedError

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_aggregate(self) -> bool:
        return isinstance(self, (ArrayType, StructType))

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_scalar(self) -> bool:
        return self.is_integer or self.is_float or self.is_pointer

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Type) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        raise NotImplementedError

    def __repr__(self) -> str:
        return str(self)


class VoidType(Type):
    """The absence of a value; only valid as a function return type."""

    @property
    def size(self) -> int:
        raise ValueError("void has no size")

    @property
    def align(self) -> int:
        raise ValueError("void has no alignment")

    def _key(self) -> tuple:
        return ("void",)

    def __str__(self) -> str:
        return "void"


class IntType(Type):
    """A signed two's-complement integer of ``bits`` width.

    The IR follows C's model: arithmetic wraps at the type width and
    comparisons are signed unless an unsigned opcode is used.
    """

    def __init__(self, bits: int):
        if bits not in (1, 8, 16, 32, 64):
            raise ValueError(f"unsupported integer width: {bits}")
        self.bits = bits

    @property
    def size(self) -> int:
        return max(1, self.bits // 8)

    @property
    def align(self) -> int:
        return self.size

    @property
    def min_value(self) -> int:
        if self.bits == 1:
            return 0
        return -(1 << (self.bits - 1))

    @property
    def max_value(self) -> int:
        if self.bits == 1:
            return 1
        return (1 << (self.bits - 1)) - 1

    def wrap(self, value: int) -> int:
        """Wrap a Python int into this type's signed range (i1 is 0/1)."""
        if self.bits == 1:
            return value & 1
        mask = (1 << self.bits) - 1
        value &= mask
        if value > self.max_value:
            value -= 1 << self.bits
        return value

    def _key(self) -> tuple:
        return ("int", self.bits)

    def __str__(self) -> str:
        return f"i{self.bits}"


class FloatType(Type):
    """An IEEE-754 binary float: 32-bit single or 64-bit double."""

    def __init__(self, bits: int):
        if bits not in (32, 64):
            raise ValueError(f"unsupported float width: {bits}")
        self.bits = bits

    @property
    def size(self) -> int:
        return self.bits // 8

    @property
    def align(self) -> int:
        return self.size

    def _key(self) -> tuple:
        return ("float", self.bits)

    def __str__(self) -> str:
        return f"f{self.bits}"


class PointerType(Type):
    """A pointer to values of ``pointee`` type.

    ``ptr<void>`` (spelled via :data:`VOID`) is the opaque pointer used
    for ``malloc`` results and bitcasts, mirroring C's ``void *``.
    """

    def __init__(self, pointee: Type):
        self.pointee = pointee

    @property
    def size(self) -> int:
        return POINTER_SIZE

    @property
    def align(self) -> int:
        return POINTER_ALIGN

    def _key(self) -> tuple:
        return ("ptr", self.pointee._key())

    def __str__(self) -> str:
        return f"ptr<{self.pointee}>"


class ArrayType(Type):
    """A fixed-length array of ``count`` elements of ``element`` type."""

    def __init__(self, element: Type, count: int):
        if count < 0:
            raise ValueError("array count must be non-negative")
        self.element = element
        self.count = count

    @property
    def size(self) -> int:
        return self.element.size * self.count

    @property
    def align(self) -> int:
        return self.element.align

    def _key(self) -> tuple:
        return ("array", self.element._key(), self.count)

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"


class StructType(Type):
    """A named struct with ordered fields, laid out with natural padding."""

    def __init__(self, name: str, fields: Sequence[Tuple[str, Type]]):
        self.name = name
        self.fields = tuple(fields)

    def field_index(self, name: str) -> int:
        for i, (field_name, _) in enumerate(self.fields):
            if field_name == name:
                return i
        raise KeyError(f"struct {self.name} has no field {name!r}")

    def field_offset(self, index: int) -> int:
        """Byte offset of field ``index`` including alignment padding."""
        offset = 0
        for i, (_, ty) in enumerate(self.fields):
            offset = _align_up(offset, ty.align)
            if i == index:
                return offset
            offset += ty.size
        raise IndexError(index)

    @property
    def size(self) -> int:
        offset = 0
        for _, ty in self.fields:
            offset = _align_up(offset, ty.align) + ty.size
        return _align_up(offset, self.align) if self.fields else 0

    @property
    def align(self) -> int:
        return max((ty.align for _, ty in self.fields), default=1)

    def _key(self) -> tuple:
        return ("struct", self.name, tuple((n, t._key()) for n, t in self.fields))

    def __str__(self) -> str:
        return f"%{self.name}"


class FunctionType(Type):
    """The type of a function: return type plus parameter types."""

    def __init__(self, return_type: Type, param_types: Sequence[Type],
                 variadic: bool = False):
        self.return_type = return_type
        self.param_types = tuple(param_types)
        self.variadic = variadic

    @property
    def size(self) -> int:
        raise ValueError("function types have no size")

    @property
    def align(self) -> int:
        raise ValueError("function types have no alignment")

    def _key(self) -> tuple:
        return ("func", self.return_type._key(),
                tuple(t._key() for t in self.param_types), self.variadic)

    def __str__(self) -> str:
        params = ", ".join(str(t) for t in self.param_types)
        if self.variadic:
            params = f"{params}, ..." if params else "..."
        return f"{self.return_type} ({params})"


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)

#: The opaque pointer type used for untyped memory (C's ``void *``).
RAW_PTR = PointerType(I8)


def pointer_to(pointee: Type) -> PointerType:
    """Convenience constructor mirroring ``Type*`` in C."""
    return PointerType(pointee)
