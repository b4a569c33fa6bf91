"""Global variable layout: serialize initializers and assign addresses.

The CPU address space uses fixed, well-separated segment bases so that
pointer provenance is visible in the numeric value (handy in tests and
traces), and so the GPU's device range can never be confused with a
CPU address:

=========  ==================  =============
segment    base                capacity
=========  ==================  =============
globals    ``0x0001_0000``     64 MiB
heap       ``0x1000_0000``     256 MiB
stack      ``0x7000_0000``     64 MiB
device     ``0xD000_0000``     256 MiB (GPU)
=========  ==================  =============
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Optional, Tuple

from ..errors import MemoryFault
from ..ir.module import Module
from ..ir.types import (ArrayType, FloatType, IntType, PointerType,
                        StructType, Type)
from ..ir.values import GlobalRef, Initializer
from .flatmem import FlatMemory, round_f32, scalar_format

GLOBALS_BASE = 0x0001_0000
GLOBALS_CAPACITY = 64 << 20
HEAP_BASE = 0x1000_0000
HEAP_CAPACITY = 256 << 20
STACK_BASE = 0x7000_0000
STACK_CAPACITY = 64 << 20
DEVICE_BASE = 0xD000_0000
DEVICE_CAPACITY = 256 << 20


def make_cpu_memory() -> FlatMemory:
    """A fresh CPU address space with globals/heap/stack segments."""
    memory = FlatMemory("cpu")
    memory.add_segment("globals", GLOBALS_BASE, GLOBALS_CAPACITY)
    memory.add_segment("heap", HEAP_BASE, HEAP_CAPACITY)
    memory.add_segment("stack", STACK_BASE, STACK_CAPACITY)
    return memory


def is_device_address(address: int) -> bool:
    return DEVICE_BASE <= address < DEVICE_BASE + DEVICE_CAPACITY


def initializer_bytes(value_type: Type, init: Initializer,
                      resolve: Callable[[str], int]) -> bytes:
    """Serialize ``init`` as a value of ``value_type``.

    ``resolve`` maps a global's name to its assigned address (used for
    :class:`GlobalRef` initializers such as ``char *xs[] = {s0, s1}``).
    """
    size = value_type.size
    if init is None:
        return b"\x00" * size
    if isinstance(init, bytes):
        if len(init) > size:
            raise MemoryFault(
                f"initializer of {len(init)} bytes overflows {value_type}")
        return init + b"\x00" * (size - len(init))
    if isinstance(init, str):
        data = init.encode("utf-8") + b"\x00"
        return initializer_bytes(value_type, data, resolve)
    if isinstance(init, GlobalRef):
        if not isinstance(value_type, PointerType):
            raise MemoryFault(f"global reference used for {value_type}")
        return struct.pack("<Q", resolve(init.name) + init.offset)
    if isinstance(init, (int, float)):
        if isinstance(value_type, (IntType, FloatType, PointerType)):
            fmt = scalar_format(value_type)
            if isinstance(value_type, IntType):
                return struct.pack(fmt, value_type.wrap(int(init)))
            if isinstance(value_type, PointerType):
                return struct.pack(fmt, int(init))
            if value_type.bits == 32:
                return struct.pack(fmt, round_f32(float(init)))
            return struct.pack(fmt, float(init))
        raise MemoryFault(f"scalar initializer for aggregate {value_type}")
    if isinstance(init, list):
        return _aggregate_bytes(value_type, init, resolve)
    raise MemoryFault(f"unsupported initializer {init!r}")


def _scalar_array_bytes(element: Type, items: list) -> Optional[bytes]:
    """One ``struct.pack`` for an array of plain numbers, or None.

    Each item is converted exactly as :func:`initializer_bytes`
    converts a scalar, so the bytes -- and the exception a bad item
    raises -- match the per-element encoding.  Pointer items must be
    ints: a float there could fail conversion ahead of an earlier
    item's out-of-range error.
    """
    if not isinstance(element, (IntType, FloatType, PointerType)):
        return None
    plain = (int,) if isinstance(element, PointerType) else (int, float)
    if any(type(item) not in plain for item in items):
        return None
    if isinstance(element, IntType):
        wrap = element.wrap
        values = [wrap(int(item)) for item in items]
    elif isinstance(element, PointerType):
        values = items
    elif element.bits == 32:
        values = [round_f32(float(item)) for item in items]
    else:
        values = [float(item) for item in items]
    code = scalar_format(element)[-1]
    return struct.pack(f"<{len(values)}{code}", *values)


def _aggregate_bytes(value_type: Type, items: list,
                     resolve: Callable[[str], int]) -> bytes:
    if isinstance(value_type, ArrayType):
        if len(items) > value_type.count:
            raise MemoryFault(
                f"{len(items)} initializers for {value_type}")
        data = _scalar_array_bytes(value_type.element, items)
        if data is None:
            data = b"".join(initializer_bytes(value_type.element, item,
                                              resolve)
                            for item in items)
        pad = (value_type.count - len(items)) * value_type.element.size
        return data + b"\x00" * pad
    if isinstance(value_type, StructType):
        if len(items) != len(value_type.fields):
            raise MemoryFault(
                f"{len(items)} initializers for struct with "
                f"{len(value_type.fields)} fields")
        out = bytearray(b"\x00" * value_type.size)
        for i, item in enumerate(items):
            field_type = value_type.fields[i][1]
            offset = value_type.field_offset(i)
            data = initializer_bytes(field_type, item, resolve)
            out[offset:offset + len(data)] = data
        return bytes(out)
    raise MemoryFault(f"list initializer for non-aggregate {value_type}")


class GlobalLayout:
    """Assigned addresses for every global in a module."""

    def __init__(self, module: Module):
        self.module = module
        self.addresses: Dict[str, int] = {}
        self.sizes: Dict[str, int] = {}
        cursor = GLOBALS_BASE
        for gv in module.globals.values():
            align = max(gv.value_type.align, 8)
            cursor = (cursor + align - 1) // align * align
            self.addresses[gv.name] = cursor
            self.sizes[gv.name] = gv.size
            cursor += gv.size
        self.end = cursor
        self._image: Optional[bytes] = None

    def address_of(self, name: str) -> int:
        return self.addresses[name]

    def image(self) -> bytes:
        """Every global's initial bytes, from ``GLOBALS_BASE`` to
        :attr:`end` (zero between globals), encoded on first use: a
        layout shared by the machines of one compiled artifact encodes
        its initializers once."""
        if self._image is None:
            image = bytearray(self.end - GLOBALS_BASE)
            for gv in self.module.globals.values():
                offset = self.addresses[gv.name] - GLOBALS_BASE
                image[offset:offset + gv.size] = initializer_bytes(
                    gv.value_type, gv.initializer, self.address_of)
            self._image = bytes(image)
        return self._image

    def install(self, memory: FlatMemory) -> None:
        """Write every global's initial image into CPU memory."""
        if self.end > GLOBALS_BASE:
            memory.write(GLOBALS_BASE, self.image())

    def items(self) -> Tuple[Tuple[str, int, int], ...]:
        """(name, address, size) for every global, in layout order."""
        return tuple((name, self.addresses[name], self.sizes[name])
                     for name in self.addresses)
