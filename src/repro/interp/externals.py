"""External functions provided to interpreted programs.

These model libc/libm plus a few printing and RNG helpers.  Each
external has a fixed IR signature (declared on demand by the frontend
or by tests) and a Python handler ``(machine, args) -> value``.

The CGCM run-time library functions (``map``, ``unmap``, ...) are NOT
here; :mod:`repro.runtime.cgcm` registers them on a machine when the
run-time is attached.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

from ..errors import InterpError
from ..ir.types import FunctionType, F64, I64, RAW_PTR, VOID

#: handler(machine, args) -> python value (or None for void).
Handler = Callable[["object", List[object]], object]

#: Modelled CPU op counts charged per external call.
_CALL_COSTS = {
    "sqrt": 20, "fabs": 4, "exp": 40, "log": 40, "pow": 60, "sin": 40,
    "cos": 40, "tan": 50, "floor": 6, "ceil": 6, "fmax": 4, "fmin": 4,
    "exp2": 40, "atan": 50,
    "malloc": 100, "calloc": 120, "realloc": 150, "free": 80,
    "memset": 10, "memcpy": 10,
    "print_i64": 200, "print_f64": 200, "print_str": 200,
    "srand": 5, "rand_f64": 12, "rand_i64": 12,
    "abs_i64": 4, "exit": 10,
}

#: Externals that kernels may call (pure math only).
GPU_SAFE = frozenset({
    "sqrt", "fabs", "exp", "log", "pow", "sin", "cos", "tan", "floor",
    "ceil", "fmax", "fmin", "abs_i64", "exp2", "atan",
})

#: The ``GPU_SAFE`` externals whose built-in handlers return on every
#: argument of their IR type: no domain error, no overflow.
TOTAL = frozenset({"fabs", "fmax", "fmin", "atan", "abs_i64"})


def external_signatures() -> Dict[str, FunctionType]:
    """IR signatures of every built-in external."""
    f64_1 = FunctionType(F64, [F64])
    f64_2 = FunctionType(F64, [F64, F64])
    return {
        "sqrt": f64_1, "fabs": f64_1, "exp": f64_1, "log": f64_1,
        "sin": f64_1, "cos": f64_1, "tan": f64_1, "floor": f64_1,
        "ceil": f64_1, "exp2": f64_1, "atan": f64_1,
        "pow": f64_2, "fmax": f64_2, "fmin": f64_2,
        "abs_i64": FunctionType(I64, [I64]),
        "malloc": FunctionType(RAW_PTR, [I64]),
        "calloc": FunctionType(RAW_PTR, [I64, I64]),
        "realloc": FunctionType(RAW_PTR, [RAW_PTR, I64]),
        "free": FunctionType(VOID, [RAW_PTR]),
        "memset": FunctionType(RAW_PTR, [RAW_PTR, I64, I64]),
        "memcpy": FunctionType(RAW_PTR, [RAW_PTR, RAW_PTR, I64]),
        "print_i64": FunctionType(VOID, [I64]),
        "print_f64": FunctionType(VOID, [F64]),
        "print_str": FunctionType(VOID, [RAW_PTR]),
        "srand": FunctionType(VOID, [I64]),
        "rand_f64": FunctionType(F64, []),
        "rand_i64": FunctionType(I64, [I64]),
        "exit": FunctionType(VOID, [I64]),
    }


class ExitProgram(Exception):
    """Raised by the ``exit`` external to unwind the interpreter."""

    def __init__(self, code: int):
        super().__init__(f"exit({code})")
        self.code = code


def _pure(call: Callable[..., object]) -> Handler:
    """The handler of a pure-math external that ``call`` computes from
    its arguments alone; compiled code calls ``handler.positional``
    directly."""
    def handler(machine, args):
        return call(*args)
    handler.positional = call
    return handler


def _math1(fn: Callable[[float], float]) -> Handler:
    def call(x):
        try:
            return float(fn(float(x)))
        except ValueError as exc:
            raise InterpError(f"math domain error: {exc}") from exc
    return _pure(call)


def _malloc(machine, args):
    address = machine.heap.malloc(int(args[0]))
    machine.notify_heap("malloc", address, int(args[0]))
    return address


def _calloc(machine, args):
    count, size = int(args[0]), int(args[1])
    address = machine.heap.calloc(count, size)
    machine.notify_heap("malloc", address, count * size)
    return address


def _realloc(machine, args):
    old, new_size = int(args[0]), int(args[1])
    address = machine.heap.realloc(old, new_size)
    if old:
        machine.notify_heap("free", old, 0)
    if address:
        machine.notify_heap("malloc", address, new_size)
    return address


def _free(machine, args):
    address = int(args[0])
    machine.notify_heap("free", address, 0)
    machine.heap.free(address)


def _memset(machine, args):
    dst, byte, size = int(args[0]), int(args[1]), int(args[2])
    machine.memory.fill(dst, size, byte & 0xFF)
    machine.charge_ops(size // 8)
    return dst


def _memcpy(machine, args):
    dst, src, size = int(args[0]), int(args[1]), int(args[2])
    machine.memory.write(dst, machine.memory.read(src, size))
    machine.charge_ops(size // 8)
    return dst


def _print_i64(machine, args):
    machine.stdout.append(str(int(args[0])))


def _print_f64(machine, args):
    machine.stdout.append(f"{float(args[0]):.6g}")


def _print_str(machine, args):
    data = machine.memory.read_c_string(int(args[0]))
    machine.stdout.append(data.decode("utf-8", "replace"))


def _srand(machine, args):
    machine.rng_state = int(args[0]) & 0xFFFFFFFFFFFFFFFF or 1


def _next_rng(machine) -> int:
    # xorshift64*: deterministic, good enough for synthetic inputs.
    x = machine.rng_state
    x ^= (x >> 12) & 0xFFFFFFFFFFFFFFFF
    x ^= (x << 25) & 0xFFFFFFFFFFFFFFFF
    x ^= (x >> 27) & 0xFFFFFFFFFFFFFFFF
    machine.rng_state = x & 0xFFFFFFFFFFFFFFFF
    return (x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF


def _rand_f64(machine, args):
    return (_next_rng(machine) >> 11) / float(1 << 53)


def _rand_i64(machine, args):
    bound = int(args[0])
    if bound <= 0:
        raise InterpError(f"rand_i64 bound must be positive, got {bound}")
    return _next_rng(machine) % bound


def _exit(machine, args):
    raise ExitProgram(int(args[0]))


#: The built-in handlers.  None keeps state of its own (a handler
#: reads and writes only the machine it is given), so every machine's
#: table starts as a copy of this one.
_BUILTIN_HANDLERS: Dict[str, Handler] = {
    "sqrt": _math1(math.sqrt),
    "fabs": _math1(abs),
    "exp": _math1(math.exp),
    "log": _math1(math.log),
    "sin": _math1(math.sin),
    "cos": _math1(math.cos),
    "tan": _math1(math.tan),
    "floor": _math1(math.floor),
    "ceil": _math1(math.ceil),
    "exp2": _math1(lambda x: 2.0 ** x),
    "atan": _math1(math.atan),
    "pow": _pure(lambda x, y: float(math.pow(x, y))),
    "fmax": _pure(lambda x, y: float(max(x, y))),
    "fmin": _pure(lambda x, y: float(min(x, y))),
    "abs_i64": _pure(lambda x: abs(int(x))),
    "malloc": _malloc,
    "calloc": _calloc,
    "realloc": _realloc,
    "free": _free,
    "memset": _memset,
    "memcpy": _memcpy,
    "print_i64": _print_i64,
    "print_f64": _print_f64,
    "print_str": _print_str,
    "srand": _srand,
    "rand_f64": _rand_f64,
    "rand_i64": _rand_i64,
    "exit": _exit,
}


def default_externals() -> Dict[str, Handler]:
    """Handler table for the built-in externals."""
    return dict(_BUILTIN_HANDLERS)


def call_cost(name: str) -> int:
    """Modelled CPU ops charged for calling external ``name``."""
    return _CALL_COSTS.get(name, 20)
