"""Shared per-module facts for the static-checker passes.

One :class:`CheckContext` is built per linted module and threaded
through every pass: the call graph, a mod/ref oracle, the device-side
access summary of each kernel, the pointer-array coverage relation
(which allocation units a ``mapArray``'d unit can hold), and helpers
for resolving launch arguments back to the *host* allocation units
they carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..analysis.alias import (UNKNOWN, Root, is_identified, ordered_roots,
                              underlying_objects)
from ..analysis.callgraph import CallGraph
from ..analysis.modref import ModRefAnalysis
from ..ir.function import Function
from ..ir.instructions import Alloca, Call, LaunchKernel, Load, Store
from ..ir.module import Module
from ..ir.values import Argument, Constant, GlobalVariable
from ..runtime.api import ARRAY_FUNCTIONS, MAP_FUNCTIONS

#: Declared externals that read/write memory through pointer args when
#: called from device code (mirrors modref's memory externals).
_DEVICE_MEMORY_EXTERNALS = frozenset({"memcpy", "memset", "print_str"})


@dataclass
class KernelAccess:
    """Which allocation units a kernel touches, seen from its own IR.

    ``reads``/``writes`` hold module-visible roots (globals and heap
    allocations reached through global pointer slots); ``formal_reads``
    / ``formal_writes`` hold the kernel's own argument indices that are
    dereferenced (resolved to host units per launch site).  ``unknown``
    records that some access could not be traced.
    """

    reads: List[Root] = field(default_factory=list)
    writes: List[Root] = field(default_factory=list)
    formal_reads: Set[int] = field(default_factory=set)
    formal_writes: Set[int] = field(default_factory=set)
    unknown: bool = False


def launch_arg_host_roots(value) -> Tuple[List[Root], List[Root]]:
    """Split a launch argument into host units it carries.

    Returns ``(mapped, raw)``: roots reached through a ``map`` /
    ``mapArray`` result (the unit the run-time translated) versus
    identified host roots passed directly -- the latter means a raw
    host pointer reached the GPU, a dropped-map defect when the kernel
    dereferences that parameter.
    """
    mapped: List[Root] = []
    raw: List[Root] = []
    for root in ordered_roots(underlying_objects(value)):
        if isinstance(root, Call) and root.callee.name in MAP_FUNCTIONS:
            for host in ordered_roots(underlying_objects(root.args[0])):
                if host is not UNKNOWN and not isinstance(host, Constant):
                    mapped.append(host)
        elif root is UNKNOWN or isinstance(root, Constant):
            continue
        elif isinstance(root, Argument):
            continue  # caller's own parameter: cannot judge locally
        else:
            raw.append(root)
    return mapped, raw


class CheckContext:
    """Lazily-computed module-wide facts shared by the passes."""

    def __init__(self, module: Module):
        self.module = module
        self.callgraph = CallGraph(module)
        self.modref = ModRefAnalysis()
        self._kernel_access: Dict[Function, KernelAccess] = {}
        self._coverage: Optional[Dict[Root, FrozenSet[Root]]] = None
        #: Filled by the mapstate pass: per-function summaries.
        self.summaries: Dict[Function, object] = {}
        #: Filled by the hbcheck pass: per-function async summaries.
        self.hb_summaries: Dict[Function, object] = {}

    # -- kernel access summaries -------------------------------------------

    def kernel_access(self, kernel: Function) -> KernelAccess:
        cached = self._kernel_access.get(kernel)
        if cached is None:
            cached = self._device_access(kernel, set())
            self._kernel_access[kernel] = cached
        return cached

    def _device_access(self, fn: Function,
                       stack: Set[Function]) -> KernelAccess:
        """Walk ``fn`` (and defined helpers it calls) on the device."""
        cached = self._kernel_access.get(fn)
        if cached is not None:
            return cached
        acc = KernelAccess()
        if fn in stack or fn.is_declaration:
            acc.unknown = True
            return acc
        stack = stack | {fn}
        for inst in fn.instructions():
            if isinstance(inst, Load):
                self._classify(fn, inst.pointer, acc, write=False)
            elif isinstance(inst, Store):
                self._classify(fn, inst.pointer, acc, write=True)
            elif isinstance(inst, LaunchKernel):
                acc.unknown = True  # nested launch: out of model
            elif isinstance(inst, Call):
                self._device_call(fn, inst, acc, stack)
        self._kernel_access[fn] = acc
        return acc

    def _device_call(self, fn: Function, call: Call, acc: KernelAccess,
                     stack: Set[Function]) -> None:
        callee = call.callee
        if callee.is_declaration:
            if callee.name in _DEVICE_MEMORY_EXTERNALS:
                for arg in call.args:
                    if arg.type.is_pointer:
                        self._classify(fn, arg, acc, write=True)
                        self._classify(fn, arg, acc, write=False)
            return  # pure math / allocation: no unit access
        sub = self._device_access(callee, stack)
        acc.unknown = acc.unknown or sub.unknown
        for root in sub.reads:
            if root not in acc.reads:
                acc.reads.append(root)
        for root in sub.writes:
            if root not in acc.writes:
                acc.writes.append(root)
        for index in sorted(sub.formal_reads | sub.formal_writes):
            if index >= len(call.args):
                acc.unknown = True
                continue
            write = index in sub.formal_writes
            read = index in sub.formal_reads
            if write:
                self._classify(fn, call.args[index], acc, write=True)
            if read:
                self._classify(fn, call.args[index], acc, write=False)

    def _classify(self, fn: Function, pointer, acc: KernelAccess,
                  write: bool) -> None:
        for root in ordered_roots(underlying_objects(pointer)):
            if root is UNKNOWN:
                acc.unknown = True
            elif isinstance(root, Argument):
                if root.function is fn and root.type.is_pointer:
                    (acc.formal_writes if write
                     else acc.formal_reads).add(root.index)
                elif root.function is not fn:
                    acc.unknown = True
            elif isinstance(root, Alloca):
                block = root.parent
                owner = block.parent if block is not None else None
                if owner is not fn:
                    target = acc.writes if write else acc.reads
                    if root not in target:
                        target.append(root)
                # else: device-private scratch, no host unit involved
            elif isinstance(root, (GlobalVariable, Call)):
                target = acc.writes if write else acc.reads
                if root not in target:
                    target.append(root)
            # Constants (null literals) carry no unit.

    # -- pointer-array coverage --------------------------------------------

    @property
    def coverage(self) -> Dict[Root, FrozenSet[Root]]:
        """For each unit ever passed to the ``*Array`` entry points,
        the units its elements may point to (UNKNOWN when a stored
        element could not be traced)."""
        if self._coverage is None:
            self._coverage = self._compute_coverage()
        return self._coverage

    def _compute_coverage(self) -> Dict[Root, FrozenSet[Root]]:
        array_roots: List[Root] = []
        for fn in self.module.defined_functions():
            for inst in fn.instructions():
                if isinstance(inst, Call) and inst.callee.name in ARRAY_FUNCTIONS:
                    for root in ordered_roots(
                            underlying_objects(inst.args[0])):
                        if is_identified(root) \
                                and not isinstance(root, Constant) \
                                and root not in array_roots:
                            array_roots.append(root)
        covered: Dict[Root, Set[Root]] = {u: set() for u in array_roots}
        if not array_roots:
            return {}
        for fn in self.module.defined_functions():
            for inst in fn.instructions():
                if not isinstance(inst, Store):
                    continue
                if not inst.value.type.is_pointer \
                        and inst.value.type.size != 8:
                    continue
                pointer_roots = underlying_objects(inst.pointer)
                hit = [u for u in array_roots if u in pointer_roots]
                if not hit:
                    continue
                value_roots = underlying_objects(inst.value)
                for unit in hit:
                    for root in value_roots:
                        if root is UNKNOWN:
                            covered[unit].add(UNKNOWN)
                        elif not isinstance(root, Constant):
                            covered[unit].add(root)
        return {u: frozenset(roots) for u, roots in covered.items()}

    def covering_arrays(self, root: Root) -> List[Root]:
        """Array units whose elements may include ``root``."""
        return [u for u, contents in self.coverage.items()
                if root in contents or UNKNOWN in contents]
