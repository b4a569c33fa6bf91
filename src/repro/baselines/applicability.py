"""Applicability analysis for prior communication-management systems.

Backs Table 1 (the feature matrix) and Table 3's applicability columns.
The paper characterizes prior techniques as follows:

* **Named regions** (OpenMP-to-GPGPU [12]; the affine technique [24]
  has the same applicability): every live-in must be a *distinct named
  allocation unit* (a global variable, not a heap block or an alias),
  array indexes must be induction-based (no pointer casts feeding
  addresses), and at most one level of indirection is supported.
* **Inspector-executor** [4, 14, 22]: live-ins must also be distinct
  named allocation units with single indirection, but irregular
  (non-affine) indexing is fine.  "Although inspector-executor and
  named region based techniques have different applicability guards,
  they both fail to transfer memory for the same set of kernels."
* **CGCM**: applicable whenever its two restrictions hold (max double
  indirection, no pointer stores in kernels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from ..analysis.alias import underlying_objects
from ..analysis.typeinfer import infer_pointer_depths
from ..ir.function import Function
from ..ir.instructions import (Call, Cast, GetElementPtr, LaunchKernel, Load,
                               Store)
from ..ir.module import Module
from ..ir.values import Argument, GlobalVariable, Value


@dataclass
class KernelApplicability:
    """Which techniques can manage communication for one kernel."""

    kernel: str
    cgcm: bool
    inspector_executor: bool
    named_regions: bool


def analyze_kernel(kernel: Function, module: Module,
                   launches: List[LaunchKernel]) -> KernelApplicability:
    depths = infer_pointer_depths(kernel, module)
    live_in = depths.live_in_depths()

    cgcm_ok = not depths.check_restrictions()
    max_depth = max(live_in.values(), default=0)

    named_units = _live_ins_are_distinct_named_units(live_in, launches)
    single_indirection = max_depth <= 1
    induction_indexed = _indexing_is_induction_based(kernel, module)

    return KernelApplicability(
        kernel=kernel.name,
        cgcm=cgcm_ok,
        inspector_executor=named_units and single_indirection,
        named_regions=(named_units and single_indirection
                       and induction_indexed),
    )


def _live_ins_are_distinct_named_units(live_in: Dict[Value, int],
                                       launches: List[LaunchKernel]
                                       ) -> bool:
    """Each live-in pointer must resolve to its own global variable."""
    for launch in launches:
        seen: Set[GlobalVariable] = set()
        for formal, depth in live_in.items():
            if depth < 1:
                continue
            if isinstance(formal, GlobalVariable):
                roots = frozenset({formal})
            elif isinstance(formal, Argument):
                position = formal.index - 1
                if position >= len(launch.args):
                    return False
                roots = underlying_objects(launch.args[position])
            else:
                return False
            if len(roots) != 1:
                return False  # may point to several units: aliasing
            root = next(iter(roots))
            if not isinstance(root, GlobalVariable):
                return False  # heap / stack: not a named region
            if root in seen:
                return False  # two live-ins share a unit: aliasing
            seen.add(root)
    return True


def _indexing_is_induction_based(kernel: Function,
                                 module: Module) -> bool:
    """Every address must be a GEP chain over parameters/globals with
    no pointer casts or loaded pointers feeding it (approximates
    "induction-variable based array indexes" + no pointer arithmetic).
    """
    functions = [kernel]
    seen = {kernel}
    while functions:
        fn = functions.pop()
        for inst in fn.instructions():
            if isinstance(inst, Call) and not inst.callee.is_declaration \
                    and inst.callee not in seen:
                seen.add(inst.callee)
                functions.append(inst.callee)
            if isinstance(inst, (Load, Store)):
                if not _clean_address(inst.pointer):
                    return False
    return True


def _clean_address(pointer: Value, _depth: int = 0) -> bool:
    if _depth > 32:
        return False
    from ..ir.instructions import Alloca, BinaryOp, Cast as CastInst
    if isinstance(pointer, (Argument, GlobalVariable, Alloca)):
        return True
    if isinstance(pointer, GetElementPtr):
        if not _clean_address(pointer.pointer, _depth + 1):
            return False
        return all(_induction_index(index, _depth + 1)
                   for index in pointer.indices)
    if isinstance(pointer, Load):
        # Reloading a spilled parameter is fine; loading a pointer out
        # of data is not induction-based indexing.
        return isinstance(pointer.pointer, Alloca)
    if isinstance(pointer, Cast):
        return False  # pointer arithmetic through casts
    return False


def _induction_index(index: Value, _depth: int = 0) -> bool:
    """Is a subscript derived only from induction variables and
    constants (not loaded from data)?"""
    if _depth > 32:
        return False
    from ..ir.instructions import Alloca, BinaryOp, Cast as CastInst
    from ..ir.values import Constant
    if isinstance(index, (Constant, Argument)):
        return True
    if isinstance(index, Load):
        return isinstance(index.pointer, Alloca)  # spilled scalar
    if isinstance(index, (BinaryOp, CastInst)):
        return all(_induction_index(op, _depth + 1)
                   for op in index.operands)
    return False


@dataclass
class ProgramApplicability:
    """Per-program kernel counts for Table 3."""

    total_kernels: int
    cgcm: int
    inspector_executor: int
    named_regions: int
    details: List[KernelApplicability]


def analyze_module(module: Module) -> ProgramApplicability:
    """Applicability counts over every kernel of a transformed module."""
    launches_by_kernel: Dict[Function, List[LaunchKernel]] = {}
    for fn in module.defined_functions():
        for inst in fn.instructions():
            if isinstance(inst, LaunchKernel):
                launches_by_kernel.setdefault(inst.kernel, []).append(inst)
    details = [analyze_kernel(kernel, module, launches)
               for kernel, launches in launches_by_kernel.items()]
    details.sort(key=lambda d: d.kernel)
    return ProgramApplicability(
        total_kernels=len(details),
        cgcm=sum(d.cgcm for d in details),
        inspector_executor=sum(d.inspector_executor for d in details),
        named_regions=sum(d.named_regions for d in details),
        details=details,
    )
