"""Call graph over direct calls, with recursion detection.

MiniC has no function pointers, so the graph is exact.  Map promotion
and alloca promotion climb this graph; recursive functions are
ineligible (paper section 5.1).
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir.function import Function
from ..ir.instructions import Call, LaunchKernel
from ..ir.module import Module


class CallGraph:
    """Direct-call graph of one module (kernels included via launches)."""

    def __init__(self, module: Module):
        self.module = module
        self.callees: Dict[Function, Set[Function]] = {}
        self.callers: Dict[Function, Set[Function]] = {}
        self.call_sites: Dict[Function, List[Call]] = {}
        for fn in module.functions.values():
            self.callees.setdefault(fn, set())
            self.callers.setdefault(fn, set())
            self.call_sites.setdefault(fn, [])
        for fn in module.defined_functions():
            for inst in fn.instructions():
                if isinstance(inst, Call):
                    callee = inst.callee
                    self.callees[fn].add(callee)
                    self.callers.setdefault(callee, set()).add(fn)
                    self.call_sites.setdefault(callee, []).append(inst)
                elif isinstance(inst, LaunchKernel):
                    self.callees[fn].add(inst.kernel)
                    self.callers.setdefault(inst.kernel, set()).add(fn)
        self._recursive = self._find_recursive()

    def _find_recursive(self) -> Set[Function]:
        """Functions on a call-graph cycle (Tarjan SCC)."""
        index: Dict[Function, int] = {}
        lowlink: Dict[Function, int] = {}
        on_stack: Set[Function] = set()
        stack: List[Function] = []
        recursive: Set[Function] = set()
        counter = [0]

        def strongconnect(fn: Function) -> None:
            index[fn] = lowlink[fn] = counter[0]
            counter[0] += 1
            stack.append(fn)
            on_stack.add(fn)
            for callee in self.callees.get(fn, ()):
                if callee not in index:
                    strongconnect(callee)
                    lowlink[fn] = min(lowlink[fn], lowlink[callee])
                elif callee in on_stack:
                    lowlink[fn] = min(lowlink[fn], index[callee])
            if lowlink[fn] == index[fn]:
                component: List[Function] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member is fn:
                        break
                if len(component) > 1:
                    recursive.update(component)
                elif fn in self.callees.get(fn, ()):
                    recursive.add(fn)

        for fn in self.module.functions.values():
            if fn not in index:
                strongconnect(fn)
        return recursive

    def is_recursive(self, fn: Function) -> bool:
        return fn in self._recursive

    def call_sites_of(self, fn: Function) -> List[Call]:
        return list(self.call_sites.get(fn, ()))

    def bottom_up(self) -> List[Function]:
        """Defined functions ordered callees-before-callers (best effort
        in the presence of cycles)."""
        order: List[Function] = []
        visited: Set[Function] = set()

        def visit(fn: Function) -> None:
            if fn in visited:
                return
            visited.add(fn)
            for callee in self.callees.get(fn, ()):
                visit(callee)
            if not fn.is_declaration:
                order.append(fn)

        for fn in self.module.functions.values():
            visit(fn)
        return order
