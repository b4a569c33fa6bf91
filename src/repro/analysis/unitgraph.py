"""Unit-access graph: which allocation units co-occur at launch sites.

The multi-GPU placement pass needs to know, statically, which
allocation units each kernel launch touches and how often units are
touched *together* -- units co-accessed by one launch want to live on
one device, or every launch pays a peer broadcast.  This module builds
that graph from the same facts the static checker already computes
(:class:`~repro.staticcheck.context.CheckContext`): per-kernel access
summaries resolved through launch arguments back to host units.

Nodes are stable string labels (identical across rebuilds of the same
module, which is what placement determinism rests on):

* ``g:<name>``        -- a module global.
* ``h:<fn>:<n>``      -- the *n*-th heap allocation call site
  (``malloc``/``calloc``/``realloc``) in function ``<fn>``, in
  instruction order.
* ``a:<fn>:<n>``      -- likewise for escaping ``alloca`` sites.

Node weight is the unit's statically-known byte size (0 when the
allocation size is dynamic -- the runtime falls back to least-loaded
assignment for those).  Edge weight counts launch sites where both
endpoints are accessed by the same kernel invocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.instructions import Alloca, Call, LaunchKernel
from ..ir.module import Module
from ..ir.values import Constant
from .alias import Root

#: Heap entry points whose results become trackable allocation units.
_HEAP_ALLOC_SITES = ("malloc", "calloc", "realloc")


@dataclass(frozen=True)
class LaunchSite:
    """One static launch: the kernel plus the unit labels it touches."""

    kernel: str
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]
    #: Some operand could not be traced to a unit (placement still
    #: runs, but sharding must be conservative for this kernel).
    unknown: bool = False

    def touched(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for label in self.reads + self.writes:
            if label not in seen:
                seen.append(label)
        return tuple(seen)


@dataclass
class UnitGraph:
    """Co-access graph over allocation-unit labels."""

    #: label -> statically-known size in bytes (0 = dynamic).
    sizes: Dict[str, int] = field(default_factory=dict)
    #: sorted (label, label) pair -> number of co-accessing launches.
    edges: Dict[Tuple[str, str], int] = field(default_factory=dict)
    launches: List[LaunchSite] = field(default_factory=list)

    def add_unit(self, label: str, size: int) -> None:
        if label not in self.sizes or self.sizes[label] == 0:
            self.sizes[label] = size

    def add_edge(self, a: str, b: str, weight: int = 1) -> None:
        if a == b:
            return
        key = (a, b) if a < b else (b, a)
        self.edges[key] = self.edges.get(key, 0) + weight

    def affinity(self, label: str) -> Dict[str, int]:
        """Edge weights from ``label`` to every neighbour."""
        out: Dict[str, int] = {}
        for (a, b), w in self.edges.items():
            if a == label:
                out[b] = out.get(b, 0) + w
            elif b == label:
                out[a] = out.get(a, 0) + w
        return out


def _site_size(inst: Call) -> int:
    """Bytes a constant-argument heap call site allocates (else 0)."""
    args = inst.args
    if not args or not all(isinstance(a, Constant) for a in args):
        return 0
    if inst.callee.name == "calloc":
        return int(args[0].value) * int(args[1].value)
    return int(args[-1].value)


def label_units(module: Module) -> Dict[int, str]:
    """Deterministic label for every labelable root, keyed by ``id``.

    Keyed by object identity because IR values are not hashable by
    content; the walk order (functions, then instructions) fixes the
    per-function site numbering.
    """
    labels: Dict[int, str] = {}
    for g in module.globals.values():
        labels[id(g)] = f"g:{g.name}"
    for fn in module.defined_functions():
        heap_n = 0
        alloca_n = 0
        for inst in fn.instructions():
            if isinstance(inst, Call) \
                    and inst.callee.name in _HEAP_ALLOC_SITES:
                labels[id(inst)] = f"h:{fn.name}:{heap_n}"
                heap_n += 1
            elif isinstance(inst, Alloca):
                labels[id(inst)] = f"a:{fn.name}:{alloca_n}"
                alloca_n += 1
    return labels


def build_unit_graph(module: Module,
                     context: Optional[object] = None) -> UnitGraph:
    """Build the co-access graph for ``module``.

    ``context`` is an optional pre-built
    :class:`~repro.staticcheck.context.CheckContext` (the linter passes
    its own so kernel summaries are computed once).
    """
    from ..staticcheck.context import (CheckContext, launch_arg_host_roots)
    ctx = context if context is not None else CheckContext(module)
    labels = label_units(module)
    graph = UnitGraph()
    for g in module.globals.values():
        graph.add_unit(f"g:{g.name}", g.size)

    def resolve(root: Root) -> Optional[str]:
        label = labels.get(id(root))
        if label is None:
            return None
        if label.startswith("h:") and isinstance(root, Call):
            graph.add_unit(label, _site_size(root))
        elif label.startswith("a:") and isinstance(root, Alloca):
            count = root.count
            size = root.allocated_type.size * int(count.value) \
                if isinstance(count, Constant) else 0
            graph.add_unit(label, size)
        else:
            graph.add_unit(label, graph.sizes.get(label, 0))
        return label

    for fn in module.defined_functions():
        for inst in fn.instructions():
            if not isinstance(inst, LaunchKernel):
                continue
            access = ctx.kernel_access(inst.kernel)
            unknown = access.unknown
            reads: List[str] = []
            writes: List[str] = []

            def collect(roots, into):
                nonlocal unknown
                for root in roots:
                    label = resolve(root)
                    if label is None:
                        unknown = True
                    elif label not in into:
                        into.append(label)

            collect(access.reads, reads)
            collect(access.writes, writes)
            # The kernel's first formal is the thread id; launch args
            # bind formals 1..n, so formal index i is args[i - 1].
            for index in sorted(access.formal_reads | access.formal_writes):
                if index == 0 or index > len(inst.args):
                    unknown = True
                    continue
                mapped, raw = launch_arg_host_roots(inst.args[index - 1])
                hosts = mapped + raw
                if not hosts:
                    unknown = True
                for root in hosts:
                    label = resolve(root)
                    if label is None:
                        unknown = True
                        continue
                    if index in access.formal_reads and label not in reads:
                        reads.append(label)
                    if index in access.formal_writes and label not in writes:
                        writes.append(label)
            site = LaunchSite(inst.kernel.name, tuple(reads), tuple(writes),
                              unknown)
            graph.launches.append(site)
            touched = site.touched()
            for i, a in enumerate(touched):
                for b in touched[i + 1:]:
                    graph.add_edge(a, b)
    return graph
