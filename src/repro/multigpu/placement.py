"""Device placement: balanced graph partitioning of allocation units.

The objective mirrors the classic k-way partitioning formulation:
minimize the total edge weight crossing device boundaries (units
co-accessed by one launch want one device, or every launch pays a peer
broadcast) subject to a balance constraint on per-device bytes.  The
solver is the standard greedy: visit units largest-first, assign each
to the device with the strongest affinity (edge weight to units
already placed there) that still fits under the balance cap, breaking
ties toward the lighter device and then the lower index.

Determinism matters more than cut quality here: the same module must
always produce the same assignment (tests pin this), so every ordering
is explicit and there is no randomized refinement pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.unitgraph import UnitGraph, build_unit_graph
from ..gpu.topology import Topology
from ..ir.module import Module

#: Allowed per-device overshoot of the perfectly balanced byte load.
DEFAULT_BALANCE = 0.25


@dataclass
class PlacementPlan:
    """A per-unit device assignment plus the facts it was derived from."""

    topology: Topology
    #: unit label (see :mod:`repro.analysis.unitgraph`) -> home device.
    assignment: Dict[str, int]
    #: statically-estimated bytes homed per device.
    loads: List[int]
    graph: UnitGraph
    #: total co-access weight on edges crossing device boundaries.
    cut_weight: int

    # What the execution coordinator reads from the plan on every run,
    # derived once per plan (a plan is built once per compiled
    # artifact and topology).

    @cached_property
    def size_pool(self) -> Dict[int, List[Tuple[str, int]]]:
        """Statically sized non-global labels by byte size, each with
        its device, in label order: what anonymous heap and stack
        units match against."""
        pool: Dict[int, List[Tuple[str, int]]] = {}
        for label in sorted(self.assignment):
            if label.startswith("g:"):
                continue
            size = self.graph.sizes.get(label, 0)
            if size > 0:
                pool.setdefault(size, []).append(
                    (label, self.assignment[label]))
        return pool

    @cached_property
    def kernel_writes(self) -> Dict[str, Optional[Set[str]]]:
        """Kernel name -> labels its launch sites write, or None when
        some site's operands could not be traced."""
        writes: Dict[str, Optional[Set[str]]] = {}
        for site in self.graph.launches:
            if site.unknown or writes.get(site.kernel, set()) is None:
                writes[site.kernel] = None
            else:
                writes.setdefault(site.kernel, set()).update(site.writes)
        return writes

    def render(self) -> str:
        lines = [f"placement over {self.topology.num_devices} device(s) "
                 f"({self.topology.kind}), cut weight {self.cut_weight}:"]
        for label in sorted(self.assignment):
            size = self.graph.sizes.get(label, 0)
            lines.append(f"  {label:<28} -> gpu{self.assignment[label]}"
                         f"  ({size} B)")
        return "\n".join(lines)


def partition_units(graph: UnitGraph, topology: Topology,
                    balance: float = DEFAULT_BALANCE) -> PlacementPlan:
    """Greedily partition ``graph``'s units across the topology."""
    k = topology.num_devices
    labels = sorted(graph.sizes,
                    key=lambda lb: (-graph.sizes[lb], lb))
    total = sum(graph.sizes.values())
    cap = (1.0 + balance) * total / k if total and k > 1 else float("inf")
    assignment: Dict[str, int] = {}
    loads = [0] * k
    counts = [0] * k
    for label in labels:
        size = graph.sizes[label]
        affinity = [0] * k
        for neighbour, weight in graph.affinity(label).items():
            home = assignment.get(neighbour)
            if home is not None:
                affinity[home] += weight
        fits = [d for d in range(k) if loads[d] + size <= cap]
        if fits:
            best = min(fits,
                       key=lambda d: (-affinity[d], loads[d], counts[d], d))
        else:
            # No device admits the unit under the balance cap (it is
            # large relative to total/k): the constraint is infeasible,
            # so fall back to pure load balancing -- letting affinity
            # win here would pile every big co-accessed unit onto one
            # device and serialize their uploads.
            best = min(range(k), key=lambda d: (loads[d], counts[d], d))
        assignment[label] = best
        loads[best] += size
        counts[best] += 1
    cut = sum(weight for (a, b), weight in graph.edges.items()
              if assignment.get(a) != assignment.get(b))
    return PlacementPlan(topology, assignment, loads, graph, cut)


def plan_placement(module: Module, topology: Topology,
                   context: Optional[object] = None,
                   balance: float = DEFAULT_BALANCE) -> PlacementPlan:
    """Build the unit-access graph for ``module`` and partition it."""
    return partition_units(build_unit_graph(module, context), topology,
                           balance)
