"""The single registry of CGCM run-time entry points.

Every subsystem that reasons about the run-time library's call surface
-- the communication-management transform, the comm-overlap scheduler,
the static checkers, the alias analysis, and the sanitizer -- used to
carry its own hand-written tuple of entry-point names.  Those string
tables drifted independently as the API grew (the async twins of PR 4
had to be patched into four different files).  This module is now the
one source of truth: each entry point is described once as a
:class:`RuntimeEntryPoint` (name, operation kind, sync/async twin,
unit kind, and a host-memory mod/ref summary), and every derived
name table below is computed from the registry.

Import the name tables from here; do not write new literal name
tuples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..ir.types import FunctionType, I64, RAW_PTR, VOID


class EntryOp(enum.Enum):
    """What an entry point does to its allocation unit."""

    MAP = "map"          #: copy host->device, bump references
    UNMAP = "unmap"      #: copy device->host when stale
    RELEASE = "release"  #: drop a reference, free at zero
    DECLARE = "declare"  #: register an allocation unit
    SYNC = "sync"        #: host barrier for deferred write-backs


class UnitKind(enum.Enum):
    """Indirection degree of the unit an entry point manages."""

    SCALAR = "scalar"  #: singly-indirect pointer: one unit
    ARRAY = "array"    #: doubly-indirect: the pointer array + elements
    NONE = "none"      #: no unit operand (declare/sync entry points)


@dataclass(frozen=True)
class RuntimeEntryPoint:
    """One run-time library call, fully described.

    ``reads_host``/``writes_host`` summarize the entry point's effect
    on *host* memory of the managed unit: ``map`` reads the unit (the
    HtoD copy ships its bytes), ``unmap`` writes it (the DtoH
    write-back lands in it).  The analyses treat run-time calls as
    coherently managed rather than as ordinary accesses, but the
    summary is what makes that decision auditable in one place.
    """

    name: str
    op: EntryOp
    unit_kind: UnitKind
    signature: FunctionType
    is_async: bool = False
    #: Name of the sync/async twin entry point, if one exists.
    twin: Optional[str] = None
    reads_host: bool = False
    writes_host: bool = False


def _entry(name: str, op: EntryOp, unit_kind: UnitKind,
           signature: FunctionType, **kwargs) -> RuntimeEntryPoint:
    return RuntimeEntryPoint(name, op, unit_kind, signature, **kwargs)


_PTR_TO_PTR = FunctionType(RAW_PTR, [RAW_PTR])
_PTR_TO_VOID = FunctionType(VOID, [RAW_PTR])

#: The registry, in the paper's declaration order (Table 2, then the
#: asynchronous variants of the streams subsystem, then the barrier).
ENTRY_POINTS: Dict[str, RuntimeEntryPoint] = {
    ep.name: ep for ep in (
        _entry("map", EntryOp.MAP, UnitKind.SCALAR, _PTR_TO_PTR,
               twin="mapAsync", reads_host=True),
        _entry("unmap", EntryOp.UNMAP, UnitKind.SCALAR, _PTR_TO_VOID,
               twin="unmapAsync", writes_host=True),
        _entry("release", EntryOp.RELEASE, UnitKind.SCALAR, _PTR_TO_VOID),
        _entry("mapArray", EntryOp.MAP, UnitKind.ARRAY, _PTR_TO_PTR,
               twin="mapArrayAsync", reads_host=True),
        _entry("unmapArray", EntryOp.UNMAP, UnitKind.ARRAY, _PTR_TO_VOID,
               twin="unmapArrayAsync", writes_host=True),
        _entry("releaseArray", EntryOp.RELEASE, UnitKind.ARRAY,
               _PTR_TO_VOID),
        _entry("declareAlloca", EntryOp.DECLARE, UnitKind.NONE,
               FunctionType(RAW_PTR, [I64])),
        _entry("declareGlobal", EntryOp.DECLARE, UnitKind.NONE,
               FunctionType(VOID, [RAW_PTR, RAW_PTR, I64, I64])),
        _entry("mapAsync", EntryOp.MAP, UnitKind.SCALAR, _PTR_TO_PTR,
               is_async=True, twin="map", reads_host=True),
        _entry("unmapAsync", EntryOp.UNMAP, UnitKind.SCALAR, _PTR_TO_VOID,
               is_async=True, twin="unmap", writes_host=True),
        _entry("mapArrayAsync", EntryOp.MAP, UnitKind.ARRAY, _PTR_TO_PTR,
               is_async=True, twin="mapArray", reads_host=True),
        _entry("unmapArrayAsync", EntryOp.UNMAP, UnitKind.ARRAY,
               _PTR_TO_VOID, is_async=True, twin="unmapArray",
               writes_host=True),
        _entry("cgcmSync", EntryOp.SYNC, UnitKind.NONE,
               FunctionType(VOID, [])),
    )
}


def entry(name: str) -> RuntimeEntryPoint:
    """The registry record for ``name`` (KeyError for non-runtime)."""
    return ENTRY_POINTS[name]


def is_runtime_call(name: str) -> bool:
    return name in ENTRY_POINTS


def _names(op: Optional[EntryOp] = None,
           unit_kind: Optional[UnitKind] = None,
           is_async: Optional[bool] = None) -> Tuple[str, ...]:
    out = []
    for ep in ENTRY_POINTS.values():
        if op is not None and ep.op is not op:
            continue
        if unit_kind is not None and ep.unit_kind is not unit_kind:
            continue
        if is_async is not None and ep.is_async is not is_async:
            continue
        out.append(ep.name)
    return tuple(out)


#: IR signatures of every entry point (paper Table 2 + extensions).
RUNTIME_SIGNATURES: Dict[str, FunctionType] = {
    name: ep.signature for name, ep in ENTRY_POINTS.items()}

RUNTIME_FUNCTION_NAMES: Tuple[str, ...] = tuple(ENTRY_POINTS)

#: Names of the map/unmap/release families (sync and async members).
MAP_FUNCTIONS = _names(op=EntryOp.MAP)
UNMAP_FUNCTIONS = _names(op=EntryOp.UNMAP)
RELEASE_FUNCTIONS = _names(op=EntryOp.RELEASE)

#: Doubly-indirect (pointer-array) members of each family.
MAP_ARRAY_FUNCTIONS = _names(op=EntryOp.MAP, unit_kind=UnitKind.ARRAY)
UNMAP_ARRAY_FUNCTIONS = _names(op=EntryOp.UNMAP, unit_kind=UnitKind.ARRAY)
RELEASE_ARRAY_FUNCTIONS = _names(op=EntryOp.RELEASE,
                                 unit_kind=UnitKind.ARRAY)

#: Every entry point managing a pointer-array unit.
ARRAY_FUNCTIONS = (MAP_ARRAY_FUNCTIONS + UNMAP_ARRAY_FUNCTIONS
                   + RELEASE_ARRAY_FUNCTIONS)

#: Entry points whose spans go to the copy streams instead of blocking
#: the host (rewritten in by ``transforms/comm_overlap``).
ASYNC_RUNTIME_FUNCTIONS = _names(is_async=True)

#: sync name -> async name, for the comm-overlap rewrite.
ASYNC_VARIANTS: Dict[str, str] = {
    ep.name: ep.twin for ep in ENTRY_POINTS.values()
    if not ep.is_async and ep.twin is not None}

#: async name -> sync name: the inverse rewrite, used by translation
#: validation to compare runtime-call multisets modulo the async twin
#: renaming.
SYNC_TWINS: Dict[str, str] = {
    ep.name: ep.twin for ep in ENTRY_POINTS.values()
    if ep.is_async and ep.twin is not None}

SYNC_FUNCTION = _names(op=EntryOp.SYNC)[0]

#: Entry points that observe a unit's *address* without reading or
#: writing the pointed-to value through ordinary IR semantics -- a
#: cast whose only users are these calls does not let the pointer
#: escape (used by the alias analysis' direct-slot exemption).
ADDRESS_OBSERVING_FUNCTIONS = (MAP_FUNCTIONS + UNMAP_FUNCTIONS
                               + RELEASE_FUNCTIONS + ("declareGlobal",))


def map_name(depth: int) -> str:
    """The map entry point for an indirection ``depth`` (paper §4)."""
    return MAP_ARRAY_FUNCTIONS[0] if depth >= 2 else MAP_FUNCTIONS[0]


def unmap_name(depth: int) -> str:
    return UNMAP_ARRAY_FUNCTIONS[0] if depth >= 2 else UNMAP_FUNCTIONS[0]


def release_name(depth: int) -> str:
    return RELEASE_ARRAY_FUNCTIONS[0] if depth >= 2 \
        else RELEASE_FUNCTIONS[0]
