"""Mapping-state verifier: abstract interpretation of the CGCM
run-time protocol.

For every allocation unit the checker tracks an abstract state drawn
from the lattice {unmapped, mapped, released, T} -- implemented as a
relative reference count (``delta`` over an optionally-unknown entry
count, ``top`` when paths disagree) plus coherence flags that mirror
the run-time's copy rules exactly:

* ``map`` copies host-to-device only when the count was zero,
* any kernel launch advances the global epoch (``stale``),
* ``unmap`` copies device-to-host only when the epoch is stale,
* ``release`` at count zero frees the device buffer.

The per-instruction checks are the static counterparts of the dynamic
sanitizer's violation taxonomy (``sanitizer/violations.py``):

=====================  ==================================================
kind                   meaning
=====================  ==================================================
launch-unmapped        kernel consumes a unit that is unmapped here
launch-unmapped-path   ... unmapped on at least one incoming path (T)
launch-raw-pointer     raw host pointer reaches a dereferenced formal
use-after-release      unit used/unmapped after its release to zero
stale-device-read      kernel reads a unit the CPU wrote while mapped
stale-host-read        CPU reads a unit with unsynced device writes
lost-update            copy-back/release clobbers or drops newer data
refcount-leak          function exits with its own map unreleased
double-release         release of an already-released unit
release-underflow      release of a never-mapped unit
unmap-unmapped         unmap of a never-mapped unit
device-free-live       free/realloc of a unit that is still mapped
pointer-mix            CPU dereference of a device (map-result) pointer
=====================  ==================================================

Interprocedural: functions are solved callees-first over
``analysis.callgraph``; each function exports its net effect per
module-visible unit (globals, heap blocks, its own pointer arguments)
and call sites replay that summary.  Recursive functions get no
summary (their call sites are skipped, conservatively silent) but are
still checked internally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Tuple

from ..analysis import dataflow
from ..analysis.alias import (UNKNOWN, Root, is_identified, ordered_roots,
                              underlying_objects)
from ..ir.function import Function
from ..ir.instructions import (Alloca, Call, Instruction, LaunchKernel, Load,
                               Return, Store)
from ..ir.module import Module
from ..ir.values import Argument, Constant, GlobalVariable
from ..runtime.api import (MAP_ARRAY_FUNCTIONS, MAP_FUNCTIONS,
                           RELEASE_ARRAY_FUNCTIONS, RELEASE_FUNCTIONS,
                           RUNTIME_FUNCTION_NAMES, UNMAP_ARRAY_FUNCTIONS,
                           UNMAP_FUNCTIONS)
from .context import CheckContext, launch_arg_host_roots
from .findings import Finding, Severity, finding_at

PASS_NAME = "mapstate"

#: Reference-count deltas beyond this saturate to T.
_DELTA_CAP = 64


@dataclass(frozen=True)
class UnitState:
    """Abstract state of one allocation unit at one program point."""

    #: The unit may already be mapped by a caller (non-entry function).
    entry_unknown: bool = False
    #: Net map - release count relative to the function entry.
    delta: int = 0
    #: Paths disagree on the count.
    top: bool = False
    #: A release dropped the count to zero (cleared by the next map).
    released: bool = False
    #: The CPU stored to the unit while it was mapped (device copy
    #: predates the store).
    host_dirty: bool = False
    #: A kernel may have written the unit since the last sync.
    dev_written: bool = False
    #: A launch happened while the unit was mapped: the next unmap
    #: will copy device memory back over the host copy.
    stale: bool = False
    #: This function performed a map on the unit.
    mapped_here: bool = False

    @property
    def provably_mapped(self) -> bool:
        return not self.top and self.delta >= 1

    @property
    def provably_unmapped(self) -> bool:
        return not self.top and not self.entry_unknown and self.delta == 0

    @property
    def possibly_mapped(self) -> bool:
        return self.top or self.delta >= 1


def _join_units(a: UnitState, b: UnitState) -> UnitState:
    if a == b:
        return a
    return UnitState(
        entry_unknown=a.entry_unknown or b.entry_unknown,
        delta=min(a.delta, b.delta),
        top=a.top or b.top or a.delta != b.delta,
        released=a.released or b.released,
        host_dirty=a.host_dirty or b.host_dirty,
        dev_written=a.dev_written or b.dev_written,
        stale=a.stale or b.stale,
        mapped_here=a.mapped_here or b.mapped_here,
    )


#: A dataflow state: allocation-unit root -> abstract state.  Treated
#: as immutable; transfers build fresh dicts.
MapState = Dict[Root, UnitState]


@dataclass
class FunctionSummary:
    """Externally visible effect of one function on allocation units."""

    exit_states: Dict[Root, UnitState]
    launch_reads: FrozenSet[Root]
    launch_writes: FrozenSet[Root]
    any_launch: bool


def _trackable(root: Root) -> bool:
    """Roots the verifier keeps state for: host allocation units."""
    if root is UNKNOWN or isinstance(root, str) \
            or isinstance(root, Constant):
        return False
    if isinstance(root, Call):
        return root.callee.name not in MAP_FUNCTIONS  # device pointers
    return isinstance(root, (GlobalVariable, Alloca, Argument))


def _is_device_root(root: Root) -> bool:
    return isinstance(root, Call) and root.callee.name in MAP_FUNCTIONS


class MapStateProblem(dataflow.DataflowProblem):
    """Forward dataflow over :data:`MapState` for one function."""

    direction = "forward"

    def __init__(self, fn: Function, ctx: CheckContext):
        self.fn = fn
        self.ctx = ctx
        self._is_entry_fn = fn.name == "main"

    # -- lattice -----------------------------------------------------------

    def default_state(self, root: Root) -> UnitState:
        local = self._is_entry_fn
        if isinstance(root, Instruction) and root.parent is not None \
                and root.parent.parent is self.fn:
            local = True  # created during this function: starts unmapped
        return UnitState(entry_unknown=not local)

    def boundary_state(self, fn: Function) -> MapState:
        return {}

    def initial_state(self, fn: Function) -> MapState:
        return {}

    def join(self, states: List[MapState]) -> MapState:
        result: MapState = dict(states[0])
        for other in states[1:]:
            for root in set(result) | set(other):
                a = result.get(root)
                b = other.get(root)
                if a is None:
                    a = self.default_state(root)
                if b is None:
                    b = self.default_state(root)
                result[root] = _join_units(a, b)
        return result

    def _get(self, state: MapState, root: Root) -> UnitState:
        existing = state.get(root)
        return existing if existing is not None else self.default_state(root)

    # -- transfer ----------------------------------------------------------

    def transfer_instruction(self, inst: Instruction,
                             state: MapState) -> MapState:
        if isinstance(inst, Call):
            return self._transfer_call(inst, state)
        if isinstance(inst, LaunchKernel):
            return self._transfer_launch(inst, state)
        if isinstance(inst, Store):
            return self._transfer_store(inst, state)
        return state

    def _single_root(self, value) -> Tuple[List[Root], bool]:
        """(trackable roots, strong) of a runtime-call operand."""
        roots = [r for r in ordered_roots(underlying_objects(value))
                 if _trackable(r)]
        strong = len(roots) == 1
        return roots, strong

    def _apply(self, state: MapState, root: Root, new: UnitState,
               strong: bool) -> MapState:
        old = self._get(state, root)
        result = dict(state)
        result[root] = new if strong else _join_units(old, new)
        return result

    def _map_effect(self, s: UnitState) -> UnitState:
        delta = s.delta + 1
        top = s.top
        if delta > _DELTA_CAP:
            delta, top = _DELTA_CAP, True
        if s.provably_unmapped:
            # Count was zero: the run-time copies host-to-device and
            # starts a fresh epoch.
            return UnitState(entry_unknown=s.entry_unknown, delta=delta,
                             top=top, mapped_here=True)
        return replace(s, delta=delta, top=top, released=False,
                       mapped_here=True)

    def _unmap_effect(self, s: UnitState) -> UnitState:
        if s.stale:
            # Copy-back syncs host with device.
            return replace(s, stale=False, dev_written=False,
                           host_dirty=False)
        return s

    def _release_effect(self, s: UnitState) -> UnitState:
        if s.provably_unmapped:
            return s  # underflow: reported, state pinned at zero
        delta = s.delta - 1
        top = s.top
        if delta < -_DELTA_CAP:
            delta, top = -_DELTA_CAP, True
        s = replace(s, delta=delta, top=top)
        if s.provably_unmapped:
            # Dropped to zero: device buffer gone.
            s = replace(s, released=True, stale=False, dev_written=False,
                        host_dirty=False)
        return s

    def _transfer_call(self, inst: Call, state: MapState) -> MapState:
        name = inst.callee.name
        if name in MAP_FUNCTIONS:
            roots, strong = self._single_root(inst.args[0])
            for root in roots:
                state = self._apply(state, root,
                                    self._map_effect(self._get(state, root)),
                                    strong)
            if name in MAP_ARRAY_FUNCTIONS:
                state = self._array_elements_sync(inst, state, on_map=True)
            return state
        if name in UNMAP_FUNCTIONS:
            roots, strong = self._single_root(inst.args[0])
            for root in roots:
                state = self._apply(
                    state, root,
                    self._unmap_effect(self._get(state, root)), strong)
            if name in UNMAP_ARRAY_FUNCTIONS:
                state = self._array_elements_sync(inst, state, on_map=False)
            return state
        if name in RELEASE_FUNCTIONS:
            roots, strong = self._single_root(inst.args[0])
            for root in roots:
                state = self._apply(
                    state, root,
                    self._release_effect(self._get(state, root)), strong)
            if name in RELEASE_ARRAY_FUNCTIONS:
                state = self._array_elements_sync(inst, state, on_map=False)
            return state
        if name in RUNTIME_FUNCTION_NAMES:
            return state  # declareGlobal / declareAlloca: registration
        if name in ("free", "realloc"):
            return state  # checked, no abstract effect
        if inst.callee.is_declaration:
            return state  # externals do not touch the mapping table
        return self._transfer_defined_call(inst, state)

    def _array_elements_sync(self, inst: Call, state: MapState,
                             on_map: bool) -> MapState:
        """``unmapArray``/``releaseArray`` sync every element the array
        may hold (``mapArray`` refreshes them)."""
        for unit in ordered_roots(underlying_objects(inst.args[0])):
            contents = self.ctx.coverage.get(unit)
            if not contents:
                continue
            for element in ordered_roots(contents):
                if not _trackable(element):
                    continue
                s = self._get(state, element)
                if s.stale or s.dev_written or s.host_dirty:
                    state = self._apply(
                        state, element,
                        replace(s, stale=False, dev_written=False,
                                host_dirty=False), True)
        return state

    def _transfer_defined_call(self, inst: Call,
                               state: MapState) -> MapState:
        summary = self.ctx.summaries.get(inst.callee)
        mod_candidates = [root for root, s in state.items()
                          if s.possibly_mapped or s.dev_written]
        for root in ordered_roots(mod_candidates):
            mod, _ref = self.ctx.modref.call_mod_ref(inst, root)
            s = self._get(state, root)
            if mod and s.possibly_mapped:
                state = self._apply(state, root,
                                    replace(s, host_dirty=True), True)
        if not isinstance(summary, FunctionSummary):
            return state  # recursive / unknown: conservatively silent
        for root in ordered_roots(summary.exit_states):
            effect = summary.exit_states[root]
            targets, strong = self._translate_summary_root(inst, root)
            for target in targets:
                s = self._get(state, target)
                delta = s.delta + effect.delta
                top = s.top or effect.top
                if abs(delta) > _DELTA_CAP:
                    delta, top = max(min(delta, _DELTA_CAP),
                                     -_DELTA_CAP), True
                new = replace(
                    s, delta=delta, top=top,
                    released=effect.released or (s.released
                                                 and effect.delta == 0),
                    host_dirty=s.host_dirty or effect.host_dirty,
                    dev_written=s.dev_written or effect.dev_written,
                    stale=s.stale or effect.stale)
                state = self._apply(state, target, new, strong)
        if summary.any_launch:
            state = self._advance_epoch(state)
        return state

    def _translate_summary_root(self, call: Call, root: Root
                                ) -> Tuple[List[Root], bool]:
        """Callee-side root -> caller-side roots at this call site."""
        if isinstance(root, Argument):
            if root.index >= len(call.args):
                return [], True
            actual = call.args[root.index]
            roots = [r for r in ordered_roots(underlying_objects(actual))
                     if _trackable(r) and not isinstance(r, Argument)
                     or (isinstance(r, Argument) and _trackable(r))]
            return roots, len(roots) == 1
        return [root], True

    def _advance_epoch(self, state: MapState) -> MapState:
        changed = False
        result = dict(state)
        for root, s in state.items():
            if s.possibly_mapped and not s.stale:
                result[root] = replace(s, stale=True)
                changed = True
        return result if changed else state

    def _transfer_launch(self, inst: LaunchKernel,
                         state: MapState) -> MapState:
        state = self._advance_epoch(state)
        for root, _read, write in self._launch_unit_accesses(inst):
            if not write:
                continue
            s = self._get(state, root)
            if s.possibly_mapped or self._covered_by_mapped(root, state) \
                    or s.entry_unknown:
                state = self._apply(state, root,
                                    replace(s, dev_written=True), True)
        return state

    def _transfer_store(self, inst: Store, state: MapState) -> MapState:
        for root in ordered_roots(underlying_objects(inst.pointer)):
            if not _trackable(root) or not is_identified(root):
                continue
            s = self._get(state, root)
            if s.possibly_mapped:
                state = self._apply(state, root,
                                    replace(s, host_dirty=True), True)
        return state

    # -- launch resolution -------------------------------------------------

    def _launch_unit_accesses(self, inst: LaunchKernel
                              ) -> List[Tuple[Root, bool, bool]]:
        """(root, read, write) for every host unit the launch touches."""
        acc = self.ctx.kernel_access(inst.kernel)
        access: Dict[int, Tuple[Root, bool, bool]] = {}
        order: List[Root] = []
        flags: Dict[Root, List[bool]] = {}

        def note(root: Root, read: bool, write: bool) -> None:
            if not _trackable(root):
                return
            if root not in flags:
                flags[root] = [False, False]
                order.append(root)
            flags[root][0] = flags[root][0] or read
            flags[root][1] = flags[root][1] or write

        for root in acc.reads:
            note(root, True, False)
        for root in acc.writes:
            note(root, False, True)
        for index in sorted(acc.formal_reads | acc.formal_writes):
            arg_pos = index - 1  # launch args skip the tid parameter
            if arg_pos < 0 or arg_pos >= len(inst.args):
                continue
            mapped, _raw = launch_arg_host_roots(inst.args[arg_pos])
            read = index in acc.formal_reads
            write = index in acc.formal_writes
            for root in mapped:
                note(root, read, write)
        return [(root, flags[root][0], flags[root][1]) for root in order]

    def _covered_by_mapped(self, root: Root, state: MapState) -> bool:
        """Is ``root`` an element of a pointer array that is itself
        (possibly) mapped?  ``mapArray`` maps every element, so such
        units are handled even though no direct ``map`` names them."""
        for unit in self.ctx.covering_arrays(root):
            s = state.get(unit)
            if s is not None and s.possibly_mapped:
                return True
            if s is None and isinstance(unit, Argument):
                return True  # array behind a caller argument: lenient
        return False


class MapStateChecker:
    """Runs the dataflow per function (callees first) and reports."""

    def __init__(self, module: Module, ctx: CheckContext):
        self.module = module
        self.ctx = ctx
        self.findings: List[Finding] = []
        self._results: Dict[Function, dataflow.DataflowResult] = {}
        self._problems: Dict[Function, MapStateProblem] = {}

    # -- driver ------------------------------------------------------------

    def run(self) -> List[Finding]:
        for fn in self.ctx.callgraph.bottom_up():
            if fn.is_kernel or fn.is_declaration:
                continue
            problem = MapStateProblem(fn, self.ctx)
            result = dataflow.solve(fn, problem)
            self._problems[fn] = problem
            self._results[fn] = result
            if not self.ctx.callgraph.is_recursive(fn):
                self.ctx.summaries[fn] = self._summarize(fn, result)
        for fn in self.module.defined_functions():
            if fn.is_kernel:
                continue
            self._report_function(fn)
        return self.findings

    def _summarize(self, fn: Function,
                   result: dataflow.DataflowResult) -> FunctionSummary:
        exits = [b for b in result.blocks if not b.successors]
        problem = self._problems[fn]
        if exits:
            exit_state = problem.join([result.output_state(b)
                                       for b in exits])
        else:
            exit_state = {}
        visible: Dict[Root, UnitState] = {}
        default = UnitState()
        for root, s in exit_state.items():
            if isinstance(root, (Alloca,)) or (
                    isinstance(root, Call)
                    and root.callee.name == "declareAlloca"):
                block = root.parent
                if block is not None and block.parent is fn:
                    continue  # this function's stack: dies with the frame
            if isinstance(root, Argument) and root.function is not fn:
                continue
            base = problem.default_state(root)
            if s != base and s != default:
                visible[root] = s
        reads, writes, any_launch = self._launch_sets(fn)
        return FunctionSummary(visible, reads, writes, any_launch)

    def _launch_sets(self, fn: Function
                     ) -> Tuple[FrozenSet[Root], FrozenSet[Root], bool]:
        reads: set = set()
        writes: set = set()
        any_launch = False
        problem = self._problems[fn]
        for inst in fn.instructions():
            if isinstance(inst, LaunchKernel):
                any_launch = True
                for root, read, write in problem._launch_unit_accesses(inst):
                    if read:
                        reads.add(root)
                    if write:
                        writes.add(root)
            elif isinstance(inst, Call) and not inst.callee.is_declaration:
                sub = self.ctx.summaries.get(inst.callee)
                if isinstance(sub, FunctionSummary):
                    any_launch = any_launch or sub.any_launch
                    reads |= set(sub.launch_reads)
                    writes |= set(sub.launch_writes)
        return frozenset(reads), frozenset(writes), any_launch

    # -- reporting ---------------------------------------------------------

    def _emit(self, kind: str, severity: Severity, inst: Instruction,
              message: str, unit: str = "") -> None:
        self.findings.append(
            finding_at(PASS_NAME, kind, severity, inst, message, unit))

    def _report_function(self, fn: Function) -> None:
        result = self._results.get(fn)
        problem = self._problems.get(fn)
        if result is None or problem is None:
            return
        for block in fn.blocks:
            if block not in result._block_in:
                continue
            for inst, before in result.instruction_states(block):
                self._check_instruction(fn, problem, inst, before)

    def _check_instruction(self, fn: Function, problem: MapStateProblem,
                           inst: Instruction, state: MapState) -> None:
        if isinstance(inst, Call):
            self._check_call(fn, problem, inst, state)
        elif isinstance(inst, LaunchKernel):
            self._check_launch(fn, problem, inst, state)
        elif isinstance(inst, Load):
            self._check_cpu_access(problem, inst, inst.pointer, state,
                                   is_load=True)
        elif isinstance(inst, Store):
            self._check_cpu_access(problem, inst, inst.pointer, state,
                                   is_load=False)
        elif isinstance(inst, Return):
            self._check_return(fn, problem, inst, state)

    def _check_call(self, fn: Function, problem: MapStateProblem,
                    inst: Call, state: MapState) -> None:
        name = inst.callee.name
        if name in UNMAP_FUNCTIONS:
            roots, strong = problem._single_root(inst.args[0])
            for root in roots:
                s = problem._get(state, root)
                if s.provably_unmapped and strong:
                    if s.released:
                        self._emit("use-after-release", Severity.ERROR, inst,
                                   f"unmap of {_root_label(root)} after its "
                                   "release dropped the mapping",
                                   unit=_root_label(root))
                    else:
                        self._emit("unmap-unmapped", Severity.ERROR, inst,
                                   f"unmap of {_root_label(root)} which is "
                                   "not mapped", unit=_root_label(root))
                elif s.top:
                    self._emit("unmap-unmapped-path", Severity.WARNING, inst,
                               f"unmap of {_root_label(root)} which is not "
                               "mapped on all incoming paths",
                               unit=_root_label(root))
                elif s.stale and s.host_dirty and strong:
                    self._emit("lost-update", Severity.ERROR, inst,
                               f"unmap of {_root_label(root)} copies stale "
                               "device memory over a newer CPU store",
                               unit=_root_label(root))
        elif name in RELEASE_FUNCTIONS:
            roots, strong = problem._single_root(inst.args[0])
            for root in roots:
                s = problem._get(state, root)
                if s.provably_unmapped and strong:
                    if s.released:
                        self._emit("double-release", Severity.ERROR, inst,
                                   f"release of {_root_label(root)} which "
                                   "was already released",
                                   unit=_root_label(root))
                    else:
                        self._emit("release-underflow", Severity.ERROR, inst,
                                   f"release of {_root_label(root)} which "
                                   "was never mapped", unit=_root_label(root))
                elif s.top:
                    self._emit("release-underflow", Severity.WARNING, inst,
                               f"release of {_root_label(root)} which is "
                               "not mapped on all incoming paths",
                               unit=_root_label(root))
                elif strong and not s.top and not s.entry_unknown \
                        and s.delta == 1 and s.dev_written:
                    # Provably drops the count to zero: the device
                    # buffer (holding unsynced kernel writes) is freed
                    # without a copy-back.  With an unknown entry count
                    # a caller may still hold a reference, so stay
                    # silent there.
                    self._emit("lost-update", Severity.ERROR, inst,
                               f"release of {_root_label(root)} drops "
                               "device writes that were never copied back",
                               unit=_root_label(root))
        elif name in ("free", "realloc"):
            for root in ordered_roots(underlying_objects(inst.args[0])):
                if not _trackable(root):
                    continue
                s = problem._get(state, root)
                if s.provably_mapped:
                    self._emit("device-free-live", Severity.ERROR, inst,
                               f"{name} of {_root_label(root)} while it is "
                               "still mapped to the device",
                               unit=_root_label(root))
                elif s.top:
                    self._emit("device-free-live", Severity.WARNING, inst,
                               f"{name} of {_root_label(root)} which may "
                               "still be mapped on some path",
                               unit=_root_label(root))

    def _check_launch(self, fn: Function, problem: MapStateProblem,
                      inst: LaunchKernel, state: MapState) -> None:
        kernel = inst.kernel
        acc = self.ctx.kernel_access(kernel)
        # Raw (unmapped) host pointers reaching dereferenced formals.
        for index in sorted(acc.formal_reads | acc.formal_writes):
            arg_pos = index - 1
            if arg_pos < 0 or arg_pos >= len(inst.args):
                continue
            _mapped, raw = launch_arg_host_roots(inst.args[arg_pos])
            for root in raw:
                if is_identified(root):
                    self._emit(
                        "launch-raw-pointer", Severity.ERROR, inst,
                        f"kernel @{kernel.name} dereferences parameter "
                        f"{index} but the launch passes the raw host "
                        f"pointer {_root_label(root)} (missing map)",
                        unit=_root_label(root))
        for root, read, write in problem._launch_unit_accesses(inst):
            s = problem._get(state, root)
            verb = "writes" if write and not read else "reads"
            if s.provably_mapped:
                pass
            elif problem._covered_by_mapped(root, state):
                pass
            elif s.top:
                self._emit(
                    "launch-unmapped-path", Severity.ERROR, inst,
                    f"kernel @{kernel.name} {verb} {_root_label(root)} "
                    "which is not mapped on all incoming paths",
                    unit=_root_label(root))
                continue
            elif s.entry_unknown:
                continue  # caller may have mapped it: cannot judge
            else:
                if s.released:
                    self._emit(
                        "use-after-release", Severity.ERROR, inst,
                        f"kernel @{kernel.name} {verb} {_root_label(root)} "
                        "after its mapping was released",
                        unit=_root_label(root))
                else:
                    self._emit(
                        "launch-unmapped", Severity.ERROR, inst,
                        f"kernel @{kernel.name} {verb} {_root_label(root)} "
                        "which is not mapped", unit=_root_label(root))
                continue
            if s.host_dirty and read:
                self._emit(
                    "stale-device-read", Severity.ERROR, inst,
                    f"kernel @{kernel.name} reads {_root_label(root)} but "
                    "the CPU stored to it after it was mapped (the device "
                    "copy is stale)", unit=_root_label(root))

    def _check_cpu_access(self, problem: MapStateProblem, inst: Instruction,
                          pointer, state: MapState, is_load: bool) -> None:
        for root in ordered_roots(underlying_objects(pointer)):
            if _is_device_root(root):
                self._emit(
                    "pointer-mix", Severity.ERROR, inst,
                    "CPU dereference of a device pointer (result of "
                    f"@{root.callee.name})",  # type: ignore[union-attr]
                    unit=_root_label(root))
                continue
            if not _trackable(root) or not is_identified(root):
                continue
            s = problem._get(state, root)
            if is_load and s.dev_written:
                self._emit(
                    "stale-host-read", Severity.ERROR, inst,
                    f"CPU read of {_root_label(root)} while device writes "
                    "have not been copied back (missing unmap)",
                    unit=_root_label(root))

    def _check_return(self, fn: Function, problem: MapStateProblem,
                      inst: Return, state: MapState) -> None:
        for root in ordered_roots(state):
            s = state[root]
            if not s.mapped_here:
                continue
            if not s.top and s.delta > 0:
                self._emit(
                    "refcount-leak", Severity.ERROR, inst,
                    f"@{fn.name} returns with {_root_label(root)} still "
                    f"mapped ({s.delta} unreleased reference"
                    f"{'s' if s.delta != 1 else ''})",
                    unit=_root_label(root))
            elif s.top:
                self._emit(
                    "refcount-leak", Severity.WARNING, inst,
                    f"@{fn.name} may return with {_root_label(root)} "
                    "mapped on some path (unbalanced map/release)",
                    unit=_root_label(root))


def _root_label(root: Root) -> str:
    if isinstance(root, GlobalVariable):
        return f"@{root.name}"
    if isinstance(root, Argument):
        fn = root.function
        where = f" of @{fn.name}" if fn is not None else ""
        return f"argument %{root.name}{where}"
    if isinstance(root, Call):
        return f"%{root.name} ({root.callee.name})"
    if isinstance(root, Alloca):
        return f"%{root.name} (alloca)"
    return str(root)


def check_map_state(module: Module, ctx: CheckContext) -> List[Finding]:
    """Entry point: run the mapping-state verifier over a module."""
    return MapStateChecker(module, ctx).run()
