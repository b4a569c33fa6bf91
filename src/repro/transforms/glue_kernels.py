"""Glue kernels: lower promotion-blocking CPU snippets to the GPU.

Paper section 5.3: "Sometimes small CPU code regions between two GPU
functions prevent map promotion.  The performance of this code is
inconsequential, but transforming it into a single-threaded GPU
function obviates the need to copy the allocation units between GPU
and CPU memories and allows the map operations to rise higher in the
call graph."

Two shapes of glue region are recognized inside any loop that launches
kernels:

* a **straight-line run** of GPU-safe instructions inside one block
  (e.g. ``alpha = alpha * 0.9;`` updating a mapped global between two
  launches), and
* a **small inner loop** with no launches (e.g. a sequential reduction
  feeding the next kernel), together with the suffix of its preheader
  that initializes its induction variable.

A region qualifies only if it touches global/heap memory (otherwise it
cannot block promotion), every instruction can execute on the device,
and no register defined inside is consumed outside.  Each region
becomes a one-thread kernel launch; the caller of this pass then runs
communication management on the new launches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..interp.externals import GPU_SAFE
from ..ir.block import BasicBlock
from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.instructions import (Alloca, BinaryOp, Call, Cast, Compare,
                               GetElementPtr, Instruction, LaunchKernel, Load,
                               Select, Store)
from ..ir.module import Module
from ..ir.types import FunctionType, I64, VOID
from ..ir.values import Argument, Constant, GlobalVariable, Value
from ..analysis.alias import UNKNOWN, ordered_roots, underlying_objects
from ..analysis.loops import Loop, find_loops, loop_preheader
from ..analysis.cfg import predecessor_map
from ..runtime.api import MAP_FUNCTIONS
from .contract import PassContract
from .outline import clone_instruction, clone_region, erase_blocks

#: Glue kernels may add launches (the outlined glue regions) but never
#: remove one; the outlined code must not duplicate or drop observable
#: external calls.
CONTRACT = PassContract(stage="glue-kernels", launches="grow")

#: Largest straight-line run or inner loop, in instructions, that one
#: glue kernel outlines.
_MAX_INSTRUCTIONS = 60


class _CfgAnalyses:
    """The analyses of one CFG version of a function.

    A CFG version lasts from one outline to the next: candidate
    analysis only reads the IR, so every candidate of a version shares
    these, and :meth:`GlueKernels._process_function` builds a fresh
    holder after each outline."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.loops = find_loops(fn)  # outermost first
        self.preds = predecessor_map(fn)
        #: Instruction -> the instructions using it as an operand, in
        #: block order, each listed once.
        self.users: Dict[Instruction, List[Instruction]] = {}
        for inst in fn.instructions():
            for operand in inst.operands:
                if isinstance(operand, Instruction):
                    users = self.users.setdefault(operand, [])
                    if not users or users[-1] is not inst:
                        users.append(inst)

    def used_outside(self, value: Instruction,
                     region: Set[Instruction]) -> bool:
        """Does an instruction outside ``region`` use ``value``?"""
        return any(user not in region
                   for user in self.users.get(value, ()))


class GlueKernels:
    """Outlines promotion-blocking CPU snippets into 1-thread kernels."""

    def __init__(self, module: Module):
        self.module = module
        self.kernels: List[Function] = []
        self.launches: List[LaunchKernel] = []
        self._counter = 0

    def run(self) -> List[LaunchKernel]:
        for fn in list(self.module.defined_functions()):
            if not fn.is_kernel:
                self._process_function(fn)
        return self.launches

    def _process_function(self, fn: Function) -> None:
        changed = True
        while changed:
            changed = False
            cfg = _CfgAnalyses(fn)
            for loop in cfg.loops:
                if not _contains_launch(loop):
                    continue
                if self._glue_inner_loop(cfg, loop):
                    changed = True
                    break
                if self._glue_straight_line(cfg, loop):
                    changed = True
                    break

    # -- straight-line runs ------------------------------------------------

    def _glue_straight_line(self, cfg: _CfgAnalyses, loop: Loop) -> bool:
        for block in [b for b in cfg.fn.blocks if b in loop.blocks]:
            run = self._find_run(cfg, block)
            if run is not None:
                self._outline_run(cfg, block, run)
                return True
        return False

    def _find_run(self, cfg: _CfgAnalyses,
                  block: BasicBlock) -> Optional[Tuple[int, int]]:
        """A qualifying [start, stop) instruction run, or None.

        Maximal glue-safe runs are split at *separators* -- stores to
        stack slots and definitions consumed outside the run -- and
        each resulting chunk is tested independently, so a qualifying
        snippet (e.g. ``pivot = A[k][k]``) is found even when it sits
        between disqualified neighbours.
        """
        instructions = block.instructions
        start = 0
        while start < len(instructions):
            if not _glue_safe(instructions[start]):
                start += 1
                continue
            stop = start
            while stop < len(instructions) \
                    and _glue_safe(instructions[stop]):
                stop += 1
            for chunk_start, chunk_stop in self._chunks(cfg, block, start,
                                                        stop):
                chunk = instructions[chunk_start:chunk_stop]
                if self._run_qualifies(cfg, block, chunk):
                    return (chunk_start, chunk_stop)
            start = stop
        return None

    def _chunks(self, cfg: _CfgAnalyses, block: BasicBlock, start: int,
                stop: int) -> List[Tuple[int, int]]:
        """Split [start, stop) at instructions that cannot be outlined."""
        instructions = block.instructions
        maximal = set(instructions[start:stop])
        chunks: List[Tuple[int, int]] = []
        current = start
        for index in range(start, stop):
            inst = instructions[index]
            separator = False
            if isinstance(inst, Store) and isinstance(inst.pointer,
                                                      Alloca):
                separator = True
            elif inst.produces_value:
                separator = cfg.used_outside(inst, maximal)
            if separator:
                if current < index:
                    chunks.append((current, index))
                current = index + 1
        if current < stop:
            chunks.append((current, stop))
        return [self._trim_chunk(instructions, c) for c in chunks]

    @staticmethod
    def _trim_chunk(instructions: List[Instruction],
                    chunk: Tuple[int, int]) -> Tuple[int, int]:
        """Drop trailing definitions with no consumer inside the chunk
        (they belong to the *next* statement and must stay on the CPU)."""
        start, stop = chunk
        while stop > start:
            last = instructions[stop - 1]
            if not last.produces_value:
                break
            used_inside = any(last in inst.operands
                              for inst in instructions[start:stop - 1])
            if used_inside:
                break
            stop -= 1
        return (start, stop)

    def _run_qualifies(self, cfg: _CfgAnalyses, block: BasicBlock,
                       run: Sequence[Instruction]) -> bool:
        if not run or len(run) > _MAX_INSTRUCTIONS:
            return False
        if not any(_touches_shared_memory(inst) for inst in run):
            return False
        if not any(isinstance(inst, Store) for inst in run):
            return False  # pure reads get promoted away differently
        defined = set(run)
        # Every memory access must hit memory the GPU can legitimately
        # see: globals, heap blocks, or registered stack units.  The
        # exception is a *load* of a read-only scalar stack slot (e.g.
        # the enclosing loop counter): its value is evaluated on the
        # CPU and passed to the glue kernel by value.
        for inst in run:
            if isinstance(inst, Store):
                for root in underlying_objects(inst.pointer):
                    if not isinstance(root, (GlobalVariable, Call)):
                        return False
            elif isinstance(inst, Load):
                if self._slot_load(cfg, inst, run) is not None:
                    continue
                for root in underlying_objects(inst.pointer):
                    if not isinstance(root, (GlobalVariable, Call)):
                        return False
        if any(cfg.used_outside(inst, defined) for inst in run):
            return False  # a defined register escapes the run
        return self._unblocks_promotion(cfg, block, run)

    @staticmethod
    def _slot_load(cfg: _CfgAnalyses, inst: Load,
                   run: Sequence[Instruction]) -> Optional[Alloca]:
        """The scalar stack slot this load reads, if it qualifies for
        pass-by-value (direct slot, not written inside the run)."""
        pointer = inst.pointer
        if not isinstance(pointer, Alloca):
            return None
        if not pointer.allocated_type.is_scalar:
            return None
        uses = cfg.users.get(pointer, [])
        if not _is_direct_scalar_alloca(pointer, uses):
            return None
        run_set = set(run)
        for use in uses:
            if isinstance(use, Store) and use in run_set:
                return None  # written inside the run: value would go stale
        return pointer

    def _outline_run(self, cfg: _CfgAnalyses, block: BasicBlock,
                     run: Tuple[int, int]) -> None:
        fn = cfg.fn
        start, stop = run
        instructions = block.instructions[start:stop]
        # Loads of scalar stack slots become by-value parameters: the
        # CPU evaluates them just before the launch.
        slot_loads = [inst for inst in instructions
                      if isinstance(inst, Load)
                      and self._slot_load(cfg, inst, instructions)
                      is not None]
        remaining = [inst for inst in instructions
                     if inst not in slot_loads]
        live_ins = _region_live_ins(remaining)
        live_ins = [v for v in live_ins if v not in slot_loads]
        value_types = [inst.type for inst in slot_loads]
        kernel = self._new_kernel(fn, live_ins, value_types)
        value_map: Dict[Value, Value] = dict(
            zip(live_ins, kernel.args[1:]))
        for inst, formal in zip(slot_loads,
                                kernel.args[1 + len(live_ins):]):
            value_map[inst] = formal
        body = kernel.new_block("glue")
        for inst in remaining:
            clone = clone_instruction(inst, value_map, {})
            if clone.produces_value:
                clone.name = kernel.unique_name(inst.name or "t")
                value_map[inst] = clone
            body.append(clone)
        IRBuilder(body).ret()

        # CPU side: re-load the slots, then launch.
        new_loads = [Load(inst.pointer) for inst in slot_loads]
        for load, original in zip(new_loads, slot_loads):
            load.name = fn.unique_name(original.name or "glue.val")
        launch = LaunchKernel(kernel, Constant(I64, 1),
                              list(live_ins) + list(new_loads))
        del block.instructions[start:stop]
        for offset, inst in enumerate(new_loads + [launch]):
            inst.parent = block
            block.instructions.insert(start + offset, inst)
        for inst in instructions:
            inst.parent = None
        self.launches.append(launch)

    def _unblocks_promotion(self, cfg: _CfgAnalyses, block: BasicBlock,
                            region: Sequence[Instruction]) -> bool:
        """Is this region the *only* CPU code in its enclosing
        launch-containing loop that touches every allocation unit it
        touches, at least one of them mapped there?  Then outlining it
        lets map promotion hoist the mapped unit (paper: glue kernels
        exist to unblock promotion) and adds no copy of its own.  A
        unit that other CPU code in the loop also touches would be
        copied in and out around the glue launch on every iteration,
        which can cost more than the promotion saves."""
        from ..analysis.modref import ModRefAnalysis
        enclosing = None
        for loop in cfg.loops:
            if block in loop.blocks and _contains_launch(loop):
                if enclosing is None \
                        or len(loop.blocks) < len(enclosing.blocks):
                    enclosing = loop
        if enclosing is None:
            return False
        region_set = set(region)
        region_roots = set()
        for inst in region:
            if isinstance(inst, (Load, Store)):
                for root in underlying_objects(inst.pointer):
                    if isinstance(root, (GlobalVariable, Call)):
                        region_roots.add(root)
        mapped_roots = set()
        for loop_block in enclosing.blocks:
            for inst in loop_block.instructions:
                if isinstance(inst, Call) \
                        and inst.callee.name in MAP_FUNCTIONS \
                        and inst.args:
                    mapped_roots |= {
                        root for root
                        in underlying_objects(inst.args[0])
                        if isinstance(root, (GlobalVariable, Call))}
        if not region_roots & mapped_roots:
            return False  # nothing to free
        modref = ModRefAnalysis()
        for root in ordered_roots(region_roots):
            mod, ref = modref.region_mod_ref(enclosing.blocks, root,
                                             exclude=region_set)
            if mod or ref:
                return False  # the glue launch would copy this unit
        return True

    # -- inner loops --------------------------------------------------------------

    def _glue_inner_loop(self, cfg: _CfgAnalyses, loop: Loop) -> bool:
        for inner in cfg.loops:
            if not (inner.blocks < loop.blocks):
                continue
            # Only glue loops sitting *directly* between the launches
            # (paper: "small CPU code regions between two GPU
            # functions"); anything nested deeper is ordinary CPU work.
            if inner.parent is None or inner.parent.header \
                    is not loop.header:
                continue
            plan = self._analyze_inner_loop(cfg, loop, inner)
            if plan is not None:
                self._outline_inner_loop(cfg, *plan)
                return True
        return False

    def _analyze_inner_loop(self, cfg: _CfgAnalyses, outer: Loop,
                            inner: Loop):
        plan = self._analyze_inner_loop_shape(cfg, outer, inner,
                                              extend_exit=True)
        if plan is not None:
            return plan
        return self._analyze_inner_loop_shape(cfg, outer, inner,
                                              extend_exit=False)

    def _analyze_inner_loop_shape(self, cfg: _CfgAnalyses, outer: Loop,
                                  inner: Loop, extend_exit: bool):
        if _contains_launch(inner):
            return None
        size = sum(len(b.instructions) for b in inner.blocks)
        if size > _MAX_INSTRUCTIONS:
            return None
        preheader = loop_preheader(inner, cfg.preds)
        if preheader is None or preheader not in outer.blocks:
            return None
        exit_targets = {to for _, to in inner.exit_edges()}
        if len(exit_targets) != 1:
            return None
        exit_block = next(iter(exit_targets))
        if any(p not in inner.blocks for p in cfg.preds[exit_block]):
            return None
        for block in inner.blocks:
            for inst in block.instructions:
                if not _glue_safe(inst) and not inst.is_terminator:
                    return None
                if isinstance(inst, (Load, Store)):
                    for root in underlying_objects(inst.pointer):
                        if root is UNKNOWN:
                            return None  # unregistered memory: refuse
        if not any(_touches_shared_memory(inst)
                   for inst in inner.instructions()):
            return None
        suffix = self._preheader_suffix(preheader)
        # Scalars flowing out of the loop (e.g. reduction results) are
        # often consumed immediately after it; absorbing the exit
        # block's glue-safe prefix moves producer and consumer to the
        # GPU together ("glue kernels force virtual registers into
        # memory", paper section 5.3).
        exit_prefix: List[Instruction] = []
        if extend_exit:
            for inst in exit_block.instructions[:-1]:
                if _glue_safe(inst):
                    exit_prefix.append(inst)
                else:
                    break
        # Trim the prefix until none of its definitions escape the
        # region (the prefix greedily absorbs address computations that
        # feed the *next* launch's map calls; those must stay on the CPU).
        loop_insts = [i for b in inner.blocks for i in b.instructions]
        while exit_prefix:
            region_set = set(suffix) | set(loop_insts) | set(exit_prefix)
            cut = None
            for index, inst in enumerate(exit_prefix):
                if inst.produces_value \
                        and cfg.used_outside(inst, region_set):
                    cut = index
                    break
                if isinstance(inst, Store) \
                        and isinstance(inst.pointer, Alloca) \
                        and cfg.used_outside(inst.pointer, region_set):
                    # Writing a stack scalar that outlives the region
                    # (e.g. the next loop's induction init) must stay
                    # on the CPU.
                    cut = index
                    break
            if cut is None:
                break
            exit_prefix = exit_prefix[:cut]
        region_insts = list(suffix)
        region_insts.extend(loop_insts)
        region_insts.extend(exit_prefix)
        region_set = set(region_insts)

        # Scalar allocas: fully-internal ones are cloned (detected at
        # outline time); read-only ones become value parameters;
        # anything else disqualifies.
        value_params: List[Alloca] = []
        for alloca, uses in cfg.users.items():
            if not isinstance(alloca, Alloca):
                continue
            region_uses = [u for u in uses if u in region_set]
            if not region_uses:
                continue
            if not _is_direct_scalar_alloca(alloca, uses):
                continue
            outside = [u for u in uses if u not in region_set]
            if not outside:
                continue  # defined only here: handled as live-in pointer
            if all(isinstance(u, Load) or u is alloca for u in region_uses):
                value_params.append(alloca)
                continue
            # Written in the region and used outside: all outside uses
            # must be loads *after* (we cannot spill back) -> reject.
            return None

        # No register defined in the region may be used outside it.
        if any(cfg.used_outside(inst, region_set) for inst in region_insts):
            return None
        if not self._unblocks_promotion(cfg, preheader, region_insts):
            return None
        return (outer, inner, preheader, suffix, exit_prefix,
                exit_block, value_params, region_insts)

    def _preheader_suffix(self, preheader: BasicBlock) -> List[Instruction]:
        suffix: List[Instruction] = []
        for inst in reversed(preheader.instructions[:-1]):
            if _glue_safe(inst):
                suffix.append(inst)
            else:
                break
        suffix.reverse()
        return suffix

    def _outline_inner_loop(self, cfg: _CfgAnalyses, outer: Loop,
                            inner: Loop,
                            preheader: BasicBlock,
                            suffix: List[Instruction],
                            exit_prefix: List[Instruction],
                            exit_block: BasicBlock,
                            value_params: List[Alloca],
                            region_insts: List[Instruction]) -> None:
        fn = cfg.fn
        region_set = set(region_insts)
        live_ins: List[Value] = []
        seen: Set[Value] = set(value_params)
        for inst in region_insts:
            for operand in inst.operands:
                if operand in seen or operand in region_set:
                    continue
                if isinstance(operand, Alloca) and operand in value_params:
                    continue
                if isinstance(operand, (Constant, GlobalVariable)):
                    continue
                if isinstance(operand, (Instruction, Argument)):
                    seen.add(operand)
                    live_ins.append(operand)
        # Allocas whose every use is in the region: clone, not param.
        internal_allocas = [v for v in live_ins if isinstance(v, Alloca)
                            and not cfg.used_outside(v, region_set)]
        live_ins = [v for v in live_ins if v not in internal_allocas]

        value_types = [a.allocated_type for a in value_params]
        kernel = self._new_kernel(fn, live_ins, value_types)
        value_map: Dict[Value, Value] = dict(zip(live_ins, kernel.args[1:]))
        value_args = kernel.args[1 + len(live_ins):]

        entry = kernel.new_block("entry")
        exit_clone = kernel.new_block("exit")
        builder = IRBuilder(entry)
        for alloca in internal_allocas:
            clone = builder.alloca(alloca.allocated_type, 1,
                                   alloca.name or "loc")
            value_map[alloca] = clone
        for alloca, formal in zip(value_params, value_args):
            clone = builder.alloca(alloca.allocated_type, 1,
                                   alloca.name or "ro")
            builder.store(formal, clone)
            value_map[alloca] = clone
        block_map: Dict[BasicBlock, BasicBlock] = {exit_block: exit_clone}
        ordered_blocks = [b for b in fn.blocks if b in inner.blocks]
        clone_region(ordered_blocks, kernel, value_map, block_map)
        for inst in suffix:
            clone = clone_instruction(inst, value_map, block_map)
            if clone.produces_value:
                clone.name = kernel.unique_name(inst.name or "t")
                value_map[inst] = clone
            entry.append(clone)
        builder.position_at_end(entry)
        builder.br(block_map[inner.header])
        exit_builder = IRBuilder(exit_clone)
        for inst in exit_prefix:
            clone = clone_instruction(inst, value_map, block_map)
            if clone.produces_value:
                clone.name = kernel.unique_name(inst.name or "t")
                value_map[inst] = clone
            exit_clone.append(clone)
        exit_builder.ret()
        kernel.blocks.remove(exit_clone)
        kernel.blocks.append(exit_clone)

        # Rewrite the caller: cut the suffix and the absorbed exit
        # prefix, launch, jump past the loop.
        for inst in suffix:
            inst.erase()
        for inst in exit_prefix:
            inst.erase()
        term = preheader.terminator
        assert term is not None
        term.erase()
        launch_builder = IRBuilder(preheader)
        args: List[Value] = list(live_ins)
        for alloca in value_params:
            args.append(launch_builder.load(alloca))
        launch = launch_builder.launch(kernel, 1, args)
        launch_builder.br(exit_block)
        erase_blocks(fn, inner.blocks)
        self.launches.append(launch)

    # -- shared helpers ----------------------------------------------------------------

    def _new_kernel(self, fn: Function, live_ins: Sequence[Value],
                    value_types: Sequence) -> Function:
        self._counter += 1
        name = f"{fn.name}__glue{self._counter}"
        param_types = [I64] + [v.type for v in live_ins] + list(value_types)
        param_names = ["tid"] \
            + [f"in{i}" for i in range(len(live_ins))] \
            + [f"val{i}" for i in range(len(value_types))]
        kernel = self.module.add_function(
            name, FunctionType(VOID, param_types), param_names,
            is_kernel=True)
        self.kernels.append(kernel)
        return kernel


# -- predicates -------------------------------------------------------------


def _contains_launch(loop: Loop) -> bool:
    return any(isinstance(i, LaunchKernel) for i in loop.instructions())


def _glue_safe(inst: Instruction) -> bool:
    """May this instruction execute inside a 1-thread GPU kernel?"""
    if isinstance(inst, (Load, Store, GetElementPtr, BinaryOp, Compare,
                         Cast, Select)):
        # Storing a pointer on the GPU violates the CGCM restriction.
        if isinstance(inst, Store) and inst.value.type.is_pointer:
            return False
        return True
    if isinstance(inst, Call):
        return inst.callee.name in GPU_SAFE
    return False


def _touches_shared_memory(inst: Instruction) -> bool:
    """Does the instruction access memory a kernel could also see?"""
    if isinstance(inst, Load):
        pointer = inst.pointer
    elif isinstance(inst, Store):
        pointer = inst.pointer
    else:
        return False
    return any(not isinstance(root, Alloca) or root is UNKNOWN
               for root in underlying_objects(pointer))


def _region_live_ins(instructions: Sequence[Instruction]) -> List[Value]:
    region = set(instructions)
    seen: Set[Value] = set()
    ordered: List[Value] = []
    for inst in instructions:
        for operand in inst.operands:
            if operand in region or operand in seen:
                continue
            if isinstance(operand, (Constant, GlobalVariable)):
                continue
            if isinstance(operand, (Instruction, Argument)):
                seen.add(operand)
                ordered.append(operand)
    return ordered


def _is_direct_scalar_alloca(alloca: Alloca,
                             uses: List[Instruction]) -> bool:
    if not alloca.allocated_type.is_scalar:
        return False
    if not (isinstance(alloca.count, Constant)
            and alloca.count.value == 1):
        return False
    for use in uses:
        if isinstance(use, Load) and use.pointer is alloca:
            continue
        if isinstance(use, Store) and use.pointer is alloca \
                and use.value is not alloca:
            continue
        return False
    return True
