"""The simple DOALL GPU parallelizer.

Finds counted loops whose iterations are provably independent and
outlines each into a GPU kernel, replacing the loop with a grid launch
(the paper couples CGCM with exactly such "a simple DOALL GPU
parallelization system", section 6.1).

Unlike CGCM itself, the parallelizer *does* need static analysis:

* the loop must be counted (canonical induction variable, invariant
  bounds, positive constant step, single exit);
* scalar locals are privatized (written-before-read each iteration) or
  passed by value (read-only); anything else rejects the loop;
* every remaining memory access gets an affine form over the loop nest
  and a pairwise cross-iteration conflict test (see
  :mod:`repro.analysis.affine`);
* calls are restricted to pure math externals and device-safe helpers.

Parallelization is outermost-first: when an outer loop qualifies, its
inner loops simply run inside each GPU thread.

Each loop is analysed once.  The pass keeps one set of analyses per
function (:class:`_CfgAnalyses`) and updates it in place after each
outline; after an outline it restarts the outermost-first walk but
skips every loop that already failed, because outlining one loop cannot
make another pass: an enclosing loop now holds a launch, a scalar's
uses outside the outlined loop move into the launch block, an escaping
address becomes a launch operand, and induction ranges can only be
lost.  The one exception is the loop headed by the outlined loop's exit
block, whose preheader used to be the outlined header (two successors,
so never a preheader) and is now the launch block.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import TransformError
from ..interp.externals import GPU_SAFE
from ..ir.block import BasicBlock
from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.instructions import (Alloca, BinaryOp, Branch, Call, Instruction,
                               LaunchKernel, Load, Store)
from ..ir.module import Module
from ..ir.types import FunctionType, I64, VOID
from ..ir.values import Argument, Constant, GlobalVariable, Value
from ..analysis.affine import (AccessForm, AffineContext, IvRange,
                               access_form, conflicts_across_iterations)
from ..analysis.alias import may_alias_roots, underlying_objects
from ..analysis.cfg import predecessor_map
from ..analysis.loops import (CountedLoop, Loop, find_loops,
                              recognize_counted_loop)
from .outline import clone_region, erase_blocks


class _LoopPlan:
    """Everything needed to outline one DOALL loop."""

    def __init__(self, counted: CountedLoop):
        self.counted = counted
        self.body_blocks: List[BasicBlock] = []
        self.skip: Set[Instruction] = set()
        self.private_allocas: List[Alloca] = []
        self.value_params: List[Tuple[Alloca, Load]] = []
        self.live_ins: List[Value] = []


class _CfgAnalyses:
    """The analyses of one function, for the whole pass.

    Legality analysis only reads the IR, so every candidate shares
    these.  An outline replaces one loop by a launch block, and
    :meth:`outlined` updates the holder in place to what a fresh build
    over the new CFG would give."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.preds = predecessor_map(fn)
        self.loops = find_loops(fn, self.preds)  # outermost first
        self.alloca_uses = _collect_alloca_uses(fn)
        self._counted: Dict[Loop, Optional[CountedLoop]] = {}

    def outlined(self, loop: Loop, launch: BasicBlock) -> None:
        """Account for ``loop``'s blocks having become ``launch``, the
        function's last block."""
        gone = loop.blocks
        # The loop and those nested in it are gone; the launch block
        # takes the loop's place in every loop enclosing it.
        self.loops = [other for other in self.loops
                      if not other.blocks <= gone]
        for other in self.loops:
            if loop.header in other.blocks:
                other.blocks -= gone
                other.blocks.add(launch)
        self.preds = predecessor_map(self.fn)
        # The launch block comes last in ``fn.blocks``, so appending its
        # uses keeps each list in the order a fresh scan gives (value
        # parameters, and so kernel signatures, follow that order).
        self.alloca_uses = {
            alloca: [use for use in uses if use.parent not in gone]
            for alloca, uses in self.alloca_uses.items()
            if alloca.parent not in gone}
        for inst in launch.instructions:
            for operand in inst.operands:
                if isinstance(operand, Alloca):
                    self.alloca_uses.setdefault(operand, []).append(inst)
        self._counted.clear()

    def counted(self, loop: Loop) -> Optional[CountedLoop]:
        """:func:`recognize_counted_loop` of ``loop``, computed once."""
        if loop not in self._counted:
            self._counted[loop] = recognize_counted_loop(self.fn, loop,
                                                         self.preds)
        return self._counted[loop]


class DoallParallelizer:
    """Outlines DOALL loops of every CPU function into GPU kernels."""

    def __init__(self, module: Module):
        self.module = module
        self.kernels: List[Function] = []
        self._counter = 0

    def run(self) -> List[Function]:
        for fn in list(self.module.defined_functions()):
            if not fn.is_kernel:
                self._process_function(fn)
        return self.kernels

    def _process_function(self, fn: Function) -> None:
        cfg = _CfgAnalyses(fn)
        failed: Set[BasicBlock] = set()  # headers of rejected loops
        changed = True
        while changed:
            changed = False
            for loop in cfg.loops:
                if loop.header in failed:
                    continue
                plan = self._analyze(cfg, loop)
                if plan is None:
                    failed.add(loop.header)
                    continue
                cfg.outlined(loop, self._outline(fn, plan))
                # The loop the outlined one exited into may now have
                # the launch block as its preheader.
                failed.discard(plan.counted.exit_block)
                changed = True
                break  # restart the outermost-first walk

    # -- legality analysis -------------------------------------------------

    def _analyze(self, cfg: _CfgAnalyses,
                 loop: Loop) -> Optional[_LoopPlan]:
        counted = cfg.counted(loop)
        if counted is None:
            return None
        if counted.start.type != I64 or counted.end.type != I64:
            return None
        plan = _LoopPlan(counted)
        plan.body_blocks = [b for b in cfg.fn.blocks
                            if b in loop.blocks and b is not loop.header]
        for block in plan.body_blocks:
            for inst in block.instructions:
                if isinstance(inst, LaunchKernel):
                    return None  # no nested parallelism
                if isinstance(inst, Call) and not _device_safe_callee(
                        inst.callee):
                    return None
        plan.skip = self._induction_update_insts(counted, plan.body_blocks)
        if not self._classify_allocas(cfg, loop, plan):
            return None
        if not self._dependence_test(cfg, loop, plan):
            return None
        self._collect_live_ins(loop, plan)
        return plan

    def _induction_update_insts(self, counted: CountedLoop,
                                body_blocks: Sequence[BasicBlock]
                                ) -> Set[Instruction]:
        """The latch's ``i = i + step`` instructions, to omit from the
        kernel (the thread id replaces them)."""
        skip: Set[Instruction] = set()
        store = None
        for inst in counted.latch.instructions:
            if isinstance(inst, Store) and inst.pointer is counted.ivar:
                store = inst
        if store is None:
            return skip
        skip.add(store)
        add = store.value
        uses: Dict[Value, int] = {}
        for block in body_blocks:
            for inst in block.instructions:
                if inst in skip:
                    continue
                for operand in inst.operands:
                    uses[operand] = uses.get(operand, 0) + 1
        if isinstance(add, BinaryOp) and uses.get(add, 0) == 1:
            skip.add(add)
            for operand in (add.lhs, add.rhs):
                if isinstance(operand, Load) \
                        and operand.pointer is counted.ivar \
                        and uses.get(operand, 0) == 1:
                    skip.add(operand)
        return skip

    def _classify_allocas(self, cfg: _CfgAnalyses, loop: Loop,
                          plan: _LoopPlan) -> bool:
        counted = plan.counted
        body_set = set(plan.body_blocks)
        for alloca, uses in cfg.alloca_uses.items():
            if alloca is counted.ivar:
                continue
            body_uses = [u for u in uses if u.parent in body_set
                         and u not in plan.skip]
            if not body_uses:
                continue
            if not _is_direct_scalar(alloca, uses):
                continue  # memory object: handled by the dependence test
            outside_uses = [u for u in uses
                            if u.parent not in loop.blocks]
            written_in_body = any(isinstance(u, Store) for u in body_uses)
            if not written_in_body:
                plan.value_params.append((alloca, body_uses[0]))
                continue
            if outside_uses:
                return False  # reduction or cross-iteration scalar
            if not _written_before_read(alloca, plan, cfg.preds):
                return False
            plan.private_allocas.append(alloca)
        return True

    def _dependence_test(self, cfg: _CfgAnalyses, loop: Loop,
                         plan: _LoopPlan) -> bool:
        counted = plan.counted
        handled = {counted.ivar}
        handled.update(plan.private_allocas)
        handled.update(a for a, _ in plan.value_params)
        fixed_ranges = _enclosing_iv_ranges(cfg, loop)
        inner_ranges = _inner_iv_ranges(cfg, loop, fixed_ranges)
        outer_range = None
        if isinstance(counted.start, Constant) \
                and isinstance(counted.end, Constant):
            stop = counted.end.value + (1 if counted.pred == "le" else 0)
            outer_range = IvRange(counted.start.value,
                                  max(counted.start.value, stop),
                                  counted.step)
        ctx = AffineContext(counted, inner_ranges, fixed_ranges,
                            outer_range)

        accesses: List[Tuple[AccessForm, frozenset]] = []
        for block in plan.body_blocks:
            for inst in block.instructions:
                if inst in plan.skip:
                    continue
                if isinstance(inst, (Load, Store)):
                    pointer = inst.pointer
                    if isinstance(pointer, Alloca) and pointer in handled:
                        continue
                    accesses.append((access_form(inst, ctx),
                                     underlying_objects(pointer)))
        for i, (form_a, roots_a) in enumerate(accesses):
            for form_b, roots_b in accesses[i:]:
                if not (form_a.is_write or form_b.is_write):
                    continue
                if not may_alias_roots(roots_a, roots_b):
                    continue
                if conflicts_across_iterations(form_a, form_b, ctx):
                    return False
        return True

    def _collect_live_ins(self, loop: Loop, plan: _LoopPlan) -> None:
        counted = plan.counted
        replaced: Set[Value] = {counted.ivar}
        replaced.update(plan.private_allocas)
        replaced.update(a for a, _ in plan.value_params)
        seen: Set[Value] = set()
        ordered: List[Value] = []

        def consider(value: Value) -> None:
            if value in replaced or value in seen:
                return
            if isinstance(value, (Constant, GlobalVariable)):
                return
            if isinstance(value, Argument):
                seen.add(value)
                ordered.append(value)
                return
            if isinstance(value, Instruction) \
                    and value.parent not in loop.blocks:
                seen.add(value)
                ordered.append(value)

        if not isinstance(counted.start, Constant):
            consider(counted.start)
        for block in plan.body_blocks:
            for inst in block.instructions:
                if inst in plan.skip:
                    continue
                for operand in inst.operands:
                    consider(operand)
        plan.live_ins = ordered

    # -- outlining -------------------------------------------------------------

    def _outline(self, fn: Function, plan: _LoopPlan) -> BasicBlock:
        """Outline the loop into a new kernel; returns the launch block
        that replaces it."""
        counted = plan.counted
        self._counter += 1
        name = f"{fn.name}__doall{self._counter}"
        param_types = [I64] + [v.type for v in plan.live_ins] \
            + [load.type for _, load in plan.value_params]
        param_names = ["tid"] \
            + [f"in{i}" for i in range(len(plan.live_ins))] \
            + [f"val{i}" for i in range(len(plan.value_params))]
        kernel = self.module.add_function(
            name, FunctionType(VOID, param_types), param_names,
            is_kernel=True)
        #: DOALL iterations are independent by proof, so the multi-GPU
        #: layer may split this kernel's grid across devices.  Glue
        #: kernels and hand-written kernels never get the mark.
        kernel.is_doall = True
        self.kernels.append(kernel)

        value_map: Dict[Value, Value] = {}
        for formal, actual in zip(kernel.args[1:], plan.live_ins):
            value_map[actual] = formal
        value_args = kernel.args[1 + len(plan.live_ins):]

        entry = kernel.new_block("entry")
        exit_block = kernel.new_block("exit")
        builder = IRBuilder(entry)
        ivar_clone = builder.alloca(counted.ivar.allocated_type, 1, "iv")
        value_map[counted.ivar] = ivar_clone
        for alloca in plan.private_allocas:
            clone = builder.alloca(alloca.allocated_type, 1,
                                   alloca.name or "priv")
            value_map[alloca] = clone
        for (alloca, _), formal in zip(plan.value_params, value_args):
            clone = builder.alloca(alloca.allocated_type, 1,
                                   alloca.name or "ro")
            builder.store(formal, clone)
            value_map[alloca] = clone
        start_value = value_map.get(counted.start, counted.start)
        offset = builder.mul(kernel.args[0], counted.step)
        iv_value = builder.add(offset, start_value) \
            if isinstance(start_value, Constant) \
            else builder.add(start_value, offset)
        builder.store(iv_value, ivar_clone)

        block_map: Dict[BasicBlock, BasicBlock] = {
            counted.loop.header: exit_block}
        cloned = clone_region(plan.body_blocks, kernel, value_map,
                              block_map, plan.skip)
        first_body = counted.compare.parent.terminator.if_true
        builder.br(block_map[first_body])
        IRBuilder(exit_block).ret()
        # Cloning appended body blocks after the exit block; keep the
        # entry block first and the exit block last for readability.
        kernel.blocks.remove(exit_block)
        kernel.blocks.append(exit_block)

        return self._rewrite_caller(fn, plan, kernel)

    def _rewrite_caller(self, fn: Function, plan: _LoopPlan,
                        kernel: Function) -> BasicBlock:
        counted = plan.counted
        launch_block = fn.new_block("doall.launch")
        preheader_term = counted.preheader.terminator
        assert isinstance(preheader_term, Branch)
        preheader_term.target = launch_block

        builder = IRBuilder(launch_block)
        # Recompute the loop bound above the loop if it lived in the
        # (now deleted) header.
        end_map: Dict[Value, Value] = {}
        for inst in counted.end_computation:
            clone_ops = [end_map.get(op, op) for op in inst.operands]
            if isinstance(inst, Load):
                clone = builder.load(clone_ops[0])
            elif isinstance(inst, BinaryOp):
                clone = builder.binop(inst.op, clone_ops[0], clone_ops[1])
            elif inst.opcode == "cast":
                clone = builder.cast(inst.kind, clone_ops[0], inst.type)
            else:
                raise TransformError(
                    f"cannot hoist bound computation {inst.opcode}")
            end_map[inst] = clone
        end_value = end_map.get(counted.end, counted.end)

        # grid = max(0, ceil((end - start [+1 for <=]) / step))
        span = builder.sub(end_value, counted.start)
        if counted.pred == "le":
            span = builder.add(span, 1)
        rounded = builder.add(span, counted.step - 1)
        count = builder.div(rounded, counted.step)
        positive = builder.cmp("gt", count, 0)
        grid = builder.select(positive, count, builder.i64(0))
        args = list(plan.live_ins)
        for alloca, sample_load in plan.value_params:
            args.append(builder.load(alloca))
        builder.launch(kernel, grid, args)
        # Iteration variable's final value (it may be read after the loop).
        final = builder.add(builder.mul(grid, counted.step), counted.start) \
            if isinstance(counted.start, Constant) \
            else builder.add(counted.start,
                             builder.mul(grid, counted.step))
        builder.store(final, counted.ivar)
        builder.br(counted.exit_block)
        erase_blocks(fn, counted.loop.blocks)
        return launch_block


# -- helpers ---------------------------------------------------------------


def _device_safe_callee(callee: Function,
                        _seen: Optional[Set[Function]] = None) -> bool:
    """May this function run on the GPU?"""
    if callee.is_declaration:
        return callee.name in GPU_SAFE
    seen = _seen or set()
    if callee in seen:
        return False  # recursion on the device: refuse
    seen.add(callee)
    for inst in callee.instructions():
        if isinstance(inst, LaunchKernel):
            return False
        if isinstance(inst, Call) and not _device_safe_callee(inst.callee,
                                                              seen):
            return False
    return True


def _collect_alloca_uses(fn: Function) -> Dict[Alloca, List[Instruction]]:
    uses: Dict[Alloca, List[Instruction]] = {}
    for inst in fn.instructions():
        if isinstance(inst, Alloca):
            uses.setdefault(inst, [])
    for inst in fn.instructions():
        for operand in inst.operands:
            if isinstance(operand, Alloca):
                uses.setdefault(operand, []).append(inst)
    return uses


def _is_direct_scalar(alloca: Alloca, uses: List[Instruction]) -> bool:
    """A scalar stack slot accessed only by direct loads and stores."""
    if not alloca.allocated_type.is_scalar:
        return False
    if not (isinstance(alloca.count, Constant) and alloca.count.value == 1):
        return False
    for use in uses:
        if isinstance(use, Load) and use.pointer is alloca:
            continue
        if isinstance(use, Store) and use.pointer is alloca \
                and use.value is not alloca:
            continue
        return False
    return True


def _inner_iv_ranges(cfg: _CfgAnalyses, loop: Loop,
                     enclosing: Dict[Alloca, IvRange]
                     ) -> Dict[Alloca, IvRange]:
    """Value ranges for induction variables of counted loops nested
    (at any depth) inside ``loop``.

    Non-constant bounds (``for (j = k+1; j < N; ...)``) are widened to
    an interval using ``enclosing``, the ranges of enclosing induction
    variables -- sound, because widening an inner range can only make
    the conflict test *more* conservative."""
    ranges: Dict[Alloca, IvRange] = {}
    for inner in cfg.loops:
        if inner is loop or not (inner.blocks < loop.blocks):
            continue
        counted = cfg.counted(inner)
        if counted is None:
            continue
        widened = _widened_range(counted, enclosing)
        if widened is not None:
            ranges[counted.ivar] = widened
    return ranges


def _widened_range(counted: CountedLoop,
                   known: Dict[Alloca, IvRange]) -> Optional[IvRange]:
    start = _value_interval(counted.start, known)
    end = _value_interval(counted.end, known)
    if start is None or end is None:
        return None
    stop = end[1] + 1 if counted.pred == "le" else end[1]
    return IvRange(start[0], max(start[0], stop), counted.step)


def _value_interval(value: Value, known: Dict[Alloca, IvRange],
                    _depth: int = 0) -> Optional[Tuple[int, int]]:
    """Best-effort [min, max] of an integer value over the ranges of
    enclosing induction variables."""
    if _depth > 16:
        return None
    if isinstance(value, Constant) and isinstance(value.value, int):
        return (value.value, value.value)
    if isinstance(value, Load) and isinstance(value.pointer, Alloca):
        rng = known.get(value.pointer)
        if rng is not None:
            return (rng.min_value, rng.max_value)
        return None
    if isinstance(value, BinaryOp):
        lhs = _value_interval(value.lhs, known, _depth + 1)
        rhs = _value_interval(value.rhs, known, _depth + 1)
        if lhs is None or rhs is None:
            return None
        if value.op == "add":
            return (lhs[0] + rhs[0], lhs[1] + rhs[1])
        if value.op == "sub":
            return (lhs[0] - rhs[1], lhs[1] - rhs[0])
        if value.op == "mul":
            corners = [a * b for a in lhs for b in rhs]
            return (min(corners), max(corners))
        return None
    if inst_is_int_cast(value):
        return _value_interval(value.operands[0], known, _depth + 1)
    return None


def inst_is_int_cast(value: Value) -> bool:
    from ..ir.instructions import Cast
    return isinstance(value, Cast) and value.kind in ("sext", "zext",
                                                      "trunc")


def _enclosing_iv_ranges(cfg: _CfgAnalyses,
                         loop: Loop) -> Dict[Alloca, IvRange]:
    """Value ranges for induction variables of counted loops that
    *enclose* ``loop`` (their value is fixed across the candidate's
    iterations, so equal coefficients cancel in the conflict test).

    Processed outermost-first (the order of ``cfg.loops``) so that an
    inner enclosing loop's symbolic bounds (``j = k+1``) can be widened
    over the ranges of the loops around it."""
    ranges: Dict[Alloca, IvRange] = {}
    for outer in cfg.loops:
        if not (loop.blocks < outer.blocks):
            continue
        counted = cfg.counted(outer)
        if counted is None:
            continue
        widened = _widened_range(counted, ranges)
        if widened is not None:
            ranges[counted.ivar] = widened
    return ranges


def _written_before_read(alloca: Alloca, plan: _LoopPlan,
                         preds: Dict[BasicBlock, List[BasicBlock]]) -> bool:
    """Forward must-analysis over the body subgraph (back edge cut):
    on every path through one iteration, is ``alloca`` stored before
    it is loaded?"""
    counted = plan.counted
    body_set = set(plan.body_blocks)
    first_body = counted.compare.parent.terminator.if_true
    defined_out: Dict[BasicBlock, bool] = {b: True for b in plan.body_blocks}
    changed = True
    while changed:
        changed = False
        for block in plan.body_blocks:
            if block is first_body:
                state = False
            else:
                inside = [p for p in preds[block] if p in body_set]
                state = bool(inside) and all(defined_out[p] for p in inside)
            for inst in block.instructions:
                if inst in plan.skip:
                    continue
                if isinstance(inst, Load) and inst.pointer is alloca \
                        and not state:
                    return False
                if isinstance(inst, Store) and inst.pointer is alloca:
                    state = True
            if defined_out[block] != state:
                defined_out[block] = state
                changed = True
    return True
