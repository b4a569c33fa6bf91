"""Source-compiled execution engine (``engine="source"``).

The tree-walker pays an isinstance dispatch, a register-dict lookup
per operand, and a cost charge per dynamic instruction.  This module
takes PyCUDA's run-time code-generation road instead: each IR
function is translated **once per (mode, hook-set, guarded, grid)**
into real Python source, ``compile()``-d, ``exec``-d, and cached on
the machine.

* **Registers are locals.**  Arguments unpack into ``a0..aN``,
  instruction results assign ``r0..rN``; every operand read is a
  ``LOAD_FAST``.  Constants, baked global addresses, and undef are
  inlined as literals.  Because locals live per activation, recursion
  and re-entrant kernels need no register-file save/restore at all.

* **Blocks are a ``while``-dispatched jump table.**  The emitted body
  is ``while True:`` over an ``if _b == k: ... elif`` chain; every
  terminator assigns the successor's dispatch index and ``continue``s,
  but the latch of a loop run as a ``for`` (below), whose back edge
  ``range`` takes.  Dispatch positions are ordered by loop depth
  (innermost first) so hot back edges scan the shortest prefix of the
  chain.  A block only one edge reaches is emitted in place of that
  jump (fused) -- so is a ``for`` loop's header, once its back edge is
  left out; a diamond nests its taken arm under the guard, at most
  ``_NEST_DEPTH`` diamonds deep.  Single-block functions skip the loop
  entirely.

* **Block-fused cost charging, split at flush points.**  The static
  ``_OP_COSTS`` of each straight-line run, ``div``/``rem`` extras
  included, are summed at compile time and emitted as one
  ``M._pending_cpu_ops += n`` (``M._gpu_ops`` in kernels), with runs
  split at ``call``/``launch`` -- the only instructions that can move
  pending ops onto the :class:`~repro.gpu.timing.SimClock` -- so
  every simulated timestamp is bit-identical to the tree-walker's.

* **One charge per fault-free run.**  A segment charges where it
  starts, except a block's last segment when nothing in it can fault
  (no memory access but a promoted slot's or a proven one's, no call
  but to an external that returns on any argument -- ``fabs``,
  ``fmax``, ``fmin``, ``atan``, ``abs_i64`` (``externals.TOTAL``) --
  no launch, division by a variable, no alloca but in a launch-tested
  frame, ...): its charge is carried into the first segment of each
  fused successor, or emitted just before the jump, ``return``,
  ``break`` or ``raise`` that leaves the fused path.  A fault
  therefore sees the counts it saw without the carry, and every flush
  point sees the same sum, since calls and launches both fault.

* **Fault-free counted loops run as ``for``.**  In a kernel's proven
  grid variant, a counted loop whose induction slot has a
  range-proven latch, whose body is a chain of fused blocks to the
  latch, passing through inner loops run as ``for``, and where
  nothing can fault, is emitted as ``for sK in range(start, end,
  step):`` over the body without the latch's store, then the slot's
  exit value; all its trips charge once, ``_t`` times the per-trip
  ops, carried with the final header test to the exit -- an inner
  loop's, with its own ``_r1``/``_t1`` locals, in the outer body.
  The header's end computation, the views (``_ls1vd = _ls1.vd``,
  ahead of the outermost loop) and the sums of the indices' terms
  that hold still in a loop (``_i0 = s0 * 32 + _lj1``, ahead of the
  loop whose slots they read) are bound once, as a body with no
  checked site, call or alloca cannot grow a segment or rebuild a
  view.  A proven load whose index moves only by the loop's slot
  ``sK``, or a proven ``sK ± c``, with a positive element scale
  ``k``, reads a *stream*: ``for sK, _x0 in zip(_r, view[sK * k +
  i:stop * k + i:k * step])``, whose iterator reads each element as
  the trip starts -- so only a load no memory store precedes in the
  trip streams, a store in an inner loop counting for every loop
  around it.  ``_r`` comes first in the ``zip``, so a loop that runs
  no trip reads no slice, whose bounds the proof need not cover.  A
  proven load with no moving term, in a loop whose body stores no
  memory, is *hoisted*: read once, ``_h0 = view[i] if _r else 0``.

* **Range-proven integer arithmetic.**  A promoted induction slot of
  a counted loop (``Tier.counted``) whose start and end have bounds,
  and whose ``i + step`` cannot leave its type, is bounded in the
  loop; bounds pass through add, sub, mul, div and rem by a positive
  constant from a non-negative operand, and casts whose input fits.
  Any other load, and any result whose wrap ran, is bounded by its
  type, so widening a value is free and ``i + 1`` of an ``i < n``
  loop needs no wrap whatever a loaded ``n`` holds.  A result proven
  inside its type is assigned without its wrap, and a non-negative
  ``x`` divides by a positive constant with ``//`` and ``%`` instead
  of C truncation.  ``i1`` and pointers keep their masks.

* **Folds.**  A promoted-slot load whose uses all follow it in its
  block, before any store to the slot, reads the slot in place; a
  compare used only by the ``cbr`` after it becomes the ``if``
  condition; a pure value (GEP, proven load, float add/sub/mul, float
  div by a nonzero constant, ``sitofp``, proven int op) used once,
  later in its block, with only
  pure values, slot reads and constant calls between, is emitted
  inside its user's expression, in the IR's order, nesting at most
  ``_FOLD_DEPTH`` folds so that a long chain never nears the parser's
  limit.  A pure-math call on constant arguments that returns at
  codegen is emitted as the literal of its value; any other is one
  positional call of the built-in handler's function
  (``handler.positional``).

* **Memory access compiles to typed-view indexing.**  One emitter
  serves every load and store: a prefix -- the write-back guard of a
  guarded variant, then the armed ``mem_hooks`` of a hooked one --
  and one of three accesses: a promoted slot, a proven view (both
  below), or a checked site.  A checked site's aligned in-bounds fast
  path is a single ``segment.vd[offset >> 3]`` typed index against the
  memoryview-backed segments of :mod:`repro.memory.flatmem`, guarded
  by one chained compare against the segment's live limit; everything
  else (segment miss, growth, unaligned, big-endian hosts) drops to a
  struct-codec slow helper that re-locates the segment.  The last-hit
  segment is cached in a *local* (``_cs``), not on the memory object,
  so the common case never leaves the frame.

* **Launch-time bounds proofs.**  A kernel's unhooked grid variant
  knows at launch what a thread cannot: the grid size and every
  argument.  Its range proofs therefore take *launch expressions*,
  Python expressions in ``grid`` and ``a1..aN``, as ends: the thread
  id lies in ``[0, grid - 1]``, an argument ``aJ`` in ``[aJ, aJ]``, a
  counted loop's slot runs between launch-expression bounds, and any
  other promoted slot holds the hull of its stored values (plus the
  zero fill, unless the entry run stores it first).  A result whose
  fit in its type rests on a launch expression carries a *launch
  condition* -- one that holds for every ordinary launch, or the
  result keeps its wrap.  An access whose address is a global or such
  a base plus GEP terms with bounded indices, every scale a multiple
  of the access size, is *proven*: before its first thread, when
  ``grid > 0``, the launch tests the conditions, and for each distinct
  base finds the segment whose allocated bytes hold the union of its
  sites' ranges, aligned to the access size, binding the segment and
  the base's element offset (``_lsK``, ``_ljN``).  A proven access is
  then one index in element units, ``_ls1.vd[s0 * 32 + s3 + _lj1]``,
  which keeps every per-thread int small, and as it cannot fault the
  charge carries across it and a proven load folds into its user.
  An index read from memory (a load, or a slot such a load fills) at
  32 bits or wider is bounded by its type alone, which no segment
  holds, so its access stays checked.  A *pointer table* -- a global
  slot the kernel loads a pointer from, where cfd, srad and
  blackscholes keep their heap arrays -- is read once, first in the
  launch prologue, into ``_tbK``, an atom like a launch
  argument, so accesses off it prove the same way and its loads are
  dead once they feed only proven sites.  That is sound only while no
  store of the launch reaches the slot, so a variant gets table atoms
  only when every memory store it can run is proven (no unproven or
  pointer-valued store, no launch, no callee it does not inline), and
  the launch tests each proven store's byte range against each slot's
  8 bytes (at codegen, when both ends are constants).
  Views are read through the segment on every access outside a
  ``for`` body: a checked site of the same launch may grow the
  segment, which rebuilds its views, but segments never move, so the
  proven range stays allocated.  When every alloca is a promoted slot
  of the entry block, the launch also tests that each thread's frame
  ends within the device stack, so the threads keep only the slots'
  zeros and the allocas stop no charge from carrying.  A launch that
  fails any test returns None before anything is charged or written,
  and :meth:`Machine.launch_evaluated
  <repro.interp.machine.Machine.launch_evaluated>` runs the kernel's
  checked grid variant (``grid=CHECKED``, compiled on first need) and
  counts it in ``Machine.checked_launches``.

* **Dead values are not emitted.**  A value nothing reads -- a DOALL
  kernel's unstored latch increment, a proven access's GEP chain --
  whose instruction cannot fault is left out; its ops stay in its
  segment's static charge.

* **Non-escaping stack slots are locals.**  MiniC keeps every local
  variable in an ``alloca`` (the modelled clock charges each of its
  loads and stores), so without this a loop counter round-trips
  through the stack segment on every access.  In the unhooked
  variants a scalar slot -- constant count 1, an int, pointer or
  float, its address used only as the pointer operand of loads and
  stores of exactly that type -- lives in a Python local ``sK``: a
  store assigns what memory would read back (the int wrap, the f32
  rounding), a load reads the local.  No other instruction can reach
  such a slot's bytes, so nothing observable moves.  The alloca keeps
  the stack-pointer bump and one compare against the stack segment's
  limit, so later addresses and stack-overflow faults stay put, but
  not the zero-fill of bytes that nothing unhooked reads and no
  promoted store writes; the slot's local starts at zero unless the
  entry run stores it first.  Every alloca tests its end against the
  stack segment's limit, in both engines, as the next segment may
  start right there; so a kernel's pointer store into a slot needs
  no device-stack guard.  In a grid variant whose allocas are all
  promoted slots run once per thread, the launch tests the frame's
  end once instead (see below).  Guarded variants still test the
  write-back guard ahead of every promoted access, because the
  runtime does not retire a declared alloca's pending write-back at
  frame exit and a new slot at that address must still trigger the
  sync.  Hooked variants promote no slot, so observers see every
  access at its stack address.

* **Hook specialization at codegen time.**  Armed ``mem_hooks``
  select the hooked variant, which calls them ahead of each access's
  checked site, where the tree-walker would (so the sanitizer observes
  exactly the tree-walker's event stream), and promotes no slot and
  proves no site.  The unhooked variant emits no hook plumbing at
  all, so the hot path carries zero per-instruction hook overhead.
  Variants are cached per hook-set identity (see
  ``Machine.compiled_for``).

* **Host-only write-back guard.**  Under streams the runtime arms
  ``Machine.writeback_guard``.  CPU-mode code of such a machine is
  compiled *guarded*: each load/store first runs ``if _pw: _wg(...)``
  (one truthiness test of the baked pending-write-back dict while
  nothing is in flight) and then the unchanged typed-view fast path.
  GPU-mode code is never guarded -- device addresses cannot overlap a
  host region -- so kernels keep the unhooked fast path.

* **Kernels run whole grids.**  A launch calls the kernel's *grid*
  variant once: the emitted body wrapped in ``for a0 in range(grid):``
  with a ``return`` turned into a ``break`` to the next thread.  The
  non-tid arguments and the access sites' segment caches are unpacked
  once per launch, fused charges and the device stack pointer live in
  locals, and a ``finally`` writes the op, instruction and frame-id
  tallies back once.  Each thread still takes its frame id, but gets
  no ``Frame`` and fires no exit hooks: only the host-only
  ``declareAlloca`` reads frames or registers anything the hooks
  retire.  In a proven grid variant whose own allocas are promoted
  slots of its entry block, a call to a *leaf* callee -- one whose
  allocas are promoted slots of its entry block, which touches no
  other memory, launches nothing and calls only ``GPU_SAFE``
  externals -- runs the callee's planned body in place of the thunk
  call, with names of its own (``fK...``), inside a loop a ``return``
  breaks out of after assigning the call's register: the callee's
  segments charge ``_go``/``_ei`` where its own variant would charge
  the machine's counters, each call takes a frame id (``_fr``), the
  launch tests the call depth limit and the frame with the deepest
  callee's slots, and no ``Frame`` or exit hook is made, as for the
  thread.  A kernel reaches out only through a callee it cannot
  inline or a nested launch: it then uses the machine's op count and
  stack pointer instead, as those do.

* **Cold functions stay in the tree-walker.**  ``engine="source"``
  is tiered: ``Machine.compiled_for`` declines to compile a (function,
  mode) until the instructions predicted for its entries reach
  ``machine.HOT_RATIO`` times its static size, so code that runs once
  is never emitted.  A callee's thunk (one a grid variant does not
  inline) runs it through ``Machine.activate``: its compiled body once
  hot, the tree-walker
  while cold, asking again on the next call; a cold launch runs the
  tree-walker's per-thread loop.  Because the engines are
  clock-for-clock identical, the tier is unobservable -- except that
  a cold function with a use its definition does not dominate faults
  when the read executes, as under the tree-walker, rather than when
  it would have compiled.

The tree-walker remains the reference semantics; the equivalence
suites hold this engine (compiling every function it enters) to
byte-identical observables and clock-for-clock equal timestamps
across the workload sweep and the fuzz corpus.
"""

from __future__ import annotations

import re
import weakref
from functools import partial
from itertools import chain
from typing import Dict, List, Optional, Tuple

from ..analysis.cfg import reverse_postorder
from ..analysis.dominators import DominatorTree
from ..errors import InterpError
from ..ir.function import Function
from ..ir.instructions import (Alloca, BinaryOp, Branch, Call, Cast, Compare,
                               CondBranch, GetElementPtr, Instruction,
                               LaunchKernel, Load, Return, Select, Store,
                               Unreachable)
from ..ir.types import (ArrayType, FloatType, IntType, PointerType,
                        StructType)
from ..ir.values import (Argument, Constant, GlobalVariable, UndefValue,
                         Value)
from ..memory.flatmem import (VIEW_ACCESS, round_f32, scalar_format,
                              scalar_struct)
from .externals import GPU_SAFE, TOTAL, call_cost
from .launch_expr import (_LAST_TID, _ORDINARY, _atom, _extreme, _nonnegative,
                          _ordinary, _plus, _quotient, _render, _solved,
                          _times)
from .machine import (_DIV_EXTRA, _OP_COSTS, CHECKED, MAX_CALL_DEPTH, Tier,
                      stack_fill, stack_segment, tier_of)
from .srcgen_runtime import (_BUILDERS, _GUARD_BUILDERS, _const,
                             _make_call_thunk, _make_cover,
                             _make_external_thunk, _make_pure_external,
                             _make_slow_load, _make_slow_store,
                             _on_device_stack)

_MASK64 = 0xFFFFFFFFFFFFFFFF
_INF = float("inf")
_NINF = float("-inf")

_COMPARE_OPS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
                "gt": ">", "ge": ">="}
_INT_BINOPS = {"add": "+", "sub": "-", "mul": "*", "and": "&",
               "or": "|", "xor": "^"}
#: Operators of a range-proven int op (div and rem by a positive
#: constant, from a non-negative operand, where C truncation agrees
#: with Python's floor).
_PROVEN_BINOPS = {"add": "+", "sub": "-", "mul": "*", "div": "//",
                  "rem": "%"}
#: Operators of a float op that cannot raise (div by a nonzero
#: constant: Python's float division only raises on a zero divisor).
_FLOAT_BINOPS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
#: Deepest nesting of single-use values folded into one expression;
#: a value past it keeps its register, so no chain of folds nears the
#: parser's limit on nested parentheses.
_FOLD_DEPTH = 16
#: Deepest nesting of fused diamonds (see ``_plan_fusion``).
_NEST_DEPTH = 40
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


# Integer results are wrapped into the type's signed range inline:
# v = raw & mask; v - span if v > hi else v.  Pointer results reuse the
# same shape with hi = mask and span = 0, i.e. plain unsigned masking.

def _int_params(type_) -> Tuple[int, int, int]:
    if isinstance(type_, PointerType):
        return _MASK64, _MASK64, 0
    if type_.bits == 1:
        return 1, 1, 0
    mask = (1 << type_.bits) - 1
    return mask, type_.max_value, 1 << type_.bits


def check_definitions(fn: Function) -> None:
    """Reject (reachable) uses not dominated by their definition.

    The tree-walker discovers such reads at run time and raises
    :class:`InterpError`; the source engine calls this before it
    compiles a function, so a malformed function can never start
    executing half-compiled.
    """
    reachable = set(reverse_postorder(fn))
    dom = DominatorTree(fn)
    positions: Dict[Instruction, Tuple[object, int]] = {}
    for block in fn.blocks:
        for index, inst in enumerate(block.instructions):
            positions[inst] = (block, index)
    for block in fn.blocks:
        if block not in reachable:
            continue
        for index, inst in enumerate(block.instructions):
            for operand in inst.operands:
                if not isinstance(operand, Instruction):
                    continue
                defined = positions.get(operand)
                if defined is None:
                    raise InterpError(
                        f"@{fn.name}/{block.name}: read of undefined "
                        f"register {operand.ref} (defined in another "
                        "function)")
                def_block, def_index = defined
                if def_block is block:
                    ok = def_index < index
                else:
                    ok = dom.dominates(def_block, block)
                if not ok:
                    raise InterpError(
                        f"@{fn.name}/{block.name}: read of register "
                        f"{operand.ref} whose definition does not "
                        "dominate the use (undefined on some path)")


def _frame_end(frame: int, allocas) -> int:
    """Where a run of promoted slots, each 8-aligned, ends when the
    first starts at ``frame`` bytes or past it."""
    for alloca in allocas:
        frame = ((frame + 7) & -8) + alloca.allocated_type.size
    return frame


#: Emission + ``compile()`` are the dominant fixed costs for short
#: runs, and the emitted *text* for one function under one (mode,
#: hooked, guarded, grid) key is fully deterministic -- global
#: addresses come from the module's layout, name counters from
#: emission order.
#: Machine-bound state rides in the exec namespace, never in the code
#: object, so each cache entry stores ``(source, code object,
#: builders)`` where ``builders`` maps every baked name to a
#: ``(machine, memory) -> value`` recipe; later machines skip emission
#: and compilation and only rebuild the namespace.  Keyed weakly by
#: function so corpora of throwaway fuzz modules don't accumulate;
#: for that, no recipe may hold an IR function (callees and kernels
#: resolve by name through ``machine.module``), since every function
#: reaches its whole module and so the key.
_CODE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _pure_call(inst) -> bool:
    """Call sites that cannot flush pending ops onto the clock: calls
    to the externals kernels may call (``GPU_SAFE``), whose handlers
    only compute -- no clock advance, no machine state, no stdout, no
    RNG.  They bake the modelled call cost into the enclosing fused
    segment charge (no flush can occur between the segment's charge
    and the call) and dispatch positionally, skipping the thunk and
    the argument list."""
    return (isinstance(inst, Call) and inst.callee.is_declaration
            and inst.callee.name in GPU_SAFE)


class _Open:
    """A ``for`` loop whose body is being emitted (see
    :meth:`_SourceCompiler._emit_loop`)."""

    __slots__ = ("alloca", "step", "range", "stop", "blocks", "stored",
                 "stores_memory", "store_seen", "views", "sums",
                 "streams", "hoists")

    def __init__(self, alloca: Alloca, step: int, range_: str,
                 stop: Optional[int], blocks, stored: set,
                 stores_memory: bool):
        self.alloca = alloca
        self.step = step
        #: The ``range`` local, and its stop when it is a constant.
        self.range = range_
        self.stop = stop
        #: The body's blocks, inner loops' included, the pointers they
        #: store to, and whether any of those is memory, not a slot.
        self.blocks = blocks
        self.stored = stored
        self.stores_memory = stores_memory
        #: Whether a memory store was emitted earlier in the trip.
        self.store_seen = False
        #: Text -> local: the views bound ahead of the outermost loop
        #: (kept on its record only), the index sums and hoisted loads
        #: bound ahead of this loop, and the slices ``zip`` streams.
        self.views: Dict[str, str] = {}
        self.sums: Dict[str, str] = {}
        self.streams: Dict[str, str] = {}
        self.hoists: Dict[str, str] = {}


class _SourceCompiler:
    """Emits and compiles Python source for one (function, mode, hooks,
    guarded, grid)."""

    def __init__(self, machine, fn: Function, mode: str, hooked: bool,
                 guarded: bool, grid: bool = False):
        if fn.is_declaration:
            raise InterpError(f"cannot compile declaration @{fn.name}")
        if mode not in ("cpu", "gpu"):
            raise InterpError(f"cannot compile for mode {mode!r}")
        self.machine = machine
        self.fn = fn
        self.mode = mode
        self.hooked = hooked
        self.guarded = guarded
        self.grid = grid
        #: Launch-time bounds proofs: a kernel's unhooked grid variant
        #: only, never its checked one (``grid == CHECKED``).
        self.proofs = grid is True and not hooked
        self.memory = machine.device.memory if mode == "gpu" \
            else machine.cpu_memory
        #: A grid variant whose threads can reach code that uses the
        #: machine's counters -- a defined callee it does not inline
        #: (``_plan_calls``) or a nested launch, which also resets the
        #: op count -- charges ``M._gpu_ops`` directly, takes each
        #: thread's ops as the difference and allocates from
        #: ``M._gpu_sp``.  Any other grid variant keeps the charges
        #: (``_go`` per thread, ``_ei`` per launch) and the stack
        #: pointer (``_sp``) in locals, since nothing else reads them
        #: until the grid ends.
        self.reaches_out = grid and any(
            isinstance(inst, LaunchKernel)
            or (isinstance(inst, Call) and not inst.callee.is_declaration)
            for inst in fn.instructions())
        local = grid and not self.reaches_out
        if mode == "cpu":
            self.charge, self.sp = "M._pending_cpu_ops", "M._cpu_sp"
        elif local:
            self.charge, self.sp = "_go", "_sp"
        else:
            self.charge, self.sp = "M._gpu_ops", "M._gpu_sp"
        self.counter = "_ei" if grid else "M.executed_instructions"
        #: The prefix of the argument, register and slot names, and the
        #: dispatch local: ``fK`` and ``fKb`` in the K-th callee that a
        #: grid variant inlines, whose body then assigns ``result`` (the
        #: call's register) and breaks where it would return (see
        #: ``_plan_calls``).
        self.prefix = ""
        self.dispatch = "_b"
        self.inline = False
        self.result: Optional[str] = None
        #: The arguments whose call operand reads back unchanged from
        #: a store of their type (see ``_stores_as_is``).
        self._exact_args: set = set()
        self.names: Dict[Value, str] = {}
        self.lines: List[str] = []
        self.indent = 1
        #: exec()/default-argument namespace recipe: every non-literal
        #: object the emitted code touches, as keyword-only defaults
        #: (so access inside the function is a LOAD_FAST), each
        #: expressed as a ``(machine, memory) -> value`` builder so a
        #: cached code object can be re-instantiated on any machine.
        #: ``compile`` keeps only those the emitted code reads.
        self.builders: Dict[str, object] = dict(_BUILDERS)
        self._objects: Dict[object, str] = {}
        self._helpers: Dict[tuple, str] = {}
        self._sites: List[str] = []
        #: Blocks inlined into their unique predecessor (block
        #: fusion); they get no dispatch index and their terminator's
        #: predecessor emits their body in place.
        self._inlined: set = set()
        #: Promoted stack slots: alloca -> the local holding its value.
        self._slots: Dict[Alloca, str] = {}
        #: Bounds of the promoted induction-slot loads (see
        #: ``_prove_ranges``), the memo of ``_interval`` and the int
        #: ops and casts it proved need no wrap.
        self._ranges: Dict[Load, tuple] = {}
        self._intervals: Dict[Value, Optional[tuple]] = {}
        self._proven: set = set()
        #: With ``proofs``: each promoted slot's stores, the memo of
        #: ``_slot_interval``, the launch conditions of the memoized
        #: bounds (by value or slot) and of the counted loops and
        #: bitcasts, and the proven access sites with their bases and
        #: element offsets (see ``_plan_sites``).
        self._slot_stores: Dict[Alloca, List[Store]] = {}
        self._hulls: Dict[Alloca, Optional[tuple]] = {}
        self._conditions: Dict[Value, list] = {}
        self._fixed_conditions: list = []
        self._proofs: Dict[Instruction, tuple] = {}
        self._bases: Dict[object, list] = {}
        self._offsets: Dict[tuple, str] = {}
        #: With ``proofs``: the global pointer slots read once per
        #: launch (slot -> ``_tbK``, see ``_plan_sites``), the byte
        #: ranges of the proven stores, which the launch tests against
        #: those slots, and the calls whose callee is emitted in place
        #: (call -> the callee's compiler, see ``_plan_calls``).
        self._tables: Dict[GlobalVariable, str] = {}
        self._store_ranges: List[tuple] = []
        self._callees: Dict[Call, "_SourceCompiler"] = {}
        #: Values nothing reads, left out of the emitted code.
        self._dead: set = set()
        #: Values emitted into their use instead of a register.
        self._folded: set = set()
        #: (ops, instructions, trips) the fault-free segment being
        #: emitted hands on to its exits (see ``_emit_block_body``);
        #: ``trips`` is None or a ``for`` loop's per-trip (ops,
        #: instructions), owed ``_t`` times (see ``_emit_loop``).
        self._carry = (0, 0, None)
        #: Counted loops whose induction slot ``_prove_ranges`` bounds:
        #: (slot alloca, step, pred, header, latch, blocks).
        self._counted: List[tuple] = []
        #: With ``proofs``: the loops emitted as ``for`` (header ->
        #: (slot alloca, step, pred, body chain, member blocks but the
        #: header)), and the frame size the launch tests when every
        #: alloca is a promoted slot run once per thread (see
        #: ``_plan_frame``).
        self._loops: Dict[object, tuple] = {}
        self._frame: Optional[int] = None
        #: The ``for`` loops whose bodies are being emitted, outermost
        #: first, and the counts behind the function's ``_iN``, ``_xN``
        #: and ``_hN`` names (see ``_proven_view``).
        self._open: List[_Open] = []
        self._serials: Dict[str, int] = {"_i": 0, "_x": 0, "_h": 0}
        self._streamed = 0
        #: Pure-math calls on constant arguments, by the literal of
        #: the value they return at codegen (see ``_plan_constants``).
        self._constants: Dict[Call, str] = {}
        if mode == "gpu":
            self.builders["_onds"] = _on_device_stack
        if guarded:
            self.builders.update(_GUARD_BUILDERS)

    # -- emission plumbing --------------------------------------------------

    def _emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def _bake(self, prefix: str, obj: object) -> str:
        """A stable default-argument name for one baked constant."""
        key = id(obj)
        name = self._objects.get(key)
        if name is None:
            name = f"{prefix}{len(self.builders)}"
            self._objects[key] = name
            self.builders[name] = _const(obj)
        return name

    def _helper(self, prefix: str, key: tuple, build) -> str:
        """A stable default-argument name for one deduped
        ``(machine, memory) -> value`` recipe."""
        name = self._helpers.get(key)
        if name is None:
            name = f"{prefix}{len(self.builders)}"
            self.builders[name] = build
            self._helpers[key] = name
        return name

    def _slow_helper(self, kind: str, type_) -> str:
        """The deduped codec-fallback helper for one access shape."""
        codec = scalar_struct(type_)
        i1 = isinstance(type_, IntType) and type_.bits == 1
        key = (kind, codec.format, i1 if kind == "ld" else False)
        if kind == "ld":
            return self._helper(
                "_ld", key,
                lambda m, mem, c=codec, f=i1: _make_slow_load(mem, c, f))
        return self._helper(
            "_st", key, lambda m, mem, c=codec: _make_slow_store(mem, c))

    # -- operand references -------------------------------------------------

    def _literal(self, value) -> str:
        if isinstance(value, float):
            if value != value:
                return "_NAN"
            if value == _INF:
                return "_INF"
            if value == _NINF:
                return "_NINF"
            text = repr(value)
        else:
            text = repr(int(value))
        return f"({text})" if text.startswith("-") else text

    def _ref(self, value: Value) -> str:
        name = self.names.get(value)
        if name is not None:
            return name
        if isinstance(value, Constant):
            return self._literal(value.value)
        if isinstance(value, GlobalVariable):
            if self.mode == "gpu":
                address = self.machine.device.module_get_global(value.name)
            else:
                address = self.machine.layout.address_of(value.name)
            return self._literal(address)
        if isinstance(value, UndefValue):
            return "0"
        raise InterpError(
            f"@{self.fn.name}: operand {value!r} is not a constant, "
            "global, or local definition")

    # -- stack-slot promotion -----------------------------------------------

    def _promoted_slots(self) -> Dict[Alloca, str]:
        """Name a Python local for each non-escaping scalar stack slot.

        A slot qualifies when its alloca has constant count 1, holds an
        int, a pointer or a float, and its address is only ever the
        pointer operand of a load or store of exactly that type: no
        other instruction can then reach its bytes, so the value may
        live in a local while the alloca keeps its memory effects.
        """
        scalars = (IntType, PointerType, FloatType)
        slots = {inst: inst.allocated_type for inst in self.fn.instructions()
                 if isinstance(inst, Alloca)
                 and isinstance(inst.count, Constant)
                 and inst.count.value == 1
                 and isinstance(inst.allocated_type, scalars)}
        escaped = set()
        for inst in self.fn.instructions():
            for position, operand in enumerate(inst.operands):
                type_ = slots.get(operand)
                if type_ is None:
                    continue
                if isinstance(inst, Load):
                    fits = inst.type == type_
                elif isinstance(inst, Store):
                    fits = position == 1 and inst.value.type == type_
                else:
                    fits = False
                if not fits:
                    escaped.add(operand)
        kept = [alloca for alloca in slots if alloca not in escaped]
        return {alloca: f"{self.prefix}s{k}" for k, alloca in enumerate(kept)}

    def _stores_as_is(self, value: Value, type_, depth: int = 3) -> bool:
        """Whether ``value`` as emitted already reads back unchanged
        from a ``type_`` store, so a store needs no wrap or rounding.
        Int results and constants are wrapped to their type where they
        are defined; float results are Python floats only by
        construction (an undef or bitcast operand can be an int).  An
        inlined callee's argument is as its call's operand is."""
        if isinstance(value, (Load, Alloca, GlobalVariable)) \
                or value in self._exact_args:
            return True
        if isinstance(type_, FloatType):
            if isinstance(value, Cast):
                return value.kind in ("fptrunc", "fpext") \
                    or (type_.bits == 64 and value.kind == "sitofp")
            if type_.bits == 32:
                return False
            if isinstance(value, Constant):
                return True
            if isinstance(value, BinaryOp):
                return value.op in ("div", "rem") or depth > 0 and any(
                    self._stores_as_is(operand, type_, depth - 1)
                    for operand in (value.lhs, value.rhs))
            return False
        if isinstance(value, Cast):
            return type_.is_pointer \
                or value.kind not in ("bitcast", "inttoptr")
        return isinstance(value, (BinaryOp, Compare)) \
            or isinstance(value, Constant) and isinstance(type_, IntType)

    def _emit_slot_store(self, alloca: Alloca, value: Value, type_) -> None:
        """Assign a promoted slot what a load would read back after
        the store: the value wrapped or rounded to the slot's type.  A
        launch argument that the slot's bounds prove inside the type
        needs no wrap."""
        slot = self._slots[alloca]
        if isinstance(value, Constant):
            raw = value.value
            if isinstance(type_, FloatType):
                if type_.bits == 32:
                    raw = round_f32(raw)
            else:
                mask, high, span = _int_params(type_)
                raw &= mask
                if span and raw > high:
                    raw -= span
            self._emit(f"{slot} = {self._literal(raw)}")
            return
        ref = self._ref(value)
        if self._stores_as_is(value, type_) or self.proofs \
                and isinstance(value, Argument) \
                and self._slot_interval(alloca) is not None:
            self._emit(f"{slot} = {ref}")
        elif isinstance(type_, FloatType):
            convert = "_rf32" if type_.bits == 32 else "float"
            self._emit(f"{slot} = {convert}({ref})")
        else:
            self._emit_wrapped(slot, ref, type_)

    # -- memory access ------------------------------------------------------

    def _emit_access(self, inst: Instruction) -> None:
        """One load or store that is not :meth:`_pure`: the host
        write-back guard of a guarded variant (one truthiness test
        while no write-back is in flight) and the armed ``mem_hooks``
        of a hooked one, then a promoted slot, a proven view or one
        checked typed-view site.  A store first wraps its value and, in
        a kernel, tests that a pointer lands on the device stack.

        A checked site caches its segment in a local of its own
        (``_csK``): sites are overwhelmingly monomorphic, but adjacent
        ones often alternate segments (a global and a heap array in one
        loop), which would thrash a shared cache.  The baked ``_cc``
        list keeps each site's segment across activations (one slot
        per site, re-read in the prologue, stored after a slow-path
        trip; a grid variant stores all of them when the launch ends),
        so even a body run once per kernel thread starts warm.  The
        in-bounds guard makes a stale segment a slow-path trip, never
        a wrong access."""
        load = isinstance(inst, Load)
        kind = "load" if load else "store"
        pointer = self._ref(inst.pointer)
        type_ = inst.type if load else inst.value.type
        if self.guarded:
            self._emit("if _pw:")
            self._emit(f"    _wg(M, \"{kind}\", {pointer}, {type_.size})")
        if self.hooked:
            self._emit("for _h in M.mem_hooks:")
            self._emit(f"    _h(M, \"{kind}\", {pointer}, {type_.size})")
        slot = self._slots.get(inst.pointer)
        if load:
            dest = self.names[inst]
            if slot is not None:
                if inst in self._folded:
                    self.names[inst] = slot
                else:
                    self._emit(f"{dest} = {slot}")
                return
        else:
            if slot is not None:
                # The alloca's limit test put the slot on the stack.
                self._emit_slot_store(inst.pointer, inst.value, type_)
                return
            for loop in self._open:
                loop.store_seen = True
            if self.mode == "gpu" and type_.is_pointer:
                self._emit(f"if not _onds({pointer}):")
                self._emit(f"    raise _CUE(\"kernel @{self.fn.name} stores "
                           "a pointer into memory (CGCM restriction)\")")
            stored = self._ref(inst.value)
            if not isinstance(type_, FloatType) \
                    and not self._stores_as_is(inst.value, type_):
                mask, high, span = _int_params(type_)
                self._emit(f"_v = {stored} & {self._literal(mask)}")
                if span:
                    self._emit(f"if _v > {self._literal(high)}:")
                    self._emit(f"    _v -= {self._literal(span)}")
                stored = "_v"
            if inst in self._proofs:
                self._emit(f"{self._proven_view(inst)} = {stored}")
                return
        k = len(self._sites)
        cs = f"_cs{k}"
        self._sites.append(cs)
        view, hi, shift, amask = VIEW_ACCESS[scalar_format(type_)[-1]]
        index = "_o" if shift == 0 else f"_o >> {shift}"
        guard = f"0 <= _o <= {cs}.{hi}" if amask == 0 else \
            f"0 <= _o <= {cs}.{hi} and not _o & {amask}"
        self._emit(f"_o = {pointer} - {cs}.base")
        self._emit(f"if {guard}:")
        if load:
            i1 = isinstance(type_, IntType) and type_.bits == 1
            self._emit(f"    {dest} = {cs}.{view}[{index}]"
                       + (" & 1" if i1 else ""))
            self._emit("else:")
            self._emit(f"    {dest}, {cs} = "
                       f"{self._slow_helper('ld', type_)}({pointer})")
        else:
            self._emit(f"    {cs}.{view}[{index}] = {stored}")
            self._emit("else:")
            self._emit(f"    {cs} = {self._slow_helper('st', type_)}"
                       f"({pointer}, {stored})")
        if not self.grid:
            self._emit(f"    _cc[{k}] = {cs}")

    def _proven_view(self, inst: Instruction) -> str:
        """A proven site's typed-view index in element units, read
        through the segment on every access: a checked site of the
        same launch may grow the segment, which rebuilds its views.

        In a ``for`` body, which has no checked site, call or alloca,
        the view is bound ahead of the outermost loop, and the sum of
        the index's terms that hold still in the innermost one ahead
        of the loop whose slots it reads.  A load there is read
        instead, when no term moves and the body stores no memory,
        once ahead of the loop (``_hN``, see ``_emit_loop``), or, when
        the one moving term steps with the loop's slot (``_slice``)
        and no memory store comes earlier in the trip, from a slice
        that ``zip`` walks with the slot (``_xN``): its iterator reads
        each element as the trip starts, after every store of the
        trips before."""
        segment, view, terms, offset, lj = self._proofs[inst]
        if not self._open:
            parts = [self._term(value, k) for value, k in terms]
            if offset:
                parts.append(self._literal(offset))
            parts.append(lj)
            return f"{segment}.{view}[{' + '.join(parts)}]"
        loop = self._open[-1]
        name = self._open[0].views.setdefault(f"{segment}.{view}",
                                              f"{segment}{view}")
        moving, fixed, level = [], [], 0
        for value, k in terms:
            at = self._level(value)
            if at is None:
                moving.append((value, k))
            else:
                fixed.append(self._term(value, k))
                level = max(level, at)
        if offset:
            fixed.append(self._literal(offset))
        fixed.append(lj)
        load = isinstance(inst, Load)
        if load and not moving and not loop.stores_memory:
            return self._local(loop.hoists, f"{name}[{' + '.join(fixed)}]",
                               "_h")
        base = fixed[0] if len(fixed) == 1 else \
            self._local(self._open[level].sums, " + ".join(fixed), "_i")
        if load and len(moving) == 1 and not loop.store_seen:
            stream = self._slice(loop, name, base, *moving[0])
            if stream is not None:
                self._streamed += 1
                return self._local(loop.streams, stream, "_x")
        parts = [self._term(value, k) for value, k in moving]
        return f"{name}[{' + '.join(parts + [base])}]"

    def _term(self, value: Value, k: int) -> str:
        return self._ref(value) if k == 1 \
            else f"{self._ref(value)} * {self._literal(k)}"

    def _local(self, table: Dict[str, str], text: str, prefix: str) -> str:
        """The local that ``table`` binds to ``text``, named on first
        use: ``prefix`` and a count kept per function, so an inner
        loop never rebinds an outer loop's local."""
        name = table.get(text)
        if name is None:
            name = table[text] = f"{prefix}{self._serials[prefix]}"
            self._serials[prefix] += 1
        return name

    def _slice(self, loop: _Open, view: str, base: str, value: Value,
               k: int) -> Optional[str]:
        """The slice of ``view`` holding, trip by trip, the elements
        at ``value * k + base``, or None unless ``value`` is the
        loop's slot or a proven ``slot ± c`` and ``k`` is positive.
        The slice starts at the first trip's element, which the proof
        covers when the loop runs, and stops where the slot would stop
        (a stop past the view's end is clamped), so it holds one
        element per trip.  ``_r`` comes first in the ``zip``: a loop
        that runs no trip reads no slice, whose bounds the proof need
        not cover (slicing clamps them and never raises)."""
        shift = 0
        if isinstance(value, BinaryOp) and value.op in ("add", "sub") \
                and isinstance(value.rhs, Constant) \
                and self._needs_no_wrap(value):
            shift = int(value.rhs.value) * (1 if value.op == "add" else -1)
            value = value.lhs
        if not (isinstance(value, Load) and value.pointer is loop.alloca) \
                or k <= 0:
            return None
        shift *= k

        def at(first: str) -> str:
            text = first if k == 1 else f"{first} * {k}"
            if shift:
                text += f" + {shift}" if shift > 0 else f" - {-shift}"
            return f"{text} + {base}"

        stop = at(f"{loop.range}.stop") if loop.stop is None \
            else f"{self._literal(loop.stop * k + shift)} + {base}"
        stride = k * loop.step
        return f"{view}[{at(self._slots[loop.alloca])}:{stop}" \
            + (f":{stride}]" if stride != 1 else "]")

    def _level(self, value: Value) -> Optional[int]:
        """The outermost open loop ahead of which ``value`` may be read
        for all of that loop's trips (see ``_fixed``), or None when it
        moves in the innermost one."""
        for level, loop in enumerate(self._open):
            if self._fixed(value, loop):
                return level
        return None

    def _fixed(self, value: Value, loop: _Open) -> bool:
        """Whether ``value``, read in the body of ``loop``, holds one
        value on every trip and can be read ahead of the loop: a value
        from outside the body (its register is set), or a folded slot
        read of a slot the body never stores, or a folded pure value of
        such values."""
        if not isinstance(value, Instruction) \
                or value.parent not in loop.blocks:
            return True
        if value not in self._folded:
            return False
        if isinstance(value, Load):
            return value.pointer in self._slots \
                and value.pointer not in loop.stored
        return self._pure(value) and all(
            self._fixed(operand, loop) for operand in self._operands(value))

    # -- arithmetic ---------------------------------------------------------

    def _emit_wrapped(self, dest: str, raw: str, type_) -> None:
        """Assign ``raw`` wrapped into the type's range to ``dest``."""
        mask, high, span = _int_params(type_)
        if span == 0:
            self._emit(f"{dest} = {raw} & {self._literal(mask)}")
            return
        self._emit(f"_v = {raw} & {self._literal(mask)}")
        self._emit(f"{dest} = _v - {self._literal(span)} "
                   f"if _v > {self._literal(high)} else _v")

    def _pure(self, inst: Instruction) -> bool:
        """Whether ``inst`` is one expression that cannot raise: a GEP,
        a proven load, a float add, sub or mul, or div by a nonzero
        constant, ``sitofp``, or an int op or cast whose result is
        proven inside its type (no wrap to emit)."""
        if isinstance(inst, GetElementPtr):
            return True
        if isinstance(inst, Load):
            return inst in self._proofs
        if isinstance(inst, BinaryOp) and isinstance(inst.type, FloatType):
            return inst.op in ("add", "sub", "mul") or inst.op == "div" \
                and isinstance(inst.rhs, Constant) and inst.rhs.value != 0
        if isinstance(inst, Cast) and inst.kind == "sitofp":
            return True
        return isinstance(inst, (BinaryOp, Cast)) \
            and self._needs_no_wrap(inst)

    def _expression(self, inst: Instruction) -> str:
        """The Python expression of a :meth:`_pure` instruction; a
        pointer table's load reads its launch atom ``_tbK``."""
        if isinstance(inst, GetElementPtr):
            return self._gep(inst)
        if isinstance(inst, Load):
            table = self._tables.get(inst.pointer)
            if table is not None:
                return table
            view = self._proven_view(inst)
            i1 = isinstance(inst.type, IntType) and inst.type.bits == 1
            return f"{view} & 1" if i1 else view
        if isinstance(inst, Cast):
            source = self._ref(inst.value)
            return f"float({source})" if inst.kind == "sitofp" else source
        ops = _FLOAT_BINOPS if isinstance(inst.type, FloatType) \
            else _PROVEN_BINOPS
        return f"{self._ref(inst.lhs)} {ops[inst.op]} {self._ref(inst.rhs)}"

    def _emit_binop(self, inst: BinaryOp) -> None:
        """A float div or rem, or an int op not proven in range."""
        dest = self.names[inst]
        a, b = self._ref(inst.lhs), self._ref(inst.rhs)
        op = inst.op
        if isinstance(inst.type, FloatType):
            if op == "div":
                self._emit(f"_f = {b}")
                self._emit("if _f == 0.0:")
                self._emit(f"    _g = {a}")
                self._emit(f"    {dest} = _INF if _g > 0 else "
                           "(_NINF if _g < 0 else _NAN)")
                self._emit("else:")
                self._emit(f"    {dest} = {a} / _f")
            elif op == "rem":
                self._emit(f"_f = {b}")
                self._emit("if _f == 0.0:")
                self._emit(f"    {dest} = _NAN")
                self._emit("else:")
                self._emit(f"    _g = {a}")
                self._emit(f"    {dest} = float(_g - _f * _tdf(_g, _f))")
            else:
                raise InterpError(f"float binop {op}")
            return
        if op in _INT_BINOPS:
            raw = f"({a} {_INT_BINOPS[op]} {b})"
        elif op == "div":
            raw = f"_tdi({a}, {b})"
        elif op == "rem":
            raw = f"({a} - {b} * _tdi({a}, {b}))"
        elif op == "shl":
            raw = f"({a} << ({b} & 63))"
        elif op == "shr":
            raw = f"({a} >> ({b} & 63))"
        else:
            raise InterpError(f"int binop {op}")
        self._emit_wrapped(dest, raw, inst.type)

    def _emit_cast(self, inst: Cast) -> None:
        """A cast that is not :meth:`_pure`."""
        dest = self.names[inst]
        source = self._ref(inst.value)
        kind = inst.kind
        to_type = inst.type
        if kind in ("bitcast", "inttoptr"):
            if to_type.is_pointer:
                self._emit(f"{dest} = {source} & {_MASK64}")
            else:
                self._emit(f"{dest} = {source}")
        elif kind in ("ptrtoint", "trunc", "sext"):
            self._emit_wrapped(dest, source, to_type)
        elif kind == "zext":
            src = inst.value.type
            assert isinstance(src, IntType)
            src_mask = (1 << src.bits) - 1
            self._emit_wrapped(dest, f"({source} & {src_mask})", to_type)
        elif kind in ("fptrunc", "fpext"):
            if to_type == FloatType(32):
                self._emit(f"{dest} = _rf32({source})")
            else:
                self._emit(f"{dest} = float({source})")
        elif kind == "fptosi":
            mask, high, span = _int_params(to_type)
            self._emit(f"_f = {source}")
            self._emit("if _f != _f or _f == _INF or _f == _NINF:")
            self._emit(f"    {dest} = 0")
            self._emit("else:")
            self._emit(f"    _v = int(_f) & {self._literal(mask)}")
            if span:
                self._emit(f"    {dest} = _v - {self._literal(span)} "
                           f"if _v > {self._literal(high)} else _v")
            else:
                self._emit(f"    {dest} = _v")
        else:
            raise InterpError(f"cast kind {kind}")

    def _gep(self, inst: GetElementPtr) -> str:
        steps, offset = self._gep_steps(inst)
        terms = [self._ref(inst.pointer)]
        terms.extend(self._ref(index) if scale == 1
                     else f"{self._ref(index)} * {scale}"
                     for index, scale in steps)
        if offset:
            terms.append(self._literal(offset))
        return " + ".join(terms)

    def _gep_steps(self, inst: GetElementPtr) -> Tuple[list, int]:
        """``inst``'s address less its pointer: the ``(index, scale)``
        terms of its variable indices and the constant offset."""
        pointee = inst.pointer.type.pointee
        indices = inst.indices
        offset = 0
        steps: List[Tuple[Value, int]] = []

        def accumulate(index: Value, scale: int) -> None:
            nonlocal offset
            if isinstance(index, Constant):
                offset += int(index.value) * scale
            else:
                steps.append((index, scale))

        accumulate(indices[0], pointee.size)
        current = pointee
        for index in indices[1:]:
            if isinstance(current, ArrayType):
                current = current.element
                accumulate(index, current.size)
            elif isinstance(current, StructType):
                if not isinstance(index, Constant):
                    raise InterpError(
                        f"@{self.fn.name}: struct gep index must be "
                        "constant")
                field = int(index.value)
                offset += current.field_offset(field)
                current = current.fields[field][1]
            else:
                raise InterpError(f"gep into non-aggregate {current}")
        return steps, offset

    # -- range proofs -------------------------------------------------------

    def _prove_ranges(self) -> None:
        """Bound the loads of promoted induction slots (``_ranges``).

        A counted loop of ``Tier.counted`` bounds its induction slot
        when the slot is a promoted int (so only the latch writes it
        inside the loop), the latch jumps straight back to the header,
        the start and end have bounds, and the latch's ``i + step``
        cannot leave the type -- a launch condition when its bound is
        a launch expression.  With ``top`` the largest value the
        header lets in, a load lies in ``[start_lo, max(start_hi, top
        + step)]`` in the header and after the latch's store, and in
        ``[start_lo, top]`` everywhere else in the loop.  Loops come
        outermost first, so an inner loop's bounds can use the ranges
        of the loops around it.
        """
        blocks = self.fn.blocks
        insts: List[Instruction] = []
        for ivar, start, end, step, pred, header, latch, members \
                in self.tier.counted:
            insts = insts or list(self.fn.instructions())
            alloca = insts[ivar]
            if alloca not in self._slots:
                continue
            type_ = alloca.allocated_type
            if not isinstance(type_, IntType) or type_.bits == 1 \
                    or not isinstance(blocks[latch].instructions[-1], Branch):
                continue
            start, end = (self._interval(insts[fact])
                          if isinstance(fact, int) else fact
                          for fact in (start, end))
            if start is None or end is None:
                continue
            top = _plus(end[1], -(pred == "lt"))
            last = _plus(top, step)
            fits = self._fits((start[0], last), type_)
            if fits is None:
                continue
            self._fixed_conditions += fits
            entry = (start[0], _extreme(max, (start[1], last)))
            inside = (start[0], top)
            self._counted.append((alloca, step, pred, blocks[header],
                                  blocks[latch],
                                  {blocks[k] for k in members}))
            for k in members:
                known = entry if k == header else inside
                for inst in blocks[k].instructions:
                    if isinstance(inst, Store) and inst.pointer is alloca:
                        known = entry
                    elif isinstance(inst, Load) and inst.pointer is alloca:
                        self._ranges[inst] = known
            # Values first asked about before these loads had ranges.
            self._intervals.clear()
            self._proven.clear()
            self._hulls.clear()
            self._conditions.clear()

    def _needs_no_wrap(self, inst: Instruction) -> bool:
        """Whether int op or cast ``inst`` is proven inside its type."""
        self._interval(inst)
        return inst in self._proven

    def _fits(self, bounds: tuple, type_) -> Optional[list]:
        """The launch conditions under which ``bounds`` lies inside
        ``type_`` (a pointer: 64 unsigned bits): ``[]`` when it always
        does, None when it cannot be shown.  An int's condition must
        hold for every ordinary launch (see ``_ordinary``), or it
        could send most launches to the checked variant: that rules
        out an end that only some launch values keep in the type,
        such as a loaded value (its type's whole range) plus a launch
        argument, and a char store of an int expression, which C
        truncates by design."""
        pointer = isinstance(type_, PointerType)
        if pointer:
            low, high = 0, _MASK64
        else:
            low, high = type_.min_value, type_.max_value
        conditions = []
        for end, op, limit in ((bounds[0], ">=", low),
                               (bounds[1], "<=", high)):
            if not isinstance(end, int):
                ordinary = _ordinary(end)
                if not pointer and (ordinary[0] < low if op == ">="
                                    else ordinary[1] > high):
                    return None
                conditions.append((end, op, limit))
            elif end < low if op == ">=" else end > high:
                return None
        return conditions

    def _interval(self, value: Value, depth: int = 0) -> Optional[tuple]:
        """``value``'s bounds as its uses read it, or None.

        Constants and bounded induction-slot loads start them; add,
        sub and mul carry them, as do div and rem by a positive
        constant from an operand whose lower end is a non-negative int,
        and sext, zext and trunc of an input that fits.  An int op or
        cast whose result fits its type joins ``_proven``; one whose
        wrap runs is bounded by its type alone, as is any other int
        load, since memory and promoted slots hold wrapped values.

        With ``proofs`` (a kernel's grid variant) ends may be launch
        expressions: the thread id ``a0`` lies in ``[0, grid - 1]``,
        an int or pointer argument ``aJ`` in ``[aJ, aJ]``, a global at
        its address, a load of a pointer table (``_plan_sites``) in
        ``[_tbK, _tbK]``, and a promoted slot's load in the slot's hull
        (``_slot_interval``); a result whose fit rests on a launch
        expression records its launch conditions.  Nothing else is
        bounded: not ``i1``, other pointers or call results.
        """
        type_ = value.type
        pointer = isinstance(type_, PointerType)
        if not pointer and (not isinstance(type_, IntType)
                            or type_.bits == 1):
            return None
        if isinstance(value, Constant):
            return None if pointer else (value.value, value.value)
        known = self._intervals.get(value, False)
        if known is not False:
            return known
        whole = None if pointer else (type_.min_value, type_.max_value)
        bounds = None
        if isinstance(value, Load):
            bounds = self._ranges.get(value)
            table = self._tables.get(value.pointer)
            if table is not None:
                bounds = (_atom(table, -_ORDINARY, _ORDINARY),) * 2
            elif bounds is None and self.proofs and depth < 32 \
                    and value.pointer in self._slots:
                bounds = self._slot_interval(value.pointer, depth + 1)
            bounds = bounds or whole
        elif isinstance(value, Argument):
            if self.proofs:
                bounds = (0, _LAST_TID) if value.index == 0 \
                    else (_atom(f"a{value.index}", -_ORDINARY,
                                _ORDINARY),) * 2
        elif isinstance(value, GlobalVariable):
            if self.proofs:
                address = self.machine.device.module_get_global(value.name)
                bounds = (address, address)
        elif not pointer and (isinstance(value, BinaryOp)
                              or isinstance(value, Cast)
                              and value.kind != "bitcast"):
            raw = self._raw_interval(value, depth) if depth < 32 else None
            fits = None if raw is None else self._fits(raw, type_)
            bounds = whole
            if fits is not None:
                bounds = raw
                self._proven.add(value)
                if fits:
                    self._conditions[value] = fits
        self._intervals[value] = bounds
        return bounds

    def _raw_interval(self, inst: Instruction,
                      depth: int) -> Optional[tuple]:
        """Bounds of ``inst``'s result before any wrap, or None."""
        if isinstance(inst, Cast):
            if inst.kind not in ("sext", "zext", "trunc"):
                return None
            bounds = self._interval(inst.value, depth + 1)
            if bounds and inst.kind == "zext" \
                    and not _nonnegative(bounds[0]):
                return None
            return bounds
        a = self._interval(inst.lhs, depth + 1)
        b = self._interval(inst.rhs, depth + 1)
        if a is None or b is None:
            return None
        op = inst.op
        if op == "add":
            return (_plus(a[0], b[0]), _plus(a[1], b[1]))
        if op == "sub":
            return (_plus(a[0], _times(b[1], -1)),
                    _plus(a[1], _times(b[0], -1)))
        if op == "mul":
            for x, (k, other) in ((a, b), (b, a)):
                if isinstance(k, int) and k == other:
                    low, high = _times(x[0], k), _times(x[1], k)
                    return (low, high) if k >= 0 else (high, low)
            corners = [_times(x, y) for x in a for y in b]
            return (_extreme(min, corners), _extreme(max, corners))
        if op in ("div", "rem") and _nonnegative(a[0]) \
                and isinstance(inst.rhs, Constant) and b[0] > 0:
            k = b[0]
            if op == "div":
                return (a[0] // k, _quotient(a[1], k))
            return (0, min(a[1], k - 1) if isinstance(a[1], int)
                    else k - 1)
        return None

    def _slot_interval(self, alloca: Alloca,
                       depth: int = 0) -> Optional[tuple]:
        """Bounds of what promoted slot ``alloca`` holds in a grid
        variant: the hull of every stored value's bounds, each of
        which must fit the slot's type (its store's wrap then changes
        nothing), and of 0, for the alloca's zero fill, unless
        ``_written_first``.  A stored value that reads the slot itself
        has no bounds, and then neither has the slot."""
        known = self._hulls.get(alloca, False)
        if known is not False:
            return known
        self._hulls[alloca] = None
        type_ = alloca.allocated_type
        ends = [] if self._written_first(alloca) else [(0, 0)]
        conditions: list = []
        for store in self._slot_stores.get(alloca, ()):
            bounds = self._interval(store.value, depth)
            fits = None if bounds is None else self._fits(bounds, type_)
            if fits is None:
                return None
            conditions += fits
            ends.append(bounds)
        hull = (_extreme(min, [low for low, _ in ends]),
                _extreme(max, [high for _, high in ends]))
        self._hulls[alloca] = hull
        if conditions:
            self._conditions[alloca] = conditions
        return hull

    def _written_first(self, alloca: Alloca) -> bool:
        """Whether every load of ``alloca`` reads a stored value: the
        alloca and a store sit in the entry run, the store ahead of
        every load of the slot there.  The entry run is the entry
        block, which nothing may jump back to, and each block that
        only an unconditional branch from the run's last block
        reaches (MiniC stores a function's arguments in the block
        after its allocas): it runs once per activation, straight
        through, before any other block."""
        block = self.fn.entry_block
        if self._preds.get(block, 0) or alloca.parent is None:
            return False
        run = set()
        while block not in run:
            run.add(block)
            for inst in block.instructions:
                if isinstance(inst, (Load, Store)) \
                        and inst.pointer is alloca:
                    return isinstance(inst, Store) \
                        and alloca.parent in run
            term = block.instructions[-1] if block.instructions else None
            if not isinstance(term, Branch) \
                    or self._preds.get(term.target, 0) != 1:
                return False
            block = term.target
        return False

    # -- launch-time bounds proofs ------------------------------------------

    def _plan_sites(self) -> None:
        """Pick the accesses a launch proves in bounds (``_proofs``),
        reading each pointer table once where that is sound.

        A load, or a store of anything but a pointer (which keeps its
        device-stack guard), qualifies when its pointer is a base -- a
        global, or a launch expression such as a pointer argument --
        plus GEP terms (``_address``), every scale and the constant
        offset a multiple of the access size.  Its address range then
        joins its base's, which the launch checks once (see
        ``_proof_lines``); the access becomes one typed-view index in
        element units off the base's element offset ``_ljN``.

        A *table load* reads a pointer from a global slot.  When the
        variant does not reach out (``_plan_calls``) and stores no
        pointer but to a promoted slot, every slot it loads a pointer
        from is a *pointer table*: its value, read once in the launch
        prologue into ``_tbK``, is a launch atom, so accesses off it
        prove like accesses off an argument.  That holds only while no
        store of the launch reaches the slot: every memory store must
        then be proven, and the launch tests each one's range against
        each slot's 8 bytes (a constant range at codegen).  A variant
        where that fails proves its sites again without tables.
        """
        insts = list(self.fn.instructions())
        if not self.reaches_out and not any(
                isinstance(inst, Store) and inst.value.type.is_pointer
                and inst.pointer not in self._slots for inst in insts):
            for inst in insts:
                if isinstance(inst, Load) and inst.type.is_pointer \
                        and isinstance(inst.pointer, GlobalVariable):
                    self._tables.setdefault(inst.pointer,
                                            f"_tb{len(self._tables)}")
        fixed = list(self._fixed_conditions)
        self._prove_sites(insts)
        if self._tables and not self._tables_hold(insts):
            self._tables = {}
            self._fixed_conditions = fixed
            for memo in (self._intervals, self._proven, self._hulls,
                         self._conditions, self._proofs, self._bases,
                         self._offsets):
                memo.clear()
            self._store_ranges = []
            self._prove_sites(insts)
        if self._bases:
            self.builders["_cover"] = lambda m, mem: _make_cover(mem)

    def _tables_hold(self, insts: List[Instruction]) -> bool:
        """Whether every memory store and table load is proven, and
        each constant store range misses every pointer table's slot."""
        if any(isinstance(inst, Store) and inst.pointer not in self._slots
               or isinstance(inst, Load) and inst.pointer in self._tables
               for inst in insts if inst not in self._proofs):
            return False
        slots = self._table_slots()
        return not any(isinstance(low, int) and isinstance(high, int)
                       and low < slot + 8 and slot < high
                       for low, high in self._store_ranges for slot in slots)

    def _table_slots(self) -> List[int]:
        return [self.machine.device.module_get_global(slot.name)
                for slot in self._tables]

    def _prove_sites(self, insts: List[Instruction]) -> None:
        """``_plan_sites``'s proofs, with the tables it picked."""
        for inst in insts:
            if isinstance(inst, Load):
                type_ = inst.type
            elif isinstance(inst, Store) and not inst.value.type.is_pointer:
                type_ = inst.value.type
            else:
                continue
            if inst.pointer in self._slots:
                continue
            address = self._address(inst.pointer)
            if address is None:
                continue
            base, terms, offset, low, high, conditions = address
            view, _, shift, _ = VIEW_ACCESS[scalar_format(type_)[-1]]
            size = 1 << shift
            if offset % size or any(scale % size for _, scale in terms):
                continue
            # [segment, lows, highs, alignment mask]
            record = self._bases.setdefault(
                base, [f"_ls{len(self._bases)}", [], [], 0])
            record[1].append(low)
            record[2].append(_plus(high, size))
            record[3] = max(record[3], size - 1)
            lj = self._offsets.setdefault((base, shift),
                                          f"_lj{len(self._offsets)}")
            self._proofs[inst] = (record[0], view,
                                  [(index, scale // size)
                                   for index, scale in terms],
                                  offset // size, lj)
            self._fixed_conditions += conditions
            if isinstance(inst, Store):
                self._store_ranges.append((_plus(base, low),
                                           _plus(base, _plus(high, size))))

    def _address(self, pointer: Value) -> Optional[tuple]:
        """``pointer`` as ``(base, terms, offset, low, high,
        conditions)``: a base launch expression plus the ``(index,
        scale)`` GEP terms and constant ``offset`` that ``_gep``
        would add, ``[low, high]`` the range of that sum, and the
        launch conditions of the bitcasts looked through (each masks
        its pointer to 64 bits, a no-op only where it fits).  None
        unless the base is bounded to one value and every index is
        bounded, and none is read from memory (``_loaded``) at 32 bits
        or wider: only its type bounds such a value, and no segment
        holds the bytes of that range."""
        chain: List[Instruction] = []
        while isinstance(pointer, GetElementPtr) or isinstance(
                pointer, Cast) and pointer.kind == "bitcast":
            chain.append(pointer)
            pointer = pointer.pointer if isinstance(pointer, GetElementPtr) \
                else pointer.value
        bounds = self._interval(pointer)
        if bounds is None or bounds[0] != bounds[1]:
            return None
        base = bounds[0]
        terms: List[Tuple[Value, int]] = []
        offset = low = high = 0
        conditions: list = []
        for link in reversed(chain):
            if isinstance(link, Cast):
                fits = self._fits((_plus(base, low), _plus(base, high)),
                                  link.type)
                if fits is None:
                    return None
                conditions += fits
                continue
            steps, constant = self._gep_steps(link)
            offset += constant
            low, high = _plus(low, constant), _plus(high, constant)
            for index, scale in steps:
                bounds = self._interval(index)
                if bounds is None or index.type.bits >= 32 \
                        and self._loaded(index):
                    return None
                first, last = bounds if scale > 0 else bounds[::-1]
                low = _plus(low, _times(first, scale))
                high = _plus(high, _times(last, scale))
                terms.append((index, scale))
        return base, terms, offset, low, high, conditions

    def _loaded(self, value: Value, depth: int = 0) -> bool:
        """Whether ``value`` is read from memory: a load of no promoted
        slot, or of a slot that a store fills with such a value."""
        if not isinstance(value, Load) or depth > 8:
            return False
        if value.pointer not in self._slots:
            return True
        return any(self._loaded(store.value, depth + 1)
                   for store in self._slot_stores.get(value.pointer, ()))

    def _proof_lines(self) -> List[str]:
        """The launch prologue of a grid variant with proven sites,
        launch conditions, a launch-tested frame or inlined callees:
        when ``grid > 0``, test the conditions, that the frame ends
        within the device stack and that a callee's activation would
        not pass the call depth limit, then bind each base's segment
        ``_lsK``, which must hold the union of the base's site ranges
        and sit aligned to its largest access, and the base's element
        offsets ``_ljN``.  Each pointer table's slot (a constant
        address) is bound first and read into ``_tbK``, so the tests
        -- among them that no proven store reaches a slot -- and the
        other bases may use it.  Any failure returns None before
        anything is charged or written, and the launch runs the
        checked variant instead."""
        tightest: Dict[Tuple[str, str], int] = {}
        for end, op, limit in chain(self._fixed_conditions,
                                    *self._conditions.values()):
            lhs, op, bound = _solved(end, op, limit)
            pick = min if op == "<=" else max
            tightest[lhs, op] = pick(tightest.get((lhs, op), bound), bound)
        fails = [f"{lhs} > {bound}" if op == "<=" else f"{lhs} < {bound}"
                 for (lhs, op), bound in sorted(tightest.items())
                 if not (lhs == "grid" and op == ">=" and bound <= 1)]
        if self._frame is not None:
            limit = stack_segment(self.memory).limit
            fails.append(f"(M._gpu_sp + 7 & -8) + {self._frame} > "
                         f"{self._literal(limit)}")
        if self._callees:
            fails.append(f"M._depth >= {MAX_CALL_DEPTH}")
        slots = self._table_slots()
        fails += [f"{_render(low)} < {slot + 8} and {_render(high)} > {slot}"
                  for low, high in dict.fromkeys(self._store_ranges)
                  if not (isinstance(low, int) and isinstance(high, int))
                  for slot in slots]
        if not fails and not self._bases:
            return []
        lines = ["    if grid:"]

        def bind(bases: list) -> None:
            for base in bases:
                segment, lows, highs, mask = self._bases[base]
                lines.append(
                    f"        {segment} = _cover("
                    f"{_render(_plus(base, _extreme(min, lows)))}, "
                    f"{_render(_plus(base, _extreme(max, highs)))}, "
                    f"{_render(base)}, {mask})")
            if bases:
                missing = " or ".join(f"{self._bases[base][0]} is None"
                                      for base in bases)
                lines.append(f"        if {missing}:")
                lines.append("            return None")
            for (base, shift), lj in self._offsets.items():
                if base in bases:
                    lines.append(f"        {lj} = ({_render(base)} - "
                                 f"{self._bases[base][0]}.base)"
                                 + (f" >> {shift}" if shift else ""))

        bind(slots)
        for name, slot in zip(self._tables.values(), slots):
            lines.append(f"        {name} = {self._bases[slot][0]}"
                         f".vQ[{self._offsets[slot, 3]}]")
        if fails:
            lines.append(f"        if {' or '.join(fails)}:")
            lines.append("            return None")
        bind([base for base in self._bases if base not in slots])
        return lines

    def _emit_alloca(self, inst: Alloca) -> None:
        """Bump the stack pointer past the alloca and zero its bytes,
        or raise the stack-overflow fault of :func:`stack_fill` where
        they would pass the stack segment's limit.  Nothing unhooked
        reads a promoted slot's bytes, so its alloca keeps the bump
        and one compare against the limit -- none once the launch
        tested the whole frame (``_frame``) -- and then sets the slot
        to zero, unless ``_written_first``."""
        dest = self.names[inst]
        size = inst.allocated_type.size
        align = max(inst.allocated_type.align, 8)
        sp = self.sp
        if align & (align - 1) == 0:
            aligned = f"({sp} + {align - 1}) & {-align}"
        else:
            aligned = f"({sp} + {align - 1}) // {align} * {align}"
        stack = stack_segment(self.memory)
        slot = self._slots.get(inst)
        if slot is not None:
            if self._frame is None:
                if self.guarded:
                    # The write-back guard reads the slot's address.
                    self._emit(f"{dest} = {aligned}")
                    self._emit(f"{sp} = {dest} + {size}")
                else:
                    self._emit(f"{sp} = ({aligned}) + {size}")
                self._emit(f"if {sp} > {self._literal(stack.limit)}:")
                self._emit(f"    {self._stack_fill()}({sp} - {size}, "
                           f"{size})")
            if not self._written_first(inst):
                zero = 0.0 if isinstance(inst.allocated_type, FloatType) \
                    else 0
                self._emit(f"{slot} = {zero!r}")
            return
        fill = self._stack_fill()
        if not isinstance(inst.count, Constant):
            self._emit(f"_n = {self._ref(inst.count)}")
            self._emit("if _n < 0:")
            self._emit("    raise _IE(\"alloca with negative count\")")
            self._emit(f"_sz = _n * {size}")
            self._emit(f"{dest} = {aligned}")
            self._emit(f"{sp} = {dest} + _sz")
            self._emit(f"{fill}({dest}, _sz)")
            return
        size *= int(inst.count.value)
        if size < 0:
            raise InterpError("alloca with negative count")
        # Zero the bytes inline while they are already allocated -- the
        # stack pointer never drops below the segment's base, and
        # ``hi1 + 1`` is the allocated length (the -1 of disarmed views
        # sends every fill down the slow path) -- and through the limit
        # test and the segment's growth otherwise.
        segment = self._helper("_stk", ("stk",),
                               lambda m, mem: stack_segment(mem))
        zeros = self._bake("_Z", bytes(size))
        self._emit(f"{dest} = {aligned}")
        self._emit(f"{sp} = {dest} + {size}")
        self._emit(f"_o = {dest} - {self._literal(stack.base)}")
        self._emit(f"if _o + {size} <= {segment}.hi1 + 1:")
        self._emit(f"    {segment}.data[_o:_o + {size}] = {zeros}")
        self._emit("else:")
        self._emit(f"    {fill}({dest}, {size})")

    def _stack_fill(self) -> str:
        """The baked :func:`stack_fill` of this mode's stack."""
        return self._helper(
            "_sf", ("sf",),
            lambda m, mem: partial(stack_fill, mem))

    # -- calls, launches, terminators ---------------------------------------

    def _emit_call(self, inst: Call) -> None:
        literal = self._constants.get(inst)
        if literal is not None:
            self.names[inst] = literal
            return
        inline = self._callees.get(inst)
        if inline is not None:
            # The callee's body in place (see ``_plan_calls``): it takes
            # a frame id and assigns the call's register as it breaks.
            for formal, actual in zip(inline.fn.args, inst.args):
                self._emit(f"{inline.names[formal]} = {self._ref(actual)}")
            self._emit("_fr += 1")
            pad = "    " * self.indent
            self.lines.extend(pad + line for line in inline.lines)
            return
        arg_list = ", ".join(self._ref(a) for a in inst.args)
        name = inst.callee.name
        gpu = self.mode == "gpu"
        if _pure_call(inst):
            # Pure-math external: direct positional dispatch; the
            # modelled cost rode in with the fused segment charge.
            callee = self._helper(
                "_p", ("p", name),
                lambda m, mem, n=name: _make_pure_external(m, n))
        elif inst.callee.is_declaration:
            # Externals dispatch through a baked per-name thunk: no
            # frame, no call depth, mode resolved at codegen time.
            callee = self._helper(
                "_x", ("x", name),
                lambda m, mem, n=name, g=gpu: _make_external_thunk(m, n, g))
        else:
            if len(inst.args) != len(inst.callee.args):
                # Static arity mismatch: defer to runtime like the
                # tree-walker (the block's charges still land first).
                message = (f"@{name}: expected "
                           f"{len(inst.callee.args)} args, got "
                           f"{len(inst.args)}")
                self._emit(f"raise _IE({message!r})")
                return
            # Resolved by name: a cached recipe holding the callee
            # would keep its module, and so the cache key, alive.
            callee = self._helper(
                "_c", ("c", name),
                lambda m, mem, n=name:
                _make_call_thunk(m, m.module.get_function(n)))
        call = f"{callee}({arg_list})"
        if inst.produces_value:
            self._emit(f"{self.names[inst]} = {call}")
        else:
            self._emit(call)

    def _emit_launch(self, inst: LaunchKernel) -> None:
        kernel = self._helper(
            "_K", ("k", inst.kernel.name),
            lambda m, mem, n=inst.kernel.name: m.module.get_function(n))
        arg_list = ", ".join(self._ref(a) for a in inst.args)
        self._emit(f"_launch({kernel}, int({self._ref(inst.grid)}), "
                   f"[{arg_list}])")

    def _emit_jump(self, target, index: Dict[object, int],
                   carry: tuple) -> None:
        """Go on at ``target``: its body in place (fused), or the
        carried charge and a dispatch jump."""
        if target in self._inlined:
            self._emit_block_body(target, index, carry)
        else:
            self._emit_charge(*carry)
            self._emit(f"{self.dispatch} = {index[target]}")
            self._emit("continue")

    def _emit_terminator(self, inst: Instruction,
                         index: Dict[object, int]) -> None:
        carry = self._carry
        if isinstance(inst, Branch):
            self._emit_jump(inst.target, index, carry)
        elif isinstance(inst, CondBranch):
            # Fused arms: an inlined successor's body is emitted in
            # place of the dispatch jump.  A diamond with both arms
            # inlined nests the taken arm under the guard; one inlined
            # arm continues flat after an early-out jump.
            true_b, false_b = inst.if_true, inst.if_false
            condition = self._ref(inst.condition)
            true_in = true_b in self._inlined and true_b is not false_b
            false_in = false_b in self._inlined
            if false_in or true_in:
                guarded, flat = (true_b, false_b) if false_in \
                    else (false_b, true_b)
                self._emit(f"if {condition}:" if false_in
                           else f"if not {condition}:")
                self.indent += 1
                self._emit_jump(guarded, index, carry)
                self.indent -= 1
                self._emit_block_body(flat, index, carry)
            else:
                self._emit_charge(*carry)
                self._emit(f"{self.dispatch} = {index[true_b]} "
                           f"if {condition} "
                           f"else {index[false_b]}")
                self._emit("continue")
        elif isinstance(inst, Return):
            self._emit_charge(*carry)
            if self.grid:
                # Kernels return void: the thread ends, the grid goes on.
                self._emit("break")
            elif self.inline:
                # The caller goes on after the callee's loop.
                if inst.value is not None and self.result is not None:
                    self._emit(f"{self.result} = {self._ref(inst.value)}")
                self._emit("break")
            elif inst.value is None:
                self._emit("return None")
            else:
                self._emit(f"return {self._ref(inst.value)}")
        elif isinstance(inst, Unreachable):
            self._emit(f"raise _IE(\"reached unreachable in "
                       f"@{self.fn.name}\")")
        else:
            raise InterpError(f"cannot compile terminator {inst.opcode}")

    def _emit_inst(self, inst: Instruction,
                   index: Dict[object, int]) -> None:
        if self._pure(inst):
            text = self._expression(inst)
            if isinstance(inst, Load) and text.isidentifier():
                # A streamed or hoisted load: a local no store of the
                # trip can change.
                self.names[inst] = text
            elif inst in self._folded:
                self.names[inst] = f"({text})"
            else:
                self._emit(f"{self.names[inst]} = {text}")
        elif isinstance(inst, (Load, Store)):
            self._emit_access(inst)
        elif isinstance(inst, BinaryOp):
            self._emit_binop(inst)
        elif isinstance(inst, Compare):
            test = f"{self._ref(inst.lhs)} {_COMPARE_OPS[inst.pred]} " \
                f"{self._ref(inst.rhs)}"
            if inst in self._folded:
                self.names[inst] = test
            else:
                self._emit(f"{self.names[inst]} = +({test})")
        elif isinstance(inst, Cast):
            self._emit_cast(inst)
        elif isinstance(inst, Select):
            self._emit(f"{self.names[inst]} = "
                       f"{self._ref(inst.if_true)} "
                       f"if {self._ref(inst.condition)} "
                       f"else {self._ref(inst.if_false)}")
        elif isinstance(inst, Alloca):
            self._emit_alloca(inst)
        elif isinstance(inst, Call):
            self._emit_call(inst)
        elif isinstance(inst, LaunchKernel):
            self._emit_launch(inst)
        elif inst.is_terminator:
            self._emit_terminator(inst, index)
        else:
            raise InterpError(f"cannot compile {inst.opcode}")

    # -- block assembly -----------------------------------------------------

    def _can_fault(self, inst: Instruction) -> bool:
        """Whether ``inst`` can raise, so that its segment's charge must
        land before it runs: a memory access but a promoted slot's or a
        proven site's (every access, in a hooked or guarded variant;
        a kernel's pointer store is never proven), an int div or rem by
        anything but a nonzero constant, a float rem, an alloca but in
        a launch-tested frame, and call (but a pure-math call on
        constants that returned at codegen, or to an external that
        returns on any argument, ``externals.TOTAL``), launch and
        unreachable."""
        if isinstance(inst, (Load, Store)):
            return self.hooked or self.guarded \
                or inst.pointer not in self._slots \
                and inst not in self._proofs
        if isinstance(inst, BinaryOp):
            if isinstance(inst.type, FloatType):
                return inst.op == "rem"
            return inst.op in ("div", "rem") and not (
                isinstance(inst.rhs, Constant) and inst.rhs.value != 0)
        if isinstance(inst, Alloca):
            return self._frame is None
        if isinstance(inst, Call):
            return inst not in self._constants and not (
                inst.callee.is_declaration and inst.callee.name in TOTAL)
        return isinstance(inst, (LaunchKernel, Unreachable))

    @staticmethod
    def _cost(inst: Instruction) -> int:
        """``inst``'s static modelled ops, with a pure external's call
        cost and a div or rem's extra."""
        cost = _OP_COSTS.get(inst.opcode, 1)
        if _pure_call(inst):
            cost += call_cost(inst.callee.name)
        elif isinstance(inst, BinaryOp) and inst.op in ("div", "rem"):
            cost += _DIV_EXTRA
        return cost

    def _emit_charge(self, ops: int, count: int, trips=None) -> None:
        """Charge ``ops`` and ``count`` instructions, plus a ``for``
        loop's per-trip (ops, instructions) ``trips`` times its trip
        count, the local ``trips[2]``."""
        if trips:
            self._emit(f"{self.charge} += {trips[0]} * {trips[2]} + {ops}")
            self._emit(f"{self.counter} += {trips[1]} * {trips[2]} "
                       f"+ {count}")
        elif count:
            self._emit(f"{self.charge} += {ops}")
            self._emit(f"{self.counter} += {count}")

    def _emit_block_body(self, block, index: Dict[object, int],
                         carry: tuple = (0, 0, None)) -> None:
        """One block: fused-charge segments split at call/launch.

        Calls and launches are the only instructions that can move
        pending op counts onto the clock, so a segment closes at each
        one and the integers visible at every flush match the
        tree-walker exactly (pure-math externals never flush: their
        call cost joins the running segment).  A segment charges where
        it starts, unless it is the block's last and nothing in it can
        fault (:meth:`_can_fault`): then its charge is carried, into
        the first segment of each fused successor or to just before
        the jump, return or raise that leaves the path.  ``carry`` is
        what the fused predecessor handed on.  A fault therefore
        counts what it would without the carry.  The header of a loop
        in ``_loops`` emits the whole loop (:meth:`_emit_loop`).
        """
        if block in self._loops:
            self._emit_charge(*carry)
            self._emit_loop(block, index)
            return
        segments: List[List[Instruction]] = [[]]
        for inst in block.instructions:
            segments[-1].append(inst)
            if isinstance(inst, (Call, LaunchKernel)) \
                    and not _pure_call(inst):
                segments.append([])
        ops, count, trips = carry
        for k, segment in enumerate(segments):
            ops += sum(self._cost(inst) for inst in segment)
            count += len(segment)
            if k + 1 < len(segments) \
                    or any(self._can_fault(inst) for inst in segment):
                self._emit_charge(ops, count, trips)
                ops = count = 0
                trips = None
            self._carry = (ops, count, trips)
            for inst in segment:
                if inst not in self._dead:
                    self._emit_inst(inst, index)
        if not block.is_terminated:
            self._emit_charge(*self._carry)
            self._emit(f"raise _IE(\"block {block.name} in "
                       f"@{self.fn.name} fell through without a "
                       "terminator\")")

    def _emit_loop(self, header, index: Dict[object, int]) -> None:
        """A loop of ``_loops``: ``for sK in range(start, end, step):``
        over its body chain without the latch's store, an inner loop
        of the chain emitted in place by this method.

        The header's end computation runs once, ahead of the loop, as
        it cannot vary or fault; so do the bindings that
        ``_proven_view`` asks for: the views, ahead of the outermost
        loop (a body with no checked site, call or alloca cannot grow
        a segment or rebuild a view), the index sums ahead of the loop
        whose slots they read, and the hoisted loads, guarded by the
        trip test, as a loop that runs no trip need not keep within
        the proof.  The streams join the header's ``zip``.  After the
        loop the slot takes its exit value; after the outermost, the
        views are dropped.  Each loop depth has its own ``range`` and
        trip count locals (``_r``, ``_t``, then ``_r1``, ``_t1``, ...):
        an inner loop charges its ``_tN`` trips and its final header
        test in the outer body, once per outer trip, and the outermost
        carries its own on, with the final header test, to the exit.
        """
        alloca, step, pred, body, members = self._loops[header]
        slot = self._slots[alloca]
        term = header.instructions[-1]
        test = term.condition
        for inst in header.instructions:
            if inst not in (test.lhs, test, term) and inst not in self._dead:
                self._emit_inst(inst, index)
        depth = len(self._open)
        suffix = str(depth) if depth else ""
        r, t = f"_r{suffix}", f"_t{suffix}"
        end = self._ref(test.rhs) + (" + 1" if pred == "le" else "")
        stored = {inst.pointer for block in members
                  for inst in block.instructions if isinstance(inst, Store)}
        loop = _Open(alloca, step, r,
                     int(test.rhs.value) + (pred == "le")
                     if isinstance(test.rhs, Constant) else None,
                     members, stored, any(pointer not in self._slots
                                          for pointer in stored))
        self._open.append(loop)
        start = len(self.lines)
        self.indent += 1
        for block in body:
            if block in self._loops:
                self._emit_loop(block, index)
                continue
            for inst in block.instructions[:-1]:
                if inst not in self._dead:
                    self._emit_inst(inst, index)
        if len(self.lines) == start:
            self._emit("pass")
        self.indent -= 1
        self._open.pop()
        pad = "    " * self.indent
        head = [f"{pad}{name} = {text}"
                for text, name in loop.sums.items()]
        head.append(f"{pad}{r} = range({slot}, {end}"
                    + (f", {step})" if step != 1 else ")"))
        head += [f"{pad}{name} = {text} if {r} else 0"
                 for text, name in loop.hoists.items()]
        if loop.streams:
            head.append(f"{pad}for {slot}, "
                        f"{', '.join(loop.streams.values())} in "
                        f"zip({r}, {', '.join(loop.streams)}):")
        else:
            head.append(f"{pad}for {slot} in {r}:")
        if not depth:
            head[:0] = [f"{pad}{name} = {view}"
                        for view, name in loop.views.items()]
        self.lines[start:start] = head
        if not depth and loop.views:
            # A live view would stop a later checked site from growing
            # the segment (``BufferError``).
            self._emit(f"del {', '.join(loop.views.values())}")
        self._emit(f"{t} = len({r})")
        self._emit(f"{slot} = {r}.start + {t}"
                   + (f" * {step}" if step != 1 else ""))
        # Inner loops charge their own trips.
        per_trip = [inst for block in [header] + body
                    if block not in self._loops or block is header
                    for inst in block.instructions]
        carry = (sum(self._cost(inst) for inst in header.instructions),
                 len(header.instructions),
                 (sum(self._cost(inst) for inst in per_trip),
                  len(per_trip), t))
        if depth:
            self._emit_charge(*carry)
        else:
            self._emit_jump(term.if_false, index, carry)

    def _edge_counts(self) -> Dict[object, int]:
        """Incoming edge count per block (both arms of a two-way
        branch to one target count twice)."""
        preds: Dict[object, int] = {}
        for block in self.fn.blocks:
            for inst in block.instructions:
                if isinstance(inst, Branch):
                    preds[inst.target] = preds.get(inst.target, 0) + 1
                elif isinstance(inst, CondBranch):
                    preds[inst.if_true] = \
                        preds.get(inst.if_true, 0) + 1
                    preds[inst.if_false] = \
                        preds.get(inst.if_false, 0) + 1
        return preds

    def _plan_fusion(self, preds: Dict[object, int],
                     back: frozenset = frozenset()) -> set:
        """Pick the blocks to inline into their unique predecessor.

        A block is fusable when exactly one edge reaches it (so the
        block emitting that edge can own its body), it is not the
        entry (dispatch must be able to start there), and it is not
        its own predecessor.  A loop header keeps a dispatch index --
        the back edge is a second predecessor -- so the loop turns
        around through the ``while`` dispatch, unless ``range`` runs
        the back edge: the latches in ``back`` end ``for`` loops, whose
        edges ``preds`` leaves out and the walk below never follows.  A
        diamond inlines both arms, the taken arm indented under the
        guard, unless that arm would nest more than ``_NEST_DEPTH``
        diamonds deep below its dispatch arm: then it keeps a dispatch
        index and starts a chain of its own, so a long conditional
        ladder never nears the parser's indentation limit.
        """
        entry = self.fn.entry_block
        inlined: set = set()

        def fusable(target, source) -> bool:
            return (preds.get(target, 0) == 1 and target is not entry
                    and target is not source)

        for block in self.fn.blocks:
            instructions = block.instructions
            term = instructions[-1] if instructions else None
            if isinstance(term, Branch):
                if block not in back and fusable(term.target, block):
                    inlined.add(term.target)
            elif isinstance(term, CondBranch):
                # Both arms to one block make two edges: not fusable.
                inlined.update(target for target in (term.if_true,
                                                     term.if_false)
                               if fusable(target, block))
        # Every inlined block has one incoming edge, so the chains are
        # trees rooted at dispatched blocks; walk them with the depth
        # of diamonds nested so far.
        work = [(block, 0) for block in self.fn.blocks
                if block not in inlined]
        while work:
            block, depth = work.pop()
            term = block.instructions[-1] if block.instructions else None
            if isinstance(term, Branch):
                if term.target in inlined and block not in back:
                    work.append((term.target, depth))
            elif isinstance(term, CondBranch):
                true_b, false_b = term.if_true, term.if_false
                nested = false_b in inlined
                if nested:
                    work.append((false_b, depth))
                if true_b not in inlined:
                    continue
                if nested and depth == _NEST_DEPTH:
                    inlined.discard(true_b)
                    work.append((true_b, 0))
                else:
                    work.append((true_b, depth + nested))
        return inlined

    def _dispatch_order(self) -> List:
        """Blocks ordered innermost-loop-first for the elif chain, by
        the loop depths the tiering analysis found (all 0 when the CFG
        defeated it: dispatch order is a heuristic)."""
        depths = self.tier.depths
        order = sorted(range(len(depths)), key=lambda i: -depths[i])
        blocks = self.fn.blocks
        return [blocks[i] for i in order]

    def _operands(self, inst: Instruction):
        """The values ``inst``'s emitted code reads: a proven site reads
        its GEP indices (and stored value), not its pointer."""
        proof = self._proofs.get(inst)
        if proof is None:
            return inst.operands
        values = [index for index, _ in proof[2]]
        if isinstance(inst, Store):
            values.append(inst.value)
        return values

    def _plan_loops(self, preds: Dict[object, int]) -> None:
        """Pick the loops a proven grid variant emits as ``for``
        (``_loops``, see :meth:`_emit_loop`), and fuse each one's
        header into the block ahead of it.

        A loop qualifies (:meth:`_for_body`) when ``_prove_ranges``
        bounds its slot, so ``i + step`` never wraps, and its body is a
        chain of fused blocks, from the header's taken arm to the
        latch, that may pass through inner ``for`` loops.  Loops are
        visited innermost first, and fusion is planned again after
        each round that picks one, as ``range`` runs its back edge and
        leaves its header one entry: that lets an outer loop's chain
        reach the inner header.  A picked loop that the new fusion
        breaks is dropped for good, so the rounds end."""
        uses: Dict[Value, int] = {}
        for inst in self.fn.instructions():
            for operand in inst.operands:
                uses[operand] = uses.get(operand, 0) + 1
        dropped: set = set()
        changed = True
        while changed:
            changed = False
            for alloca, step, pred, header, latch, blocks \
                    in reversed(self._counted):
                if header in dropped:
                    continue
                body = self._for_body(alloca, header, latch, blocks, uses)
                if header in self._loops:
                    if body is None:
                        del self._loops[header]
                        dropped.add(header)
                        changed = True
                elif body is not None:
                    self._loops[header] = (alloca, step, pred, body,
                                           blocks - {header})
                    changed = True
            if changed:
                entries = dict(preds)
                for header in self._loops:
                    entries[header] -= 1
                self._inlined = self._plan_fusion(entries, frozenset(
                    loop[3][-1] for loop in self._loops.values()))

    def _for_body(self, alloca: Alloca, header, latch, blocks,
                  uses: Dict[Value, int]) -> Optional[list]:
        """The body chain of the counted loop at ``header``, if it can
        run as ``for``: every block of the chain is fused, an inner
        ``for`` loop's header takes the chain on at its exit, the
        chain and those inner loops make up the loop, no instruction
        in it can fault, the latch stores the slot last, and the
        header's slot load and compare feed only its branch.  Such a
        loop leaves only through the header's test, which ``range``
        runs."""
        term = header.instructions[-1]
        test = term.condition
        body = [term.if_true]
        members = {header, term.if_true}
        while body[-1] is not latch and len(body) < len(blocks):
            block = body[-1]
            inner = self._loops.get(block)
            if inner is not None:
                members |= inner[4]
                following = block.instructions[-1].if_false
            else:
                jump = block.instructions[-1:]
                if not (jump and isinstance(jump[0], Branch)):
                    return None
                following = jump[0].target
            body.append(following)
            members.add(following)
        store = latch.instructions[-2] \
            if len(latch.instructions) > 1 else None
        if body[-1] is not latch or members != blocks \
                or not all(block in self._inlined for block in body) \
                or not isinstance(store, Store) or store.pointer is not alloca \
                or not uses[test.lhs] == uses[test] == 1 \
                or any(self._can_fault(inst) for block in blocks
                       for inst in block.instructions):
            return None
        return body

    def _plan_frame(self) -> None:
        """With ``proofs``, in a grid variant that keeps its stack
        pointer local: when every alloca is a promoted slot of the
        entry block, which nothing jumps back to, each thread's frame
        takes the same bytes past the launch's stack pointer, and an
        inlined callee's slots the same bytes past those, so the launch
        tests the deepest end against the stack segment's limit once
        (``_frame``, see ``_proof_lines``) and the allocas keep only
        their slots' zeros."""
        if not self.proofs or self.reaches_out:
            return
        frame = self._slot_frame()
        if frame is None:
            return
        deepest = max([frame] + [_frame_end(frame, callee._allocas())
                                 for callee in self._callees.values()])
        if deepest:
            self._frame = deepest

    def _allocas(self) -> List[Alloca]:
        return [inst for inst in self.fn.instructions()
                if isinstance(inst, Alloca)]

    def _slot_frame(self) -> Optional[int]:
        """The bytes a frame takes past an 8-aligned stack pointer when
        every alloca is a promoted slot of an entry block that nothing
        jumps back to (every slot's alignment is 8), else None."""
        allocas = self._allocas()
        entry = self.fn.entry_block
        if self._preds.get(entry, 0) or any(
                alloca not in self._slots or alloca.parent is not entry
                for alloca in allocas):
            return None
        return _frame_end(0, allocas)

    def _plan_calls(self) -> None:
        """With ``proofs``: pick the calls whose callee's body the
        variant emits in place of a thunk call (``_callees``, see
        "Kernels run whole grids" in the module docstring), which then
        no longer reaches out.  Every defined callee must be a *leaf*
        (:meth:`_leaf`) taking as many arguments as its call passes,
        the variant must launch nothing, and its allocas must be
        promoted slots of an entry block nothing jumps back to, as
        ``_plan_frame`` tests the frame with the deepest callee's slots
        at launch.  Each call site's callee is planned and emitted once,
        by a compiler of its own that shares this one's baked names and
        charges its counters."""
        insts = list(self.fn.instructions())
        calls = [inst for inst in insts if isinstance(inst, Call)
                 and not inst.callee.is_declaration]
        if not calls or self._slot_frame() is None \
                or any(isinstance(inst, LaunchKernel) for inst in insts):
            return
        callees = {}
        for k, call in enumerate(calls):
            if len(call.args) != len(call.callee.args):
                return
            callee = _SourceCompiler(self.machine, call.callee, self.mode,
                                     False, False)
            callee.prefix, callee.dispatch = f"f{k}", f"f{k}b"
            callee.inline, callee.result = True, self.names.get(call)
            callee._exact_args = {
                formal for formal, actual in zip(call.callee.args, call.args)
                if self._stores_as_is(actual, formal.type)}
            callee.charge, callee.counter = "_go", self.counter
            callee.builders = self.builders
            callee._helpers, callee._objects = self._helpers, self._objects
            try:
                callee._plan()
                if not callee._leaf():
                    return
                callee.indent = 0
                callee._emit_body()
            except InterpError:
                return
            callees[call] = callee
        self._callees = callees
        self.reaches_out = False
        self.charge, self.sp = "_go", "_sp"

    def _leaf(self) -> bool:
        """Whether this function's body can run in place of a call
        from a kernel's grid variant: its allocas are promoted slots of
        an entry block nothing jumps back to (``_frame``), it accesses
        no memory but those slots, launches nothing and calls only
        ``GPU_SAFE`` externals."""
        return self._frame is not None and not any(
            isinstance(inst, (Load, Store)) and inst.pointer not in self._slots
            or isinstance(inst, (Call, LaunchKernel)) and not _pure_call(inst)
            for inst in self.fn.instructions())

    def _plan_dead(self) -> None:
        """Pick the values nothing reads (``_dead``): every value but a
        call's or an alloca's that cannot fault and that no emitted
        instruction reads (``_operands``), such as a DOALL kernel's
        unstored latch increment or a proven site's GEP chain, and the
        latch stores of ``for`` loops, whose ``range`` steps the slot.
        Their ops stay in their segment's static charge."""
        latches = {loop[3][-1].instructions[-2]
                   for loop in self._loops.values()}
        live = [inst for inst in self.fn.instructions()
                if inst not in latches and (
                    not inst.produces_value
                    or isinstance(inst, (Call, Alloca))
                    or self._can_fault(inst))]
        seen = set(live)
        while live:
            for operand in self._operands(live.pop()):
                if isinstance(operand, Instruction) and operand not in seen:
                    seen.add(operand)
                    live.append(operand)
        self._dead = {inst for inst in self.fn.instructions()
                      if inst not in seen}

    def _transparent(self, inst: Instruction) -> bool:
        """Whether a value may be read past ``inst`` instead of ahead
        of it: ``inst`` is a pure value, a promoted-slot read or a call
        folded to a constant, and cannot fault."""
        return not self._can_fault(inst) and (
            self._pure(inst) or inst in self._constants
            or isinstance(inst, Load) and inst.pointer in self._slots)

    def _plan_constants(self) -> None:
        """Evaluate each :func:`_pure_call` on constant arguments
        through the machine's handler (``_constants``): a call that
        returns is emitted as the literal of its value and cannot
        fault, its cost riding in its segment's charge as before; one
        that raises, such as ``sqrt(-1.0)``, stays a call and faults
        when it runs, as under the tree-walker."""
        for inst in self.fn.instructions():
            if not _pure_call(inst) \
                    or not all(isinstance(arg, Constant) for arg in inst.args):
                continue
            handler = self.machine.externals.get(inst.callee.name)
            if handler is None:
                continue
            try:
                value = handler(self.machine, [arg.value for arg in inst.args])
            except Exception:  # noqa: BLE001 -- it raises when it runs
                continue
            self._constants[inst] = self._literal(value)

    def _plan_folds(self) -> None:
        """Pick the values emitted into their use (``_folded``).

        * A promoted-slot load whose uses all follow it in its block,
          with no store to the slot before the last of them, reads the
          slot in place.
        * A compare used only by the ``cbr`` right after it becomes
          the branch's condition.
        * A :meth:`_pure` value used once, later in its block, becomes
          part of its user's expression when only pure values,
          promoted-slot reads and calls folded to constants lie
          between (``_transparent``: no store, no call, nothing that
          can fault, so reading it at the user reads what it would
          have) -- unless the nesting would pass ``_FOLD_DEPTH``, or
          the user is an unproven int rem, which reads its operands
          twice.  Float operations keep the IR's order.

        Dead values (``_dead``) neither count as uses nor stand between
        a value and its user.
        """
        blocks = self.fn.blocks
        dead = self._dead
        uses: Dict[Instruction, int] = {}
        for block in blocks:
            for inst in block.instructions:
                if inst in dead:
                    continue
                for operand in self._operands(inst):
                    if isinstance(operand, Instruction):
                        uses[operand] = uses.get(operand, 0) + 1
        slots = self._slots
        for block in blocks:
            insts = [inst for inst in block.instructions
                     if inst not in dead]
            last = len(insts) - 1
            #: value -> position of its (last) user in the block.
            users: Dict[Value, int] = {}
            for k, inst in enumerate(insts):
                for operand in self._operands(inst):
                    users[operand] = k
            #: slot load -> [uses so far, slot stored since, foldable]
            reads: Dict[Load, list] = {}
            depth: Dict[Instruction, int] = {}
            for k, inst in enumerate(insts):
                if reads:
                    for operand in self._operands(inst):
                        read = reads.get(operand) \
                            if isinstance(operand, Load) else None
                        if read is not None:
                            read[0] += 1
                            read[2] = read[2] and not read[1]
                    if isinstance(inst, Store):
                        for load, read in reads.items():
                            if load.pointer is inst.pointer:
                                read[1] = True
                if isinstance(inst, Load) and inst.pointer in slots:
                    reads[inst] = [0, False, True]
                    continue
                if k == last or uses.get(inst) != 1:
                    continue
                at = users.get(inst, k)
                if at <= k:
                    continue
                user = insts[at]
                if isinstance(inst, Compare):
                    if at == k + 1 and isinstance(user, CondBranch):
                        self._folded.add(inst)
                    continue
                if not self._pure(inst) or isinstance(user, BinaryOp) \
                        and user.op == "rem" \
                        and isinstance(user.type, IntType) \
                        and not self._needs_no_wrap(user) \
                        or not all(map(self._transparent, insts[k + 1:at])):
                    continue
                level = 1 + max((depth.get(operand, 0)
                                 for operand in self._operands(inst)),
                                default=0)
                if level <= _FOLD_DEPTH:
                    self._folded.add(inst)
                    depth[inst] = level
            self._folded.update(
                load for load, (count, _, foldable) in reads.items()
                if foldable and count == uses.get(load, 0))

    def _plan(self) -> None:
        """Name the values and make every plan that emission reads.  An
        inlined callee's loop analysis is not kept: only a function
        that is entered has a tier."""
        fn = self.fn
        check_definitions(fn)
        self.tier = Tier(fn) if self.inline else tier_of(fn)
        for i, arg in enumerate(fn.args):
            self.names[arg] = f"{self.prefix}a{i}"
        serial = 0
        for inst in fn.instructions():
            if inst.produces_value:
                self.names[inst] = f"{self.prefix}r{serial}"
                serial += 1
        self._preds = preds = self._edge_counts()
        self._plan_constants()
        if not self.hooked:
            self._slots = self._promoted_slots()
            if self.proofs:
                for inst in fn.instructions():
                    if isinstance(inst, Store) and inst.pointer in self._slots:
                        self._slot_stores.setdefault(inst.pointer, []) \
                            .append(inst)
            self._prove_ranges()
        self._inlined = self._plan_fusion(preds)
        if self.proofs:
            self._plan_calls()
            self._plan_sites()
            self._plan_frame()
            self._plan_loops(preds)
        elif self.inline:
            self._frame = self._slot_frame()
        self._plan_dead()
        self._plan_folds()

    def _emit_body(self) -> None:
        """Emit the blocks into ``lines``: straight through when every
        successor chain fused into an entry nothing jumps back to (plus
        structured conditionals), else as a dispatch loop."""
        fn = self.fn
        dispatch = [block for block in self._dispatch_order()
                    if block not in self._inlined]
        index = {block: i for i, block in enumerate(dispatch)}
        if len(dispatch) == 1 and not self._preds.get(fn.entry_block, 0):
            # No dispatch loop at all, except a one-pass loop for a
            # grid thread or an inlined callee to break out of.
            if self.grid or self.inline:
                self._emit("while True:")
                self.indent += 1
            self._emit_block_body(fn.entry_block, index)
        else:
            self._emit(f"{self.dispatch} = {index[fn.entry_block]}")
            self._emit("while True:")
            self.indent += 1
            for i, block in enumerate(dispatch):
                self._emit(("if" if i == 0 else "elif")
                           + f" {self.dispatch} == {i}:")
                self.indent += 1
                self._emit_block_body(block, index)
                self.indent -= 1
            self.indent -= 1

    def compile(self):
        fn = self.fn
        self._plan()
        # A grid variant's body sits in the thread loop (see
        # ``_grid_lines``), where a return breaks to the next thread.
        self.indent = 3 if self.grid else 1
        self._emit_body()
        body = self.lines
        prologue: List[str] = []
        # A grid variant binds the thread id (``a0``) in its loop.
        formals = fn.args[1:] if self.grid else fn.args
        if formals:
            prologue.append("    " + ", ".join(
                self.names[a] for a in formals)
                + ("," if len(formals) == 1 else "") + " = args")
        sites = ", ".join(self._sites) \
            + ("," if len(self._sites) == 1 else "")
        if self._sites:
            # Fresh per machine: holds that machine's segment objects.
            self.builders["_cc"] = \
                lambda m, mem, n=len(self._sites): [mem.segments[0]] * n
            prologue.append(f"    {sites} = _cc")
        if self.grid:
            body = self._proof_lines() + self._grid_lines(body, sites)
        # A default nothing reads would only cost each instantiation.
        read = set(_IDENTIFIER.findall("\n".join(prologue + body)))
        builders = {name: build for name, build in self.builders.items()
                    if name in read}
        params = ", ".join(f"{name}={name}" for name in builders)
        header = f"def __srcgen({'grid, ' if self.grid else ''}args, " \
            f"*, {params}):"
        source = "\n".join([header] + prologue + body) + "\n"
        tag = f"<srcgen @{fn.name}:{self.mode}" \
            + (":grid" if self.grid else "") \
            + (":checked" if self.grid == CHECKED else "") \
            + (":hooked" if self.hooked else "") \
            + (":guarded>" if self.guarded else ">")
        code_obj = compile(source, tag, "exec")
        accesses = sum(isinstance(inst, (Load, Store))
                       and inst.pointer not in self._slots
                       for inst in fn.instructions())
        return source, code_obj, builders, \
            (len(self._proofs), accesses, len(self._loops), self._streamed,
             len(self._callees))

    def _grid_lines(self, body: List[str], sites: str) -> List[str]:
        """Wrap one thread's emitted body in the launch's thread loop.

        Per thread: the stack pointer starts at its launch value, and
        the thread's ops (``_go``) join the total and the running
        maximum, which the function returns for the GPU time model.
        A ``finally`` writes the op, instruction and frame-id tallies
        back once (after a fault too); each thread takes one frame
        id, so ``a0 + 1`` once the loop stops at thread ``a0``, plus
        one per inlined call made (``_fr``).  The access sites'
        segments are kept for the next launch.
        """
        framed = self._frame is None and any(
            isinstance(inst, Alloca) for inst in self.fn.instructions())
        local = not self.reaches_out
        lines: List[str] = []

        def emit(depth: int, text: str) -> None:
            lines.append("    " * depth + text)

        if framed:
            emit(1, "_sp0 = M._gpu_sp")
        calls = " + _fr" if self._callees else ""
        if local:
            emit(1, "_ei = _mx = _tot = " + ("_fr = 0" if calls else "0"))
            emit(1, "a0 = -1")
        else:
            emit(1, "_ei = _mx = 0")
        emit(1, "try:")
        emit(2, "for a0 in range(grid):")
        if local:
            emit(3, "_go = 0")
            if framed:
                emit(3, "_sp = _sp0")
        else:
            emit(3, "M._frame_counter += 1")
            emit(3, "_g0 = M._gpu_ops")
        lines.extend(body)
        if local:
            emit(3, "_tot += _go")
        else:
            if framed:
                emit(3, "M._gpu_sp = _sp0")
            emit(3, "_go = M._gpu_ops - _g0")
        emit(3, "if _go > _mx:")
        emit(4, "_mx = _go")
        emit(1, "finally:")
        emit(2, "M.executed_instructions += _ei")
        if local:
            emit(2, "M._gpu_ops += _tot")
            emit(2, f"M._frame_counter += a0 + 1{calls}")
        elif framed:
            emit(2, "M._gpu_sp = _sp0")
        if sites:
            emit(1, f"_cc[:] = {sites}")
        emit(1, "return _mx")
        return lines


def _instantiate(machine, fn: Function, key: tuple, entry) -> "object":
    source, code_obj, builders, \
        (proven, accesses, loops, streamed, inlined) = entry
    mode, hooked, guarded, grid = key
    memory = machine.device.memory if mode == "gpu" \
        else machine.cpu_memory
    namespace = {name: build(machine, memory)
                 for name, build in builders.items()}
    exec(code_obj, namespace)  # noqa: S102
    code = namespace["__srcgen"]
    code.__name__ = code.__qualname__ = f"srcgen_{fn.name}_{mode}" \
        + ("_grid" if grid else "")
    code.source = source
    code.function = fn
    code.mode = mode
    code.hooked = hooked
    code.guarded = guarded
    code.grid = grid
    #: Memory access sites (loads and stores of anything but a
    #: promoted slot), and those a launch proves in bounds.
    code.access_sites = accesses
    code.proven_sites = proven
    #: Counted loops emitted as ``for`` over ``range``, and the loads
    #: of their bodies read from a ``zip``-walked slice.
    code.for_loops = loops
    code.streamed_loads = streamed
    #: Calls whose leaf callee runs in place of a thunk call.
    code.inlined_calls = inlined
    return code


def compile_function_source(machine, fn: Function, mode: str,
                            hooked: bool, guarded: bool = False,
                            grid: bool = False):
    """Translate ``fn`` into compiled Python source for one machine
    and mode; the returned callable is invoked as ``code(args)``.
    ``guarded`` code checks ``machine.writeback_guard`` before every
    load/store.  A ``grid`` variant of a kernel runs a whole launch:
    ``code(grid, args)`` with the operands after the thread id, and
    returns the max per-thread op count -- or None, before running a
    thread, when the launch fails its bounds proof; the ``CHECKED``
    grid variant proves nothing and tests every access instead.

    Emission and ``compile()`` happen once per (function, mode,
    hooked, guarded, grid) process-wide; each machine only
    re-instantiates the baked namespace from the cached builder recipe.
    """
    if fn.is_declaration:
        raise InterpError(f"cannot compile declaration @{fn.name}")
    if mode not in ("cpu", "gpu"):
        raise InterpError(f"cannot compile for mode {mode!r}")
    per_fn = _CODE_CACHE.setdefault(fn, {})
    key = (mode, hooked, guarded, grid)
    entry = per_fn.get(key)
    if entry is None:
        entry = _SourceCompiler(machine, fn, mode, hooked, guarded,
                                grid).compile()
        per_fn[key] = entry
    return _instantiate(machine, fn, key, entry)
