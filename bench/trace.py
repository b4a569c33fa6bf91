"""Host-time spans at the public layer boundaries, kept in memory.

For the traced run, :class:`Tracer` replaces public functions of
``repro`` with wrappers that record one span per call -- name, start,
end, parent span and the benchmark op it ran under -- and restores the
originals on exit.  Nothing under ``src/`` changes and nothing is
written until the run ends.  The wrappers are transparent: every
modeled (``sim``) number is the same with or without them.

A layer's *self time* is its spans' duration minus the part covered by
child spans, so nested layers are never counted twice.  Like the
benchmark's other host times, it leaves out the speed probe's own time
and is scaled to the reference speed (see ``bench/speed.py``).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, \
    Tuple

import repro.ir
from repro import api, multigpu
from repro.core import compiler
from repro.frontend import lowering, parser
from repro.interp import machine, srcgen
from repro.runtime.api import ENTRY_POINTS
from repro.runtime.cgcm import CgcmRuntime
from repro.serve.server import ServeLoop

#: Fields of one span record, in list order.
NAME, START, END, PARENT, OP, COUNT = range(6)

#: Optimize-pipeline stages reported as ``transforms.<pass>_ms``.
PASSES = ("doall", "declare_globals", "commmgmt", "glue_kernels",
          "alloca_promotion", "map_promotion", "comm_overlap", "verify")

#: Span names whose self time is compile work (frontend, passes, codegen).
_COMPILE_SPANS = ("frontend.", "transforms.", "interp.codegen",
                  "interp.emit")


def metric(value: float, unit: str, clock: str,
           better: str = "lower") -> Dict[str, Any]:
    """One labelled number.  ``clock`` is ``host`` (measured on the
    host: time, memory), ``sim`` (modeled by the SimClock) or ``none``
    (counts of work and their ratios).  Only ``host`` numbers vary
    between runs of one commit and seed.  ``better`` is the direction
    of an improvement, ``lower`` or ``higher``."""
    return {"value": value, "unit": unit, "clock": clock, "better": better}


def counted_metric(value: int, better: str = "lower") -> Dict[str, Any]:
    return metric(value, "count", "none", better)


def ir_insts(module) -> int:
    """Static IR instruction count of a module's defined functions."""
    return sum(1 for fn in module.defined_functions()
               for _ in fn.instructions())


#: (owner, attribute, span name, count of the call or None).  A count
#: is ``count(result, args)``, recorded on the span.
_TARGETS = (
    (parser, "tokenize", "frontend.lex", lambda result, args: len(result)),
    (lowering, "parse_minic", "frontend.parse", None),
    (lowering.MiniCLowering, "run", "frontend.lower",
     lambda result, args: ir_insts(result)),
    (compiler.DoallParallelizer, "run", "transforms.doall", None),
    (compiler, "insert_global_declarations", "transforms.declare_globals",
     None),
    (compiler.CommunicationManager, "run", "transforms.commmgmt", None),
    (compiler.CommunicationManager, "manage_launch", "transforms.commmgmt",
     None),
    (compiler.GlueKernels, "run", "transforms.glue_kernels", None),
    (compiler.AllocaPromotion, "run", "transforms.alloca_promotion", None),
    (compiler.MapPromotion, "run", "transforms.map_promotion", None),
    (compiler.CommOverlap, "run", "transforms.comm_overlap", None),
    (compiler, "verify_module", "transforms.verify", None),
    # compile_minic imports verify_module from repro.ir at call time.
    (repro.ir, "verify_module", "transforms.verify", None),
    (srcgen, "compile_function_source", "interp.codegen", None),
    # The emit-and-compile() step behind srcgen's per-function code
    # cache: one span here is one cache miss.  Private, so it is the
    # first target to revisit when the code cache changes.
    (srcgen._SourceCompiler, "compile", "interp.emit", None),
    (machine.Machine, "run", "interp.exec",
     lambda result, args: args[0].executed_instructions),
    (multigpu, "plan_placement", "multigpu.placement", None),
    (api.Session, "compile", "api.compile", None),
    (api.CompiledWorkload, "run", "api.run", None),
    (ServeLoop, "run", "serve.loop", None),
)

class Tracer:
    """Records spans while active (``with Tracer() as tracer:``).

    The benchmark calls :meth:`begin_op` before every op it runs, so op
    ids count from 0 in the order of its own op records; each span
    records the id of the op it ran under.
    """

    def __init__(self) -> None:
        #: Span records: [name, start_ns, end_ns, parent, op, count].
        self.spans: List[list] = []
        self._op = -1
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def begin_op(self) -> None:
        self._op += 1

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attr, name, count in _TARGETS:
            self._patch(owner, attr, self._wrap(getattr(owner, attr),
                                                name, count))
        init = CgcmRuntime.__init__
        wrap = self._wrap

        def traced_init(runtime, machine_, *args, **kwargs):
            init(runtime, machine_, *args, **kwargs)
            # The runtime installs its registry entry points as
            # externals of the machine; wrap each one in place.
            externals = machine_.externals
            for entry in ENTRY_POINTS:
                externals[entry] = wrap(externals[entry],
                                        "runtime." + entry, None)

        self._patch(CgcmRuntime, "__init__", traced_init)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn: Callable, name: str,
              count: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self._op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(result, args)
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self, timed_ops: Iterable[int],
                      count_ops: Iterable[int], weights: Sequence[int],
                      scales: Sequence[float],
                      hidden: Callable[[int, int], float]
                      ) -> Dict[str, Any]:
        """Span-derived layer metrics.

        Times are self milliseconds per op (per request for serve)
        over ``timed_ops``; a span's duration leaves out
        ``hidden(start, end)`` nanoseconds (the speed probe's) and is
        scaled by ``scales[op]``.  Counts are totals over
        ``count_ops``, a fixed part of the run, so they repeat exactly
        across runs.  ``weights[op]`` is the ops an op counts as.
        """
        timed, counted = set(timed_ops), set(count_ops)
        weight = sum(weights[i] for i in timed) or 1
        durations = [s[END] - s[START] - hidden(s[START], s[END])
                     for s in self.spans]
        child_ns = [0.0] * len(self.spans)
        for span, duration in zip(self.spans, durations):
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += duration
        own_ns: Dict[str, float] = defaultdict(float)
        timed_calls: Dict[str, int] = defaultdict(int)
        timed_count: Dict[str, int] = defaultdict(int)
        calls: Dict[str, int] = defaultdict(int)
        count: Dict[str, int] = defaultdict(int)
        root_ns = 0.0
        for span, duration, covered in zip(self.spans, durations, child_ns):
            name, op = span[NAME], span[OP]
            if op in timed:
                own_ns[name] += (duration - covered) * scales[op]
                timed_calls[name] += 1
                timed_count[name] += span[COUNT]
                if span[PARENT] < 0:
                    root_ns += duration * scales[op]
            if op in counted:
                calls[name] += 1
                count[name] += span[COUNT]

        def ms(*names: str) -> Dict[str, Any]:
            return metric(sum(own_ns[n] for n in names) / 1e6 / weight,
                          "ms/op", "host")

        def per_s(name: str, scale: float, unit: str) -> Dict[str, Any]:
            seconds = own_ns[name] / 1e9
            return metric(timed_count[name] / scale / seconds
                          if seconds else 0.0, unit, "host", "higher")

        def ratio(part: float, whole: float, clock: str,
                  better: str = "lower") -> Dict[str, Any]:
            return metric(part / whole if whole else 0.0, "frac", clock,
                          better)

        runtime = ["runtime." + e for e in ENTRY_POINTS]
        runtime_ns = sum(own_ns[n] for n in runtime)
        compile_ns = sum(ns for n, ns in own_ns.items()
                         if n.startswith(_COMPILE_SPANS))
        metrics = {
            "frontend.lex_ms": ms("frontend.lex"),
            "frontend.parse_ms": ms("frontend.parse"),
            "frontend.lower_ms": ms("frontend.lower"),
            "frontend.tokens": counted_metric(count["frontend.lex"]),
            "frontend.ktokens_per_s": per_s("frontend.lex", 1e3, "ktok/s"),
            "frontend.ir_insts": counted_metric(count["frontend.lower"]),
        }
        for name in PASSES:
            metrics[f"transforms.{name}_ms"] = ms(f"transforms.{name}")
        metrics.update({
            "interp.codegen_ms": ms("interp.codegen", "interp.emit"),
            "interp.codegen_fns": counted_metric(calls["interp.emit"]),
            "interp.codegen_reuse": ratio(
                calls["interp.codegen"] - calls["interp.emit"],
                calls["interp.codegen"], "none", "higher"),
            "interp.exec_ms": ms("interp.exec"),
            "interp.minsts": metric(count["interp.exec"] / 1e6, "Minst",
                                    "none"),
            "interp.minsts_per_s": per_s("interp.exec", 1e6, "Minst/s"),
        })
        for entry in ENTRY_POINTS:
            metrics[f"runtime.calls.{entry}"] = \
                counted_metric(calls["runtime." + entry])
        metrics.update({
            "runtime.ms": ms(*runtime),
            "runtime.us_per_call": metric(
                runtime_ns / 1e3 / sum(timed_calls[n] for n in runtime)
                if runtime_ns else 0.0, "us", "host"),
            "multigpu.placement_ms": ms("multigpu.placement"),
            "api.compile_ms": ms("api.compile"),
            "api.run_ms": ms("api.run"),
            "serve.loop_ms": ms("serve.loop"),
            "compile_frac": ratio(compile_ns, root_ns, "host"),
        })
        return metrics

    def write_chrome(self, path: str, label: str,
                     phases: Sequence[str]) -> None:
        """Write the spans, unscaled, as a Chrome trace
        (chrome://tracing); ``phases[op]`` names each op's phase."""
        origin = min((s[START] for s in self.spans), default=0)
        events = [{"name": s[NAME], "cat": s[NAME].split(".")[0],
                   "ph": "X", "pid": 1, "tid": 1,
                   "ts": (s[START] - origin) / 1e3,
                   "dur": (s[END] - s[START]) / 1e3,
                   "args": {"op": s[OP], "phase": phases[s[OP]]
                            if s[OP] >= 0 else "none"}}
                  for s in self.spans]
        events.append({"name": "process_name", "ph": "M", "pid": 1,
                       "args": {"name": f"host spans: {label}"}})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
