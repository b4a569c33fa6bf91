"""The CGCM driver: source to transformed module to simulated run.

This is the public face of the reproduction.  ``CgcmCompiler`` wires
the passes in the paper's order; ``compile_and_run`` takes MiniC
source and an optimization level and returns an
:class:`ExecutionResult` with observable outputs and the modelled
timing breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..frontend.lowering import compile_minic
from ..gpu.timing import TraceEvent
from ..interp.machine import Machine
from ..ir.function import Function
from ..ir.instructions import Call
from ..ir.module import Module
from ..ir.values import Constant
from ..ir.verifier import verify_module
from ..memory.layout import GlobalLayout
from ..runtime.cgcm import CgcmRuntime
from ..transforms.alloca_promotion import AllocaPromotion
from ..transforms.comm_overlap import CommOverlap
from ..transforms.commmgmt import CommunicationManager
from ..transforms.declare_globals import insert_global_declarations
from ..transforms.doall import DoallParallelizer
from ..transforms.glue_kernels import GlueKernels
from ..transforms.map_promotion import MapPromotion
from .config import CgcmConfig, OptLevel


@dataclass
class CompileReport:
    """What the pipeline did to one program."""

    module: Module
    doall_kernels: List[Function] = field(default_factory=list)
    glue_kernels: List[Function] = field(default_factory=list)
    promoted_loops: int = 0
    promoted_functions: int = 0
    promoted_allocas: int = 0
    #: Statistics of the comm-overlap transform (streams configs only).
    overlap_stats: Dict[str, int] = field(default_factory=dict)
    #: Translation-validation findings (``config.validate`` only); any
    #: error here also raises
    #: :class:`~repro.errors.TransformValidationError` at pipeline end.
    validation: List["object"] = field(default_factory=list)
    #: Device placement plans by topology, built on the first
    #: multi-device run: the module no longer changes, and the
    #: coordinator only reads its plan.
    placements: Dict["object", "object"] = field(default_factory=dict)
    #: The module's global layout, built on the first run for the
    #: same reason; every run installs its one encoded image.
    layout: Optional[GlobalLayout] = None

    @property
    def kernel_count(self) -> int:
        return len(self.doall_kernels)


@dataclass
class ExecutionResult:
    """Observable outcome plus modelled timing of one simulated run."""

    exit_code: int
    stdout: Tuple[str, ...]
    cpu_seconds: float
    gpu_seconds: float
    comm_seconds: float
    counters: Dict[str, int]
    events: List[TraceEvent] = field(default_factory=list)
    globals_image: Dict[str, bytes] = field(default_factory=dict)
    #: Present when the run was executed with ``config.sanitize``.
    sanitizer_report: Optional["object"] = None
    #: Dynamic count of interpreted IR instructions.
    instructions: int = 0
    #: Overlap-aware elapsed time (== :attr:`total_seconds` for serial
    #: runs; the critical path over all cursors for streams runs).
    critical_path_seconds: float = 0.0

    @classmethod
    def from_machine(cls, machine: Machine, exit_code: int,
                     globals_image: Optional[Dict[str, bytes]] = None,
                     sanitizer_report: Optional["object"] = None
                     ) -> "ExecutionResult":
        """The outcome ``machine`` holds after a run that exited with
        ``exit_code``."""
        clock = machine.clock
        return cls(exit_code=exit_code,
                   stdout=tuple(machine.stdout),
                   cpu_seconds=clock.cpu_seconds,
                   gpu_seconds=clock.gpu_seconds,
                   comm_seconds=clock.comm_seconds,
                   counters=dict(clock.counters),
                   events=list(clock.events),
                   globals_image=globals_image or {},
                   sanitizer_report=sanitizer_report,
                   instructions=machine.executed_instructions,
                   critical_path_seconds=clock.critical_path_s)

    @property
    def total_seconds(self) -> float:
        return self.cpu_seconds + self.gpu_seconds + self.comm_seconds

    def observable(self) -> Tuple:
        """Everything a correct transformation must preserve."""
        return (self.exit_code, self.stdout,
                tuple(sorted(self.globals_image.items())))


class CgcmCompiler:
    """Runs the CGCM pass pipeline over MiniC programs or IR modules."""

    def __init__(self, config: Optional[CgcmConfig] = None):
        self.config = config if config is not None else CgcmConfig()

    def compile_source(self, source: str,
                       name: str = "program") -> CompileReport:
        module = compile_minic(source, name)
        return self.compile_module(module)

    def compile_module(self, module: Module) -> CompileReport:
        report = CompileReport(module)
        config = self.config
        if not config.parallelize:
            verify_module(module)
            return report

        report.doall_kernels = DoallParallelizer(module).run()
        insert_global_declarations(module)
        manager = CommunicationManager(module)
        manager.run()

        validator = None
        if config.validate and config.optimize:
            # Imported lazily: the validator re-runs staticcheck
            # analyses, and staticcheck depends on this module.
            from ..staticcheck.transval import TranslationValidator
            validator = TranslationValidator()
            validator.begin(module)

        if config.optimize:
            # Paper section 5.3: glue kernels, then alloca promotion,
            # then map promotion.
            if config.enable_glue_kernels:
                glue = GlueKernels(module)
                for launch in glue.run():
                    parent = launch.parent.parent
                    manager.manage_launch(parent, launch)
                report.glue_kernels = glue.kernels
                if validator is not None:
                    from ..transforms import glue_kernels as _glue_mod
                    validator.check(_glue_mod.CONTRACT, module)
            if config.enable_alloca_promotion:
                alloca_promo = AllocaPromotion(module)
                alloca_promo.run()
                report.promoted_allocas = alloca_promo.promoted
                if validator is not None:
                    from ..transforms import alloca_promotion as _ap_mod
                    validator.check(_ap_mod.CONTRACT, module)
            if config.enable_map_promotion:
                map_promo = MapPromotion(module)
                map_promo.run()
                report.promoted_loops = map_promo.promoted_loops
                report.promoted_functions = map_promo.promoted_functions
                if validator is not None:
                    from ..transforms import map_promotion as _mp_mod
                    validator.check(_mp_mod.CONTRACT, module)
            if config.streams:
                # After map promotion: copies are already at their
                # final per-region positions; overlap then hoists,
                # sinks, and rewrites them asynchronous.
                report.overlap_stats = CommOverlap(module).run()
                if validator is not None:
                    from ..transforms import comm_overlap as _co_mod
                    validator.check(_co_mod.CONTRACT, module)
        verify_module(module)
        if validator is not None:
            report.validation = list(validator.findings)
            errors = validator.errors
            if errors:
                from ..errors import TransformValidationError
                raise TransformValidationError(report, errors)
        return report

    def execute(self, report: CompileReport,
                capture_globals: bool = True,
                engine: Optional[str] = None,
                shared_mappings: Optional["object"] = None,
                launch_log: Optional[List] = None,
                device_heap_limit: Optional[int] = None) -> ExecutionResult:
        """Run a compiled module on a fresh simulated machine.

        With ``config.sanitize`` set, the communication sanitizer is
        armed for the run and its report lands on
        :attr:`ExecutionResult.sanitizer_report`.  ``engine``
        overrides ``config.engine`` for this run (used by the
        engine-equivalence benchmarks).

        ``shared_mappings`` attaches a serve-layer
        :class:`~repro.serve.sharing.SharedMappingRegistry`: read-only
        allocation units whose content is already device-resident on
        behalf of another in-flight request skip the modelled HtoD
        charge (see ``CgcmRuntime._shared_attach``).  ``launch_log``
        collects one ``(kernel_name, grid, total_ops, max_ops,
        duration)`` tuple per GPU launch, the raw material for
        batched-dispatch re-pricing.

        ``device_heap_limit`` overrides ``config.device_heap_limit``
        for this run only -- the serve layer applies per-tenant heap
        quotas at execution time so quota variants of one source share
        a single compiled artifact.  The compiled module is identical
        either way (the limit is purely a runtime knob); the same
        streams-compatibility rule as the config field applies.
        """
        effective_limit = device_heap_limit if device_heap_limit is not None \
            else self.config.device_heap_limit
        if effective_limit is not None and self.config.streams:
            raise ConfigError(
                "device_heap_limit cannot be combined with streams: "
                "eviction write-backs are synchronous and would race "
                "the deferred async write-backs")
        if effective_limit is not None and self.config.strict_heap_limit:
            size, label = largest_static_unit(report.module)
            if size > effective_limit:
                raise ConfigError(
                    f"device_heap_limit={effective_limit} "
                    f"is smaller than the program's largest allocation "
                    f"unit ({label}, {size} bytes): the unit could "
                    "never become device-resident and every launch "
                    "touching it would permanently degrade to the CPU "
                    "path via a sentinel range.  Raise the limit, or "
                    "pass strict_heap_limit=False to run the "
                    "degradation deliberately")
        fault_injector = None
        if self.config.faults is not None and self.config.faults.armed:
            # Imported lazily so config-only users never touch the
            # injector; one injector per execution keeps the seeded
            # schedule independent across runs of the same compiler.
            from ..gpu.faults import FaultInjector
            fault_injector = FaultInjector(self.config.faults)
        if report.layout is None:
            report.layout = GlobalLayout(report.module)
        machine = Machine(report.module, self.config.cost_model,
                          self.config.record_events,
                          engine=engine if engine is not None
                          else self.config.engine,
                          streams=self.config.streams,
                          fault_injector=fault_injector,
                          device_heap_limit=effective_limit,
                          layout=report.layout)
        if launch_log is not None:
            machine.launch_cost_hooks.append(
                lambda m, kernel, grid, total, mx, duration:
                launch_log.append((kernel, grid, total, mx, duration)))
        runtime = CgcmRuntime(machine) if self.config.parallelize else None
        if runtime is not None and shared_mappings is not None:
            runtime.shared_mappings = shared_mappings
        topology = self.config.topology
        if runtime is not None and topology is not None \
                and topology.num_devices > 1:
            # Imported lazily: single-device runs never touch the
            # multi-GPU layer.
            from ..multigpu import MultiGpuCoordinator, plan_placement
            plan = report.placements.get(topology)
            if plan is None:
                plan = report.placements[topology] = \
                    plan_placement(report.module, topology)
            MultiGpuCoordinator(machine, runtime, topology, plan)
        sanitizer = None
        if self.config.sanitize:
            # Imported lazily: the sanitizer package depends on this
            # module for its differential oracle.
            from ..sanitizer.sanitizer import CommSanitizer
            sanitizer = CommSanitizer(machine, runtime)
        exit_code = machine.run()
        if self.config.streams:
            # Program end implies cuCtxSynchronize: the critical path
            # includes every span still in flight.
            machine.clock.device_synchronize()
        globals_image = capture_globals_image(machine, report.module) \
            if capture_globals else None
        return ExecutionResult.from_machine(
            machine, exit_code, globals_image,
            sanitizer.finish() if sanitizer else None)


#: Externals whose constant-argument calls create heap/stack
#: allocation units of statically known size.  Globals are exempt:
#: their device copies live in the module segment
#: (``cuModuleGetGlobal``), never in the capped cuMemAlloc arena.
_STATIC_ALLOC_SITES = ("malloc", "calloc", "declareAlloca")


def largest_static_unit(module: Module) -> Tuple[int, str]:
    """Size and label of the largest statically-sized heap or stack
    allocation unit any call site in ``module`` can create.

    Only constant-argument ``malloc``/``calloc``/``declareAlloca``
    calls count -- dynamically sized allocations are invisible to this
    check and still rely on the runtime's sentinel degradation.
    Returns ``(0, "")`` when there is no such site.
    """
    largest, label = 0, ""
    for fn in module.defined_functions():
        for inst in fn.instructions():
            if not isinstance(inst, Call) \
                    or inst.callee.name not in _STATIC_ALLOC_SITES:
                continue
            args = inst.args
            if not args or not all(isinstance(a, Constant) for a in args):
                continue
            if inst.callee.name == "calloc":
                size = int(args[0].value) * int(args[1].value)
            else:
                size = int(args[0].value)
            if size > largest:
                largest = size
                label = f"{inst.callee.name}({size}) in {fn.name}"
    return largest, label


def capture_globals_image(machine: Machine,
                          module: Module) -> Dict[str, bytes]:
    """Final host bytes of every program-visible global.

    Compiler-synthesized string and registration-name globals are
    excluded: they are not observable program state.
    """
    image: Dict[str, bytes] = {}
    for name in module.globals:
        if name.startswith((".str", ".gname")):
            continue
        image[name] = machine.read_global(name)
    return image


def compile_and_run(source: str, opt_level: OptLevel = OptLevel.OPTIMIZED,
                    config: Optional[CgcmConfig] = None,
                    name: str = "program") -> ExecutionResult:
    """One-call convenience: compile MiniC at a level and simulate it."""
    if config is None:
        config = CgcmConfig(opt_level=opt_level)
    else:
        config.opt_level = opt_level
    compiler = CgcmCompiler(config)
    report = compiler.compile_source(source, name)
    return compiler.execute(report)
