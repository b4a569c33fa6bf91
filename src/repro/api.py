"""Public scripting API: MiniC source in, runnable workload out.

PyCUDA-style entry point (run-time code generation plus caching, per
Klockner et al.): :func:`compile_workload` takes a MiniC program as a
*string* and a :class:`CgcmConfig`, runs the full frontend-to-pipeline
stack once, and returns a :class:`CompiledWorkload` handle that can be
executed any number of times on fresh simulated machines.  Compiled
artifacts are cached process-wide by ``(source hash, module name,
config key)``, so serving the same program repeatedly -- the scenario
engine's fuzz loops, the benchmarks, a hypothetical request stream --
pays for parsing, lowering, and the transform pipeline exactly once.

Guarantees:

* Malformed source raises :class:`repro.errors.FrontendError`, a typed
  diagnostic carrying ``line`` and ``column`` -- never a bare Python
  traceback from deep inside the parser.
* A bad ``config`` (wrong type, or a config mutated into an invalid
  combination after construction) raises
  :class:`repro.errors.ConfigError` *before* any compilation work.
* The handle's config is a private snapshot: mutating the caller's
  config afterwards never perturbs a cached artifact, and distinct
  config variants (sanitize / streams / faults / heap caps) always get
  distinct cache entries.

Quick start::

    from repro.api import compile_workload

    wl = compile_workload("int main(void){ print_i64(42); return 0; }")
    result = wl.run()
    result.stdout            # ('42',)
    result.observable()      # everything a transform must preserve
    wl.lint().errors         # static-checker findings, post-pipeline
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from .core.compiler import CgcmCompiler, CompileReport, ExecutionResult
from .core.config import CgcmConfig, OptLevel
from .errors import ConfigError
from .gpu.topology import Topology
from .ir import module_to_str

__all__ = ["CompiledWorkload", "Session", "compile_workload",
           "cache_stats", "clear_cache", "default_session",
           "CACHE_CAPACITY"]

#: Most-recently-used compiled artifacts kept alive by the cache.
CACHE_CAPACITY = 256


def _config_key(config: CgcmConfig) -> Tuple:
    """A hashable fingerprint of everything that affects compilation
    or execution.  Two configs with equal keys are interchangeable."""
    faults = config.faults
    fault_key = None
    if faults is not None:
        fault_key = (faults.seed, faults.alloc_fail_rate,
                     faults.transfer_fail_rate, faults.launch_fail_rate,
                     faults.max_consecutive)
    return (
        config.opt_level.value,
        config.enable_glue_kernels,
        config.enable_alloca_promotion,
        config.enable_map_promotion,
        dataclasses.astuple(config.cost_model),
        config.record_events,
        config.verify,
        config.sanitize,
        config.engine,
        config.streams,
        fault_key,
        config.device_heap_limit,
        config.strict_heap_limit,
        config.validate,
        None if config.topology is None else config.topology.key(),
    )


def _source_key(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class _ArtifactCache:
    """Process-wide LRU of compiled workloads, with hit/miss counters.

    The counters double as the test hook the scenario engine asserts
    against: a served request either bumped ``hits`` (no frontend or
    pipeline work happened) or ``misses`` (one full compile happened).
    """

    def __init__(self, capacity: int = CACHE_CAPACITY):
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, CompiledWorkload]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: Tuple) -> Optional["CompiledWorkload"]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def insert(self, key: Tuple, workload: "CompiledWorkload") -> None:
        with self._lock:
            self._entries[key] = workload
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "entries": len(self._entries),
                    "capacity": self.capacity}


class Session:
    """One scripting context: an artifact cache plus ambient defaults.

    A session owns what used to be process-wide state -- the compiled
    artifact cache, the default :class:`CgcmConfig`, and the device
    :class:`~repro.gpu.topology.Topology` -- so independent embedders
    (the serve layer, the benchmarks, tests) no longer share cache
    counters or defaults.  Module-level :func:`compile_workload` /
    :func:`cache_stats` / :func:`clear_cache` are thin wrappers over
    one process-wide *default session* and behave exactly as before.

    ``config`` seeds the default config used when :meth:`compile` is
    called without one; ``topology`` is injected into any compile
    whose config does not pin its own (so one session serves an
    N-device machine without every call site repeating it).
    """

    def __init__(self, config: Optional[CgcmConfig] = None,
                 topology: Optional[Topology] = None,
                 cache_capacity: int = CACHE_CAPACITY):
        if config is not None and not isinstance(config, CgcmConfig):
            raise ConfigError(
                f"Session config must be a CgcmConfig, got "
                f"{type(config).__name__}")
        if topology is not None and not isinstance(topology, Topology):
            raise ConfigError(
                f"Session topology must be a Topology, got "
                f"{type(topology).__name__}")
        #: Snapshot: mutating the caller's config later never changes
        #: what the session compiles with.
        self.default_config = dataclasses.replace(config) \
            if config is not None else None
        self.topology = topology
        self._cache = _ArtifactCache(cache_capacity)

    # -- compilation -------------------------------------------------------

    def compile(self, source: str, config: Optional[CgcmConfig] = None,
                name: str = "workload") -> "CompiledWorkload":
        """Compile ``source`` through the pipeline, with caching.

        Config resolution: the explicit ``config`` wins, else the
        session's default, else a fresh :class:`CgcmConfig`.  A config
        that does not pin its own topology inherits the session's
        (when the config parallelizes -- a CPU-only config has no use
        for devices).  Caching semantics match the module-level
        :func:`compile_workload` exactly, against *this* session's
        cache.
        """
        if not isinstance(source, str):
            raise ConfigError(
                f"compile_workload source must be MiniC text (str), got "
                f"{type(source).__name__}; read files before calling")
        if config is None:
            config = self.default_config
        if config is None:
            config = CgcmConfig()
        elif not isinstance(config, CgcmConfig):
            raise ConfigError(
                f"compile_workload config must be a CgcmConfig, got "
                f"{type(config).__name__}")
        # Snapshot re-runs __post_init__, so a config mutated into an
        # invalid combination is rejected here -- before any
        # compilation.  Topology injection happens in the same step.
        if config.topology is None and self.topology is not None \
                and config.parallelize:
            snapshot = dataclasses.replace(config, topology=self.topology)
        else:
            snapshot = dataclasses.replace(config)
        key = (_source_key(source), name, _config_key(snapshot))
        cached = self._cache.lookup(key)
        if cached is not None:
            return cached
        compiler = CgcmCompiler(snapshot)
        report = compiler.compile_source(source, name)
        workload = CompiledWorkload(source, name, snapshot, compiler,
                                    report, key)
        self._cache.insert(key, workload)
        return workload

    # -- cache -------------------------------------------------------------

    def cache_stats(self) -> Dict[str, int]:
        """This session's cache counters (same shape as the
        module-level :func:`cache_stats`)."""
        return self._cache.stats()

    def clear_cache(self) -> None:
        """Drop this session's cached artifacts and zero counters."""
        self._cache.clear()

    def __repr__(self) -> str:
        topo = "single" if self.topology is None \
            else f"{self.topology.kind}x{self.topology.num_devices}"
        return (f"<Session topology={topo} "
                f"entries={self._cache.stats()['entries']}>")


_DEFAULT_SESSION = Session()
#: Back-compat alias: the default session's cache (tests and tools
#: historically reached for ``api._CACHE``).
_CACHE = _DEFAULT_SESSION._cache


def default_session() -> Session:
    """The process-wide session behind the module-level wrappers."""
    return _DEFAULT_SESSION


def cache_stats() -> Dict[str, int]:
    """Artifact-cache counters: ``hits``, ``misses``, ``evictions``,
    ``entries`` and ``capacity``."""
    return _DEFAULT_SESSION.cache_stats()


def clear_cache() -> None:
    """Drop every cached artifact and zero the counters."""
    _DEFAULT_SESSION.clear_cache()


class CompiledWorkload:
    """A compiled MiniC program, runnable any number of times.

    Holds the post-pipeline module (shared across runs -- the pipeline
    ran once) plus a private config snapshot.  Each :meth:`run` builds
    a fresh simulated machine, so runs never observe each other's
    memory, clocks, or fault schedules.
    """

    def __init__(self, source: str, name: str, config: CgcmConfig,
                 compiler: CgcmCompiler, report: CompileReport,
                 cache_key: Tuple):
        self.source = source
        self.name = name
        self.config = config
        self.report = report
        self.cache_key = cache_key
        self._compiler = compiler
        #: Number of completed :meth:`run` calls on this handle.
        self.runs = 0

    # -- execution ---------------------------------------------------------

    def run(self, engine: Optional[str] = None,
            shared_mappings: Optional["object"] = None,
            launch_log: Optional[list] = None,
            device_heap_limit: Optional[int] = None) -> ExecutionResult:
        """Execute on a fresh machine; returns observables and clocks.

        ``engine`` overrides the config's engine for this run only
        (the differential harness runs one artifact under both).
        With ``config.sanitize`` the sanitizer report rides along on
        :attr:`ExecutionResult.sanitizer_report`.  ``shared_mappings``
        and ``launch_log`` are the serve layer's hooks;
        ``device_heap_limit`` applies a heap quota to this run only
        (the module is identical either way, so quota variants share
        this one artifact) -- see :meth:`CgcmCompiler.execute`.
        """
        result = self._compiler.execute(self.report, engine=engine,
                                        shared_mappings=shared_mappings,
                                        launch_log=launch_log,
                                        device_heap_limit=device_heap_limit)
        self.runs += 1
        return result

    # -- reports -----------------------------------------------------------

    def lint(self):
        """Static-checker report over the post-pipeline IR.  Under a
        multi-device config the placement pass is armed too."""
        from .staticcheck.linter import lint_module
        return lint_module(self.report.module,
                           topology=self.config.topology)

    def sanitize(self, level: Optional[OptLevel] = None):
        """CPU-vs-GPU differential run with the sanitizer armed.

        Recompiles from source (the reference run needs the
        *untransformed* program); returns a ``DifferentialReport``.
        """
        from .sanitizer.differential import run_differential
        return run_differential(
            self.source, self.name,
            level if level is not None else self.config.opt_level,
            engine=self.config.engine)

    # -- introspection -----------------------------------------------------

    @property
    def module(self):
        """The post-pipeline IR module (shared, do not mutate)."""
        return self.report.module

    @property
    def ir(self) -> str:
        """The post-pipeline IR, printed."""
        return module_to_str(self.report.module)

    def __repr__(self) -> str:
        return (f"<CompiledWorkload {self.name!r} "
                f"level={self.config.opt_level.value} runs={self.runs}>")


def compile_workload(source: str, config: Optional[CgcmConfig] = None,
                     name: str = "workload") -> CompiledWorkload:
    """Compile MiniC source through the CGCM pipeline, with caching.

    ``config`` defaults to a fresh :class:`CgcmConfig` (full
    optimization, no instrumentation).  The returned handle may come
    from the artifact cache: same source bytes, same name, and an
    equivalent config reuse the already-compiled module.  Source is
    keyed by its exact bytes -- even semantically meaningless
    whitespace changes produce a distinct artifact, because the cache
    must never be cleverer than the compiler it is caching.

    Thin wrapper: equivalent to ``default_session().compile(...)``.
    """
    if config is None:
        # The process-wide default session carries no default config,
        # so explicitly fall back to a fresh one (the historical
        # contract of this function).
        config = CgcmConfig()
    return _DEFAULT_SESSION.compile(source, config, name)
