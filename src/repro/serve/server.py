"""The serve loop: admission, batching, and simulated-time dispatch.

:class:`ServeLoop` drives a deterministic discrete-event simulation
over one :class:`~repro.gpu.timing.SimClock` in streams mode.  Worker
``w`` owns engine lane ``cpu{w}`` (spans on distinct workers overlap;
one worker serializes), every request owns stream ``req{id}``, and the
built-in ``gpu`` and ``comm`` lanes model the single device and PCIe
bus every request contends for.

Each request physically executes on its *own* fresh simulated machine
-- per-request outputs are byte-identical to isolated runs by
construction; the sanitizer verifies rather than assumes this -- while
the serve clock re-prices the cross-request schedule:

* **Compile**: each distinct (resolved source, tenant config) artifact
  compiles once through the ``repro.api`` cache.  The modelled cost of
  a miss is ``static instruction count x COMPILE_CYCLES_PER_INST``
  CPU cycles, a model of a native compiler rather than a measurement
  of this one; a hit costs ``COMPILE_HIT_CYCLES``.  With
  ``cache=False`` every request is charged the full miss cost (the
  artifact still compiles once physically -- the ablation is in the
  model, like every other cost here).
* **Batching**: pending requests of the dispatched artifact ride along
  (up to ``batch_limit``), and their launch sequences -- identical
  because the artifact and inputs are -- merge launch-by-launch into
  one grid dispatch: one launch latency, ``gpu_time(sum totals, max
  maxs)``, which is exact under the cost model for concatenated
  grids.  A launch-signature mismatch falls back to unbatched GPU
  spans and counts ``batch_conflicts``.
* **Per-request phases** are modelled as aggregate compile / host /
  transfer / GPU spans in that order (the fine-grained interleaving
  within one request is already priced by its own machine; the serve
  clock models cross-request contention).

Rejections are immediate and free: a request whose source fails the
frontend, or whose tenant quota fails the strict heap-limit check,
completes at dispatch time with ``status="rejected"``.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import api
from ..core.config import CgcmConfig
from ..errors import CgcmRuntimeError, ConfigError, FrontendError
from ..gpu.timing import (LANE_COMM, LANE_CPU, LANE_GPU, SimClock,
                          TraceEvent, sum_in_order)
from ..gpu.topology import Topology
from .policy import make_policy
from .request import RequestMetrics, ServeRequest, TenantSpec
from .sharing import SharedMappingRegistry

#: Modelled duration of the admission bookkeeping span in the trace.
_ADMIT_EPS = 1e-9
#: Modelled CPU cycles to compile one static IR instruction.  It stands
#: for a native compiler and is not calibrated to the host: at the
#: modelled 2.4 GHz it charges 2.5 us per instruction, while this
#: package's own frontend and passes take about 21 us per emitted
#: instruction (traced ``bench/run.py --workload fresh-compile --seed
#: 1``, their time over ``transforms.ir_insts_out``; 2-vCPU x86_64 VM,
#: Python 3.11.7).  Changing it moves every ``BENCH_serve.json`` row.
COMPILE_CYCLES_PER_INST = 6000.0
#: Modelled CPU cycles for an artifact-cache hit.
COMPILE_HIT_CYCLES = 2000.0


@dataclass
class ServeOptions:
    """Serve-loop knobs.  Everything is deterministic given these."""

    #: Concurrent host workers (one CPU lane each).
    workers: int = 4
    #: "fifo", "fair", or any object with ``select()``.
    policy: object = "fifo"
    #: Merge same-artifact pending requests into shared dispatches.
    batching: bool = True
    #: Share read-only device copies across in-flight requests.
    sharing: bool = True
    #: Model the artifact cache; False charges a full compile per
    #: request (the cache-off ablation).
    cache: bool = True
    #: Arm the communication sanitizer on every request's run.
    sanitize: bool = False
    #: Largest shared dispatch (including the selected request).
    batch_limit: int = 64
    #: Seeded shuffle of the pending view before each policy pick;
    #: None = arrival order.  Exists so tests can prove output
    #: byte-identity under arbitrary dispatch interleavings.
    shuffle_seed: Optional[int] = None
    #: Record TraceEvents (per-request tracks) on the serve clock.
    record_events: bool = False
    #: Tenant contracts by name; unknown tenants serve uncapped.
    #: Heap quotas are applied at *execution* time
    #: (``CompiledWorkload.run(device_heap_limit=...)``), so every
    #: quota variant of one source shares a single compiled artifact.
    tenants: Dict[str, TenantSpec] = field(default_factory=dict)
    #: Base config for request compilation.  None = the default
    #: config with ``sanitize``.
    base_config: Optional[CgcmConfig] = None
    #: Multi-device topology injected into the base config when it
    #: does not pin its own (None = single device).
    topology: Optional[Topology] = None
    #: The :class:`repro.api.Session` whose artifact cache backs this
    #: loop; None = the process-wide default session.
    session: Optional["api.Session"] = None

    def resolved_base_config(self) -> CgcmConfig:
        if self.base_config is not None:
            config = dataclasses.replace(self.base_config)
        else:
            config = CgcmConfig(sanitize=self.sanitize)
        if self.topology is not None and config.topology is None:
            config = dataclasses.replace(config, topology=self.topology)
        return config


class _Admitted:
    """One admitted request plus everything identity-related."""

    __slots__ = ("request", "source", "artifact", "config", "key",
                 "metrics", "heap_limit")

    def __init__(self, request: ServeRequest, source: str, artifact: str,
                 config: CgcmConfig, key: Tuple,
                 metrics: RequestMetrics,
                 heap_limit: Optional[int] = None):
        self.request = request
        self.source = source
        self.artifact = artifact
        self.config = config
        self.key = key
        self.metrics = metrics
        #: Tenant heap quota, applied per run -- deliberately NOT part
        #: of ``key``: quota variants share one compiled artifact.
        self.heap_limit = heap_limit


@dataclass
class ServeReport:
    """Outcome of one serve run: per-request metrics plus aggregates."""

    metrics: List[RequestMetrics]
    makespan_s: float
    throughput_rps: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    mean_latency_s: float
    counters: Dict[str, int]
    lane_totals: Dict[str, float]
    tenants: Dict[str, Dict[str, float]]
    options: Dict[str, object]
    events: List[TraceEvent] = field(default_factory=list)

    @property
    def ok(self) -> List[RequestMetrics]:
        return [m for m in self.metrics if m.status == "ok"]

    @property
    def rejected(self) -> List[RequestMetrics]:
        return [m for m in self.metrics if m.status == "rejected"]

    def to_json(self) -> dict:
        return {
            "options": self.options,
            "requests": len(self.metrics),
            "ok": len(self.ok),
            "rejected": len(self.rejected),
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "latency_p50_s": self.latency_p50_s,
            "latency_p95_s": self.latency_p95_s,
            "latency_p99_s": self.latency_p99_s,
            "mean_latency_s": self.mean_latency_s,
            "counters": self.counters,
            "lane_totals": self.lane_totals,
            "tenants": self.tenants,
            "per_request": [m.to_json() for m in self.metrics],
        }

    def render(self) -> str:
        c = self.counters
        lines = [
            f"serve: {len(self.ok)}/{len(self.metrics)} ok "
            f"({len(self.rejected)} rejected), "
            f"policy={self.options.get('policy')} "
            f"workers={self.options.get('workers')}",
            f"  makespan        {self.makespan_s * 1e3:10.3f} ms   "
            f"throughput {self.throughput_rps:12.0f} req/s",
            f"  latency p50/p95/p99  "
            f"{self.latency_p50_s * 1e6:8.1f} / "
            f"{self.latency_p95_s * 1e6:8.1f} / "
            f"{self.latency_p99_s * 1e6:8.1f} us",
            f"  compile         {c.get('compile_misses', 0)} miss, "
            f"{c.get('compile_hits', 0)} hit",
            f"  batching        {c.get('batches', 0)} dispatches for "
            f"{c.get('batched_requests', 0)} requests "
            f"({c.get('batch_conflicts', 0)} conflicts)",
            f"  sharing         {c.get('shared_attaches', 0)} attaches, "
            f"{c.get('transfer_bytes_saved', 0)} HtoD bytes saved",
        ]
        if c.get("device_evictions", 0) or c.get("sentinel_units", 0) \
                or c.get("cpu_fallback_launches", 0):
            lines.append(
                f"  quota pressure  {c.get('device_evictions', 0)} "
                f"evictions, {c.get('sentinel_units', 0)} sentinels, "
                f"{c.get('cpu_fallback_launches', 0)} CPU fallbacks")
        for name in sorted(self.tenants):
            t = self.tenants[name]
            lines.append(
                f"  tenant {name:<12} {int(t['requests']):5d} req "
                f"({int(t['rejected'])} rejected)  "
                f"service {t['service_s'] * 1e6:9.1f} us  "
                f"mean latency {t['mean_latency_s'] * 1e6:9.1f} us")
        return "\n".join(lines)


def _percentile(sorted_values: Sequence[float], pct: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))  # ceil
    return sorted_values[int(rank) - 1]


class ServeLoop:
    """Deterministic simulated-time request server.

    One instance serves one request list (:meth:`run`); the clock,
    registry, and artifact bookkeeping stay inspectable afterwards.
    """

    def __init__(self, options: Optional[ServeOptions] = None):
        self.options = options if options is not None else ServeOptions()
        if self.options.workers < 1:
            raise ConfigError(
                f"ServeOptions.workers must be >= 1, got "
                f"{self.options.workers}")
        if self.options.batch_limit < 1:
            raise ConfigError(
                f"ServeOptions.batch_limit must be >= 1, got "
                f"{self.options.batch_limit}")
        self.policy = make_policy(self.options.policy)
        self.base_config = self.options.resolved_base_config()
        self.session = self.options.session if self.options.session \
            is not None else api.default_session()
        self.clock = SimClock(record_events=self.options.record_events)
        self.clock.enable_streams()
        self.lanes = [self.clock.add_lane(f"cpu{w}")
                      for w in range(self.options.workers)]
        self.registry: Optional[SharedMappingRegistry] = \
            SharedMappingRegistry() if self.options.sharing else None
        self._base_key = api._config_key(self.base_config)
        self._workloads: Dict[Tuple, api.CompiledWorkload] = {}
        self._inst_counts: Dict[Tuple, int] = {}
        self._seen: set = set()
        self._pending: List[_Admitted] = []
        self._worker_free = [0.0] * self.options.workers
        self._service_by_tenant: Dict[str, float] = {}
        self._metrics: Dict[int, RequestMetrics] = {}
        self._rng = (random.Random(self.options.shuffle_seed)
                     if self.options.shuffle_seed is not None else None)
        self._next_batch = 0
        self.counters: Dict[str, int] = {
            "batches": 0, "batched_requests": 0, "batch_conflicts": 0,
            "compile_hits": 0, "compile_misses": 0, "rejected": 0,
        }

    # -- admission ---------------------------------------------------------

    def _tenant_limit(self, tenant: str) -> Optional[int]:
        spec = self.options.tenants.get(tenant, TenantSpec(tenant))
        return spec.device_heap_limit

    def _admit(self, request: ServeRequest) -> Optional[_Admitted]:
        """Resolve identity at arrival; a bad request is rejected here
        (``None``) without ever touching the queue."""
        metrics = RequestMetrics(
            request_id=request.request_id, tenant=request.tenant,
            arrival_s=request.arrival_s, dispatch_s=request.arrival_s,
            complete_s=request.arrival_s)
        self._metrics[request.request_id] = metrics
        if self.clock.record_events:
            self.clock.events.append(TraceEvent(
                LANE_CPU, f"admit req{request.request_id}",
                request.arrival_s, _ADMIT_EPS,
                track=f"req{request.request_id}"))
        try:
            source, artifact = request.resolve_source()
        except (ConfigError, FrontendError) as exc:
            metrics.status = "rejected"
            metrics.reason = str(exc)
            self.counters["rejected"] += 1
            return None
        # Identity is (source, artifact, base config): tenant heap
        # quotas are an execution-time knob, so all quota variants of
        # one source resolve to the same artifact-cache entry.
        key = (api._source_key(source), artifact, self._base_key)
        metrics.artifact = artifact
        return _Admitted(request, source, artifact, self.base_config,
                         key, metrics,
                         heap_limit=self._tenant_limit(request.tenant))

    # -- the event loop ----------------------------------------------------

    def run(self, requests: Sequence[ServeRequest]) -> ServeReport:
        """Serve every request; returns the report (also kept on
        ``self.report``)."""
        heap: List[Tuple[float, int, int, object]] = []
        seq = itertools.count()
        for request in requests:
            heapq.heappush(
                heap, (request.arrival_s, next(seq), 0, request))
        order: List[int] = [r.request_id for r in requests]
        while heap:
            now, _, kind, payload = heapq.heappop(heap)
            if kind == 0:
                admitted = self._admit(payload)
                if admitted is not None:
                    self._pending.append(admitted)
            elif kind == 1:
                # Completion: the request leaves the in-flight set and
                # its shared-mapping holds are released.
                if self.registry is not None:
                    self.registry.release(payload)
            # Drain every same-time event before dispatching, so
            # completions at t free their shared entries and arrivals
            # at t are all visible to the policy.
            if heap and heap[0][0] <= now:
                continue
            self._dispatch_all(now, heap, seq)
        self.report = self._build_report(order)
        return self.report

    def _dispatch_all(self, now: float, heap, seq) -> None:
        while self._pending:
            worker = self._free_worker(now)
            if worker is None:
                return
            batch = self._select_batch(now)
            self._run_batch(now, worker, batch, heap, seq)

    def _free_worker(self, now: float) -> Optional[int]:
        best, best_free = None, None
        for worker, free in enumerate(self._worker_free):
            if free <= now and (best_free is None or free < best_free):
                best, best_free = worker, free
        return best

    def _select_batch(self, now: float) -> List[_Admitted]:
        view = [a.request for a in self._pending]
        if self._rng is not None:
            self._rng.shuffle(view)
        chosen = self.policy.select(view, now, self._service_by_tenant)
        selected = next(a for a in self._pending
                        if a.request.request_id == chosen.request_id)
        batch = [selected]
        if self.options.batching:
            for admitted in self._pending:
                if len(batch) >= self.options.batch_limit:
                    break
                if admitted is selected or admitted.key != selected.key:
                    continue
                batch.append(admitted)
        members = set(id(a) for a in batch)
        self._pending = [a for a in self._pending
                         if id(a) not in members]
        return batch

    # -- dispatch ----------------------------------------------------------

    def _reject(self, admitted: _Admitted, now: float,
                reason: str) -> None:
        metrics = admitted.metrics
        metrics.status = "rejected"
        metrics.reason = reason
        metrics.dispatch_s = now
        metrics.complete_s = now
        self.counters["rejected"] += 1

    def _workload(self, admitted: _Admitted):
        workload = self._workloads.get(admitted.key)
        if workload is None:
            workload = self.session.compile(
                admitted.source, admitted.config, name=admitted.artifact)
            self._workloads[admitted.key] = workload
            self._inst_counts[admitted.key] = sum(
                1 for fn in workload.module.defined_functions()
                for _ in fn.instructions())
        return workload

    def _compile_cost_s(self, admitted: _Admitted, hit: bool) -> float:
        model = self.clock.model
        if hit:
            return COMPILE_HIT_CYCLES / model.cpu_freq_hz
        return (self._inst_counts[admitted.key] * COMPILE_CYCLES_PER_INST
                / model.cpu_freq_hz)

    def _run_batch(self, now: float, worker: int,
                   batch: List[_Admitted], heap, seq) -> None:
        clock = self.clock
        lane = self.lanes[worker]
        try:
            workload = self._workload(batch[0])
        except (FrontendError, ConfigError) as exc:
            for admitted in batch:
                self._reject(admitted, now, str(exc))
            return
        # Physical runs: one fresh machine per member, sharing offered
        # through the registry.  Execution happens "now"; only the
        # modelled spans below occupy simulated time.
        runs: List[Tuple[_Admitted, object, list]] = []
        for admitted in batch:
            rid = admitted.request.request_id
            if self.registry is not None:
                self.registry.set_active(rid)
            launch_log: list = []
            try:
                result = workload.run(
                    shared_mappings=self.registry,
                    launch_log=launch_log,
                    device_heap_limit=admitted.heap_limit)
            except (ConfigError, CgcmRuntimeError) as exc:
                if self.registry is not None:
                    self.registry.release(rid)
                self._reject(admitted, now, str(exc))
                continue
            finally:
                if self.registry is not None:
                    self.registry.set_active(None)
            runs.append((admitted, result, launch_log))
        if not runs:
            return

        batch_id = self._next_batch
        self._next_batch += 1
        self.counters["batches"] += 1
        self.counters["batched_requests"] += len(runs)

        # Launch signatures must agree for the grids to merge.
        signatures = [tuple((k, g) for k, g, _, _, _ in log)
                      for _, _, log in runs]
        merged = len(runs) > 1 and all(s == signatures[0]
                                       for s in signatures[1:])
        if len(runs) > 1 and not merged:
            self.counters["batch_conflicts"] += 1

        spans = []  # (admitted, result, compile_s, cpu_end, comm_end)
        for admitted, result, launch_log in runs:
            rid = admitted.request.request_id
            hit = self.options.cache and admitted.key in self._seen
            self._seen.add(admitted.key)
            compile_s = self._compile_cost_s(admitted, hit)
            self.counters["compile_hits" if hit
                          else "compile_misses"] += 1
            stream = clock.stream_create(f"req{rid}")
            if clock.record_events and now > admitted.request.arrival_s:
                clock.events.append(TraceEvent(
                    "queue", "queued", admitted.request.arrival_s,
                    now - admitted.request.arrival_s, track=stream))
            clock.schedule(lane, compile_s, stream,
                           f"compile {admitted.artifact}"
                           f"{' [hit]' if hit else ''}", after=(now,))
            cpu_end = clock.schedule(lane, result.cpu_seconds, stream,
                                     f"host {admitted.artifact}")
            comm_end = clock.schedule(LANE_COMM, result.comm_seconds,
                                      stream, f"xfer {admitted.artifact}")
            metrics = admitted.metrics
            metrics.dispatch_s = now
            metrics.compile_hit = hit
            metrics.compile_s = compile_s
            metrics.cpu_s = result.cpu_seconds
            metrics.comm_s = result.comm_seconds
            metrics.gpu_s = sum_in_order(d for _, _, _, _, d in launch_log)
            metrics.batch_id = batch_id
            metrics.batch_size = len(runs)
            spans.append((admitted, result, cpu_end, comm_end))

        # GPU spans: merged re-pricing when the signatures agree, the
        # per-member launches otherwise.
        gpu_ends: Dict[int, float] = {}
        model = clock.model
        if merged:
            ready = max(comm_end for _, _, _, comm_end in spans)
            stream = clock.stream_create(f"batch{batch_id}")
            end = ready
            for j, (kernel, grid) in enumerate(signatures[0]):
                total = sum(log[j][2] for _, _, log in runs)
                biggest = max(log[j][3] for _, _, log in runs)
                duration = model.kernel_launch_latency_s \
                    + model.gpu_time(total, biggest)
                end = clock.schedule(
                    LANE_GPU, duration, stream,
                    f"{kernel} x{len(runs)}", after=(ready,))
            for admitted, _, _, _ in spans:
                gpu_ends[admitted.request.request_id] = end
        else:
            for (admitted, _, _, comm_end), (_, _, log) \
                    in zip(spans, runs):
                rid = admitted.request.request_id
                end = comm_end
                for kernel, grid, _, _, duration in log:
                    end = clock.schedule(LANE_GPU, duration, f"req{rid}",
                                         kernel, after=(comm_end,))
                gpu_ends[rid] = end

        busy_until = now
        for (admitted, result, cpu_end, comm_end), (_, _, log) \
                in zip(spans, runs):
            rid = admitted.request.request_id
            done = max(cpu_end, comm_end, gpu_ends[rid])
            metrics = admitted.metrics
            metrics.complete_s = done
            counters = result.counters
            metrics.shared_attaches = counters.get("shared_attaches", 0)
            metrics.htod_bytes = counters.get("htod_bytes", 0)
            metrics.transfer_bytes_saved = \
                counters.get("htod_bytes_saved", 0)
            metrics.device_evictions = counters.get("device_evictions", 0)
            metrics.sentinel_units = counters.get("sentinel_units", 0)
            metrics.cpu_fallback_launches = \
                counters.get("cpu_fallback_launches", 0)
            metrics.stdout = result.stdout
            metrics.observable = result.observable()
            report = result.sanitizer_report
            metrics.sanitizer_clean = \
                None if report is None else report.clean
            # Tenant service: own compile/host/transfer work plus a
            # per-member slice of the (merged or not) GPU time.
            self._service_by_tenant[admitted.request.tenant] = \
                self._service_by_tenant.get(admitted.request.tenant, 0.0) \
                + metrics.compile_s + metrics.cpu_s + metrics.comm_s \
                + metrics.gpu_s / len(runs)
            heapq.heappush(heap, (done, next(seq), 1, rid))
            if cpu_end > busy_until:
                busy_until = cpu_end
        self._worker_free[worker] = busy_until
        heapq.heappush(heap, (busy_until, next(seq), 2, worker))

    # -- reporting ---------------------------------------------------------

    def _build_report(self, order: List[int]) -> ServeReport:
        metrics = [self._metrics[rid] for rid in order
                   if rid in self._metrics]
        ok = [m for m in metrics if m.status == "ok"]
        makespan = max((m.complete_s for m in ok), default=0.0)
        latencies = sorted(m.latency_s for m in ok)
        counters = dict(self.counters)
        for name in ("shared_attaches", "device_evictions",
                     "sentinel_units", "cpu_fallback_launches"):
            counters[name] = sum(getattr(m, name) for m in ok)
        counters["htod_bytes"] = sum(m.htod_bytes for m in ok)
        counters["transfer_bytes_saved"] = \
            sum(m.transfer_bytes_saved for m in ok)
        if self.registry is not None:
            for name, value in self.registry.stats().items():
                counters[f"sharing_{name}"] = value
        tenants: Dict[str, Dict[str, float]] = {}
        for m in metrics:
            t = tenants.setdefault(m.tenant, {
                "requests": 0.0, "ok": 0.0, "rejected": 0.0,
                "service_s": 0.0, "mean_latency_s": 0.0})
            t["requests"] += 1
            t["ok" if m.status == "ok" else "rejected"] += 1
            if m.status == "ok":
                t["mean_latency_s"] += m.latency_s
        for name, t in tenants.items():
            t["service_s"] = self._service_by_tenant.get(name, 0.0)
            if t["ok"]:
                t["mean_latency_s"] /= t["ok"]
        policy_name = getattr(self.policy, "name",
                              type(self.policy).__name__)
        options = {
            "workers": self.options.workers,
            "policy": policy_name,
            "batching": self.options.batching,
            "sharing": self.options.sharing,
            "cache": self.options.cache,
            "sanitize": self.options.sanitize,
            "batch_limit": self.options.batch_limit,
            "shuffle_seed": self.options.shuffle_seed,
            "compile_cycles_per_inst": COMPILE_CYCLES_PER_INST,
        }
        return ServeReport(
            metrics=metrics,
            makespan_s=makespan,
            throughput_rps=(len(ok) / makespan) if makespan > 0 else 0.0,
            latency_p50_s=_percentile(latencies, 50),
            latency_p95_s=_percentile(latencies, 95),
            latency_p99_s=_percentile(latencies, 99),
            mean_latency_s=(sum_in_order(latencies) / len(latencies)
                            if latencies else 0.0),
            counters=counters,
            lane_totals=self.clock.totals(),
            tenants=tenants,
            options=options,
            events=list(self.clock.events),
        )


def serve(requests: Sequence[ServeRequest],
          options: Optional[ServeOptions] = None) -> ServeReport:
    """One-shot convenience: build a :class:`ServeLoop` and run it."""
    return ServeLoop(options).run(requests)
