"""Analytic cost model and simulated clock.

All timing in the system is *modelled*, never measured: interpreting an
IR instruction on the CPU, running a kernel grid, or copying bytes over
the simulated PCIe bus adds model time to a shared :class:`SimClock`.
This keeps every benchmark deterministic and machine-independent while
preserving the cost structure the paper's evaluation depends on:

* CPU work: one pipeline at ``cpu_freq_hz`` (Core 2 Quad, 2.40 GHz).
* GPU work: ``gpu_cores`` lanes at ``gpu_freq_hz`` (GTX 480: 480 cores
  at 1.40 GHz), plus a fixed launch latency per kernel spawn.
* Communication: a fixed per-``memcpy`` latency plus bytes/bandwidth --
  the term that makes *cyclic* patterns catastrophically slower than
  *acyclic* ones.

The clock has two timing disciplines:

* **Serial** (default): every span starts when the previous one ends,
  so elapsed time is the *sum* of the three lanes.  This reproduces
  the paper's fully synchronous schedules (Figure 2) bit-for-bit.
* **Streams** (:meth:`SimClock.enable_streams`): asynchronous spans are
  placed by an overlap-aware scheduler that keeps a host cursor, one
  busy-cursor per engine lane, and one FIFO cursor per named stream,
  plus explicit cross-stream dependency edges (CUDA-event analogues).
  Elapsed time is then the *critical path* over all cursors rather
  than the lane sum.  Lane sums keep accumulating identically in both
  disciplines, so per-lane accounting (:meth:`breakdown`,
  :meth:`totals`) never changes meaning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

#: Timeline lanes for the event trace (paper Figure 2).
LANE_CPU = "cpu"
LANE_GPU = "gpu"
LANE_COMM = "comm"

#: Conventional stream names used by the runtime and machine.  Streams
#: are created on demand -- these are just the well-known ones.
STREAM_H2D = "h2d"
STREAM_D2H = "d2h"
STREAM_COMPUTE = "compute"


def sum_in_order(values: Iterable[float]) -> float:
    """``sum(values)``, added strictly left to right.

    Python 3.12's ``sum()`` compensates float rounding, so its last
    digit can differ from 3.11's; modeled numbers sum with this
    instead, and read the same under both.
    """
    total = 0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class CostModel:
    """Machine parameters of the simulated platform (paper section 6.1).

    Frequencies and core counts match the paper's testbed (Core 2 Quad
    2.40 GHz; GTX 480: 480 CUDA cores at 1.40 GHz).  The fixed latency
    constants are scaled down by roughly the same factor as the
    benchmark problem sizes (which run ~100-1000x smaller under the
    Python interpreter), preserving the paper's latency-to-compute
    ratio: a cyclic per-launch round trip still costs orders of
    magnitude more than the loop body it interrupts.
    """

    cpu_freq_hz: float = 2.4e9
    gpu_freq_hz: float = 1.4e9
    gpu_cores: int = 480
    #: Fixed cost of spawning one kernel (driver + PCIe doorbell).
    kernel_launch_latency_s: float = 0.15e-6
    #: Fixed cost of one cuMemcpy call in either direction.
    transfer_latency_s: float = 1.4e-6
    #: Sustained PCIe bandwidth for bulk copies.
    transfer_bandwidth_bps: float = 6e9
    #: Fixed cost of one cuMemAlloc.
    device_alloc_latency_s: float = 0.08e-6
    #: Fixed cost of one cuMemFree (driver frees are cheaper than
    #: allocations on real hardware, but the measured gap is within the
    #: model's noise floor, so both default to the same constant; they
    #: are charged -- and tunable -- independently).
    device_free_latency_s: float = 0.08e-6
    #: Modelled wait before retrying a transiently failed driver call
    #: (alloc/transfer/launch faults injected by the resilience layer).
    #: Charged on the lane of the failed call per retry attempt.
    fault_backoff_s: float = 2.0e-6
    #: Cycles charged per interpreted IR operation (CPU lane).
    cpu_cycles_per_op: float = 1.0
    #: Cycles charged per interpreted IR operation (GPU lane, per thread).
    gpu_cycles_per_op: float = 1.0

    def cpu_time(self, ops: float) -> float:
        """Seconds of CPU time for ``ops`` interpreted operations."""
        return ops * self.cpu_cycles_per_op / self.cpu_freq_hz

    def gpu_time(self, total_thread_ops: float, max_thread_ops: float) -> float:
        """Seconds of GPU time for one grid.

        The grid cannot finish faster than its longest thread, nor
        faster than the aggregate work spread across every core.
        """
        parallel = total_thread_ops / self.gpu_cores
        cycles = max(parallel, max_thread_ops) * self.gpu_cycles_per_op
        return cycles / self.gpu_freq_hz

    def transfer_time(self, num_bytes: int) -> float:
        """Seconds for one host<->device copy of ``num_bytes``."""
        return (self.transfer_latency_s
                + num_bytes / self.transfer_bandwidth_bps)


@dataclass
class TraceEvent:
    """One span on the simulated timeline (for schedule rendering).

    ``track`` names the scheduling row the span was placed on.  For
    serial spans it equals the lane; for asynchronous spans it is the
    stream name (``h2d``/``d2h``/``compute``/...), which is what the
    Chrome-trace exporter uses to give each stream its own row.
    """

    lane: str
    label: str
    start: float
    duration: float
    track: str = ""

    def __post_init__(self) -> None:
        if not self.track:
            self.track = self.lane

    @property
    def end(self) -> float:
        return self.start + self.duration


class SimClock:
    """Accumulates modelled time, bucketed by lane, on one timeline.

    By default the execution model is fully serialized (the paper's
    schedules in Figure 2 show exactly this for the naive and
    inspector-executor patterns): each recorded span starts when the
    previous one ends.  After :meth:`enable_streams`, spans issued via
    :meth:`schedule` may overlap; see the module docstring.
    """

    def __init__(self, model: Optional[CostModel] = None,
                 record_events: bool = False):
        self.model = model if model is not None else CostModel()
        self.lanes: Dict[str, float] = {LANE_CPU: 0.0, LANE_GPU: 0.0,
                                        LANE_COMM: 0.0}
        self.record_events = record_events
        self.events: List[TraceEvent] = []
        #: Counters useful to tests and the evaluation tables.
        self.counters: Dict[str, int] = {}
        #: Overlap scheduler state -- inert until :meth:`enable_streams`.
        self.streams_enabled = False
        self._host = 0.0
        self._engines: Dict[str, float] = {LANE_CPU: 0.0, LANE_GPU: 0.0,
                                           LANE_COMM: 0.0}
        self._streams: Dict[str, float] = {}

    # -- serial accounting (identical in both disciplines) -----------------

    @property
    def now(self) -> float:
        """Current position on the unified serial timeline."""
        return sum_in_order(self.lanes.values())

    @property
    def cpu_seconds(self) -> float:
        return self.lanes[LANE_CPU]

    @property
    def gpu_seconds(self) -> float:
        return self.lanes[LANE_GPU]

    @property
    def comm_seconds(self) -> float:
        return self.lanes[LANE_COMM]

    @property
    def total_seconds(self) -> float:
        return self.now

    @property
    def serial_total_s(self) -> float:
        """Lane-sum elapsed time: what a fully serialized schedule of
        the same spans costs.  Identical to :attr:`total_seconds`."""
        return self.now

    @property
    def critical_path_s(self) -> float:
        """Overlap-aware elapsed time.

        In serial mode this *is* the lane sum.  In streams mode it is
        the furthest point any cursor (host, engine, or stream) has
        reached.  Every span occupies exactly one engine, so the
        critical path can never exceed the serial lane sum; the min()
        clamp only guards against ULP-level float-associativity drift
        between the chained cursor sums and the lane-grouped sums.
        """
        if not self.streams_enabled:
            return self.now
        cursor = self._host
        for value in self._engines.values():
            if value > cursor:
                cursor = value
        for value in self._streams.values():
            if value > cursor:
                cursor = value
        return min(cursor, self.serial_total_s)

    @property
    def elapsed_s(self) -> float:
        """Modelled wall-clock: overlap-aware when streams are on."""
        return self.critical_path_s

    def utilisation(self) -> Dict[str, float]:
        """Busy fraction of the elapsed wall-clock per lane.

        Under the serial discipline the fractions sum to 1 (same as
        :meth:`breakdown`); under streams a lane overlapped with others
        can approach 1.0 on its own.
        """
        elapsed = self.elapsed_s
        if elapsed <= 0:
            return {lane: 0.0 for lane in self.lanes}
        return {lane: t / elapsed for lane, t in self.lanes.items()}

    # -- serial issue ------------------------------------------------------

    def advance(self, lane: str, seconds: float, label: str = "") -> None:
        """Append a blocking span of ``seconds`` to ``lane``.

        Blocking spans stall the host: in streams mode the span starts
        at max(host cursor, lane-engine cursor) and drags both to its
        end.  In serial mode this method is bit-for-bit the historical
        behaviour (span starts at :attr:`now`).
        """
        if lane not in self.lanes:
            raise ValueError(
                f"unknown timeline lane {lane!r}; expected one of "
                f"{sorted(self.lanes)}")
        if seconds < 0:
            raise ValueError(f"negative duration {seconds}")
        if not self.streams_enabled:
            if self.record_events and seconds > 0:
                self.events.append(TraceEvent(lane, label, self.now, seconds))
            self.lanes[lane] += seconds
            return
        start = max(self._host, self._engines[lane])
        if self.record_events and seconds > 0:
            self.events.append(TraceEvent(lane, label, start, seconds))
        self.lanes[lane] += seconds
        end = start + seconds
        self._host = end
        self._engines[lane] = end

    # -- overlap scheduler -------------------------------------------------

    def enable_streams(self) -> None:
        """Switch to the overlap-aware discipline (irreversible)."""
        self.streams_enabled = True

    def add_lane(self, name: str) -> str:
        """Register an extra engine lane (idempotent) and return it.

        The serve layer models a multicore host by giving each worker
        its own CPU lane (``cpu0``, ``cpu1``, ...): spans on distinct
        lanes overlap, spans on one lane serialize, exactly like the
        built-in gpu/comm engine lanes.  Lane totals show up in
        :meth:`totals` and :meth:`breakdown` alongside the built-ins.
        """
        self.lanes.setdefault(name, 0.0)
        self._engines.setdefault(name, 0.0)
        return name

    def stream_create(self, name: str) -> str:
        """Register a named FIFO stream (idempotent) and return it."""
        self._streams.setdefault(name, 0.0)
        return name

    def stream_cursor(self, name: str) -> float:
        """Completion time of the last span issued to ``name``."""
        return self._streams.get(name, 0.0)

    @property
    def host_time_s(self) -> float:
        """The host cursor (streams mode); serial :attr:`now` otherwise."""
        return self._host if self.streams_enabled else self.now

    def schedule(self, lane: str, seconds: float, stream: str,
                 label: str = "",
                 after: Iterable[float] = ()) -> float:
        """Issue an asynchronous span on ``stream`` occupying ``lane``.

        The span starts no earlier than the host cursor at issue time
        (the API call itself), the stream's FIFO cursor, the engine
        lane's busy cursor, and every dependency finish-time in
        ``after`` (event waits).  The host does *not* block; the
        stream and engine cursors move to the span's end, which is
        returned (usable as an event timestamp for later waits).

        Before :meth:`enable_streams` this degrades to a blocking
        :meth:`advance`, so asynchronous call-sites behave exactly like
        their synchronous counterparts under the serial discipline.
        """
        if not self.streams_enabled:
            self.advance(lane, seconds, label)
            return self.now
        if lane not in self.lanes:
            raise ValueError(
                f"unknown timeline lane {lane!r}; expected one of "
                f"{sorted(self.lanes)}")
        if seconds < 0:
            raise ValueError(f"negative duration {seconds}")
        start = max(self._host, self._engines[lane],
                    self._streams.get(stream, 0.0))
        for dep in after:
            if dep > start:
                start = dep
        if self.record_events and seconds > 0:
            self.events.append(
                TraceEvent(lane, label, start, seconds, track=stream))
        self.lanes[lane] += seconds
        end = start + seconds
        self._engines[lane] = end
        self._streams[stream] = end
        return end

    def event_record(self, stream: str) -> float:
        """CUDA ``cuEventRecord`` analogue: timestamp the stream's
        current FIFO cursor.  The returned float *is* the event."""
        return self._streams.get(stream, 0.0)

    def stream_wait_event(self, stream: str, event_time: float) -> None:
        """CUDA ``cuStreamWaitEvent`` analogue: the next span issued to
        ``stream`` starts no earlier than ``event_time``."""
        if event_time > self._streams.get(stream, 0.0):
            self._streams[stream] = event_time

    def stream_synchronize(self, stream: str) -> None:
        """CUDA ``cuStreamSynchronize`` analogue: block the host until
        every span issued to ``stream`` has completed."""
        cursor = self._streams.get(stream, 0.0)
        if cursor > self._host:
            self._host = cursor

    def host_wait(self, until: float) -> None:
        """Block the host until an absolute finish time (an event).

        The multi-GPU coordinator uses this to make a synchronous
        driver call (e.g. a blocking unmap copy) wait for the async
        collectives feeding it.  A no-op under the serial discipline,
        where the host is never ahead of anything.
        """
        if self.streams_enabled and until > self._host:
            self._host = until

    def device_synchronize(self) -> None:
        """CUDA ``cuCtxSynchronize`` analogue: block the host until
        every outstanding span on every engine has completed."""
        for value in self._engines.values():
            if value > self._host:
                self._host = value
        for value in self._streams.values():
            if value > self._host:
                self._host = value

    # -- bookkeeping -------------------------------------------------------

    def count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def breakdown(self) -> Dict[str, float]:
        """Fractions of total time per lane (empty-total safe)."""
        total = self.total_seconds
        if total <= 0:
            return {lane: 0.0 for lane in self.lanes}
        return {lane: t / total for lane, t in self.lanes.items()}

    def snapshot(self) -> Tuple[float, float, float]:
        return (self.cpu_seconds, self.gpu_seconds, self.comm_seconds)

    def totals(self) -> Dict[str, float]:
        """Per-lane elapsed seconds, keyed by lane name.

        The engine-equivalence suite compares these dictionaries for
        *exact* float equality between the tree-walker and the source
        engine: block-fused cost charging must be invisible down to
        the last bit of every simulated timestamp.
        """
        return dict(self.lanes)
