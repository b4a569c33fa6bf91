"""The benchmark's four workloads and the loop that measures them.

``bench/run.py`` starts one process per workload::

    python3 -m bench.workloads --workload W --seed N --seconds S --trace 0|1

which prints one JSON line: metrics, raw samples and provenance.

A run has three phases.  *Reference* ops compute what the modeled
speedups divide by.  *Set-up* ops prepare what the timed phase needs;
set-up repeats while the phase has run for less than a second (at
least once) and ``setup_s`` is the median over repetitions.  The *timed*
phase runs each workload's fixed number of rounds; a workload whose ops
repeat then runs further whole cycles until ``--seconds`` have passed.
Each op is a call into the public API (``Session.compile``,
``CompiledWorkload.run``, ``ServeLoop.run``) timed from outside; its
outputs are checked after its timer stops, and a mismatch or an
exception counts as a failed op without stopping the run.  Modeled
(``sim``) metrics, layer counts and peak memory cover the first cycle,
so they do not depend on how many rounds the host manages.

Host times are *speed-scaled*: a :class:`~bench.speed.SpeedProbe`
samples the machine's speed throughout the run, and each op's time
(less the probe's own) is scaled to the time it would have taken at a
fixed reference speed.  Unscaled times and scale factors stay in the
samples.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
    raise SystemExit(f"bench: expected repro under {ROOT / 'src'}, "
                     f"imported {repro.__file__}")

from repro.api import Session  # noqa: E402
from repro.core.config import CgcmConfig, OptLevel  # noqa: E402
from repro.gpu.topology import Topology  # noqa: E402
from repro.scenarios.generator import generate_program  # noqa: E402
from repro.serve import ServeLoop, ServeOptions  # noqa: E402
from repro.serve.mixes import build_mix  # noqa: E402
from repro.workloads import ALL_WORKLOADS  # noqa: E402

from bench import golden  # noqa: E402
from bench.speed import SpeedProbe  # noqa: E402
from bench.trace import Tracer, ir_insts, metric  # noqa: E402

Numbers = Dict[str, float]


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def add(totals: Numbers, numbers: Numbers) -> None:
    for name, value in numbers.items():
        totals[name] = totals.get(name, 0) + value


@dataclass
class Op:
    """One timed call into the public API."""

    #: The distinct (program, config) pair, or serve rung, it runs.
    key: str
    call: Callable[[], Any]
    #: Outputs of ``call``'s result that mismatched their reference;
    #: None for reference and set-up ops, which only have to return.
    failures: Optional[Callable[[Any], int]] = None
    #: Ops it counts as: 1, or the requests a serve rung answers.
    weight: int = 1


# -- modeled layer numbers ----------------------------------------------------
#
# Per op, additive numbers are taken from what the public API returned
# (CompileReport, ExecutionResult, ServeReport, Session.cache_stats) and
# summed over the first cycle; names starting with "_" feed derived
# metrics only.

#: Unit, clock and better direction of each model-derived layer metric.
MODEL_UNITS = {
    "transforms.doall_kernels": ("count", "none", "higher"),
    "transforms.glue_kernels": ("count", "none", "higher"),
    "transforms.promoted_loops": ("count", "none", "higher"),
    "transforms.promoted_allocas": ("count", "none", "higher"),
    "transforms.ir_insts_out": ("count", "none", "lower"),
    "gpu.sim_cpu_s": ("sim_s", "sim", "lower"),
    "gpu.sim_gpu_s": ("sim_s", "sim", "lower"),
    "gpu.sim_comm_s": ("sim_s", "sim", "lower"),
    "gpu.htod_mb": ("MB", "sim", "lower"),
    "gpu.dtoh_mb": ("MB", "sim", "lower"),
    "gpu.copies": ("count", "none", "lower"),
    "gpu.launches": ("count", "none", "lower"),
    "gpu.overlap_frac": ("frac", "sim", "higher"),
    "multigpu.p2p_mb": ("MB", "sim", "lower"),
    "multigpu.p2p_copies": ("count", "none", "lower"),
    "multigpu.multi_device_launches": ("count", "none", "higher"),
    "api.cache_hits": ("count", "none", "higher"),
    "api.cache_misses": ("count", "none", "lower"),
    "api.hit_ratio": ("frac", "none", "higher"),
    "serve.batches": ("count", "none", "lower"),
    "serve.batched_requests": ("count", "none", "higher"),
    "serve.shared_attaches": ("count", "none", "higher"),
    "serve.h2d_saved_frac": ("frac", "sim", "higher"),
    "serve.queue_wait_us_p50": ("sim_us", "sim", "lower"),
    "serve.compile_hits": ("count", "none", "higher"),
}


def compile_numbers(report) -> Numbers:
    """What the pass pipeline did to one artifact."""
    return {"transforms.doall_kernels": len(report.doall_kernels),
            "transforms.glue_kernels": len(report.glue_kernels),
            "transforms.promoted_loops": report.promoted_loops,
            "transforms.promoted_allocas": report.promoted_allocas,
            "transforms.ir_insts_out": ir_insts(report.module)}


def run_numbers(result) -> Numbers:
    """The modeled device's work in one run (the ``gpu`` layer is the
    SimClock model, not measured hardware)."""
    counter = result.counters.get
    return {"gpu.sim_cpu_s": result.cpu_seconds,
            "gpu.sim_gpu_s": result.gpu_seconds,
            "gpu.sim_comm_s": result.comm_seconds,
            "gpu.htod_mb": counter("htod_bytes", 0) / 1e6,
            "gpu.dtoh_mb": counter("dtoh_bytes", 0) / 1e6,
            "gpu.copies": counter("htod_copies", 0)
            + counter("dtoh_copies", 0),
            "gpu.launches": counter("kernel_launches", 0),
            "multigpu.p2p_mb": counter("p2p_bytes", 0) / 1e6,
            "multigpu.p2p_copies": counter("p2p_copies", 0),
            "multigpu.multi_device_launches":
                counter("multi_device_launches", 0),
            "_total_s": result.total_seconds,
            "_critical_s": result.critical_path_seconds}


def cache_numbers(session: Session) -> Numbers:
    """The artifact-cache lookups one op made through its session."""
    stats = session.cache_stats()
    return {"api.cache_hits": stats["hits"],
            "api.cache_misses": stats["misses"]}


def model_metrics(totals: Numbers) -> Dict[str, Dict[str, Any]]:
    """Every model-derived layer metric, zero for idle layers."""
    values = dict(totals)
    total, critical = totals.get("_total_s", 0), totals.get("_critical_s", 0)
    values["gpu.overlap_frac"] = 1 - critical / total if total else 0.0
    moved = totals.get("_htod_bytes", 0) + totals.get("_saved_bytes", 0)
    values["serve.h2d_saved_frac"] = \
        totals.get("_saved_bytes", 0) / moved if moved else 0.0
    lookups = totals.get("api.cache_hits", 0) \
        + totals.get("api.cache_misses", 0)
    values["api.hit_ratio"] = \
        totals.get("api.cache_hits", 0) / lookups if lookups else 0.0
    return {name: metric(values.get(name, 0), unit, clock, better)
            for name, (unit, clock, better) in MODEL_UNITS.items()}


# -- the workloads ------------------------------------------------------------


class Workload:
    """What the measurement loop asks of a workload.

    ``limit`` shrinks the op list (smoke tests); ``goldens`` is the
    loaded ``golden.json``.
    """

    name = ""
    #: Rounds every run measures.  Each workload's rounds take about
    #: 10 s (``run_seconds``) on the development machine at full speed;
    #: at half speed, as when other tenants load it, the four workloads
    #: still run in about two minutes together.
    rounds = 1
    #: Rounds that run every distinct op once; the first cycle.
    cycle_rounds = 1
    #: Whether later cycles repeat the first one's ops, so extra cycles
    #: only add samples and may run until ``--seconds`` have passed.
    repeats = True

    def __init__(self, seed: int, limit: Optional[int],
                 goldens: Dict[str, Any]):
        self.seed = seed
        #: Reference and set-up failures; any makes the run incorrect.
        self.errors: List[str] = []

    def reference_ops(self) -> List[Op]:
        """Untimed work the modeled metrics compare against."""
        return []

    def setup_ops(self, rep: int) -> List[Op]:
        raise NotImplementedError

    def round_ops(self, round_: int) -> List[Op]:
        raise NotImplementedError

    def summarize(self, key: str, output) -> Numbers:
        """Additive modeled numbers of one first-cycle op's output."""
        raise NotImplementedError

    def sim_metrics(self) -> Dict[str, Dict[str, Any]]:
        raise NotImplementedError

    def layer_numbers(self, totals: Numbers) -> Numbers:
        """The first cycle's summed numbers plus any the workload
        gathered elsewhere."""
        return totals


class PaperWarm(Workload):
    """The 24 paper programs, compiled in set-up, run warm."""

    name = "paper-warm"
    config = CgcmConfig()
    rounds = 8

    def __init__(self, seed: int, limit: Optional[int],
                 goldens: Dict[str, Any]):
        super().__init__(seed, limit, goldens)
        self.programs = ALL_WORKLOADS[:limit] if limit else ALL_WORKLOADS
        self.expected = goldens["programs"]
        self.seq_s: Dict[str, float] = {}
        self.compiled: Dict[str, Any] = {}
        self.critical_s: Dict[str, float] = {}

    def make_session(self) -> Session:
        return Session()

    def reference_ops(self) -> List[Op]:
        """Modeled sequential-CPU time of every program."""
        session = Session()
        config = CgcmConfig(opt_level=OptLevel.SEQUENTIAL)
        return [Op(p.name, partial(self._reference, session, config, p))
                for p in self.programs]

    def _reference(self, session: Session, config: CgcmConfig,
                   program) -> None:
        result = session.compile(program.source, config,
                                 name=program.name).run()
        self.seq_s[program.name] = result.total_seconds

    def setup_ops(self, rep: int) -> List[Op]:
        session = self.make_session()
        self.compiled = {}
        return [Op(p.name, partial(self._setup, session, p))
                for p in self.programs]

    def _setup(self, session: Session, program) -> None:
        workload = session.compile(program.source, self.config,
                                   name=program.name)
        workload.run()
        self.compiled[program.name] = workload

    def round_ops(self, round_: int) -> List[Op]:
        names = [p.name for p in self.programs]
        random.Random(f"{self.seed}:{round_}").shuffle(names)
        return [Op(name, partial(self._run, name),
                   partial(self._failures, name)) for name in names]

    def _run(self, name: str):
        return self.compiled[name].run()

    def _failures(self, name: str, result) -> int:
        return 0 if golden.matches(result.observable(),
                                   self.expected[name]) else 1

    def summarize(self, key: str, result) -> Numbers:
        self.critical_s[key] = result.critical_path_seconds
        return run_numbers(result)

    def sim_metrics(self) -> Dict[str, Dict[str, Any]]:
        speedups = [self.seq_s[key] / s for key, s in self.critical_s.items()
                    if key in self.seq_s and s > 0]
        return {"sim_s": metric(sum(self.critical_s.values()), "sim_s",
                                "sim"),
                "sim_speedup_geomean": metric(geomean(speedups), "x",
                                              "sim", "higher")}

    def layer_numbers(self, totals: Numbers) -> Numbers:
        totals = dict(totals)
        for workload in self.compiled.values():
            add(totals, compile_numbers(workload.report))
        return totals


class MultiDevice(PaperWarm):
    """The same 24 programs on a 4-device ring with streams."""

    name = "multi-device"
    config = CgcmConfig(streams=True)
    rounds = 2

    def make_session(self) -> Session:
        return Session(topology=Topology.ring(4))


class FreshCompile(Workload):
    """Generated programs, each compiled cold under three configs."""

    name = "fresh-compile"
    programs_per_round = 40
    rounds = cycle_rounds = 2
    #: Every op compiles a program no earlier op compiled, so a run
    #: measures exactly its rounds.
    repeats = False
    #: Generator seed of the program corpus.  It is the same for every
    #: ``--seed``, which orders the ops: a geomean over 80 random
    #: programs moves by several percent from one corpus to another,
    #: which would hide the changes the benchmark must show.
    corpus_seed = 0
    configs = (("sequential", CgcmConfig(opt_level=OptLevel.SEQUENTIAL)),
               ("optimized", CgcmConfig()),
               ("streams", CgcmConfig(streams=True)))

    def __init__(self, seed: int, limit: Optional[int],
                 goldens: Dict[str, Any]):
        super().__init__(seed, limit, goldens)
        self.per_round = limit or self.programs_per_round
        self.programs: List[Any] = []
        self.sim_s = 0.0

    def setup_ops(self, rep: int) -> List[Op]:
        return [Op("generate", self._generate)]

    def _generate(self) -> None:
        self.programs = [generate_program(self.corpus_seed, i)
                         for i in range(self.per_round * self.rounds)]

    def round_ops(self, round_: int) -> List[Op]:
        ops = [Op(f"{program.name}/{label}",
                  partial(self._compile_run, program, config),
                  partial(self._failures, program))
               for program in self.programs[round_ * self.per_round:
                                            (round_ + 1) * self.per_round]
               for label, config in self.configs]
        random.Random(f"{self.seed}:{round_}").shuffle(ops)
        return ops

    @staticmethod
    def _compile_run(program, config):
        session = Session()
        workload = session.compile(program.source, config, name=program.name)
        return session, workload, workload.run()

    @staticmethod
    def _failures(program, output) -> int:
        _, _, result = output
        return 0 if result.stdout == program.expected_stdout else 1

    def summarize(self, key: str, output) -> Numbers:
        session, workload, result = output
        self.sim_s += result.critical_path_seconds
        return {**compile_numbers(workload.report), **run_numbers(result),
                **cache_numbers(session)}

    def sim_metrics(self) -> Dict[str, Dict[str, Any]]:
        return {"sim_s": metric(self.sim_s, "sim_s", "sim")}


class ServeLadder(Workload):
    """The serve mix at four offered rates, open loop in modeled time."""

    name = "serve-ladder"
    rates = (45_000, 55_000, 65_000, 75_000)
    rounds = cycle_rounds = len(rates)
    requests_per_rung = 400
    #: Offered rate whose latencies are reported.
    latency_rate = 55_000
    #: The p99 latency limit of ``sim_max_rps``.
    p99_limit_s = 1e-3

    def __init__(self, seed: int, limit: Optional[int],
                 goldens: Dict[str, Any]):
        super().__init__(seed, limit, goldens)
        self.requests = limit or self.requests_per_rung
        self.reference_outputs = goldens["serve"]
        self.expected: Dict[str, Dict[str, Any]] = {}
        self.ladder: List[list] = []
        #: Per rung of the first ladder: (p50 s, p99 s, completed req/s).
        self.latency: Dict[str, Tuple[float, float, float]] = {}
        self.queue_wait_us_p50 = 0.0

    def setup_ops(self, rep: int) -> List[Op]:
        return [Op("mix", self._build)]

    def _build(self) -> None:
        self.ladder = [
            build_mix(self.requests, seed=self.seed * len(self.rates) + i,
                      arrival_spread_s=self.requests / rate)
            for i, rate in enumerate(self.rates)]
        self.expected, missing = {}, []
        for label, source, artifact in golden.serve_artifacts():
            entry = self.reference_outputs.get(label)
            if entry is None or \
                    entry["source_sha256"] != golden.source_sha256(source):
                missing.append(label)
            else:
                self.expected[artifact] = entry
        if missing:
            raise LookupError(f"no reference for {', '.join(missing)}; "
                              "rerun bench/golden.py")

    def round_ops(self, round_: int) -> List[Op]:
        rung = round_ % len(self.rates)
        return [Op(self._key(self.rates[rung]),
                   partial(self._serve, self.ladder[rung]),
                   self._failures, weight=self.requests)]

    @staticmethod
    def _key(rate: int) -> str:
        return f"{rate}rps"

    @staticmethod
    def _serve(requests):
        session = Session()
        return session, ServeLoop(ServeOptions(session=session)).run(requests)

    def _failures(self, output) -> int:
        _, report = output
        bad = abs(len(report.metrics) - self.requests)
        for m in report.metrics:
            expected = self.expected.get(m.artifact)
            if m.status != "ok" or expected is None \
                    or not golden.matches(m.observable, expected):
                bad += 1
        return min(bad, self.requests)

    def summarize(self, key: str, output) -> Numbers:
        session, report = output
        self.latency[key] = (report.latency_p50_s, report.latency_p99_s,
                             report.throughput_rps)
        if key == self._key(self.latency_rate):
            waits = [m.queue_wait_s for m in report.ok]
            self.queue_wait_us_p50 = \
                statistics.median(waits) * 1e6 if waits else 0.0
        counter = report.counters.get
        ok = report.ok
        return {"gpu.sim_cpu_s": sum(m.cpu_s for m in ok),
                "gpu.sim_gpu_s": sum(m.gpu_s for m in ok),
                "gpu.sim_comm_s": sum(m.comm_s for m in ok),
                "gpu.htod_mb": counter("htod_bytes", 0) / 1e6,
                "serve.batches": counter("batches", 0),
                "serve.batched_requests": counter("batched_requests", 0),
                "serve.shared_attaches": counter("shared_attaches", 0),
                "serve.compile_hits": counter("compile_hits", 0),
                "_htod_bytes": counter("htod_bytes", 0),
                "_saved_bytes": counter("transfer_bytes_saved", 0),
                **cache_numbers(session)}

    def sim_metrics(self) -> Dict[str, Dict[str, Any]]:
        if len(self.latency) != len(self.rates):
            return {}
        p50, p99, _ = self.latency[self._key(self.latency_rate)]
        meeting = [rate for rate in self.rates
                   if self.latency[self._key(rate)][1] <= self.p99_limit_s
                   and self.latency[self._key(rate)][2] >= 0.95 * rate]
        return {
            "sim_req_us_p50": metric(p50 * 1e6, "sim_us", "sim"),
            "sim_req_us_p99": metric(p99 * 1e6, "sim_us", "sim"),
            "sim_max_rps": metric(max(meeting, default=0), "req/sim_s",
                                  "sim", "higher"),
        }

    def layer_numbers(self, totals: Numbers) -> Numbers:
        return {**totals, "serve.queue_wait_us_p50": self.queue_wait_us_p50}


WORKLOADS = {w.name: w for w in (PaperWarm, FreshCompile, MultiDevice,
                                 ServeLadder)}

#: Set-up repeats while the set-up phase has run for less than this; a
#: set-up that alone takes longer runs once.
SETUP_BUDGET_S = 1.0


# -- measurement --------------------------------------------------------------


#: Fields of one op record, in list order.
PHASE, ROUND, KEY, WEIGHT, BEGIN, END = range(6)


class Meter:
    """Runs ops and records one list per op: [phase, round, key, weight,
    begin, end], in ``time.perf_counter()`` seconds.  Record indices are
    the tracer's op ids."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self.records: List[list] = []

    def run(self, phase: str, round_: int,
            op: Op) -> Tuple[Any, Optional[str]]:
        """Returns the op's output and the traceback it raised, if any."""
        if self.tracer is not None:
            self.tracer.begin_op()
        begin = time.perf_counter()
        try:
            output, error = op.call(), None
        except Exception:
            output, error = None, traceback.format_exc(limit=3)
        self.records.append([phase, round_, op.key, op.weight, begin,
                             time.perf_counter()])
        return output, error


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def untimed_ops(workload: Workload, meter: Meter, phase: str,
                round_: int, ops: List[Op]) -> None:
    for op in ops:
        _, error = meter.run(phase, round_, op)
        if error is not None:
            workload.errors.append(f"{phase} {op.key}: {error}")


def timed_setup(workload: Workload, meter: Meter) -> List[range]:
    """Repeat set-up; returns each repetition's op ids."""
    reps: List[range] = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < SETUP_BUDGET_S:
        first = len(meter.records)
        untimed_ops(workload, meter, "setup", len(reps),
                    workload.setup_ops(len(reps)))
        reps.append(range(first, len(meter.records)))
    return reps


def timed_rounds(workload: Workload, seconds: float,
                 meter: Meter) -> Dict[str, Any]:
    """Run the workload's rounds, then, for a workload whose ops repeat,
    whole cycles until ``seconds`` have passed."""
    cycle = workload.cycle_rounds
    errors: List[str] = []
    totals: Numbers = {}
    failed = 0
    rss_mb = 0.0
    start = time.perf_counter()
    round_ = 0
    while round_ < workload.rounds or workload.repeats and (
            round_ % cycle or time.perf_counter() - start < seconds):
        for op in workload.round_ops(round_):
            output, error = meter.run("timed", round_, op)
            bad = op.weight
            if error is not None:
                errors.append(f"{op.key}: {error}")
            else:
                try:
                    bad = op.failures(output)
                    if round_ < cycle:
                        add(totals, workload.summarize(op.key, output))
                except Exception:
                    errors.append(f"{op.key} check: "
                                  + traceback.format_exc(limit=3))
            failed += bad
        round_ += 1
        if round_ == cycle:
            rss_mb = peak_rss_mb()
    return {"totals": totals, "failed": failed, "errors": errors,
            "rss_mb": rss_mb, "wall_s": time.perf_counter() - start}


def host_metrics(name: str, records: List[list], scaled: List[float],
                 reps: List[range], timed: Dict[str, Any]
                 ) -> Dict[str, Dict[str, Any]]:
    """Host-clock metrics from each op's speed-scaled time.  Each
    distinct op (program x config, or serve rung) contributes its median
    over the rounds that ran it; ops that run once contribute that one
    time."""
    by_key: Dict[str, List[float]] = defaultdict(list)
    weights: Dict[str, int] = {}
    attempted = 0
    for record, seconds in zip(records, scaled):
        if record[PHASE] == "timed":
            by_key[record[KEY]].append(seconds)
            weights[record[KEY]] = record[WEIGHT]
            attempted += record[WEIGHT]
    median_s = {key: statistics.median(v) for key, v in by_key.items()}
    setup_s = [sum(scaled[i] for i in rep) for rep in reps]
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s", "host"),
        "host_ops_per_s": metric(
            sum(weights.values()) / sum(median_s.values()), "1/s", "host",
            "higher"),
        "host_op_ms_geomean": metric(
            geomean([median_s[k] / weights[k] * 1e3 for k in median_s]),
            "ms", "host"),
        "peak_rss_mb": metric(timed["rss_mb"], "MB", "host"),
        "fail_frac": metric(timed["failed"] / attempted, "frac", "none"),
    }
    if name == FreshCompile.name:
        op_ms = [s * 1e3 for s in median_s.values()]
        deciles = statistics.quantiles(op_ms, n=10) if len(op_ms) > 1 \
            else op_ms * 9
        metrics["host_op_ms_p50"] = metric(statistics.median(op_ms), "ms",
                                           "host")
        metrics["host_op_ms_p90"] = metric(deciles[8], "ms", "host")
    return metrics


def provenance() -> Dict[str, Any]:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 limit: Optional[int] = None,
                 golden_path: Path = golden.GOLDEN_PATH,
                 trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Measure one workload; returns its JSON-ready result."""
    tracer = Tracer() if traced else None
    meter = Meter(tracer)
    workload = WORKLOADS[name](seed, limit, golden.load(golden_path))
    with SpeedProbe() as probe, \
            tracer if tracer is not None else contextlib.nullcontext():
        untimed_ops(workload, meter, "reference", 0,
                    workload.reference_ops())
        reps = timed_setup(workload, meter)
        timed = timed_rounds(workload, seconds, meter)
    records = meter.records
    own_s = [r[END] - r[BEGIN] - probe.hidden(r[BEGIN], r[END])
             for r in records]
    scales = [probe.scale(r[BEGIN], r[END]) for r in records]
    scaled = [s * f for s, f in zip(own_s, scales)]
    metrics = host_metrics(name, records, scaled, reps, timed)
    metrics.update(workload.sim_metrics())
    attempted = sum(r[WEIGHT] for r in records if r[PHASE] == "timed")
    rounds = defaultdict(lambda: [0, 0.0, 0.0])
    for record, own, op_s in zip(records, own_s, scaled):
        if record[PHASE] == "timed":
            row = rounds[record[ROUND]]
            row[0] += record[WEIGHT]
            row[1] += op_s
            row[2] += own
    result = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(traced), "limit": limit, "rounds": len(rounds),
        "correct": timed["failed"] == 0 and not workload.errors,
        "attempted": attempted, "failed": timed["failed"],
        "metrics": metrics,
        "samples": {
            "ops_fields": ["phase", "round", "key", "weight", "own_s",
                           "scale", "scaled_s"],
            "ops": [record[:BEGIN] + [own, scale, op_s]
                    for record, own, scale, op_s
                    in zip(records, own_s, scales, scaled)],
            "setup_reps": [[rep.start, rep.stop] for rep in reps],
            "rounds_fields": ["round", "weight", "scaled_s", "own_s"],
            "rounds": [[r, *rounds[r]] for r in sorted(rounds)],
            "timed_wall_s": timed["wall_s"],
            "speed_probe": probe.summary()},
        "errors": (workload.errors + timed["errors"])[:20],
        "provenance": provenance(),
    }
    if tracer is None:
        return result

    def hidden_ns(start: int, end: int) -> float:
        return probe.hidden(start / 1e9, end / 1e9) * 1e9

    weights = [r[WEIGHT] for r in records]
    timed_ids = [i for i, r in enumerate(records) if r[PHASE] == "timed"]
    cycle_ids = [i for i in timed_ids
                 if records[i][ROUND] < workload.cycle_rounds]
    layers = tracer.layer_metrics(timed_ids, cycle_ids, weights, scales,
                                  hidden_ns)
    layers.update(model_metrics(workload.layer_numbers(timed["totals"])))
    result["layers"] = layers
    result["layers_setup"] = tracer.layer_metrics(reps[-1], reps[-1],
                                                  weights, scales, hidden_ns)
    result["spans"] = len(tracer.spans)
    if trace_out:
        tracer.write_chrome(trace_out, f"{name} seed {seed}",
                            [r[PHASE] for r in records])
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--golden", type=Path, default=golden.GOLDEN_PATH)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.limit, args.golden,
                          args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
