"""Serve benchmark: throughput and tail latency of the request loop.

Sweeps the serve loop over a grid of cells -- concurrent clients
(10/100/1000, one burst at t=0) x artifact cache (on/off) x shared
read-only mappings (on/off) -- on the built-in mix (three programs
sharing one 4 KiB read-only table, two argument variants each, so six
distinct artifacts).  Every cell reports modelled throughput
(requests/s), p50/p95/p99 tail latency, and the communication and
batching counters.

Correctness rides along as first-class results, per scale:

* **byte identity** -- every served request's observables equal an
  isolated (compile + run, no sharing, no batching) execution of the
  same artifact;
* **sanitizer clean** -- a fully sanitized serve pass (shared-mutation
  checking armed) reports zero violations for every request.

The headline derivations the acceptance criteria read:

* ``speedup_cache_100``: cache-on over cache-off throughput at 100
  clients (sharing on in both) -- the compile-once effect;
* ``h2d_saved_frac_100``: fraction of modelled HtoD bytes elided by
  sharing at 100 clients.

Exposed as ``python -m repro servebench`` (writes
``BENCH_serve.json``) and through the ``bench``-marked tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .. import api
from ..serve import ServeLoop, ServeOptions
from ..serve.mixes import build_mix
from .sweep import SweepReport

#: Schema tag for BENCH_serve.json (bump on incompatible change).
SERVEBENCH_SCHEMA = "repro-bench-serve/1"

#: Concurrent-client scales of the default sweep.
DEFAULT_SCALES = (10, 100, 1000)


def _cell_options(cache: bool, sharing: bool, *,
                  sanitize: bool = False, workers: int = 4,
                  policy: str = "fifo") -> ServeOptions:
    return ServeOptions(workers=workers, policy=policy,
                        cache=cache, sharing=sharing, sanitize=sanitize)


@dataclass
class ServeCell:
    """One (clients, cache, sharing) point of the sweep."""

    clients: int
    cache: bool
    sharing: bool
    throughput_rps: float
    makespan_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    mean_latency_s: float
    htod_bytes: int
    transfer_bytes_saved: int
    shared_attaches: int
    batches: int
    compile_hits: int
    compile_misses: int

    def summary(self) -> str:
        return (f"clients={self.clients:5d} "
                f"cache={'on' if self.cache else 'off':3s} "
                f"sharing={'on' if self.sharing else 'off':3s} "
                f"{self.throughput_rps:10.0f} req/s")

    def to_json(self) -> Dict:
        # Every field, in declaration order.
        return {**asdict(self),
                "throughput_rps": round(self.throughput_rps, 1)}


@dataclass
class ServeBenchReport(SweepReport):
    """The whole sweep plus per-scale verification verdicts."""

    schema = SERVEBENCH_SCHEMA
    committed_path = "BENCH_serve.json"
    rows_key = "cells"

    rows: List[ServeCell] = field(default_factory=list)
    #: clients -> all observables byte-identical to isolated runs.
    byte_identity: Dict[int, bool] = field(default_factory=dict)
    #: clients -> fully sanitized pass reported every request clean.
    sanitizer_clean: Dict[int, bool] = field(default_factory=dict)

    def cell(self, clients: int, cache: bool,
             sharing: bool) -> Optional[ServeCell]:
        for c in self.rows:
            if (c.clients, c.cache, c.sharing) == (clients, cache, sharing):
                return c
        return None

    @property
    def ok(self) -> bool:
        return (all(self.byte_identity.values())
                and all(self.sanitizer_clean.values()))

    def speedup_cache(self, clients: int) -> float:
        """Cache-on over cache-off throughput (sharing on)."""
        on = self.cell(clients, True, True)
        off = self.cell(clients, False, True)
        if on is None or off is None or off.throughput_rps <= 0:
            return 0.0
        return on.throughput_rps / off.throughput_rps

    def h2d_saved_frac(self, clients: int) -> float:
        """Fraction of would-be HtoD traffic elided by sharing."""
        cell = self.cell(clients, True, True)
        if cell is None:
            return 0.0
        would_be = cell.htod_bytes + cell.transfer_bytes_saved
        return cell.transfer_bytes_saved / would_be if would_be else 0.0

    def headline(self) -> Dict:
        scales = sorted({c.clients for c in self.rows})
        return {
            "derived": {
                f"speedup_cache_{n}": round(self.speedup_cache(n), 3)
                for n in scales
            } | {
                f"h2d_saved_frac_{n}": round(self.h2d_saved_frac(n), 4)
                for n in scales
            },
            "byte_identity": {str(k): v
                              for k, v in sorted(self.byte_identity.items())},
            "sanitizer_clean": {str(k): v for k, v
                                in sorted(self.sanitizer_clean.items())},
        }

    def render(self) -> str:
        lines = [f"{'clients':>7s} {'cache':>6s} {'share':>6s} "
                 f"{'req/s':>10s} {'p50 us':>9s} {'p95 us':>9s} "
                 f"{'p99 us':>9s} {'saved KiB':>10s} {'batches':>8s}"]
        for c in self.rows:
            lines.append(
                f"{c.clients:7d} {'on' if c.cache else 'off':>6s} "
                f"{'on' if c.sharing else 'off':>6s} "
                f"{c.throughput_rps:10.0f} "
                f"{c.latency_p50_s * 1e6:9.1f} "
                f"{c.latency_p95_s * 1e6:9.1f} "
                f"{c.latency_p99_s * 1e6:9.1f} "
                f"{c.transfer_bytes_saved / 1024:10.1f} "
                f"{c.batches:8d}")
        for clients in sorted(self.byte_identity):
            lines.append(
                f"clients={clients}: cache speedup "
                f"{self.speedup_cache(clients):.2f}x, HtoD saved "
                f"{self.h2d_saved_frac(clients) * 100:.1f}%, "
                f"byte-identity "
                f"{'ok' if self.byte_identity[clients] else 'FAILED'}, "
                f"sanitizer "
                f"{'clean' if self.sanitizer_clean.get(clients) else 'DIRTY'}")
        return "\n".join(lines)


def _isolated_observables(requests) -> Dict[str, Tuple]:
    """One isolated (no sharing, no batching, fresh machine) run per
    distinct artifact in the request list."""
    isolated: Dict[str, Tuple] = {}
    for request in requests:
        source, artifact = request.resolve_source()
        if artifact not in isolated:
            workload = api.compile_workload(source, name=artifact)
            isolated[artifact] = workload.run().observable()
    return isolated


def _verify_scale(clients: int, seed: int,
                  report: "ServeBenchReport",
                  served_metrics) -> None:
    requests = build_mix(clients, seed=seed)
    isolated = _isolated_observables(requests)
    report.byte_identity[clients] = all(
        m.status == "ok" and m.observable == isolated[m.artifact]
        for m in served_metrics)
    sanitized = ServeLoop(_cell_options(True, True, sanitize=True)) \
        .run(requests)
    report.sanitizer_clean[clients] = all(
        m.status == "ok" and m.sanitizer_clean is True
        and m.observable == isolated[m.artifact]
        for m in sanitized.metrics)


def _cells(report: ServeBenchReport, scales: Sequence[int], seed: int,
           verify: bool) -> Iterator[ServeCell]:
    """The four cache x sharing cells per scale; with ``verify``, the
    scale's byte-identity and sanitizer verdicts land in ``report``
    after its cells."""
    for clients in scales:
        served_metrics = None
        for cache in (True, False):
            for sharing in (True, False):
                requests = build_mix(clients, seed=seed)
                serve_report = ServeLoop(
                    _cell_options(cache, sharing)).run(requests)
                if cache and sharing:
                    served_metrics = serve_report.metrics
                yield ServeCell(
                    clients=clients, cache=cache, sharing=sharing,
                    throughput_rps=serve_report.throughput_rps,
                    makespan_s=serve_report.makespan_s,
                    latency_p50_s=serve_report.latency_p50_s,
                    latency_p95_s=serve_report.latency_p95_s,
                    latency_p99_s=serve_report.latency_p99_s,
                    mean_latency_s=serve_report.mean_latency_s,
                    htod_bytes=serve_report.counters.get("htod_bytes", 0),
                    transfer_bytes_saved=serve_report.counters.get(
                        "transfer_bytes_saved", 0),
                    shared_attaches=serve_report.counters.get(
                        "shared_attaches", 0),
                    batches=serve_report.counters.get("batches", 0),
                    compile_hits=serve_report.counters.get(
                        "compile_hits", 0),
                    compile_misses=serve_report.counters.get(
                        "compile_misses", 0),
                )
        if verify and served_metrics is not None:
            _verify_scale(clients, seed, report, served_metrics)


def run_serve_bench(scales: Sequence[int] = DEFAULT_SCALES,
                    seed: int = 0, verify: bool = True,
                    progress=None) -> ServeBenchReport:
    """The sweep; ``progress`` is an optional per-cell callback."""
    report = ServeBenchReport()
    return report.collect(_cells(report, scales, seed, verify), progress)
