"""Cross-device coherence sanitizer: stale reads under a seeded defect.

The sanitizer mirrors the coordinator's valid sets purely from hook
events, so it catches a coordinator that launches a kernel on a device
before broadcasting the operands there.  ``auto_broadcast=False`` is
exactly that seeded defect; real executions always coordinate, so the
same pipeline run through the public config must stay clean.
"""

import pytest

from repro import api
from repro.core import CgcmCompiler, CgcmConfig, OptLevel
from repro.gpu.topology import Topology
from repro.interp import Machine
from repro.multigpu import MultiGpuCoordinator, plan_placement
from repro.runtime import CgcmRuntime
from repro.sanitizer import CommSanitizer, ViolationKind
from repro.workloads import ALL_WORKLOADS, get_workload


def coordinated_run(workload, auto_broadcast):
    """The compiler's multi-device wiring, with the defect exposed."""
    compiler = CgcmCompiler(CgcmConfig(opt_level=OptLevel.OPTIMIZED,
                                       streams=True))
    report = compiler.compile_source(workload.source, workload.name)
    machine = Machine(report.module, streams=True)
    runtime = CgcmRuntime(machine)
    topology = Topology.fully_connected(4)
    plan = plan_placement(report.module, topology)
    MultiGpuCoordinator(machine, runtime, topology, plan,
                        auto_broadcast=auto_broadcast)
    sanitizer = CommSanitizer(machine, runtime)
    machine.run()
    machine.clock.device_synchronize()
    return sanitizer.finish()


class TestCrossDeviceStale:
    def test_seeded_defect_fires(self):
        report = coordinated_run(get_workload("gemm"),
                                 auto_broadcast=False)
        stale = [v for v in report.violations
                 if v.kind == ViolationKind.CROSS_DEVICE_STALE]
        assert stale, "missing broadcasts must surface as stale reads"

    def test_coordinated_run_is_clean(self):
        report = coordinated_run(get_workload("gemm"),
                                 auto_broadcast=True)
        assert not [v for v in report.violations
                    if v.kind == ViolationKind.CROSS_DEVICE_STALE]
        assert report.stats["mg_launches"] > 0
        assert report.stats["mg_broadcasts"] > 0

    def test_config_driven_multi_device_sanitize_is_clean(self):
        workload = get_workload("cfd")
        result = api.compile_workload(
            workload.source,
            CgcmConfig(opt_level=OptLevel.OPTIMIZED,
                       topology=Topology.fully_connected(2),
                       sanitize=True),
            name=workload.name).run()
        assert result.sanitizer_report is not None
        assert result.sanitizer_report.clean

    def test_single_device_stats_shape_unchanged(self):
        # Without a coordinator the sanitizer must not grow mg_* keys:
        # existing stats-shape consumers see exactly the old dict.
        workload = get_workload("gemm")
        result = api.compile_workload(
            workload.source,
            CgcmConfig(opt_level=OptLevel.OPTIMIZED, sanitize=True),
            name=workload.name).run()
        assert result.sanitizer_report is not None
        assert not [k for k in result.sanitizer_report.stats
                    if k.startswith("mg_")]


@pytest.mark.slow
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_ring_sanitized_sweep(workload):
    # Every workload on a 4-device ring: a clean report, and the same
    # observables as the one-device streams run.
    base = api.compile_workload(
        workload.source, CgcmConfig(opt_level=OptLevel.OPTIMIZED,
                                    streams=True),
        name=workload.name).run()
    multi = api.compile_workload(
        workload.source, CgcmConfig(opt_level=OptLevel.OPTIMIZED,
                                    topology=Topology.ring(4),
                                    sanitize=True),
        name=workload.name).run()
    report = multi.sanitizer_report
    assert report is not None and report.clean, report.summary()
    assert report.stats["mg_launches"] > 0
    assert multi.observable() == base.observable()
