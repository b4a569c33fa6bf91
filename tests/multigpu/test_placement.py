"""Placement pass: determinism, balance, and the lint surface."""

from repro.analysis.unitgraph import build_unit_graph
from repro.core import CgcmCompiler, CgcmConfig, OptLevel
from repro.gpu.topology import Topology
from repro.multigpu import partition_units, plan_placement
from repro.staticcheck import lint_source
from repro.workloads import ALL_WORKLOADS, get_workload


def compiled_module(source, name="program"):
    compiler = CgcmCompiler(CgcmConfig(opt_level=OptLevel.OPTIMIZED,
                                       streams=True))
    return compiler.compile_source(source, name).module


class TestDeterminism:
    def test_same_module_same_assignment(self):
        # The greedy solver must be a pure function of the module:
        # re-planning a workload twice (fresh graph each time) gives
        # the identical assignment, loads, and cut.
        for workload in (get_workload("gemm"), get_workload("cfd")):
            module = compiled_module(workload.source, workload.name)
            topo = Topology.fully_connected(4)
            first = plan_placement(module, topo)
            second = plan_placement(module, topo)
            assert first.assignment == second.assignment
            assert first.loads == second.loads
            assert first.cut_weight == second.cut_weight

    def test_recompile_is_deterministic_too(self):
        workload = get_workload("2mm")
        topo = Topology.ring(4)
        plans = [plan_placement(compiled_module(workload.source),
                                topo).assignment for _ in range(2)]
        assert plans[0] == plans[1]


class TestBalance:
    def test_every_unit_gets_a_device(self):
        for workload in ALL_WORKLOADS[:8]:
            module = compiled_module(workload.source, workload.name)
            graph = build_unit_graph(module)
            plan = partition_units(graph, Topology.fully_connected(4))
            assert set(plan.assignment) == set(graph.sizes)
            assert all(0 <= d < 4 for d in plan.assignment.values())
            assert sum(plan.loads) == sum(graph.sizes.values())

    def test_oversized_units_fall_back_to_load_balancing(self):
        # Three equal giant units can never fit under the 1.25x/k cap
        # on 2 devices; the fallback must still spread them instead of
        # piling everything on one device.
        from repro.analysis.unitgraph import UnitGraph
        graph = UnitGraph()
        graph.sizes = {"g:A": 1 << 20, "g:B": 1 << 20, "g:C": 1 << 20}
        graph.edges = {("g:A", "g:B"): 10, ("g:B", "g:C"): 10}
        plan = partition_units(graph, Topology.fully_connected(2))
        assert max(plan.loads) <= 2 << 20

    def test_single_device_is_trivial(self):
        module = compiled_module(get_workload("gemm").source)
        plan = plan_placement(module, Topology.single())
        assert all(d == 0 for d in plan.assignment.values())
        assert plan.cut_weight == 0


class TestPlacementLint:
    def test_inert_without_topology(self):
        report = lint_source(get_workload("gemm").source, streams=True)
        assert "placement" in report.passes_run
        assert not [f for f in report.findings
                    if f.pass_name == "placement"]

    def test_reports_coaccess_crossings(self):
        # gemm's three matrices are co-accessed by one kernel, so any
        # 2-device split must cut at least one edge; the pass notes it.
        report = lint_source(get_workload("gemm").source, streams=True,
                             topology=Topology.fully_connected(2))
        placement = [f for f in report.findings
                     if f.pass_name == "placement"]
        assert placement
        assert report.clean  # NOTE/WARNING only: lint stays clean


class TestPlanReuse:
    def test_one_plan_per_artifact(self, monkeypatch):
        """Two runs of one ring-of-4 artifact build the unit graph once,
        on the first run, and agree on observables, clocks and
        counters."""
        import repro.multigpu.placement as placement
        built = []
        build = placement.build_unit_graph
        monkeypatch.setattr(placement, "build_unit_graph",
                            lambda *args: built.append(args) or build(*args))
        compiler = CgcmCompiler(CgcmConfig(opt_level=OptLevel.OPTIMIZED,
                                           streams=True,
                                           topology=Topology.ring(4)))
        report = compiler.compile_source(get_workload("2mm").source, "2mm")
        assert not built
        first, second = (compiler.execute(report) for _ in range(2))
        assert len(built) == 1
        assert first.observable() == second.observable()
        assert first.counters == second.counters
        assert (first.cpu_seconds, first.gpu_seconds, first.comm_seconds,
                first.critical_path_seconds) \
            == (second.cpu_seconds, second.gpu_seconds,
                second.comm_seconds, second.critical_path_seconds)
        assert first.instructions == second.instructions
