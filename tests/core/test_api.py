"""Tests for the public scripting API (``repro.api``)."""

import dataclasses

import pytest

from repro import api
from repro.core import CgcmConfig, OptLevel
from repro.errors import ConfigError, FrontendError
from repro.gpu.faults import FaultPlan

PROGRAM = r"""
double xs[8];
int main(void) {
    for (int i = 0; i < 8; i++) xs[i] = i * 0.5;
    for (int rep = 0; rep < 3; rep++)
        for (int i = 0; i < 8; i++) xs[i] = xs[i] * 0.5 + 1.0;
    double s = 0.0;
    for (int i = 0; i < 8; i++) s += xs[i];
    print_f64(s);
    return 0;
}
"""


@pytest.fixture(autouse=True)
def fresh_cache():
    api.clear_cache()
    yield
    api.clear_cache()


class TestCompileWorkload:
    def test_string_in_observables_out(self):
        workload = api.compile_workload(PROGRAM)
        result = workload.run()
        assert result.exit_code == 0
        assert len(result.stdout) == 1
        exit_code, stdout, globals_image = result.observable()
        assert exit_code == 0 and stdout == result.stdout
        assert any(name == "xs" for name, _ in globals_image)

    def test_runs_are_isolated(self):
        workload = api.compile_workload(PROGRAM)
        first = workload.run()
        second = workload.run()
        assert first.observable() == second.observable()
        assert first.counters == second.counters
        assert workload.runs == 2

    def test_clocks_exposed(self):
        result = api.compile_workload(PROGRAM).run()
        assert result.total_seconds > 0
        assert result.instructions > 0
        assert result.gpu_seconds > 0  # the rep loop parallelizes

    def test_engine_override_per_run(self):
        workload = api.compile_workload(PROGRAM)
        tree = workload.run(engine="tree")
        compiled = workload.run(engine="compiled")
        assert tree.observable() == compiled.observable()

    def test_lint_report(self):
        report = api.compile_workload(PROGRAM).lint()
        assert report.clean

    def test_sanitize_report(self):
        report = api.compile_workload(PROGRAM).sanitize()
        assert report.ok and not report.violations

    def test_ir_printed(self):
        workload = api.compile_workload(PROGRAM)
        assert workload.ir.startswith('module "workload"')
        assert "kernel" in workload.ir  # the rep loop was outlined

    def test_sequential_config(self):
        config = CgcmConfig(opt_level=OptLevel.SEQUENTIAL)
        result = api.compile_workload(PROGRAM, config).run()
        assert result.gpu_seconds == 0

    def test_caller_config_mutation_does_not_leak(self):
        config = CgcmConfig()
        workload = api.compile_workload(PROGRAM, config)
        config.opt_level = OptLevel.SEQUENTIAL
        assert workload.config.opt_level is OptLevel.OPTIMIZED
        assert workload.run().gpu_seconds > 0


class TestNegativePaths:
    def test_malformed_source_raises_typed_diagnostic(self):
        with pytest.raises(FrontendError) as excinfo:
            api.compile_workload("int main(void) { return 0 }\n")
        assert excinfo.value.line > 0
        assert excinfo.value.column > 0
        assert "1:" in str(excinfo.value)

    def test_lexer_garbage_raises_typed_diagnostic(self):
        with pytest.raises(FrontendError) as excinfo:
            api.compile_workload("int main(void) { int x = `; }\n")
        assert excinfo.value.line > 0

    def test_semantic_error_raises_typed_diagnostic(self):
        with pytest.raises(FrontendError) as excinfo:
            api.compile_workload(
                "int main(void) { return nope; }\n")
        assert excinfo.value.line == 1

    def test_malformed_source_is_not_cached(self):
        for _ in range(2):
            with pytest.raises(FrontendError):
                api.compile_workload("int main(\n")
        assert api.cache_stats()["entries"] == 0

    def test_non_string_source_rejected(self):
        with pytest.raises(ConfigError):
            api.compile_workload(b"int main(void) { return 0; }")

    def test_non_config_rejected_before_compilation(self):
        with pytest.raises(ConfigError):
            api.compile_workload(PROGRAM, config={"opt_level": "optimized"})
        # Rejected up front: no compile was attempted, so no miss.
        stats = api.cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["entries"] == 0

    def test_config_mutated_invalid_rejected_before_compilation(self):
        config = CgcmConfig()
        config.engine = "quantum"  # bypasses __post_init__
        with pytest.raises(ConfigError):
            api.compile_workload(PROGRAM, config)
        assert api.cache_stats()["misses"] == 0

    def test_faults_plus_streams_rejected_before_compilation(self):
        config = CgcmConfig(faults=FaultPlan(seed=1, alloc_fail_rate=0.1))
        config.streams = True
        with pytest.raises(ConfigError):
            api.compile_workload(PROGRAM, config)
        assert api.cache_stats()["misses"] == 0


class TestArtifactCache:
    def test_same_source_same_config_hits(self):
        first = api.compile_workload(PROGRAM)
        second = api.compile_workload(PROGRAM)
        assert second is first
        stats = api.cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1

    def test_equivalent_config_objects_hit(self):
        api.compile_workload(PROGRAM, CgcmConfig())
        api.compile_workload(PROGRAM, CgcmConfig())
        assert api.cache_stats()["hits"] == 1

    def test_whitespace_change_misses(self):
        api.compile_workload(PROGRAM)
        api.compile_workload(PROGRAM.replace("    ", "\t"))
        stats = api.cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 2

    def test_name_is_part_of_the_key(self):
        api.compile_workload(PROGRAM, name="a")
        api.compile_workload(PROGRAM, name="b")
        assert api.cache_stats()["misses"] == 2

    def test_config_variants_are_isolated(self):
        variants = [
            CgcmConfig(),
            CgcmConfig(sanitize=True),
            CgcmConfig(streams=True),
            CgcmConfig(faults=FaultPlan(seed=3, alloc_fail_rate=0.2)),
            CgcmConfig(device_heap_limit=4 << 10),
            CgcmConfig(opt_level=OptLevel.UNOPTIMIZED),
            CgcmConfig(engine="tree"),
        ]
        handles = [api.compile_workload(PROGRAM, cfg) for cfg in variants]
        assert api.cache_stats()["misses"] == len(variants)
        assert len({id(h) for h in handles}) == len(variants)
        # Every variant still computes the same observables...
        results = [h.run() for h in handles]
        baseline = results[0].observable()
        assert all(r.observable() == baseline for r in results)
        # ...and the instrumented variants kept their instrumentation.
        assert results[1].sanitizer_report is not None
        assert results[0].sanitizer_report is None

    def test_fault_seed_is_part_of_the_key(self):
        api.compile_workload(
            PROGRAM, CgcmConfig(faults=FaultPlan(seed=1,
                                                 alloc_fail_rate=0.2)))
        api.compile_workload(
            PROGRAM, CgcmConfig(faults=FaultPlan(seed=2,
                                                 alloc_fail_rate=0.2)))
        assert api.cache_stats()["misses"] == 2

    def test_cache_eviction_is_bounded(self):
        template = "int main(void) {{ print_i64({0}); return 0; }}\n"
        for index in range(api.CACHE_CAPACITY + 5):
            api.compile_workload(template.format(index))
        assert api.cache_stats()["entries"] == api.CACHE_CAPACITY

    def test_clear_cache_resets_counters(self):
        api.compile_workload(PROGRAM)
        api.clear_cache()
        assert api.cache_stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0,
            "capacity": api.CACHE_CAPACITY}

    def test_eviction_counter_tracks_lru_drops(self):
        template = "int main(void) {{ print_i64({0}); return 0; }}\n"
        for index in range(api.CACHE_CAPACITY + 5):
            api.compile_workload(template.format(index))
        stats = api.cache_stats()
        assert stats["evictions"] == 5
        assert stats["entries"] == api.CACHE_CAPACITY
