"""CgcmConfig.__post_init__ validation: every bad combination fails
fast with an actionable message (repro.resilience satellite)."""

import pytest

from repro.core.config import CgcmConfig, OptLevel
from repro.errors import ConfigError
from repro.gpu.faults import FaultPlan


def plan(**kwargs):
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("alloc_fail_rate", 0.3)
    return FaultPlan(**kwargs)


class TestEngineValidation:
    def test_unknown_engine(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            CgcmConfig(engine="jit")

    def test_known_engines(self):
        for engine in ("tree", "source"):
            assert CgcmConfig(engine=engine).engine == engine

    def test_retired_closure_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            CgcmConfig(engine="compiled")

    def test_per_run_override_rejected_with_typed_error(self):
        """A per-run override skips CgcmConfig's check and reaches
        Machine, which raises the same typed error."""
        from repro.api import compile_workload

        workload = compile_workload("int main(void) { return 0; }")
        with pytest.raises(ConfigError, match="unknown engine"):
            workload.run(engine="compiled")


class TestFaultValidation:
    def test_faults_must_be_a_plan(self):
        with pytest.raises(ConfigError, match="must be a FaultPlan"):
            CgcmConfig(faults=42)

    def test_seedless_plan_rejected(self):
        with pytest.raises(ConfigError, match="no seed"):
            CgcmConfig(faults=FaultPlan(alloc_fail_rate=0.3))

    def test_faults_with_streams_rejected(self):
        with pytest.raises(ConfigError, match="streams"):
            CgcmConfig(faults=plan(), streams=True)

    def test_faults_on_sequential_rejected(self):
        with pytest.raises(ConfigError, match="SEQUENTIAL"):
            CgcmConfig(opt_level=OptLevel.SEQUENTIAL, faults=plan())

    def test_armed_plan_accepted(self):
        config = CgcmConfig(faults=plan())
        assert config.resilient


class TestHeapLimitValidation:
    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            CgcmConfig(device_heap_limit=0)
        with pytest.raises(ConfigError, match="positive"):
            CgcmConfig(device_heap_limit=-4096)

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            CgcmConfig(device_heap_limit="64k")

    def test_heap_limit_with_streams_rejected(self):
        with pytest.raises(ConfigError, match="streams"):
            CgcmConfig(device_heap_limit=4096, streams=True)

    def test_heap_limit_on_sequential_rejected(self):
        with pytest.raises(ConfigError, match="SEQUENTIAL"):
            CgcmConfig(opt_level=OptLevel.SEQUENTIAL,
                       device_heap_limit=4096)


class TestStrictHeapLimit:
    """A heap limit smaller than the largest static allocation unit is
    a configuration error, not a permanent sentinel loop."""

    PROGRAM = r"""
    int main(void) {
        double *a = (double *) malloc(16384);
        for (int i = 0; i < 2048; i++) a[i] = 0.001 * i;
        for (int rep = 0; rep < 2; rep++)
            for (int i = 0; i < 2048; i++) a[i] = a[i] * 1.5;
        double s = 0.0;
        for (int i = 0; i < 2048; i++) s += a[i];
        print_f64(s);
        free((char *) a);
        return 0;
    }
    """

    def execute(self, **config_kwargs):
        from repro.core import CgcmCompiler

        config = CgcmConfig(**config_kwargs)
        compiler = CgcmCompiler(config)
        report = compiler.compile_source(self.PROGRAM)
        return compiler.execute(report)

    def test_undersized_limit_rejected_with_typed_error(self):
        with pytest.raises(ConfigError) as excinfo:
            self.execute(device_heap_limit=8 << 10)
        message = str(excinfo.value)
        assert "malloc(16384)" in message
        assert "strict_heap_limit=False" in message

    def test_opt_out_runs_the_degradation_deliberately(self):
        result = self.execute(device_heap_limit=8 << 10,
                              strict_heap_limit=False)
        baseline = self.execute()
        assert result.observable() == baseline.observable()
        assert result.counters.get("cpu_fallback_launches", 0) > 0

    def test_sufficient_limit_passes_the_check(self):
        result = self.execute(device_heap_limit=32 << 10)
        assert result.observable() == self.execute().observable()

    def test_dynamic_sizes_are_invisible_to_the_check(self):
        # A dynamically sized malloc can't be validated statically;
        # the runtime's sentinel degradation still covers it.
        from repro.core import CgcmCompiler

        source = r"""
        int main(void) {
            int n = 2048;
            double *a = (double *) malloc(n * 8);
            for (int i = 0; i < n; i++) a[i] = i;
            for (int rep = 0; rep < 2; rep++)
                for (int i = 0; i < n; i++) a[i] = a[i] + 1.0;
            double s = 0.0;
            for (int i = 0; i < n; i++) s += a[i];
            print_f64(s);
            free((char *) a);
            return 0;
        }
        """
        compiler = CgcmCompiler(CgcmConfig(device_heap_limit=8 << 10))
        report = compiler.compile_source(source)
        result = compiler.execute(report)  # no ConfigError
        assert result.exit_code == 0

    def test_largest_static_unit_scans_call_sites(self):
        from repro.core.compiler import largest_static_unit
        from repro.frontend import compile_minic

        module = compile_minic(self.PROGRAM)
        size, label = largest_static_unit(module)
        assert size == 16384
        assert "malloc(16384)" in label


class TestResilientProperty:
    def test_off_by_default(self):
        assert not CgcmConfig().resilient

    def test_on_with_either_knob(self):
        assert CgcmConfig(faults=plan()).resilient
        assert CgcmConfig(device_heap_limit=4096).resilient

    def test_config_error_is_a_value_error(self):
        """Callers that predate the typed hierarchy catch ValueError."""
        assert issubclass(ConfigError, ValueError)
