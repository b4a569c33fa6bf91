"""The unified runtime-API registry is the single source of truth.

Every consumer (transforms, static checkers, alias analysis,
sanitizer, the interpreter's external bindings) derives its name
tables from :mod:`repro.runtime.api`; these tests pin the registry's
internal consistency and that the runtime implements exactly the
registered surface -- the drift these string tables used to suffer.
"""

from repro.frontend import compile_minic
from repro.interp import Machine
from repro.runtime import CgcmRuntime, declare_runtime
from repro.runtime import api


class TestRegistryConsistency:
    def test_every_name_registered_once(self):
        assert len(api.RUNTIME_FUNCTION_NAMES) \
            == len(set(api.RUNTIME_FUNCTION_NAMES)) == 13

    def test_families_partition_the_unit_operations(self):
        families = (set(api.MAP_FUNCTIONS) | set(api.UNMAP_FUNCTIONS)
                    | set(api.RELEASE_FUNCTIONS))
        declares = {ep.name for ep in api.ENTRY_POINTS.values()
                    if ep.op is api.EntryOp.DECLARE}
        assert families | declares | {api.SYNC_FUNCTION} \
            == set(api.RUNTIME_FUNCTION_NAMES)
        assert not (set(api.MAP_FUNCTIONS) & set(api.UNMAP_FUNCTIONS))
        assert not (set(api.MAP_FUNCTIONS) & set(api.RELEASE_FUNCTIONS))

    def test_async_twins_are_symmetric(self):
        for sync_name, async_name in api.ASYNC_VARIANTS.items():
            sync_ep, async_ep = api.entry(sync_name), api.entry(async_name)
            assert not sync_ep.is_async and async_ep.is_async
            assert async_ep.twin == sync_name
            assert async_ep.op is sync_ep.op
            assert async_ep.unit_kind is sync_ep.unit_kind
            assert async_ep.signature == sync_ep.signature
        assert set(api.ASYNC_VARIANTS.values()) \
            == set(api.ASYNC_RUNTIME_FUNCTIONS)

    def test_release_has_no_async_twin(self):
        """Frees are stream-ordered by the runtime itself; the
        transform never rewrites a release to an async name."""
        for name in api.RELEASE_FUNCTIONS:
            assert api.entry(name).twin is None

    def test_depth_helpers_round_trip(self):
        assert api.map_name(1) == "map"
        assert api.map_name(2) == "mapArray"
        assert api.unmap_name(2) == "unmapArray"
        assert api.release_name(2) == "releaseArray"
        for depth in (1, 2):
            for helper in (api.map_name, api.unmap_name,
                           api.release_name):
                assert api.is_runtime_call(helper(depth))

    def test_modref_summary_matches_operation(self):
        """map ships host bytes (reads), unmap lands them (writes);
        this is what the analyses' coherence treatment relies on."""
        for ep in api.ENTRY_POINTS.values():
            assert ep.reads_host == (ep.op is api.EntryOp.MAP)
            assert ep.writes_host == (ep.op is api.EntryOp.UNMAP)


class TestRuntimeImplementsRegistry:
    def test_externals_cover_every_entry_point(self):
        machine = Machine(compile_minic("int main(void) { return 0; }"))
        before = set(machine.externals)
        CgcmRuntime(machine)
        installed = set(machine.externals) - before
        assert set(api.RUNTIME_FUNCTION_NAMES) <= installed
        for name in api.RUNTIME_FUNCTION_NAMES:
            assert machine.external_types[name] == api.entry(name).signature

    def test_declare_runtime_declares_the_registry(self):
        module = compile_minic("int main(void) { return 0; }")
        declared = declare_runtime(module)
        assert set(declared) == set(api.RUNTIME_FUNCTION_NAMES)
