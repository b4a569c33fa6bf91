"""Simulated GPU device and cost-model tests."""

import pytest

from repro.errors import GpuError, MemoryFault
from repro.gpu import CostModel, GpuDevice, SimClock
from repro.gpu.timing import LANE_COMM, LANE_CPU, LANE_GPU
from repro.ir import ArrayType, Module, F64
from repro.memory import HEAP_BASE, FlatMemory, GlobalLayout


def fresh_device():
    clock = SimClock()
    device = GpuDevice(clock)
    return device, clock


class TestDeviceMemory:
    def test_alloc_free_roundtrip(self):
        device, _ = fresh_device()
        address = device.mem_alloc(128)
        device.memory.write(address, b"x" * 128)
        assert device.memory.read(address, 4) == b"xxxx"
        device.mem_free(address)
        assert device.live_allocations == 0

    def test_zero_alloc_rejected(self):
        device, _ = fresh_device()
        with pytest.raises(GpuError):
            device.mem_alloc(0)

    def test_double_free_faults(self):
        device, _ = fresh_device()
        address = device.mem_alloc(16)
        device.mem_free(address)
        with pytest.raises(MemoryFault):
            device.mem_free(address)

    def test_device_addresses_disjoint_from_host(self):
        device, _ = fresh_device()
        address = device.mem_alloc(16)
        assert address >= 0xD000_0000

    def test_module_globals(self):
        module = Module("m")
        module.add_global("table", ArrayType(F64, 8))
        layout = GlobalLayout(module)
        device, _ = fresh_device()
        device.load_module(layout)
        device_address = device.module_get_global("table")
        assert device.memory.segment_for(device_address).name == "module"
        with pytest.raises(GpuError):
            device.module_get_global("missing")


class TestTransfers:
    def test_htod_dtoh_roundtrip(self):
        device, clock = fresh_device()
        address = device.mem_alloc(32)
        device.memcpy_htod(address, bytes(range(32)))
        host = FlatMemory("host")
        host.add_segment("heap", HEAP_BASE, 64)
        device.memcpy_dtoh_into(address, 32, host, HEAP_BASE)
        assert host.read(HEAP_BASE, 32) == bytes(range(32))
        assert clock.counters["htod_copies"] == 1
        assert clock.counters["dtoh_copies"] == 1
        assert clock.counters["htod_bytes"] == 32

    def test_transfer_time_has_latency_floor(self):
        model = CostModel()
        tiny = model.transfer_time(1)
        assert tiny >= model.transfer_latency_s
        big = model.transfer_time(1 << 20)
        assert big > tiny


class TestCostModel:
    def test_gpu_time_critical_path(self):
        model = CostModel(gpu_cores=4, gpu_freq_hz=1.0)
        # 4 threads of 10 ops on 4 cores: bounded by the longest thread.
        assert model.gpu_time(40, 10) == pytest.approx(10.0)
        # 400 threads of 1 op each: bounded by aggregate throughput.
        assert model.gpu_time(400, 1) == pytest.approx(100.0)

    def test_cpu_time_linear(self):
        model = CostModel(cpu_freq_hz=2.0)
        assert model.cpu_time(10) == pytest.approx(5.0)


class TestClock:
    def test_lanes_accumulate(self):
        clock = SimClock()
        clock.advance(LANE_CPU, 1.0)
        clock.advance(LANE_GPU, 2.0)
        clock.advance(LANE_COMM, 3.0)
        assert clock.total_seconds == pytest.approx(6.0)
        assert clock.breakdown()[LANE_COMM] == pytest.approx(0.5)

    def test_negative_duration_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(LANE_CPU, -1.0)

    def test_unknown_lane_rejected(self):
        # Regression: advance() used to silently create a new lane for
        # a typo'd name, so the time vanished from every breakdown.
        clock = SimClock()
        with pytest.raises(ValueError, match="unknown timeline lane"):
            clock.advance("cmm", 1.0)
        assert "cmm" not in clock.lanes
        assert clock.total_seconds == 0.0

    def test_event_recording_toggle(self):
        silent = SimClock()
        silent.advance(LANE_CPU, 1.0, "work")
        assert silent.events == []
        recording = SimClock(record_events=True)
        recording.advance(LANE_CPU, 1.0, "work")
        assert len(recording.events) == 1
        assert recording.events[0].label == "work"
        assert recording.events[0].end == pytest.approx(1.0)

    def test_empty_breakdown(self):
        assert SimClock().breakdown() == {LANE_CPU: 0.0, LANE_GPU: 0.0,
                                          LANE_COMM: 0.0}
