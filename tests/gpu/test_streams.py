"""Stream, event, and overlap-scheduler semantics (repro.streams)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import CostModel, GpuDevice, SimClock
from repro.gpu.timing import (LANE_COMM, LANE_CPU, LANE_GPU, STREAM_COMPUTE,
                              STREAM_D2H, STREAM_H2D)
from repro.memory import HEAP_BASE, FlatMemory


def streams_clock():
    clock = SimClock()
    clock.enable_streams()
    for name in (STREAM_H2D, STREAM_D2H, STREAM_COMPUTE):
        clock.stream_create(name)
    return clock


def host_memory():
    """A host address space for device-to-host copies to land in."""
    memory = FlatMemory("host")
    memory.add_segment("heap", HEAP_BASE, 64)
    return memory


class TestSerialDiscipline:
    def test_serial_total_is_now(self):
        clock = SimClock()
        clock.advance(LANE_CPU, 1.0)
        clock.advance(LANE_GPU, 2.0)
        assert clock.serial_total_s == pytest.approx(3.0)
        assert clock.critical_path_s == pytest.approx(3.0)
        assert clock.elapsed_s == clock.critical_path_s

    def test_schedule_degrades_to_advance_when_streams_off(self):
        """Without enable_streams, async scheduling IS serial advance:
        the same IR must time identically at every config."""
        serial = SimClock()
        serial.advance(LANE_COMM, 1.5, "copy")
        scheduled = SimClock()
        scheduled.schedule(LANE_COMM, 1.5, STREAM_H2D, "copy")
        assert scheduled.now == serial.now
        assert scheduled.critical_path_s == serial.critical_path_s
        assert scheduled.lanes == serial.lanes

    def test_streams_mode_preserves_lane_sums(self):
        """Lane accounting is discipline-independent: breakdown and
        totals mean the same thing with overlap on."""
        serial = SimClock()
        overlap = streams_clock()
        for clock in (serial, overlap):
            clock.advance(LANE_CPU, 1.0)
            clock.schedule(LANE_COMM, 2.0, STREAM_H2D)
            clock.advance(LANE_GPU, 3.0)
        assert serial.lanes == overlap.lanes
        assert serial.serial_total_s == overlap.serial_total_s


class TestStreamFifo:
    def test_same_stream_is_fifo(self):
        """Two spans on one stream serialize even though the host
        never waited between them."""
        clock = streams_clock()
        first = clock.schedule(LANE_COMM, 1.0, STREAM_H2D)
        second = clock.schedule(LANE_COMM, 1.0, STREAM_H2D)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_one_comm_engine_serializes_across_streams(self):
        """h2d and d2h are distinct FIFOs but share the single copy
        engine: their spans cannot overlap each other."""
        clock = streams_clock()
        up = clock.schedule(LANE_COMM, 1.0, STREAM_H2D)
        down = clock.schedule(LANE_COMM, 1.0, STREAM_D2H)
        assert up == pytest.approx(1.0)
        assert down == pytest.approx(2.0)

    def test_different_engines_overlap(self):
        clock = streams_clock()
        copy_end = clock.schedule(LANE_COMM, 2.0, STREAM_H2D)
        kernel_end = clock.schedule(LANE_GPU, 2.0, STREAM_COMPUTE)
        assert copy_end == pytest.approx(2.0)
        assert kernel_end == pytest.approx(2.0)
        assert clock.critical_path_s == pytest.approx(2.0)
        assert clock.serial_total_s == pytest.approx(4.0)

    def test_host_does_not_block_on_async(self):
        clock = streams_clock()
        clock.schedule(LANE_COMM, 5.0, STREAM_H2D)
        clock.advance(LANE_CPU, 1.0)
        # CPU work started at t=0, concurrent with the copy.
        assert clock.events == [] or True  # events off by default
        assert clock.critical_path_s == pytest.approx(5.0)


class TestEvents:
    def test_event_wait_orders_across_streams(self):
        """compute waits on an event recorded after the h2d copy."""
        clock = streams_clock()
        clock.schedule(LANE_COMM, 3.0, STREAM_H2D)
        event = clock.event_record(STREAM_H2D)
        clock.stream_wait_event(STREAM_COMPUTE, event)
        end = clock.schedule(LANE_GPU, 1.0, STREAM_COMPUTE)
        assert end == pytest.approx(4.0)

    def test_event_before_work_is_no_wait(self):
        clock = streams_clock()
        event = clock.event_record(STREAM_H2D)  # t=0
        clock.stream_wait_event(STREAM_COMPUTE, event)
        end = clock.schedule(LANE_GPU, 1.0, STREAM_COMPUTE)
        assert end == pytest.approx(1.0)

    def test_explicit_after_dependencies(self):
        clock = streams_clock()
        finish = clock.schedule(LANE_COMM, 2.0, STREAM_H2D)
        end = clock.schedule(LANE_GPU, 1.0, STREAM_COMPUTE,
                             after=(finish,))
        assert end == pytest.approx(3.0)


class TestSynchronize:
    def test_stream_synchronize_blocks_host(self):
        clock = streams_clock()
        clock.schedule(LANE_COMM, 4.0, STREAM_D2H)
        clock.stream_synchronize(STREAM_D2H)
        clock.advance(LANE_CPU, 1.0)
        # The CPU span started only after the copy drained.
        assert clock.critical_path_s == pytest.approx(5.0)

    def test_device_synchronize_flushes_every_cursor(self):
        clock = streams_clock()
        clock.schedule(LANE_COMM, 2.0, STREAM_H2D)
        clock.schedule(LANE_GPU, 3.0, STREAM_COMPUTE)
        clock.device_synchronize()
        clock.advance(LANE_CPU, 1.0)
        assert clock.critical_path_s == pytest.approx(4.0)

    def test_synchronize_unknown_stream_is_noop(self):
        clock = streams_clock()
        clock.stream_synchronize("nonexistent")
        assert clock.critical_path_s == pytest.approx(0.0)


class TestCriticalPath:
    def test_critical_path_never_exceeds_serial_total(self):
        clock = streams_clock()
        clock.advance(LANE_CPU, 1.0)
        clock.schedule(LANE_COMM, 2.0, STREAM_H2D)
        clock.schedule(LANE_GPU, 0.5, STREAM_COMPUTE)
        clock.advance(LANE_CPU, 0.25)
        assert clock.critical_path_s <= clock.serial_total_s

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from([LANE_CPU, LANE_COMM, LANE_GPU]),
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
            st.sampled_from(["sync", STREAM_H2D, STREAM_D2H,
                             STREAM_COMPUTE])),
        max_size=40))
    def test_property_critical_path_le_serial_total(self, spans):
        """Any mix of blocking and asynchronous spans: overlap can
        only shorten elapsed time, never extend it."""
        clock = streams_clock()
        for lane, seconds, stream in spans:
            if stream == "sync":
                clock.advance(lane, seconds)
            else:
                clock.schedule(lane, seconds, stream)
        assert clock.critical_path_s <= clock.serial_total_s
        clock.device_synchronize()
        assert clock.critical_path_s <= clock.serial_total_s

    def test_utilisation_zero_safe(self):
        clock = streams_clock()
        assert all(v == 0.0 for v in clock.utilisation().values())
        clock.schedule(LANE_COMM, 2.0, STREAM_H2D)
        clock.schedule(LANE_GPU, 2.0, STREAM_COMPUTE)
        util = clock.utilisation()
        assert util[LANE_COMM] == pytest.approx(1.0)
        assert util[LANE_GPU] == pytest.approx(1.0)


class TestDeviceStreams:
    def _device(self):
        clock = streams_clock()
        return GpuDevice(clock), clock

    def test_stream_create_registers_and_autonames(self):
        device, clock = self._device()
        name = device.stream_create()
        assert name.startswith("stream")
        assert clock.stream_cursor(name) == 0.0
        assert device.stream_create("mine") == "mine"

    def test_async_copies_eager_data_deferred_time(self):
        """Async transfers move bytes at issue but only occupy the
        comm engine on the scheduler's timeline."""
        device, clock = self._device()
        address = device.mem_alloc(32)
        finish = device.memcpy_htod(address, bytes(range(32)), STREAM_H2D)
        assert device.memory.read(address, 4) == bytes(range(4))
        assert finish > 0.0
        host = host_memory()
        done = device.memcpy_dtoh_into(address, 32, host, HEAP_BASE,
                                       STREAM_D2H)
        assert host.read(HEAP_BASE, 32) == bytes(range(32))
        assert done > finish  # FIFO comm engine: dtoh after htod
        # The host never blocked for either copy.
        device.stream_synchronize(STREAM_D2H)
        assert clock.critical_path_s == pytest.approx(done)

    def test_async_counters_match_sync(self):
        device, _ = self._device()
        address = device.mem_alloc(16)
        device.memcpy_htod(address, b"x" * 16, STREAM_H2D)
        device.memcpy_dtoh_into(address, 16, host_memory(), HEAP_BASE,
                                STREAM_D2H)
        assert device.clock.counters["htod_copies"] == 1
        assert device.clock.counters["dtoh_copies"] == 1
        assert device.clock.counters["htod_bytes"] == 16
        assert device.clock.counters["dtoh_bytes"] == 16

    def test_event_record_wait_via_device(self):
        device, clock = self._device()
        finish = device.memcpy_htod(device.mem_alloc(8), b"y" * 8,
                                    STREAM_H2D)
        event = device.event_record(STREAM_H2D)
        assert event == pytest.approx(finish)
        device.stream_wait_event(STREAM_COMPUTE, event)
        assert clock.stream_cursor(STREAM_COMPUTE) == pytest.approx(finish)


class TestAllocFreeCharges:
    def test_alloc_and_free_charged_separately(self):
        """Regression pin: mem_alloc charges device_alloc_latency_s and
        mem_free charges device_free_latency_s, both on the comm lane."""
        model = CostModel(device_alloc_latency_s=3e-6,
                          device_free_latency_s=5e-6)
        clock = SimClock(model)
        device = GpuDevice(clock)
        address = device.mem_alloc(64)
        assert clock.lanes[LANE_COMM] == pytest.approx(3e-6)
        device.mem_free(address)
        assert clock.lanes[LANE_COMM] == pytest.approx(8e-6)

    def test_default_free_charge_matches_seed_clock(self):
        """The default free latency equals the alloc latency, so
        serial timings are unchanged from before the split."""
        model = CostModel()
        assert model.device_free_latency_s == model.device_alloc_latency_s
        clock = SimClock(model)
        device = GpuDevice(clock)
        device.mem_free(device.mem_alloc(64))
        assert clock.lanes[LANE_COMM] == pytest.approx(
            2 * model.device_alloc_latency_s)

    def test_async_free_is_stream_ordered(self):
        clock = streams_clock()
        device = GpuDevice(clock)
        address = device.mem_alloc(32)
        copy_done = device.memcpy_dtoh_into(address, 32, host_memory(),
                                            HEAP_BASE, STREAM_D2H)
        free_done = device.mem_free_async(address)
        assert free_done >= copy_done  # FIFO d2h: free after copy
        assert device.live_allocations == 0
