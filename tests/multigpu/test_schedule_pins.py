"""Pin the multi-GPU coordinator's schedule, event for event.

For each of the 24 paper workloads on a 4-device ring and on a
4-device fully-connected topology (streams, ``record_events=True``),
the sha256 of the run's event stream -- every span's ``(lane, label,
start, duration, track)``, floats as ``repr`` -- and the sha256 of its
counters must equal the digests committed in ``schedule_pins.json``.
A change to the coordinator's host-side bookkeeping that claims to
leave the modelled schedule alone is checked here span by span.

Regenerate the JSON with::

    PYTHONPATH=src python tests/multigpu/test_schedule_pins.py

Do that only when a change *means* to move the multi-device schedule,
and say which workloads moved and why.
"""

import hashlib
import json
import os
from typing import Dict, Tuple

import pytest

from repro.core import CgcmCompiler, CgcmConfig
from repro.gpu.topology import Topology
from repro.workloads import ALL_WORKLOADS

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "schedule_pins.json")

TOPOLOGIES = {
    "ring4": lambda: Topology.ring(4),
    "full4": lambda: Topology.fully_connected(4),
}


def schedule_digests(topology: Topology) -> Tuple[str, str]:
    """Per workload, ``(events sha256, counters sha256)`` of one run."""
    config = CgcmConfig(streams=True, topology=topology,
                        record_events=True)
    digests = {}
    for workload in ALL_WORKLOADS:
        compiler = CgcmCompiler(config)
        result = compiler.execute(
            compiler.compile_source(workload.source, workload.name))
        events = "\n".join(
            f"{e.lane}\t{e.label}\t{e.start!r}\t{e.duration!r}\t{e.track}"
            for e in result.events)
        counters = json.dumps(sorted(result.counters.items()))
        digests[workload.name] = (
            hashlib.sha256(events.encode("utf-8")).hexdigest(),
            hashlib.sha256(counters.encode("utf-8")).hexdigest())
    return digests


def all_digests() -> Dict[str, Dict[str, Dict[str, str]]]:
    return {topo: {name: {"events": events, "counters": counters}
                   for name, (events, counters)
                   in schedule_digests(make()).items()}
            for topo, make in TOPOLOGIES.items()}


@pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
def test_schedule_matches_pinned_digests(topo):
    with open(PINNED, encoding="utf-8") as handle:
        pinned = json.load(handle)[topo]
    actual = schedule_digests(TOPOLOGIES[topo]())
    assert sorted(actual) == sorted(pinned)
    moved = sorted(f"{name}:{part}" for name, (events, counters)
                   in actual.items()
                   for part, digest in (("events", events),
                                        ("counters", counters))
                   if pinned[name][part] != digest)
    assert not moved, (
        f"{len(moved)} pinned digests changed on {topo}: "
        + ", ".join(moved[:12]))


if __name__ == "__main__":
    with open(PINNED, "w", encoding="utf-8") as handle:
        json.dump(all_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PINNED}")
