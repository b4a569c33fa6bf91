"""Deterministic fault injection for the simulated GPU driver.

The resilience subsystem (`repro.resilience`) needs to exercise driver
failure paths reproducibly: the same seed must produce the same fault
schedule on every run, or the chaos sweep's byte-identical-observables
check would be meaningless.  A :class:`FaultPlan` describes *what* can
fail and how often; a :class:`FaultInjector` turns the plan into
per-call verdicts using one seeded PRNG.

Faults come in bursts: when a draw fires, the site fails between 1 and
``max_consecutive`` consecutive times before succeeding again.  The
runtime's bounded retry loops are sized above ``max_consecutive``
(see :data:`MAX_FAULT_RETRIES`), so an injected *transient* fault can
always be ridden out -- only genuine capacity pressure (the device
heap cap) needs eviction or the CPU fallback to make progress.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..memory.layout import DEVICE_CAPACITY

#: Upper bound on retries the runtime attempts for one transient
#: fault before treating it as unrecoverable.  Must exceed any legal
#: ``FaultPlan.max_consecutive`` so bursts always end inside the loop.
MAX_FAULT_RETRIES = 5


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of injectable driver faults.

    Rates are per-call probabilities in ``[0, 1)``.  A rate of zero
    disarms that site entirely (no PRNG draw is consumed, so adding a
    site never perturbs another site's schedule).  The seed is
    mandatory for armed plans -- :class:`repro.core.config.CgcmConfig`
    rejects a seedless plan, because an unseeded schedule would make
    the chaos sweep's determinism guarantee meaningless.
    """

    seed: Optional[int] = None
    alloc_fail_rate: float = 0.0
    transfer_fail_rate: float = 0.0
    launch_fail_rate: float = 0.0
    #: Longest failure burst one trigger produces.
    max_consecutive: int = 2

    def __post_init__(self) -> None:
        for field_name in ("alloc_fail_rate", "transfer_fail_rate",
                           "launch_fail_rate"):
            rate = getattr(self, field_name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(
                    f"FaultPlan.{field_name} must be in [0, 1), got "
                    f"{rate!r}; rates are per-call probabilities")
        if not 1 <= self.max_consecutive < MAX_FAULT_RETRIES:
            raise ValueError(
                f"FaultPlan.max_consecutive must be in [1, "
                f"{MAX_FAULT_RETRIES}), got {self.max_consecutive}; the "
                "runtime retries at most MAX_FAULT_RETRIES times, so "
                "longer bursts could never be ridden out")

    @property
    def armed(self) -> bool:
        return bool(self.alloc_fail_rate or self.transfer_fail_rate
                    or self.launch_fail_rate)


#: Moderate per-call fault rates: the ``transient`` schedule, and what
#: ``--faults SEED`` arms on the command line.
CHAOS_RATES = dict(alloc_fail_rate=0.3, transfer_fail_rate=0.15,
                   launch_fail_rate=0.15)


def workload_seed(name: str) -> int:
    """A stable per-program seed (schedules differ across programs
    but never across runs)."""
    return zlib.crc32(name.encode("utf-8"))


def fault_schedules(seed: int) -> List[Tuple[str, Dict]]:
    """The named fault schedules as ``CgcmConfig`` overrides, seeded
    deterministically: ``overhead`` (resilience armed, nothing fires),
    ``transient``, ``pressure`` and ``tiny-heap`` (see
    :mod:`repro.evaluation.faultbench`)."""
    return [
        ("overhead", dict(device_heap_limit=DEVICE_CAPACITY)),
        ("transient", dict(faults=FaultPlan(seed=seed, **CHAOS_RATES))),
        # The tight-heap schedules deliberately exercise sentinel and
        # CPU-fallback degradation on units that can never fit, so they
        # opt out of the strict oversized-unit rejection.
        ("pressure", dict(
            faults=FaultPlan(seed=seed + 1, alloc_fail_rate=0.5,
                             transfer_fail_rate=0.3, launch_fail_rate=0.3,
                             max_consecutive=4),
            device_heap_limit=64 << 10, strict_heap_limit=False)),
        ("tiny-heap", dict(device_heap_limit=4 << 10,
                           strict_heap_limit=False)),
    ]


class FaultInjector:
    """Turns a :class:`FaultPlan` into deterministic per-call verdicts.

    One injector is attached to one :class:`~repro.gpu.device.GpuDevice`
    and consulted at the top of each fallible driver entry point.  Each
    site keeps its own burst counter; the shared PRNG is only drawn
    from when a site is armed and not mid-burst, keeping schedules
    stable as call sites are added.
    """

    def __init__(self, plan: FaultPlan):
        if plan.seed is None:
            raise ValueError("FaultInjector needs a seeded FaultPlan; an "
                             "unseeded schedule is not reproducible")
        self.plan = plan
        self._rng = random.Random(plan.seed)
        #: Remaining failures of the current burst, per site.
        self._burst: Dict[str, int] = {}
        #: Sites whose next call is a guaranteed success: the call
        #: right after a burst never starts a new one, so the longest
        #: failure run a retry loop can see is ``max_consecutive`` --
        #: strictly below :data:`MAX_FAULT_RETRIES`.
        self._cooldown: Dict[str, bool] = {}
        #: Total injected faults per site (for reports and tests).
        self.injected: Dict[str, int] = {}

    def _should_fail(self, site: str, rate: float) -> bool:
        if rate <= 0.0:
            return False
        if self._cooldown.pop(site, False):
            return False
        remaining = self._burst.get(site, 0)
        if remaining > 0:
            self._burst[site] = remaining - 1
            if remaining == 1:
                self._cooldown[site] = True
        elif self._rng.random() < rate:
            extra = self._rng.randint(1, self.plan.max_consecutive) - 1
            self._burst[site] = extra
            if extra == 0:
                self._cooldown[site] = True
        else:
            return False
        self.injected[site] = self.injected.get(site, 0) + 1
        return True

    def alloc_fault(self) -> bool:
        """Should this ``cuMemAlloc`` fail with a transient OOM?"""
        return self._should_fail("alloc", self.plan.alloc_fail_rate)

    def transfer_fault(self, direction: str) -> bool:
        """Should this ``cuMemcpy`` (``"htod"``/``"dtoh"``) fail?"""
        return self._should_fail(direction, self.plan.transfer_fail_rate)

    def launch_fault(self) -> bool:
        """Should this kernel launch be rejected by the driver?"""
        return self._should_fail("launch", self.plan.launch_fail_rate)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())
