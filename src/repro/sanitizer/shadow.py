"""Per-allocation-unit shadow records and their address indexes.

The sanitizer never trusts a single source of truth: it mirrors the
run-time library's allocation map with its own :class:`ShadowUnit`
per unit, carrying dirty bits for both address spaces, an
independently maintained reference count, and the epochs of the last
HtoD/DtoH synchronization.  Two indexes find the shadow record for an
arbitrary pointer: host lookups reuse the runtime's allocation map
(greatest-key-<=), device lookups go through a second
:class:`AvlTreeMap` keyed by device base address.  Both are fronted
by a small most-recently-used cache because interpreted array loops
touch the same unit thousands of times in a row.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..runtime.allocmap import AvlTreeMap
from ..runtime.cgcm import AllocationInfo

#: Entries kept in each most-recently-used lookup cache.
_CACHE_SIZE = 4


def unit_label(info: AllocationInfo) -> str:
    """A stable human-readable name for an allocation unit."""
    if info.is_global:
        return f"global {info.name}" if info.name else \
            f"global@{info.base:#x}"
    if info.frame_id is not None:
        return f"stack@{info.base:#x}"
    return f"heap@{info.base:#x}"


class ShadowUnit:
    """Sanitizer-side state of one allocation unit."""

    __slots__ = ("info", "label", "ref", "host_dirty", "device_dirty",
                 "device_base", "map_epoch", "sync_epoch",
                 "stale_reported_epoch", "lost_reported", "pre_ref",
                 "will_copy", "shared", "shared_digest")

    def __init__(self, info: AllocationInfo):
        self.info = info
        self.label = unit_label(info)
        #: Reference count tracked independently of the runtime's.
        self.ref = 0
        #: Host bytes modified since the last full HtoD copy while a
        #: device copy exists.
        self.host_dirty = False
        #: Device bytes written by a kernel since the last DtoH copy.
        self.device_dirty = False
        #: Device base while a device buffer backs this unit.
        self.device_base: Optional[int] = None
        self.map_epoch = -1
        self.sync_epoch = -1
        #: Dedup state so one bug reports once, not per access.
        self.stale_reported_epoch = -1
        self.lost_reported = False
        #: Scratch captured at the "pre" stage of a runtime operation.
        self.pre_ref = 0
        self.will_copy = False
        #: This unit's device copy is shared across serve requests
        #: (the runtime elided its HtoD via the sharing registry).
        self.shared = False
        #: SHA-256 of the shared content at attach time; the sanitizer
        #: re-hashes the device bytes at run end to prove immutability.
        self.shared_digest: Optional[bytes] = None

    def __repr__(self) -> str:
        dirt = "".join((
            "H" if self.host_dirty else "-",
            "D" if self.device_dirty else "-"))
        return f"<ShadowUnit {self.label} refs={self.ref} dirty={dirt}>"


class ShadowState:
    """All shadow units plus the host/device lookup indexes."""

    def __init__(self):
        #: Shadow records keyed by host base address.
        self.units: Dict[int, ShadowUnit] = {}
        #: Device-resident units keyed by device base address.
        self.device_map = AvlTreeMap()
        #: Stack-registered unit bases per interpreter frame, so frame
        #: exit can expire the right shadows (addresses get reused).
        self.frame_units: Dict[int, List[int]] = {}
        self._host_cache: List[ShadowUnit] = []
        self._device_cache: List[ShadowUnit] = []

    # -- creation and expiry ----------------------------------------------

    def unit_for(self, info: AllocationInfo) -> ShadowUnit:
        """The shadow record for ``info``, created on first sight.

        Keyed by host base; if the runtime re-registered the same base
        (heap address reuse after free), a fresh record replaces the
        stale one.
        """
        unit = self.units.get(info.base)
        if unit is not None and unit.info is info:
            return unit
        unit = ShadowUnit(info)
        self.units[info.base] = unit
        if info.frame_id is not None:
            self.frame_units.setdefault(info.frame_id, []).append(info.base)
        self._host_cache.clear()
        return unit

    def drop_base(self, base: int) -> None:
        """Forget the unit at host ``base`` (heap free / scope exit)."""
        unit = self.units.pop(base, None)
        if unit is None:
            return
        if unit.device_base is not None:
            self.device_map.remove(unit.device_base)
            self._device_cache.clear()
        self._host_cache.clear()

    def drop_frame(self, frame_id: int) -> None:
        """Expire every stack registration of one returning frame."""
        for base in self.frame_units.pop(frame_id, ()):
            self.drop_base(base)

    # -- device interval registration --------------------------------------

    def register_device(self, unit: ShadowUnit) -> None:
        assert unit.info.device_ptr is not None
        if unit.device_base is not None \
                and unit.device_base != unit.info.device_ptr:
            self.device_map.remove(unit.device_base)
        unit.device_base = unit.info.device_ptr
        self.device_map.insert(unit.device_base, unit)
        self._device_cache.clear()

    def unregister_device(self, device_base: int) -> Optional[ShadowUnit]:
        entry = self.device_map.find(device_base)
        if entry is None:
            return None
        self.device_map.remove(device_base)
        entry.device_base = None
        self._device_cache.clear()
        return entry

    # -- pointer-to-unit lookup ---------------------------------------------

    def host_unit_at(self, address: int,
                     alloc_map: AvlTreeMap) -> Optional[ShadowUnit]:
        """Shadow unit containing host ``address``, or None."""
        for unit in self._host_cache:
            if unit.info.base <= address < unit.info.end:
                return unit
        entry = alloc_map.find_le(address)
        if entry is None:
            return None
        info = entry[1]
        if address >= info.end:
            return None
        unit = self.unit_for(info)
        self._remember(self._host_cache, unit)
        return unit

    def device_unit_at(self, address: int) -> Optional[ShadowUnit]:
        """Shadow unit whose device buffer contains ``address``."""
        for unit in self._device_cache:
            base = unit.device_base
            if base is not None and base <= address < base + unit.info.size:
                return unit
        entry = self.device_map.find_le(address)
        if entry is None:
            return None
        unit = entry[1]
        if unit.device_base is None \
                or address >= unit.device_base + unit.info.size:
            return None
        self._remember(self._device_cache, unit)
        return unit

    @staticmethod
    def _remember(cache: List[ShadowUnit], unit: ShadowUnit) -> None:
        if unit in cache:
            cache.remove(unit)
        cache.insert(0, unit)
        del cache[_CACHE_SIZE:]
