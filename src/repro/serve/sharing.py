"""Cross-request sharing of read-only device copies.

One :class:`SharedMappingRegistry` lives for a serve run.  When a
request's runtime first maps a read-only allocation unit, it offers
the unit's content here (:meth:`attach`).  If another *in-flight*
request already holds a device copy of byte-identical content, the
map elides its modelled HtoD transfer -- in the modelled world the two
requests read one device copy -- and the registry refcounts the new
holder.  When a request completes, :meth:`release` drops every hold it
acquired; an entry with no holders is forgotten (its modelled device
copy is freed with the last holder's buffers).

Sharing is verified, never assumed, at two layers:

* here, a hash hit is confirmed by full content comparison before any
  charge is elided (a mismatch counts ``content_conflicts`` and pays
  the copy);
* in the sanitizer, every elided copy records a content digest and the
  run fails with a ``shared-mutation`` violation if a kernel stores to
  the unit or its device bytes drift from the attach-time content.

Data still lands eagerly in each request's own simulated device memory
(the simulator's eager-data model); only the modelled transfer cost is
shared.  This keeps every request's execution byte-identical to an
isolated run by construction.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Set, Tuple


class _Entry:
    __slots__ = ("content", "holders")

    def __init__(self, content: bytes):
        self.content = content
        self.holders: Set[int] = set()


class SharedMappingRegistry:
    """Refcounted content-addressed registry of shared device copies."""

    def __init__(self) -> None:
        #: (unit label, content digest) -> entry.
        self._entries: Dict[Tuple[str, bytes], _Entry] = {}
        #: Entry keys each in-flight request currently holds.
        self._held: Dict[int, Set[Tuple[str, bytes]]] = {}
        self._active: Optional[int] = None
        self.attaches = 0
        self.first_copies = 0
        self.bytes_saved = 0
        self.content_conflicts = 0

    def set_active(self, request_id: Optional[int]) -> None:
        """Name the request whose machine is about to execute; every
        :meth:`attach` until the next call is on its behalf."""
        self._active = request_id
        if request_id is not None:
            self._held.setdefault(request_id, set())

    def attach(self, label: str, content: bytes) -> bool:
        """Offer one read-only unit's content; True elides the copy.

        First holder of a content pays its HtoD and seeds the entry;
        every later in-flight holder of byte-identical content shares
        it.  Called by a blocking first map (the runtime's
        ``_shared_attach``) via its ``shared_mappings`` attachment.
        """
        if self._active is None:
            return False
        key = (label, hashlib.sha256(content).digest())
        entry = self._entries.get(key)
        if entry is None or not entry.holders:
            entry = _Entry(content)
            entry.holders.add(self._active)
            self._entries[key] = entry
            self._held[self._active].add(key)
            self.first_copies += 1
            return False
        if entry.content != content:
            # Hash collision or registry bug: never share on faith.
            self.content_conflicts += 1
            return False
        entry.holders.add(self._active)
        self._held[self._active].add(key)
        self.attaches += 1
        self.bytes_saved += len(content)
        return True

    def release(self, request_id: int) -> None:
        """Drop every hold of a completed request; entries left with
        no holders are forgotten (the shared copy is freed)."""
        for key in self._held.pop(request_id, ()):
            entry = self._entries.get(key)
            if entry is None:
                continue
            entry.holders.discard(request_id)
            if not entry.holders:
                del self._entries[key]

    @property
    def live_entries(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        return {"attaches": self.attaches,
                "first_copies": self.first_copies,
                "bytes_saved": self.bytes_saved,
                "content_conflicts": self.content_conflicts,
                "live_entries": self.live_entries}
