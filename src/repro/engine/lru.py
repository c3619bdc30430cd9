"""A bounded, thread-safe least-recently-used map.

The content-addressed memos share it: the canonical-form and
machine-text memos of :mod:`repro.engine.fingerprint` and the compile
server's parse, region and response caches.  Each is keyed by a digest
of content, so an entry never needs invalidating — only evicting.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any


class BoundedLRU:
    """A bounded, thread-safe least-recently-used map.

    ``get`` refreshes an entry, assignment inserts one and evicts the
    least recently used beyond ``capacity``.  Values are never ``None``.
    """

    def __init__(self, capacity: int) -> None:
        """An empty map holding at most ``capacity`` entries."""
        self.capacity = capacity
        self._items: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Any) -> Any:
        """The value under ``key`` (now most recent), or ``None``."""
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
            return value

    def __setitem__(self, key: Any, value: Any) -> None:
        """Insert ``value`` as most recent, evicting past the capacity."""
        with self._lock:
            self._items[key] = value
            self._items.move_to_end(key)
            while len(self._items) > self.capacity:
                self._items.popitem(last=False)

    def __len__(self) -> int:
        """The number of entries held."""
        return len(self._items)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._items.clear()
