"""Identity-keyed memoization with pinned source references.

Several hot-path components precompute tables that are pure functions of
a source object (typically a :class:`~repro.video.model.Manifest`) plus
a small hashable key: CAVA's prepared controller stack, PANDA/CQ's plan
tables. Sweeps construct a *fresh algorithm per session* but
memoize the manifest (see :class:`~repro.experiments.artifacts.
ArtifactCache`), so these tables must be cached per *source object*, at
module level, to be reused across sessions.

Keying by ``id(source)`` alone is unsound — ids are reused after garbage
collection — so every entry pins a strong reference to its source and
reuse requires an ``is`` match, the same discipline ``ArtifactCache``
uses. Capacity is bounded: when full, the memo is dropped wholesale
(entries are cheap to rebuild; eviction bookkeeping is not worth it).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Tuple

__all__ = ["PinnedMemo"]


class PinnedMemo:
    """Per-source-object memo: ``(source, key) -> build()``, pinned."""

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._store: Dict[int, Tuple[Any, Dict[Hashable, Any]]] = {}

    def get(self, source: Any, key: Hashable, build: Callable[[], Any]) -> Any:
        """Value of ``build()`` memoized under ``(source identity, key)``."""
        entry = self._store.get(id(source))
        if entry is None or entry[0] is not source:
            if len(self._store) >= self._capacity:
                self._store.clear()
            entry = (source, {})
            self._store[id(source)] = entry
        values = entry[1]
        value = values.get(key)
        if value is None:
            value = build()
            values[key] = value
        return value

    def clear(self) -> None:
        """Drop every entry (and its pinned source)."""
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)
