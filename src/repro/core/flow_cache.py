"""Exact-match flow cache.

Observation 2 in the paper: the Netronome exact-match flow cache uses
dedicated lookup engines to memoise per-flow actions, enlarging the
kernel flow-cache implementation "by 10 times". Here it memoises the
labeling function's classification result per ``(five-tuple, vf,
app)`` key — every field a filter can match — so the rule walk only
runs on a flow's first packet.

The cache is bounded with LRU eviction, so a long experiment with flow
churn stays at a fixed footprint. An entry is the cached value itself:
entries leave only by eviction, never by age.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, List, Optional, Tuple, TypeVar

from ..errors import CapacityError

__all__ = ["ExactMatchCache", "PathCache"]

V = TypeVar("V")


class PathCache:
    """Memoised hierarchy-label → tree-path resolution.

    The scheduling function walks a packet's hierarchy class label
    root-to-leaf on every decision; resolving each class id through the
    tree's dict costs several lookups and a list build per packet. The
    number of *distinct* labels is just the number of leaf classes, so
    this cache turns the per-packet resolution into one dict hit.

    Hot path contract: readers access :attr:`entries` directly
    (``cache.entries.get(label)``) and call :meth:`resolve` only on a
    miss; the returned lists are shared and must not be mutated.
    """

    __slots__ = ("entries", "misses")

    def __init__(self) -> None:
        #: label tuple -> root-to-leaf list of ClassNode (shared).
        self.entries: dict = {}
        #: Slow-path resolutions performed (== distinct labels seen).
        self.misses = 0

    def resolve(self, tree, label: Tuple[str, ...]) -> List:
        """Slow path: resolve *label* through *tree* and memoise it."""
        path = [tree.node(classid) for classid in label]
        self.entries[label] = path
        self.misses += 1
        return path


class ExactMatchCache(Generic[V]):
    """A bounded LRU map with hit/miss statistics.

    Parameters
    ----------
    capacity: maximum entries (the EMC on the NFP is also finite).
    """

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise CapacityError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: key -> value, least recently used first. The value is the
        #: entry: the labeling function stores its shared per-leaf
        #: labels, so an entry costs the key and one ordered-dict slot.
        #: ``None`` is not a storable value (it reads as a miss).
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        #: Lookup statistics.
        self.hits = 0
        self.misses = 0
        #: Entries displaced by a *full* cache (capacity pressure).
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[V]:
        """The cached value, or ``None`` on miss."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: V) -> None:
        """Insert/refresh an entry, evicting the LRU head if the cache
        is full."""
        entries = self._entries
        if key in entries:
            entries[key] = value
            entries.move_to_end(key)
            return
        if len(entries) >= self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        entries[key] = value

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups, 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
