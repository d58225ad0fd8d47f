"""Top-k heavy-key store (the paper's "TopKeys" structure).

Sketches only hold anonymous counters; to *report* heavy hitters one must
also remember which keys are large (paper Section 3, Bottleneck 3).  The
standard implementation -- and the one profiled in Table 2 (``heap_find``,
``heapify``) -- is a min-heap of the current top-k keys alongside a
membership dictionary.

On every tracked update the caller offers ``(key, estimate)``; the store
admits the key if the estimate beats the current minimum.  Heap operations
are recorded in the ``ops`` sink so the cost model sees cost ``P``.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.metrics.opcount import NULL_OPS


#: Heap-size bound as a multiple of ``k``: once stale entries push the
#: heap past this, it is rebuilt from the live membership dict.
COMPACT_FACTOR = 4


class TopK:
    """Min-heap keyed store of the ``k`` (approximately) largest flows.

    Entries are lazily invalidated: re-offering a key pushes a fresh heap
    entry and marks the old one stale, which keeps offers O(log k) without
    a decrease-key primitive.  Stale entries cannot accumulate without
    bound: whenever the heap exceeds ``COMPACT_FACTOR * k`` entries it is
    compacted back to the live ``<= k`` set (amortised O(1) per offer).
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1, got %d" % k)
        self.k = k
        self.ops = NULL_OPS
        self._heap: List[Tuple[float, int]] = []
        self._best: Dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, key: int) -> bool:
        return key in self._best

    def offer(self, key: int, estimate: float) -> bool:
        """Offer a (key, estimate) pair; returns True if the key is tracked.

        Mirrors the sketch workflow in Figure 7: after updating counters,
        the estimated size of the current key is compared against the
        heap minimum.  The membership probe is billed as a table lookup
        (VTune's ``heap_find``); only actual heap modifications are
        billed as heap operations (``heapify``).
        """
        self.ops.table_lookup()
        current = self._best.get(key)
        if current is not None:
            if estimate <= current:
                return True
            self._best[key] = estimate
            self._push(key, estimate)
            self.ops.heap_op()
            return True

        if len(self._best) < self.k:
            self._best[key] = estimate
            self._push(key, estimate)
            self.ops.heap_op()
            return True

        min_estimate, _ = self._peek_valid()
        if estimate <= min_estimate:
            return False

        # Evict the current minimum and admit the newcomer.
        _, evicted = self._pop_valid()
        del self._best[evicted]
        self._best[key] = estimate
        self._push(key, estimate)
        self.ops.heap_op(2)
        return True

    def offer_sorted(self, keys, estimates) -> None:
        """Offer sorted distinct keys in order, as a loop of :meth:`offer` would.

        Leaves ``_heap``, ``_best`` (insertion order included) and the
        ``ops`` table-lookup/heap-op totals exactly as calling
        ``offer(key, estimate)`` for each pair in order does, but skips
        the Python call for keys that cannot change the store.

        Once the store is full its minimum never falls: an eviction
        replaces the minimum with a larger estimate, and a re-offer only
        raises a tracked estimate.  So a key that is untracked once the
        store is full, with an estimate at most the minimum at that
        point, is rejected when its turn comes (the keys are distinct,
        so nothing admits it first).  Those keys are billed their table
        lookups in one call; every other key, tracked ones included,
        goes through :meth:`offer` and sees the live state.  Each
        rejection of an untracked key also runs :meth:`_peek_valid`,
        which pops stale heap entries; it is idempotent until the heap
        next changes, so it is replayed once in each gap between offered
        keys that holds a skipped key.
        """
        keys = np.asarray(keys)
        estimates = np.asarray(estimates, dtype=np.float64)
        best = self._best
        # Fill phase: at most k - len new keys, plus at most len tracked
        # ones (the keys are distinct), so this loop is bounded by ~2k.
        start = 0
        while start < len(keys) and len(best) < self.k:
            self.offer(int(keys[start]), float(estimates[start]))
            start += 1
        keys = keys[start:]
        estimates = estimates[start:]
        if not len(keys):
            return

        tracked = np.sort(np.fromiter(best, dtype=keys.dtype, count=len(best)))
        slot = np.minimum(np.searchsorted(tracked, keys), len(tracked) - 1)
        skip = (estimates <= min(best.values())) & (tracked[slot] != keys)
        offered = np.flatnonzero(~skip)
        self.ops.table_lookup(len(keys) - len(offered))
        # Gap g holds the skipped keys between offered key g-1 and key g.
        peek = np.zeros(len(offered) + 1, dtype=bool)
        peek[np.searchsorted(offered, np.flatnonzero(skip))] = True
        peek = peek.tolist()
        if peek[0]:
            self._peek_valid()
        pairs = zip(keys[offered].tolist(), estimates[offered].tolist())
        for gap, (key, estimate) in enumerate(pairs, 1):
            self.offer(key, estimate)
            if peek[gap]:
                self._peek_valid()

    def _push(self, key: int, estimate: float) -> None:
        """Push a live entry, compacting if stale entries piled up."""
        heapq.heappush(self._heap, (estimate, key))
        if len(self._heap) > COMPACT_FACTOR * self.k:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from the live entries, dropping stale ones."""
        self._heap = [(estimate, key) for key, estimate in self._best.items()]
        heapq.heapify(self._heap)
        self.ops.heap_op()

    def _peek_valid(self) -> Tuple[float, int]:
        """Return the smallest non-stale heap entry without removing it."""
        while self._heap:
            estimate, key = self._heap[0]
            if self._best.get(key) == estimate:
                return estimate, key
            heapq.heappop(self._heap)  # stale entry
        raise IndexError("TopK heap is empty")

    def _pop_valid(self) -> Tuple[float, int]:
        """Pop the smallest non-stale entry."""
        while self._heap:
            estimate, key = heapq.heappop(self._heap)
            if self._best.get(key) == estimate:
                return estimate, key
        raise IndexError("TopK heap is empty")

    def items(self) -> Iterator[Tuple[int, float]]:
        """Iterate over tracked ``(key, estimate)`` pairs (unordered)."""
        return iter(self._best.items())

    def keys(self) -> List[int]:
        """The tracked keys (unordered)."""
        return list(self._best.keys())

    def estimate(self, key: int) -> float:
        """The stored estimate for ``key`` (KeyError if untracked)."""
        return self._best[key]

    def ranked(self) -> List[Tuple[int, float]]:
        """Tracked pairs sorted by estimate, largest first."""
        return sorted(self._best.items(), key=lambda item: (-item[1], item[0]))

    def min_estimate(self) -> float:
        """The smallest tracked estimate (0.0 when empty)."""
        if not self._best:
            return 0.0
        return self._peek_valid()[0]

    def check_invariants(self) -> List[str]:
        """Heap/dict consistency checks; returns violation strings.

        * at most ``k`` tracked keys;
        * the heap never outgrows ``COMPACT_FACTOR * k`` entries (the
          compaction bound -- lazy invalidation alone grows without it);
        * every tracked key's current estimate has a live heap entry, so
          :meth:`min_estimate` / eviction can always find it.
        """
        violations: List[str] = []
        if len(self._best) > self.k:
            violations.append(
                "topk: tracking %d keys, capacity k=%d" % (len(self._best), self.k)
            )
        if len(self._heap) > COMPACT_FACTOR * self.k:
            violations.append(
                "topk: heap holds %d entries, compaction bound %d"
                % (len(self._heap), COMPACT_FACTOR * self.k)
            )
        live = {
            key for estimate, key in self._heap if self._best.get(key) == estimate
        }
        missing = len(self._best) - len(live)
        if missing:
            violations.append(
                "topk: %d tracked key(s) have no live heap entry" % missing
            )
        return violations

    def memory_bytes(self) -> int:
        """Rough footprint: heap entries + dict entries at 16 B each."""
        return (len(self._heap) + len(self._best)) * 16

    def reset(self) -> None:
        self._heap.clear()
        self._best.clear()
