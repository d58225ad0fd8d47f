"""Tests for repro.sketches.topk.TopK."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.opcount import OpCounter
from repro.sketches.topk import TopK


class TestTopKBasics:
    def test_tracks_up_to_k(self):
        topk = TopK(3)
        for key in range(3):
            assert topk.offer(key, float(key + 1))
        assert len(topk) == 3

    def test_eviction_of_minimum(self):
        topk = TopK(2)
        topk.offer(1, 10.0)
        topk.offer(2, 20.0)
        assert topk.offer(3, 15.0)  # evicts key 1
        assert 1 not in topk
        assert set(topk.keys()) == {2, 3}

    def test_rejects_below_minimum(self):
        topk = TopK(2)
        topk.offer(1, 10.0)
        topk.offer(2, 20.0)
        assert not topk.offer(3, 5.0)
        assert set(topk.keys()) == {1, 2}

    def test_update_existing_key(self):
        topk = TopK(2)
        topk.offer(1, 10.0)
        topk.offer(1, 30.0)
        assert topk.estimate(1) == 30.0
        assert len(topk) == 1

    def test_stale_estimate_not_lowered(self):
        topk = TopK(2)
        topk.offer(1, 30.0)
        topk.offer(1, 10.0)  # lower re-offer keeps the max
        assert topk.estimate(1) == 30.0

    def test_ranked_order(self):
        topk = TopK(5)
        for key, est in ((1, 5.0), (2, 50.0), (3, 20.0)):
            topk.offer(key, est)
        assert [key for key, _ in topk.ranked()] == [2, 3, 1]

    def test_min_estimate(self):
        topk = TopK(3)
        assert topk.min_estimate() == 0.0
        topk.offer(1, 7.0)
        topk.offer(2, 3.0)
        assert topk.min_estimate() == 3.0

    def test_min_estimate_after_updates(self):
        topk = TopK(2)
        topk.offer(1, 1.0)
        topk.offer(2, 2.0)
        topk.offer(1, 5.0)  # stale (1.0, 1) entry must be skipped
        assert topk.min_estimate() == 2.0

    def test_estimate_keyerror(self):
        with pytest.raises(KeyError):
            TopK(2).estimate(1)

    def test_reset(self):
        topk = TopK(2)
        topk.offer(1, 1.0)
        topk.reset()
        assert len(topk) == 0
        assert topk.min_estimate() == 0.0

    def test_items_iterates_pairs(self):
        topk = TopK(3)
        topk.offer(1, 2.0)
        assert list(topk.items()) == [(1, 2.0)]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TopK(0)

    def test_memory_positive(self):
        topk = TopK(4)
        topk.offer(1, 1.0)
        assert topk.memory_bytes() > 0

    def test_ops_recording(self):
        topk = TopK(2)
        ops = OpCounter()
        topk.ops = ops
        topk.offer(1, 1.0)
        assert ops.table_lookups == 1
        assert ops.heap_ops == 1  # insertion push


class TestTopKProperty:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.floats(0.1, 1000)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=100)
    def test_monotone_offers_match_exact_topk(self, offers):
        """With monotonically growing per-key estimates, the store holds
        exactly the top-k keys by final value."""
        k = 5
        topk = TopK(k)
        best = {}
        for key, value in offers:
            # Make per-key sequences monotone (like growing counters).
            value = max(value, best.get(key, 0.0) + 0.001)
            best[key] = value
            topk.offer(key, value)
        held = set(topk.keys())
        assert len(held) == min(k, len(best))
        # Every held key's estimate matches its final offered value.
        for key in held:
            assert topk.estimate(key) == pytest.approx(best[key])
        # Monotone offers guarantee every held key's final value is >= the
        # k-th largest final value (ties may swap equal-valued keys).
        kth_value = sorted(best.values(), reverse=True)[: k][-1]
        for key in held:
            assert best[key] >= kth_value - 1e-9


class TestHeapCompaction:
    def test_heap_bounded_under_tracked_reoffers(self):
        """Regression: re-offering tracked keys must not grow the heap.

        Updating an already-tracked key never evicts, so nothing lazily
        pops its stale heap entries -- before amortized compaction the
        heap held one tuple per offer and a long-lived monitor re-offering
        its heavy hitters grew without bound.
        """
        from repro.sketches.topk import COMPACT_FACTOR

        k = 16
        topk = TopK(k)
        for index in range(5000):
            topk.offer(index % k, float(index))
        assert len(topk) == k
        assert len(topk._heap) <= COMPACT_FACTOR * k
        assert topk.check_invariants() == []
        # Estimates are the freshest offers despite the compactions.
        for key in range(k):
            expected = max(i for i in range(5000) if i % k == key)
            assert topk.estimate(key) == float(expected)

    def test_compaction_preserves_eviction_order(self):
        from repro.sketches.topk import COMPACT_FACTOR

        k = 4
        topk = TopK(k)
        # Grow stale entries past the compaction trigger...
        for index in range(10 * COMPACT_FACTOR * k):
            topk.offer(index % k, float(index + 10))
        # ...then eviction must still target the true minimum.
        floor = min(topk.estimate(key) for key in topk.keys())
        assert topk.offer(999, floor + 1000.0)
        assert 999 in topk
        assert len(topk) == k

    def test_check_invariants_clean_on_fresh_and_used(self):
        topk = TopK(8)
        assert topk.check_invariants() == []
        for index in range(100):
            topk.offer(index, float(index))
        assert topk.check_invariants() == []


def _paired(k):
    """Two empty stores with op counters: one batched, one per-key."""
    batched, scalar = TopK(k), TopK(k)
    batched.ops, scalar.ops = OpCounter(), OpCounter()
    return batched, scalar


def _offer_both(batched, scalar, keys, estimates):
    """offer_sorted on one store, the per-key offer loop on the other,
    then require identical heap lists, dicts (in order) and op totals."""
    keys = np.asarray(keys)
    estimates = np.asarray(estimates, dtype=np.float64)
    for key, estimate in zip(keys.tolist(), estimates.tolist()):
        scalar.offer(key, estimate)
    batched.offer_sorted(keys, estimates)
    assert batched._heap == scalar._heap
    assert list(batched._best.items()) == list(scalar._best.items())
    assert batched.ops == scalar.ops


@st.composite
def _batch_streams(draw):
    k = draw(st.sampled_from([1, 5, 100]))
    # Count Sketch estimates at p = 0.1 are multiples of 1/p: mixing them
    # in makes ties with stored estimates and the minimum common.
    estimate = st.one_of(
        st.sampled_from([0.0, 10.0, 20.0, 30.0]),
        st.floats(0.0, 100.0, allow_nan=False),
    )
    batch = st.dictionaries(st.integers(0, 3 * k + 8), estimate, max_size=3 * k + 9)
    return k, draw(st.lists(batch, min_size=1, max_size=6))


class TestOfferSorted:
    """``offer_sorted`` against the per-key ``offer`` loop it replaces."""

    @given(_batch_streams())
    @settings(max_examples=150, deadline=None)
    def test_matches_offer_loop_after_every_batch(self, stream):
        k, batches = stream
        batched, scalar = _paired(k)
        for batch in batches:
            keys = sorted(batch)
            _offer_both(batched, scalar, keys, [batch[key] for key in keys])

    @pytest.mark.parametrize("k", [1, 5, 100])
    def test_fill_phase_then_prefilter(self, k):
        batched, scalar = _paired(k)
        _offer_both(batched, scalar, np.arange(0, 2 * k, 2), np.arange(k) * 10.0)
        assert len(batched) == k
        # The store fills part-way through this batch.
        _offer_both(batched, scalar, np.arange(3 * k), np.arange(3 * k) * 10.0)

    @pytest.mark.parametrize("k", [1, 5, 100])
    def test_all_tie_batch(self, k):
        batched, scalar = _paired(k)
        _offer_both(batched, scalar, np.arange(k), np.full(k, 10.0))
        _offer_both(batched, scalar, np.arange(3 * k), np.full(3 * k, 10.0))
        assert set(batched.keys()) == set(range(k))

    def test_tracked_estimate_falls(self):
        batched, scalar = _paired(5)
        _offer_both(batched, scalar, np.arange(5), np.arange(1, 6) * 10.0)
        _offer_both(batched, scalar, np.arange(5), np.full(5, 5.0))
        assert batched.estimate(4) == 50.0

    def test_rejection_peek_before_first_offered_key(self):
        """An untracked key rejected before any offered key pops the stale
        heap top in the oracle; the batch must replay that peek."""
        batched, scalar = _paired(3)
        _offer_both(batched, scalar, [100, 101, 102], [1.0, 2.0, 3.0])
        _offer_both(batched, scalar, [100], [5.0])
        assert batched._heap[0] == (1.0, 100)  # stale
        _offer_both(batched, scalar, [50, 102], [0.1, 9.0])
        assert (1.0, 100) not in batched._heap

    @pytest.mark.parametrize("k", [2, 5, 100])
    @pytest.mark.parametrize("returning", [50, 100])
    def test_peek_between_offered_keys(self, k, returning):
        """Key 0 evicts key 100, leaving the stale (2.0, 101) on top; the
        next key is rejected with a peek that pops it, and key 101 then
        rises without a peek of its own.  The rejected key is either a
        new one (skipped by the batch, so its peek must be replayed) or
        key 100 itself: tracked at batch start, untracked at its turn."""
        batched, scalar = _paired(k)
        _offer_both(batched, scalar, np.arange(100, 100 + k), np.arange(1.0, k + 1))
        _offer_both(batched, scalar, [101], [k + 0.5])
        _offer_both(batched, scalar, [0, returning, 101], [k + 1.0, 0.5, 1e9])
        assert 100 not in batched and 0 in batched
        assert (2.0, 101) not in batched._heap

    def test_empty_batch_is_noop(self):
        batched, scalar = _paired(2)
        _offer_both(batched, scalar, np.array([], dtype=np.int64), [])
        _offer_both(batched, scalar, [1, 2], [1.0, 2.0])
        _offer_both(batched, scalar, np.array([], dtype=np.int64), [])
