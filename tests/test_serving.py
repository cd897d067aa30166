"""Tests for the decoded pulse cache and the concurrent serving layer.

The contract under test: any interleaving of ``fetch`` / ``fetch_batch``
across threads serves samples bit-identical to the scalar decode path
(``decompress_waveform`` over the store record), the LRU never exceeds
its capacity, eviction strictly follows least-recent use, and the
hit/miss/insertion/eviction counters stay mutually consistent.
"""

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.compression.pipeline import decompress_waveform
from repro.core import CompaqtCompiler
from repro.devices import ibm_device
from repro.store import (
    PulseCache,
    PulseServer,
    load_trace,
    save_store,
    synthetic_trace,
    write_trace,
)


@pytest.fixture(scope="module")
def compiled():
    library = ibm_device("bogota").pulse_library()
    return CompaqtCompiler(window_size=16).compile_library(library)


@pytest.fixture(scope="module")
def store(compiled, tmp_path_factory):
    root = tmp_path_factory.mktemp("serving") / "bogota.cqs"
    return save_store(compiled, root, n_shards=3)


@pytest.fixture(scope="module")
def reference(store):
    """The scalar decode path: what every served pulse must equal."""
    return {
        key: decompress_waveform(store.read_record(*key)).samples
        for key in store.keys()
    }


def _assert_served(reference, key, waveform):
    __tracebackhide__ = True
    assert np.array_equal(waveform.samples, reference[key]), key


class TestPulseCache:
    def test_capacity_validated(self, store):
        with pytest.raises(StoreError):
            PulseCache(store, capacity=0)

    def test_get_is_bit_identical_to_scalar(self, store, reference):
        cache = PulseCache(store, capacity=4)
        for key in store.keys():
            _assert_served(reference, key, cache.get(*key))

    def test_hit_and_miss_counters(self, store):
        cache = PulseCache(store, capacity=8)
        key = store.keys()[0]
        cache.get(*key)
        cache.get(*key)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5

    def test_capacity_never_exceeded_and_eviction_is_lru(self, store):
        keys = store.keys()
        cache = PulseCache(store, capacity=3)
        k0, k1, k2, k3 = keys[:4]
        for key in (k0, k1, k2):
            cache.get(*key)
        cache.get(*k0)  # refresh k0: k1 is now least recent
        cache.get(*k3)  # forces one eviction
        assert len(cache) == 3
        held = cache.cached_keys()
        assert k1 not in held
        assert held == [k2, k0, k3]  # least-recent first
        assert cache.stats().evictions == 1

    def test_get_many_counts_each_distinct_key_once(self, store):
        keys = store.keys()
        cache = PulseCache(store, capacity=8)
        out = cache.get_many([keys[0], keys[1], keys[0], keys[1]])
        assert len(out) == 4
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 2)
        assert np.array_equal(out[0].samples, out[2].samples)

    def test_get_many_request_order_and_identity(self, store, reference):
        cache = PulseCache(store, capacity=64)
        requests = list(reversed(store.keys())) + store.keys()[:5]
        served = cache.get_many(requests)
        for key, waveform in zip(requests, served):
            _assert_served(reference, key, waveform)

    def test_peek_counts_nothing(self, store):
        cache = PulseCache(store, capacity=4)
        key = store.keys()[0]
        assert cache.peek(*key) is None
        cache.get(*key)
        assert cache.peek(*key) is not None
        stats = cache.stats()
        assert stats.lookups == 1  # only the get() counted

    def test_clear_keeps_counter_history(self, store):
        cache = PulseCache(store, capacity=4)
        cache.get(*store.keys()[0])
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().misses == 1


class TestCacheLruModel:
    """Hypothesis: the cache tracks a shadow LRU model op for op."""

    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=6),
        ops=st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=12),  # get of key index
                st.lists(
                    st.integers(min_value=0, max_value=12),
                    min_size=1,
                    max_size=5,
                ),  # get_many of key indexes
            ),
            max_size=30,
        ),
    )
    def test_matches_shadow_model(self, store, capacity, ops):
        keys = store.keys()[:13]
        cache = PulseCache(store, capacity=capacity)
        model = OrderedDict()
        hits = misses = insertions = evictions = 0
        for op in ops:
            indexes = [op] if isinstance(op, int) else op
            if isinstance(op, int):
                cache.get(*keys[op])
            else:
                cache.get_many([keys[i] for i in op])
            missed = []
            for index in dict.fromkeys(indexes):
                key = keys[index]
                if key in model:
                    hits += 1
                    model.move_to_end(key)
                else:
                    misses += 1
                    missed.append(key)
            # get_many loads exactly the lookup-time misses, as one
            # batch, in first-miss order (a hit evicted by this batch's
            # own inserts is *not* re-loaded)
            for key in missed:
                model[key] = True
                insertions += 1
                if len(model) > capacity:
                    model.popitem(last=False)
                    evictions += 1
            assert cache.cached_keys() == list(model.keys())
            stats = cache.stats()
            assert stats.size == len(model) <= capacity
            assert (stats.hits, stats.misses) == (hits, misses)
            assert (stats.insertions, stats.evictions) == (insertions, evictions)
            assert stats.size == stats.insertions - stats.evictions


class TestPulseServer:
    def test_fetch_and_fetch_batch_identity(self, store, reference):
        with PulseServer(store, cache_capacity=8) as server:
            for key in store.keys():
                _assert_served(reference, key, server.fetch(*key))
            batch = server.fetch_batch(store.keys())
            for key, waveform in zip(store.keys(), batch):
                _assert_served(reference, key, waveform)

    def test_validates_arguments(self, store, compiled, tmp_path):
        with pytest.raises(StoreError):
            PulseServer(store, max_workers=0)
        other = save_store(compiled, tmp_path / "other.cqs", n_shards=2)
        with pytest.raises(StoreError, match="different store"):
            PulseServer(store, cache=PulseCache(other, capacity=2))

    def test_unknown_request_raises(self, store):
        with PulseServer(store) as server:
            with pytest.raises(StoreError, match="no pulse"):
                server.fetch("nope", (0,))

    def test_stats_accumulate(self, store):
        with PulseServer(store, cache_capacity=4) as server:
            server.fetch(*store.keys()[0])
            server.fetch_batch(store.keys()[:3])
            stats = server.stats()
            assert stats.requests == 4
            assert stats.batches == 1
            assert stats.shard_fills >= 1
            assert stats.cache.lookups == stats.cache.hits + stats.cache.misses

    def test_serving_after_close_runs_inline(self, store, reference):
        server = PulseServer(store, cache_capacity=4)
        server.close()
        server.close()  # idempotent
        batch = server.fetch_batch(store.keys()[:5])
        for key, waveform in zip(store.keys()[:5], batch):
            _assert_served(reference, key, waveform)

    def test_single_flight_decodes_once(self, store):
        """N threads missing the same cold key insert exactly once."""
        with PulseServer(store, cache_capacity=8, max_workers=4) as server:
            key = store.keys()[0]
            barrier = threading.Barrier(8)

            def hammer():
                barrier.wait()
                return server.fetch(*key)

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = [f.result() for f in [pool.submit(hammer) for _ in range(8)]]
            assert server.stats().cache.insertions == 1
            first = results[0]
            for waveform in results[1:]:
                assert waveform is first  # literally the cached object

    @settings(max_examples=10, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=16),
        n_shards=st.sampled_from([1, 2, 5]),
        schedules=st.lists(
            st.lists(
                st.tuples(
                    st.booleans(),  # True: fetch_batch, False: fetch
                    st.lists(
                        st.integers(min_value=0, max_value=22),
                        min_size=1,
                        max_size=8,
                    ),
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=2,
            max_size=4,
        ),
    )
    def test_concurrent_interleavings_bit_identical(
        self, compiled, reference, tmp_path_factory, capacity, n_shards, schedules
    ):
        """Any thread interleaving of fetch/fetch_batch serves the
        scalar path's exact samples, within capacity, with consistent
        counters."""
        root = tmp_path_factory.mktemp("interleave") / "s.cqs"
        store = save_store(compiled, root, n_shards=n_shards)
        keys = store.keys()
        with PulseServer(store, cache_capacity=capacity, max_workers=4) as server:

            def run_schedule(schedule):
                out = []
                for batched, indexes in schedule:
                    requested = [keys[i] for i in indexes]
                    if batched:
                        out.extend(zip(requested, server.fetch_batch(requested)))
                    else:
                        for key in requested:
                            out.append((key, server.fetch(*key)))
                return out

            with ThreadPoolExecutor(max_workers=len(schedules)) as pool:
                futures = [pool.submit(run_schedule, s) for s in schedules]
                for future in futures:
                    for key, waveform in future.result():
                        _assert_served(reference, key, waveform)
            stats = server.stats()
            assert stats.cache.size <= capacity
            assert stats.cache.lookups == stats.cache.hits + stats.cache.misses
            assert (
                stats.cache.size
                == stats.cache.insertions - stats.cache.evictions
            )


class TestTraces:
    def test_write_load_round_trip(self, store, tmp_path):
        trace = synthetic_trace(store.keys(), 50, seed=3)
        path = write_trace(trace, tmp_path / "trace.json")
        assert load_trace(path) == trace

    def test_load_accepts_objects_and_pairs(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('[["x", [0]], {"gate": "cx", "qubits": [0, 1]}]')
        assert load_trace(path) == [("x", (0,)), ("cx", (0, 1))]

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        for payload in ("{not json", '{"no": "requests"}', '[["x"]]', '[[3, [0]]]'):
            path.write_text(payload)
            with pytest.raises(StoreError):
                load_trace(path)
        with pytest.raises(StoreError, match="no trace file"):
            load_trace(tmp_path / "missing.json")

    def test_synthetic_trace_is_deterministic_and_in_population(self, store):
        keys = store.keys()
        a = synthetic_trace(keys, 100, seed=9)
        b = synthetic_trace(keys, 100, seed=9)
        assert a == b
        assert set(a) <= set(keys)
        assert synthetic_trace(keys, 100, seed=10) != a

    def test_synthetic_trace_validates(self, store):
        with pytest.raises(StoreError):
            synthetic_trace([], 5)
        with pytest.raises(StoreError):
            synthetic_trace(store.keys(), 0)
        with pytest.raises(StoreError):
            synthetic_trace(store.keys(), 5, skew=-1)


class TestPrewarmCounting:
    """`prewarm` reports genuinely new insertions, not re-warmed keys."""

    def test_second_prewarm_reports_zero(self, store):
        cache = PulseCache(store, capacity=1000)
        assert cache.prewarm() == len(store.keys())
        # Regression: re-insertions used to be counted again, so a
        # second call re-reported the whole library instead of 0.
        assert cache.prewarm() == 0
        assert cache.stats().insertions == len(store.keys())

    def test_prewarm_after_demand_fills_counts_the_remainder(self, store):
        cache = PulseCache(store, capacity=1000)
        warmed = store.keys()[:3]
        for key in warmed:
            cache.get(*key)
        assert cache.prewarm() == len(store.keys()) - len(warmed)
        assert cache.stats().insertions == len(store.keys())


class TestServedBuffersReadOnly:
    """Cached sample buffers cannot be mutated through any alias."""

    def test_cache_hit_rejects_writes_and_reenabling(self, store, reference):
        cache = PulseCache(store, capacity=8)
        key = store.keys()[0]
        waveform = cache.get(*key)
        with pytest.raises(ValueError):
            waveform.samples[0] = 123.0 + 0j
        with pytest.raises(ValueError):
            # The served array is a view over a read-only owner, so the
            # write flag cannot be flipped back on.
            waveform.samples.setflags(write=True)
        _assert_served(reference, key, cache.get(*key))

    def test_every_serving_path_is_locked(self, store):
        with PulseServer(store, cache_capacity=32) as server:
            served = [server.fetch(*store.keys()[0])]
            served.extend(server.fetch_batch(store.keys()[:5]))
            for waveform in served:
                assert not waveform.samples.flags.writeable
                with pytest.raises(ValueError):
                    waveform.samples.setflags(write=True)

    def test_prewarmed_entries_are_locked(self, store):
        cache = PulseCache(store, capacity=1000)
        cache.prewarm()
        for key in store.keys()[:5]:
            waveform = cache.peek(*key)
            with pytest.raises(ValueError):
                waveform.samples.setflags(write=True)


class _ShardGatedStore:
    """Test double: one shard's decode fails fast, another's blocks.

    Everything else falls through to the real store, so the serving
    stack above cannot tell it apart from a misbehaving disk.
    """

    def __init__(self, store, fail_shard, slow_shard, release):
        self._store = store
        self._fail = fail_shard
        self._slow = slow_shard
        self._release = release
        self.slow_fill_done = False

    def __getattr__(self, name):
        return getattr(self._store, name)

    def decode_many(self, requests):
        requests = list(requests)
        shard = self._store.shard_of(*requests[0])
        if shard == self._fail:
            raise StoreError("chaos: injected shard failure")
        if shard == self._slow:
            assert self._release.wait(timeout=10), "gate never released"
            result = self._store.decode_many(requests)
            self.slow_fill_done = True
            return result
        return self._store.decode_many(requests)


class TestFetchBatchPartialFailure:
    def test_typed_error_propagates_after_all_fills_settle(
        self, compiled, tmp_path
    ):
        """One failing shard must not abandon the other shards' fills.

        Regression: fetch_batch used to return on the first failed
        future, leaking the still-running fills ("exception was never
        retrieved") and letting the final key lookup mask the typed
        error as KeyError.
        """
        base = save_store(compiled, tmp_path / "pf.cqs", n_shards=3)
        by_shard = {}
        for key in base.keys():
            by_shard.setdefault(base.shard_of(*key), []).append(key)
        fail_shard, slow_shard = sorted(by_shard)[:2]
        release = threading.Event()
        gated = _ShardGatedStore(base, fail_shard, slow_shard, release)
        with PulseServer(gated, cache_capacity=64, max_workers=4) as server:
            batch = by_shard[fail_shard][:2] + by_shard[slow_shard][:2]
            timer = threading.Timer(0.2, release.set)
            timer.start()
            try:
                with pytest.raises(StoreError, match="injected shard failure"):
                    server.fetch_batch(batch)
            finally:
                release.set()
                timer.cancel()
            # fetch_batch returned only after the slow shard's fill
            # settled -- and that fill's work was not thrown away.
            assert gated.slow_fill_done
            for key in by_shard[slow_shard][:2]:
                assert server.cache.peek(*key) is not None
