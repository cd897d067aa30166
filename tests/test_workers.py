"""Tests for the multi-process decode pool and its serving integration.

The contract under test: every waveform served through a
:class:`~repro.serve_net.workers.DecodePool` is bit-identical to the
scalar decode path regardless of start method or transport (shared
memory or pipe fallback); a worker death fails only its in-flight keys
with a typed :class:`~repro.errors.DecodeWorkerError` and the pool
respawns; drain never deadlocks against concurrent submitters; every
shared-memory segment is unlinked by ``close``; and ``workers=0``
preserves the in-process serving behaviour exactly.  The client-side
retry-with-backoff policy rides along (same PR surface).
"""

import multiprocessing
import os
import pickle
import random
import signal
import threading
import time
from concurrent.futures import Future
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.compression.pipeline import decompress_waveform
from repro.core import CompaqtCompiler
from repro.devices import ibm_device
from repro.errors import DecodeWorkerError, ServerOverloadedError, StoreError
from repro.serve_net import (
    AsyncPulseClient,
    DecodePool,
    PulseClient,
    serve_in_thread,
)
from repro.serve_net.client import _retry_delay
from repro.store import PulseServer, StoreHandle, save_store

START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


@pytest.fixture(scope="module")
def compiled():
    library = ibm_device("bogota").pulse_library()
    return CompaqtCompiler(window_size=16).compile_library(library)


@pytest.fixture(scope="module")
def store(compiled, tmp_path_factory):
    root = tmp_path_factory.mktemp("workers") / "bogota.cqs"
    return save_store(compiled, root, n_shards=3)


@pytest.fixture(scope="module")
def reference(store):
    """The scalar decode path: what every pool-served pulse must equal."""
    return {
        key: decompress_waveform(store.read_record(*key)).samples
        for key in store.keys()
    }


def _assert_identical(reference, keys, waveforms):
    __tracebackhide__ = True
    assert len(waveforms) == len(keys)
    for key, waveform in zip(keys, waveforms):
        assert np.array_equal(waveform.samples, reference[key]), key
        assert not waveform.samples.flags.writeable


class TestStoreHandle:
    def test_handle_is_picklable_and_reopens(self, store):
        handle = store.handle()
        assert isinstance(handle, StoreHandle)
        clone = pickle.loads(pickle.dumps(handle))
        reopened = clone.open()
        try:
            assert sorted(reopened.keys()) == sorted(store.keys())
        finally:
            reopened.close()

    def test_handle_equality(self, store):
        assert store.handle() == store.handle()


class TestPoolIdentity:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_full_catalog_bit_identity(self, store, reference, start_method):
        keys = store.keys()
        with DecodePool(
            store.handle(), workers=2, start_method=start_method
        ) as pool:
            _assert_identical(reference, keys, pool.decode(keys))
            stats = pool.stats()
        assert stats.start_method == start_method
        assert stats.jobs_ok >= 1
        assert stats.shm_jobs >= 1  # default slab fits the catalog

    def test_order_preserved_with_duplicates(self, store, reference):
        keys = store.keys()
        requests = [keys[0], keys[-1], keys[0], keys[1], keys[0]]
        with DecodePool(store.handle(), workers=1) as pool:
            _assert_identical(reference, requests, pool.decode(requests))

    def test_unknown_key_is_typed_and_pool_survives(self, store, reference):
        keys = store.keys()
        with DecodePool(store.handle(), workers=1) as pool:
            with pytest.raises(StoreError) as excinfo:
                pool.decode([("no-such-gate", (0,))])
            assert not isinstance(excinfo.value, DecodeWorkerError)
            # The worker did not die; the next job decodes cleanly.
            _assert_identical(reference, keys, pool.decode(keys))
            assert pool.stats().worker_deaths == 0

    def test_validation(self, store):
        with pytest.raises(StoreError):
            DecodePool(store.handle(), workers=0)
        with pytest.raises(StoreError):
            DecodePool(store.handle(), workers=1, shm_limit=8)


class TestShmFallback:
    def test_undersized_slab_falls_back_bit_identically(self, store, reference):
        keys = store.keys()
        with DecodePool(store.handle(), workers=1, shm_limit=64) as pool:
            _assert_identical(reference, keys, pool.decode(keys))
            stats = pool.stats()
        assert stats.fallback_jobs >= 1
        assert stats.shm_jobs == 0


class TestWorkerCrash:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_crash_fails_only_its_keys_then_respawns(
        self, store, reference, start_method
    ):
        keys = store.keys()
        with DecodePool(
            store.handle(), workers=1, start_method=start_method
        ) as pool:
            with pytest.raises(DecodeWorkerError):
                pool.decode(keys[:3], _crash_worker=True)
            # The respawned worker serves the very next job.
            _assert_identical(reference, keys, pool.decode(keys))
            stats = pool.stats()
        assert stats.worker_deaths == 1
        assert stats.respawns == 1

    def test_crashes_never_hang_concurrent_waiters(self, store, reference):
        keys = store.keys()
        outcomes = []
        lock = threading.Lock()

        with DecodePool(store.handle(), workers=2) as pool:
            def hammer(index):
                rng = random.Random(index)
                for _ in range(8):
                    crash = rng.random() < 0.3
                    try:
                        served = pool.decode(keys, _crash_worker=crash)
                    except DecodeWorkerError:
                        with lock:
                            outcomes.append("died")
                    else:
                        _assert_identical(reference, keys, served)
                        with lock:
                            outcomes.append("ok")

            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "pool hung a coalesced waiter"
            stats = pool.stats()
        assert outcomes.count("died") == stats.worker_deaths
        assert stats.respawns == stats.worker_deaths
        assert outcomes.count("ok") == stats.jobs_ok
        assert outcomes.count("died") == stats.jobs_failed


class TestDispatcherContainment:
    """The dispatcher thread must survive (or contain) every race.

    A worker can die immediately *after* shipping its result: the
    dispatcher then sees an EOF for a slot whose future is already
    resolved, and re-resolving it would kill the dispatcher thread
    with ``InvalidStateError`` -- stranding every later job forever.
    And should the dispatcher ever die of anything else, the pool
    must abort typed rather than hang its waiters.
    """

    def _decode_with_deadline(self, pool, keys, timeout=60):
        box = {}

        def run():
            try:
                box["served"] = pool.decode(keys)
            except BaseException as exc:
                box["raised"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "pool.decode hung"
        return box

    def test_death_after_result_does_not_kill_the_dispatcher(
        self, store, reference
    ):
        keys = store.keys()
        with DecodePool(store.handle(), workers=1) as pool:
            # Recreate the race deterministically: the slot still
            # carries a *finished* future (caller not yet released)
            # when the worker's EOF arrives.
            slot = pool._slots[0]
            finished = Future()
            finished.set_result(("already", "resolved", None))
            with pool._cond:
                slot.job_id = 999
                slot.future = finished
            os.kill(slot.process.pid, signal.SIGKILL)
            deadline = time.time() + 30
            while pool.stats().worker_deaths < 1:
                assert time.time() < deadline, "worker death never detected"
                time.sleep(0.01)
            # The job succeeded before the death: it must not count as
            # failed, and the dispatcher must still be alive to serve
            # the respawned lane.
            assert pool.stats().jobs_failed == 0
            assert pool.stats().respawns == 1
            box = self._decode_with_deadline(pool, keys)
            _assert_identical(reference, keys, box["served"])

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dispatcher_crash_aborts_typed_instead_of_hanging(self, store):
        keys = store.keys()
        pool = DecodePool(store.handle(), workers=2)
        names = [slot.shm.name for slot in pool._slots]

        def boom(slot, message):
            raise RuntimeError("injected dispatcher bug")

        pool._handle_result = boom
        abort = pool._abort

        def lingering_abort(reason):
            abort(reason)
            time.sleep(0.3)  # the dispatcher outlives the lane teardown

        pool._abort = lingering_abort
        box = self._decode_with_deadline(pool, keys)
        assert isinstance(box["raised"], DecodeWorkerError)
        # The pool is closed, later submitters fail typed, and every
        # segment is unlinked even on this path.  (Waiters are failed
        # *before* lane teardown, so give the teardown a moment.)
        with pytest.raises(DecodeWorkerError):
            pool.decode(keys)
        deadline = time.time() + 30

        def unlinked(name):
            try:
                segment = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                return True
            segment.close()
            return False

        while not all(unlinked(name) for name in names):
            assert time.time() < deadline, "abort leaked a segment"
            time.sleep(0.01)
        # close() after the abort still joins the dispatcher, so its
        # re-raised crash lands inside this test, not a later one.
        pool.close()
        assert not pool._dispatcher.is_alive()


class TestDrain:
    def test_close_is_idempotent_and_decode_after_close_is_typed(self, store):
        pool = DecodePool(store.handle(), workers=1)
        pool.close()
        pool.close()
        with pytest.raises(DecodeWorkerError):
            pool.decode(store.keys())

    def test_drain_races_concurrent_submitters_without_deadlock(
        self, store, reference
    ):
        keys = store.keys()
        pool = DecodePool(store.handle(), workers=2)
        start = threading.Barrier(7)
        outcomes = []
        lock = threading.Lock()

        def submitter():
            start.wait()
            for _ in range(4):
                try:
                    served = pool.decode(keys)
                except DecodeWorkerError:
                    with lock:
                        outcomes.append("closed")
                else:
                    _assert_identical(reference, keys, served)
                    with lock:
                        outcomes.append("ok")

        threads = [threading.Thread(target=submitter) for _ in range(6)]
        for thread in threads:
            thread.start()
        start.wait()
        time.sleep(0.01)
        pool.close()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "close() deadlocked a submitter"
        assert outcomes and set(outcomes) <= {"ok", "closed"}

    def test_every_segment_unlinked_on_close(self, store):
        pool = DecodePool(store.handle(), workers=3)
        names = [slot.shm.name for slot in pool._slots]
        pool.decode(store.keys())
        pool.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_segments_unlinked_even_with_dead_workers(self, store):
        pool = DecodePool(store.handle(), workers=2)
        names = [slot.shm.name for slot in pool._slots]
        with pytest.raises(DecodeWorkerError):
            pool.decode(store.keys(), _crash_worker=True)
        pool.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestPulseServerPool:
    def test_workers_zero_is_exactly_in_process(self, store, reference):
        keys = store.keys()
        with PulseServer(store, cache_capacity=len(keys), workers=0) as server:
            assert server.pool is None
            _assert_identical(reference, keys, server.fetch_batch(keys))
            assert server.stats().pool is None
            assert "pool" not in server.stats().as_dict()

    def test_pool_fills_are_bit_identical_and_cached(self, store, reference):
        keys = store.keys()
        with PulseServer(store, cache_capacity=len(keys), workers=2) as server:
            _assert_identical(reference, keys, server.fetch_batch(keys))
            cache = server.cache.stats()
            assert cache.insertions == len(keys)
            # Warm pass: all hits, the pool is not consulted again.
            jobs_before = server.pool.stats().jobs_ok
            _assert_identical(reference, keys, server.fetch_batch(keys))
            assert server.pool.stats().jobs_ok == jobs_before
            stats = server.stats().as_dict()
        assert stats["pool"]["workers"] == 2

    def test_single_flight_holds_under_pool_fills(self, store, reference):
        keys = store.keys()
        with PulseServer(store, cache_capacity=len(keys), workers=2) as server:
            barrier = threading.Barrier(8)
            failures = []

            def hammer():
                barrier.wait()
                try:
                    _assert_identical(reference, keys, server.fetch_batch(keys))
                except BaseException as exc:  # surfaced after join
                    failures.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert not failures
            cache = server.cache.stats()
            # Coalescing law: each key decoded and inserted exactly once.
            assert cache.insertions == len(keys)
            assert cache.evictions == 0

    def test_close_drains_the_pool(self, store):
        server = PulseServer(store, cache_capacity=4, workers=1)
        pool = server.pool
        server.close()
        assert server.pool is None
        with pytest.raises(DecodeWorkerError):
            pool.decode(store.keys())

    def test_workers_validated(self, store):
        with pytest.raises(StoreError):
            PulseServer(store, cache_capacity=4, workers=-1)


class TestClientRetry:
    @pytest.fixture()
    def serving(self, store):
        with PulseServer(store, cache_capacity=len(store.keys())) as server:
            with serve_in_thread(server) as handle:
                yield handle

    def test_retry_recovers_from_transient_overload(
        self, serving, store, reference
    ):
        keys = store.keys()
        with PulseClient(
            serving.address, retries=3, backoff=0.001, seed=7
        ) as client:
            real_roundtrip = client._roundtrip
            sheds = [2]

            def flaky_roundtrip(frame):
                if sheds[0]:
                    sheds[0] -= 1
                    raise ServerOverloadedError("test shed")
                return real_roundtrip(frame)

            client._roundtrip = flaky_roundtrip
            _assert_identical(reference, keys, client.fetch_batch(keys))
            assert client.retries_performed == 2

    def test_retries_exhausted_surfaces_overload(self, serving, store):
        with PulseClient(
            serving.address, retries=1, backoff=0.001, seed=7
        ) as client:
            def always_shed(frame):
                raise ServerOverloadedError("test shed")

            client._roundtrip = always_shed
            with pytest.raises(ServerOverloadedError):
                client.fetch_batch(store.keys())
            assert client.retries_performed == 1

    def test_async_client_retries(self, serving, store, reference):
        import asyncio

        keys = store.keys()

        async def _run():
            async with AsyncPulseClient(
                serving.address, retries=2, backoff=0.001, seed=7
            ) as client:
                real_roundtrip = client._roundtrip
                sheds = [1]

                async def flaky_roundtrip(frame):
                    if sheds[0]:
                        sheds[0] -= 1
                        raise ServerOverloadedError("test shed")
                    return await real_roundtrip(frame)

                client._roundtrip = flaky_roundtrip
                served = await client.fetch_batch(keys)
                assert client.retries_performed == 1
                return served

        _assert_identical(reference, keys, asyncio.run(_run()))

    def test_retry_delay_is_seeded_exponential_with_jitter(self):
        rng = random.Random(0)
        for attempt in range(4):
            step = 0.05 * 2**attempt
            delay = _retry_delay(rng, 0.05, attempt)
            assert 0.5 * step <= delay < 1.5 * step
        assert _retry_delay(random.Random(3), 0.05, 0) == _retry_delay(
            random.Random(3), 0.05, 0
        )

    def test_retry_validation(self):
        with pytest.raises(StoreError):
            PulseClient(("127.0.0.1", 1), retries=-1)
        with pytest.raises(StoreError):
            AsyncPulseClient(("127.0.0.1", 1), backoff=-0.1)

    def test_default_is_raise_immediately(self, serving, store):
        with PulseClient(serving.address) as client:
            assert (client.retries, client.retries_performed) == (0, 0)

            def always_shed(frame):
                raise ServerOverloadedError("test shed")

            client._roundtrip = always_shed
            with pytest.raises(ServerOverloadedError):
                client.fetch(*store.keys()[0])
            assert client.retries_performed == 0
