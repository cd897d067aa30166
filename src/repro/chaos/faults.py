"""Deterministic, seeded fault injection for the serving stack.

The serving tier's failure paths (corrupt records, failed maps, slow
disks, hostile thread interleavings) are exactly the paths example-based
tests never reach under healthy inputs.  This module makes them
routine: a :class:`FaultPlan` decides *when* to hurt a read and *how*,
and :class:`FaultyStore` wraps a live
:class:`~repro.store.sharded.ShardedStore` so the cache, the pulse
server, and the network tier above it exercise their error handling
without knowing they are under test.

Fault taxonomy (``FAULT_KINDS``):

``truncate``
    A record span loses its tail before decode -- the fused parser is
    total, so this must surface as :class:`~repro.errors.CompressionError`.
``bitflip``
    One bit of a record span flips.  The default target is the 4-byte
    ``CQW1`` magic (guaranteed detection); ``bitflip_target="payload"``
    flips deeper bytes that may *parse* into garbage samples -- the mode
    used to prove the harness's bit-identity oracle actually catches
    undetectable corruption.
``map_oserror``
    The next shard map on the injecting thread raises ``OSError``
    inside :class:`~repro.store.sharded._MmapPool`, taking the same
    translation path as a real mmap failure (typed ``StoreError``).
    Transient: the following read remaps cleanly.
``slow_io``
    The injecting thread's next pool read sleeps ``slow_io_delay``
    seconds first -- a degraded disk, not an error.

Scheduling is deterministic: batch decode number ``tick`` draws a fault
iff ``(tick + 1) % period == 0``, cycling through ``kinds`` in order,
and all victim/bit choices come from ``random.Random`` seeded by
``(seed, tick)``.  Two runs with the same plan and the same per-thread
operation sequence inject the same faults.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StoreError
from repro.pulses.waveform import Waveform
from repro.store.sharded import ShardedStore, normalize_key

__all__ = [
    "FAULT_KINDS",
    "POOL_FAULT_KINDS",
    "WRITE_FAULT_KINDS",
    "FaultPlan",
    "FaultyStore",
]

_Key = Tuple[str, Tuple[int, ...]]

#: Every read-path fault kind a plan may schedule, in default rotation
#: order.
FAULT_KINDS = ("truncate", "bitflip", "map_oserror", "slow_io")

#: Fault kinds the runner injects at the :class:`DecodePool` level
#: rather than through :class:`FaultyStore` -- decode workers open the
#: store themselves in another process, out of a wrapper's reach, so
#: these are delivered as real SIGKILLs (``worker_kill``) and a slab
#: too small for any batch (``shm_exhaust``, forcing the pipe-fallback
#: path).  See :func:`repro.chaos.runner.run_chaos`.
POOL_FAULT_KINDS = ("worker_kill", "shm_exhaust")

#: Fault kinds the runner injects into the CQS2 *commit protocol*
#: (:class:`repro.store.writable.StoreWriter`) during the write-storm
#: phase: ``crash_commit`` aborts a commit at a seeded
#: :data:`~repro.store.writable.COMMIT_HOOK_POINTS` yield point,
#: ``torn_write`` truncates the tail of a just-published generation
#: manifest (simulating rename-durable-but-data-torn storage).  Both
#: must leave the store reopenable as exactly the previous or the new
#: generation.
WRITE_FAULT_KINDS = ("crash_commit", "torn_write")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults.

    Args:
        seed: Root of every random choice (victim record, bit index).
        period: One fault per ``period`` batch decodes (>= 1).
        kinds: Rotation of fault kinds; subset of :data:`FAULT_KINDS`.
        slow_io_delay: Sleep, in seconds, for ``slow_io`` faults.
        bitflip_target: ``"magic"`` flips a header bit (always detected
            as ``CompressionError``); ``"payload"`` flips body bits
            that can decode into silent garbage, for validating the
            identity oracle itself.
    """

    seed: int = 0
    period: int = 7
    kinds: Tuple[str, ...] = FAULT_KINDS
    slow_io_delay: float = 0.002
    bitflip_target: str = "magic"

    def __post_init__(self) -> None:
        if self.period < 1:
            raise StoreError(f"fault period must be >= 1, got {self.period}")
        if not self.kinds:
            raise StoreError("fault plan needs at least one kind")
        unknown = set(self.kinds) - set(FAULT_KINDS) - set(WRITE_FAULT_KINDS)
        if unknown:
            raise StoreError(f"unknown fault kinds: {sorted(unknown)}")
        if self.bitflip_target not in ("magic", "payload"):
            raise StoreError(
                f"bitflip_target must be 'magic' or 'payload', "
                f"got {self.bitflip_target!r}"
            )
        if self.slow_io_delay < 0:
            raise StoreError("slow_io_delay must be >= 0")

    def fault_for(self, tick: int) -> Optional[str]:
        """The fault kind for batch decode number ``tick``, if any."""
        if (tick + 1) % self.period:
            return None
        return self.kinds[((tick + 1) // self.period - 1) % len(self.kinds)]

    def rng_for(self, tick: int) -> random.Random:
        """The (deterministic) choice stream for one tick's fault."""
        return random.Random((self.seed << 24) ^ tick)


class FaultyStore:
    """A fault-injecting proxy with a ``ShardedStore``'s read surface.

    Duck-typed: :class:`~repro.store.cache.PulseCache`,
    :class:`~repro.store.server.PulseServer`, and the network tier
    accept one anywhere a real store goes (attribute access falls
    through to the wrapped store).  Only :meth:`decode_many` -- the
    serving cold-miss path -- draws corruption faults; ``map_oserror``
    and ``slow_io`` are armed per-thread and fire inside the wrapped
    store's mmap pool via its ``io_fault_hook``, so they hit *every*
    read path at the layer a real disk would.

    Injected-fault counts are kept per kind in ``faults_injected``
    (thread-safe).  Use :meth:`calm` to suspend injection (e.g. for
    post-fault recovery reads).
    """

    def __init__(self, store: ShardedStore, plan: FaultPlan) -> None:
        write_kinds = set(plan.kinds) & set(WRITE_FAULT_KINDS)
        if write_kinds:
            raise StoreError(
                "FaultyStore injects read-path faults only; "
                f"{sorted(write_kinds)} belong to the commit protocol "
                "(see repro.chaos.runner's write storm)"
            )
        self._store = store
        self.plan = plan
        self._lock = threading.Lock()
        self._tick = 0
        self._armed = threading.local()
        self.enabled = True
        self.faults_injected: "Counter[str]" = Counter()
        store.io_fault_hook = self._pool_hook

    # -- delegation ----------------------------------------------------------

    def __getattr__(self, name: str):
        return getattr(self._store, name)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key) -> bool:
        return key in self._store

    def __repr__(self) -> str:
        return f"FaultyStore({self._store!r}, plan={self.plan!r})"

    # -- control -------------------------------------------------------------

    @contextlib.contextmanager
    def calm(self) -> Iterator[None]:
        """Suspend fault injection inside the block (not thread-scoped)."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def detach(self) -> None:
        """Unhook from the wrapped store's mmap pool."""
        self._store.io_fault_hook = None

    # -- the injection points --------------------------------------------------

    def _pool_hook(self, event: str, shard: int) -> None:
        armed = self._armed.__dict__
        if event == "view" and armed.pop("slow_io", False):
            time.sleep(self.plan.slow_io_delay)
        elif event == "map" and armed.pop("map_oserror", False):
            raise OSError("chaos: injected transient mmap failure")

    def _draw(self) -> Tuple[Optional[str], int]:
        with self._lock:
            tick = self._tick
            self._tick += 1
            if not self.enabled:
                return None, tick
            kind = self.plan.fault_for(tick)
            if kind is not None:
                self.faults_injected[kind] += 1
            return kind, tick

    def decode_many(
        self, requests: Iterable[Tuple[str, Sequence[int]]]
    ) -> List[Waveform]:
        """The wrapped fused decode, with this tick's fault applied."""
        requests = list(requests)
        kind, tick = self._draw()
        if kind is None or not requests:
            return self._store.decode_many(requests)
        if kind == "slow_io":
            self._armed.slow_io = True
            return self._store.decode_many(requests)
        if kind == "map_oserror":
            self._armed.map_oserror = True
            # Drop the pooled mappings so the next view *must* remap --
            # that map attempt trips the armed hook and surfaces as a
            # typed StoreError; the read after it remaps cleanly.
            self._store.close()
            try:
                return self._store.decode_many(requests)
            finally:
                self._armed.map_oserror = False
        return self._decode_with_corruption(kind, tick, requests)

    def _decode_with_corruption(
        self, kind: str, tick: int, requests: List[Tuple[str, Sequence[int]]]
    ) -> List[Waveform]:
        """Damage one record's bytes, decode the batch like the store would."""
        rng = self.plan.rng_for(tick)
        keys = [normalize_key(*request) for request in requests]
        unique = list(dict.fromkeys(keys))
        victim = rng.randrange(len(unique))
        views: List[memoryview] = []
        for position, key in enumerate(unique):
            blob = bytearray(self._store.read_record_bytes(*key))
            if position == victim:
                self._damage(kind, blob, rng)
            views.append(memoryview(bytes(blob)))
        # Same fused decoder and layouts the store uses, so damaged
        # bytes meet the layouts filled from the clean ones: a detected
        # fault raises CompressionError for the batch; an undetectable
        # payload flip decodes to garbage the identity oracle must flag.
        waveforms = self._store.decode_spans(unique, views)
        decoded = dict(zip(unique, waveforms))
        return [decoded[key] for key in keys]

    def _damage(self, kind: str, blob: bytearray, rng: random.Random) -> None:
        if kind == "truncate":
            del blob[max(1, rng.randrange(1, max(2, len(blob)))):]
            return
        assert kind == "bitflip"
        if self.plan.bitflip_target == "magic":
            index = rng.randrange(min(4, len(blob)))
        else:
            index = rng.randrange(min(8, len(blob) - 1), len(blob))
        blob[index] ^= 1 << rng.randrange(8)
