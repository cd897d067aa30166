"""Multi-process decode workers with shared-memory sample handoff.

COMPAQT's scaling argument is that *decode bandwidth*, not storage, is
the bottleneck for qubit-control waveform memory -- and the serving
tier mirrors that: a single Python process tops out on the cold-miss
path because the fused parse walk and CQN1 framing hold the GIL even
though the numpy inverse kernels release it.  This module fans the
cold path out across real processes, the software analogue of the
parallel decode lanes the controller-scaling literature puts behind
one front end.

Architecture (one :class:`DecodePool`, ``N`` workers)::

    caller threads                 parent                    workers
    --------------     --------------------------    -------------------
    decode(keys) ----> slot acquire (condition)
                       job -> request pipe  ------>  open store handle
                                                     fused decode_many
                                                     samples -> shm slab
                       dispatcher thread  <--------  ("ok", metas) pipe
                       future resolves
    materialize from slab (read-only view)
    slot released  <-- only after materialize

Design points:

* **No sample bytes through a pipe.**  Each worker owns one
  parent-created ``multiprocessing.shared_memory`` slab; decoded
  complex128 buffers are written at 16-byte-aligned offsets and only
  tiny ``(name, dt, gate, qubits, offset, n)`` metadata tuples cross
  the pipe.  Jobs whose samples exceed the slab fall back to sending
  bytes through the pipe -- correct, counted, just slower.
* **One job in flight per worker.**  A slot is reacquirable only
  after the *caller* finishes materializing from the slab, so a slab
  is never overwritten while a reader still points at it.
* **Crash containment via channel isolation.**  Each worker talks
  over its own pair of ``Pipe`` connections -- never a shared
  ``multiprocessing.Queue``, whose cross-process feeder locks a dying
  worker can leave held forever (the reason
  ``ProcessPoolExecutor`` declares the whole pool broken on one
  death).  A dead worker can only corrupt its own channels, and a
  respawn replaces them wholesale: the dispatcher thread multiplexes
  results with :func:`multiprocessing.connection.wait`, reads death
  as EOF, fails only that worker's in-flight keys with a typed
  :class:`~repro.errors.DecodeWorkerError`, and restarts the lane on
  fresh pipes.  No caller waits on a dead lane forever.
* **Typed errors end to end.**  Worker-side failures are shipped as
  ``(type name, message)`` and mapped back onto the
  :mod:`repro.errors` hierarchy in the parent; anything unknown
  arrives as :class:`~repro.errors.DecodeWorkerError`.

``workers=0`` at the serving layer means "no pool at all": fills
decode in-process.  Either way the pool only decodes; the cache insert
happens in the parent through the one fill path,
:meth:`repro.store.cache.PulseCache.load_many`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from multiprocessing import connection, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.errors as _errors
from repro.errors import DecodeWorkerError, StoreError
from repro.obs import DEFAULT_SIZE_BOUNDS, MetricsRegistry, merge_snapshots
from repro.obs import trace as obs_trace
from repro.pulses.waveform import Waveform
from repro.store.sharded import StoreHandle

__all__ = ["DEFAULT_SHM_LIMIT", "DecodePool", "PoolStats"]

#: Default per-worker shared-memory slab, sized for serving batches:
#: the largest catalog pulses run ~500 complex128 samples (8 KB), so
#: 8 MiB holds a 64-pulse batch with two orders of magnitude to spare.
DEFAULT_SHM_LIMIT = 8 << 20

_ALIGN = 16  # complex128 itemsize; keeps frombuffer offsets aligned.

_Key = Tuple[str, Tuple[int, ...]]

#: Worker -> parent error mapping: every public exception class in
#: :mod:`repro.errors` can round-trip by name; anything else is
#: wrapped in :class:`DecodeWorkerError` on arrival.
_TYPED_ERRORS: Dict[str, type] = {
    name: obj
    for name, obj in vars(_errors).items()
    if isinstance(obj, type) and issubclass(obj, _errors.ReproError)
}


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _fail(future: Future, exc: BaseException) -> bool:
    """Fail ``future`` unless a resolution already won the race.

    A worker can die immediately *after* shipping its result: the
    dispatcher then sees both the "ok" message and the EOF for the
    same slot (the caller has not released it yet), and the death
    path must not re-resolve the finished future -- the
    ``InvalidStateError`` would kill the dispatcher thread, and a
    dead dispatcher strands every later job forever.

    Returns whether this call resolved the future: the caller that
    wins the race owns the job's ok/failed accounting.
    """
    try:
        future.set_exception(exc)
        return True
    except InvalidStateError:
        return False


def _pack_results(waveforms, buf, limit: int):
    """Lay decoded sample buffers into the slab (or a fallback payload).

    Returns ``(metas, used_shm, payload)`` where each meta is
    ``(name, dt, gate, qubits, byte_offset, n_samples)`` and offsets
    index into the slab when ``used_shm`` else into ``payload``.
    """
    total = 0
    for waveform in waveforms:
        total = _aligned(total) + waveform.samples.nbytes
    if total <= limit:
        metas = []
        offset = 0
        for waveform in waveforms:
            offset = _aligned(offset)
            raw = waveform.samples.tobytes()
            buf[offset : offset + len(raw)] = raw
            metas.append(
                (
                    waveform.name,
                    waveform.dt,
                    waveform.gate,
                    tuple(waveform.qubits),
                    offset,
                    waveform.samples.size,
                )
            )
            offset += len(raw)
        return metas, True, None
    # Slab overflow: ship the bytes through the pipe instead.  Same
    # layout discipline so the parent materializer is shared.
    metas = []
    chunks = []
    offset = 0
    for waveform in waveforms:
        aligned = _aligned(offset)
        if aligned != offset:
            chunks.append(b"\x00" * (aligned - offset))
            offset = aligned
        raw = waveform.samples.tobytes()
        chunks.append(raw)
        metas.append(
            (
                waveform.name,
                waveform.dt,
                waveform.gate,
                tuple(waveform.qubits),
                offset,
                waveform.samples.size,
            )
        )
        offset += len(raw)
    return metas, False, b"".join(chunks)


def _materialize(metas, buf) -> List[Waveform]:
    """Rebuild waveforms from a packed buffer as immutable-by-aliasing.

    Each sample array is copied out of the (transient) slab into a
    private owner, flagged read-only, and served as a *view over that
    read-only owner* -- exactly the shape
    :func:`repro.store.cache._lock_samples` treats as already safe, so
    cache insertion takes the zero-copy path.
    """
    out = []
    for name, dt, gate, qubits, offset, n_samples in metas:
        owned = np.frombuffer(
            buf, dtype=np.complex128, count=n_samples, offset=offset
        ).copy()
        owned.setflags(write=False)
        samples = owned[:]
        waveform = object.__new__(Waveform)
        set_ = object.__setattr__
        set_(waveform, "name", name)
        set_(waveform, "samples", samples)
        set_(waveform, "dt", dt)
        set_(waveform, "gate", gate)
        set_(waveform, "qubits", tuple(qubits))
        set_(waveform, "metadata", {})
        out.append(waveform)
    return out


def _worker_main(
    handle: StoreHandle,
    request_conn,
    result_conn,
    shm_name: str,
    shm_limit: int,
) -> None:
    """Worker loop: attach the slab, open the store, serve decode jobs.

    Runs in a child process (must stay module-level and fully picklable
    for ``spawn``).  Every failure inside a job is shipped back typed;
    the loop itself exits on the ``stop`` sentinel or parent-side EOF.
    """
    # Python 3.11's SharedMemory registers *attached* segments with the
    # resource tracker too (no ``track=False`` until 3.13).  The parent
    # owns creation and unlink; letting the attach register would either
    # log spurious leak warnings at worker shutdown (spawn: own tracker)
    # or -- worse -- strip the parent's registration when a worker-side
    # unregister reaches the shared fork tracker.  So registration is
    # suppressed for the duration of the attach.
    from multiprocessing import resource_tracker

    register = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        shm = shared_memory.SharedMemory(name=shm_name)
    finally:
        resource_tracker.register = register
    store = handle.open()
    # Per-lane telemetry: a private registry whose *cumulative*
    # snapshot rides back on every result message.  The dispatcher
    # keeps the latest snapshot per lane and folds a dead lane's last
    # snapshot into a retired total, so pool-wide aggregation survives
    # worker death.
    lane_metrics = MetricsRegistry()
    lane_jobs = lane_metrics.counter("pool.worker.jobs")
    lane_pulses = lane_metrics.counter("pool.worker.pulses")
    lane_decode_s = lane_metrics.histogram("pool.worker.decode_seconds")
    try:
        while True:
            try:
                message = request_conn.recv()
            except (EOFError, OSError):
                break  # parent went away: exit quietly.
            if message[0] == "stop":
                break
            _, job_id, keys, crash, traced = message
            if crash:
                # Deterministic crash seam for lifecycle tests and the
                # chaos harness: die exactly as an OOM-killed or
                # segfaulted worker would -- no cleanup, no reply.
                os._exit(1)
            try:
                started = time.perf_counter()
                waveforms = store.decode_many(keys)
                metas, used_shm, payload = _pack_results(
                    waveforms, shm.buf, shm_limit
                )
                duration = time.perf_counter() - started
                lane_jobs.inc()
                lane_pulses.inc(len(keys))
                lane_decode_s.observe(duration)
                # perf_counter is CLOCK_MONOTONIC on Linux -- system-
                # wide, so this start/duration pair is directly
                # comparable to spans measured in the parent.
                span = (
                    ("pool.worker", started, duration, {"pid": os.getpid()})
                    if traced
                    else None
                )
                result_conn.send(
                    (
                        "ok",
                        job_id,
                        metas,
                        used_shm,
                        payload,
                        span,
                        lane_metrics.snapshot(),
                    )
                )
            except BaseException as exc:  # ship *everything* back typed
                result_conn.send(
                    (
                        "err",
                        job_id,
                        type(exc).__name__,
                        str(exc),
                        lane_metrics.snapshot(),
                    )
                )
    finally:
        store.close()
        shm.close()
        request_conn.close()
        result_conn.close()


@dataclass(frozen=True, slots=True)
class PoolStats:
    """A point-in-time snapshot of one pool's counters."""

    workers: int
    start_method: str
    shm_limit: int
    jobs_ok: int
    jobs_failed: int
    shm_jobs: int
    fallback_jobs: int
    worker_deaths: int
    respawns: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "start_method": self.start_method,
            "shm_limit": self.shm_limit,
            "jobs_ok": self.jobs_ok,
            "jobs_failed": self.jobs_failed,
            "shm_jobs": self.shm_jobs,
            "fallback_jobs": self.fallback_jobs,
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
        }


class _Slot:
    """One worker lane: process + private pipes + shm slab.

    The pipes belong to exactly one worker generation; a respawn
    replaces them, so a killed process can never wedge its successor.
    """

    __slots__ = (
        "index",
        "shm",
        "process",
        "request_conn",
        "result_conn",
        "job_id",
        "future",
        "metrics",
    )

    def __init__(self, index: int, shm) -> None:
        self.index = index
        self.shm = shm
        self.process = None
        self.request_conn = None  # parent-side write end
        self.result_conn = None  # parent-side read end
        self.job_id: Optional[int] = None  # current in-flight job
        self.future: Optional[Future] = None
        self.metrics: Optional[Dict] = None  # latest lane registry snapshot


class DecodePool:
    """A pool of decode worker processes behind one serving parent.

    Args:
        handle: Picklable recipe for the store each worker reopens
            read-only (see :meth:`repro.store.sharded.ShardedStore.handle`).
        workers: Number of worker processes (>= 1; the serving layer's
            ``workers=0`` means "do not construct a pool at all").
        shm_limit: Per-worker shared-memory slab in bytes.  Jobs whose
            decoded samples exceed it fall back to pipe transport
            (counted in ``fallback_jobs``), so a tiny limit degrades
            throughput, never correctness.
        start_method: ``"fork"``, ``"spawn"``, ``"forkserver"``, or
            ``None`` for the platform default.
        metrics: Registry for the parent-side ``pool.*`` counters
            (private by default; the serving layer passes its own so
            one registry covers the whole server).  Worker-side
            ``pool.worker.*`` metrics live in per-lane registries and
            are merged via :meth:`lane_metrics_snapshot`.
    """

    def __init__(
        self,
        handle: StoreHandle,
        workers: int,
        shm_limit: int = DEFAULT_SHM_LIMIT,
        start_method: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise StoreError(f"DecodePool needs workers >= 1, got {workers}")
        if shm_limit < _ALIGN:
            raise StoreError(
                f"shm_limit must be >= {_ALIGN} bytes, got {shm_limit}"
            )
        self._handle = handle
        self._ctx = multiprocessing.get_context(start_method)
        self.workers = workers
        self.shm_limit = shm_limit
        self.start_method = self._ctx.get_start_method()
        self._cond = threading.Condition()
        self._idle: List[int] = []
        self._slots: List[_Slot] = []
        self._closed = False
        self._next_job_id = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._jobs_submitted = self.metrics.counter("pool.jobs_submitted")
        self._jobs_ok = self.metrics.counter("pool.jobs_ok")
        self._jobs_failed = self.metrics.counter("pool.jobs_failed")
        self._shm_jobs = self.metrics.counter("pool.shm_jobs")
        self._fallback_jobs = self.metrics.counter("pool.fallback_jobs")
        self._worker_deaths = self.metrics.counter("pool.worker_deaths")
        self._respawns = self.metrics.counter("pool.respawns")
        self._decode_seconds = self.metrics.histogram("pool.decode_seconds")
        self._decode_pulses = self.metrics.histogram(
            "pool.decode_batch_pulses", DEFAULT_SIZE_BOUNDS
        )
        self._retired_lane_metrics: Dict = merge_snapshots()
        try:
            for index in range(workers):
                shm = shared_memory.SharedMemory(create=True, size=shm_limit)
                slot = _Slot(index, shm)
                self._slots.append(slot)
                self._spawn(slot)
                self._idle.append(index)
        except BaseException:
            self._teardown_segments()
            raise
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="decode-pool-dispatch", daemon=True
        )
        self._dispatcher.start()

    # -- worker lifecycle -----------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        """Start a fresh worker generation on ``slot`` with fresh pipes."""
        request_read, request_write = self._ctx.Pipe(duplex=False)
        result_read, result_write = self._ctx.Pipe(duplex=False)
        slot.process = self._ctx.Process(
            target=_worker_main,
            args=(
                self._handle,
                request_read,
                result_write,
                slot.shm.name,
                self.shm_limit,
            ),
            name=f"decode-worker-{slot.index}",
            daemon=True,
        )
        slot.process.start()
        # The child owns its ends now; keeping our copies open would
        # mask worker death (no EOF on the result pipe).
        request_read.close()
        result_write.close()
        slot.request_conn = request_write
        slot.result_conn = result_read

    @property
    def pids(self) -> List[int]:
        """Live worker PIDs (the chaos harness kills from this list)."""
        with self._cond:
            return [
                slot.process.pid
                for slot in self._slots
                if slot.process is not None and slot.process.pid is not None
            ]

    # -- the decode path ------------------------------------------------------

    def decode(
        self,
        keys: Sequence[Tuple[str, Sequence[int]]],
        *,
        _crash_worker: bool = False,
    ) -> List[Waveform]:
        """Fused-decode ``keys`` in a worker; results in request order.

        Thread-safe; callers block while all lanes are busy (one job in
        flight per worker).  Raises the worker's typed error on decode
        failure, or :class:`~repro.errors.DecodeWorkerError` if the
        worker died mid-job or the pool is closed.

        ``_crash_worker`` is the deterministic crash seam: the worker
        ``os._exit(1)``'s instead of decoding (tests + chaos only).
        """
        if not keys:
            return []
        slot = self._acquire_slot()
        try:
            future: Future = Future()
            with self._cond:
                if self._closed:
                    raise DecodeWorkerError("decode pool is closed")
                job_id = self._next_job_id
                self._next_job_id += 1
                slot.job_id = job_id
                slot.future = future
                request_conn = slot.request_conn
                self._jobs_submitted.inc()
            started = time.perf_counter()
            with obs_trace.span("pool.decode", lane=slot.index, keys=len(keys)) as sp:
                try:
                    request_conn.send(
                        ("job", job_id, list(keys), _crash_worker, sp is not None)
                    )
                except (BrokenPipeError, EOFError, OSError):
                    # The worker died under us; the dispatcher will see
                    # the EOF on its result pipe and fail this future
                    # typed.
                    pass
                metas, used_shm, payload, worker_span = future.result()
                if sp is not None and worker_span is not None:
                    # Graft the worker-measured decode span into the
                    # live trace (same perf_counter domain on Linux).
                    stage, span_start, span_duration, tags = worker_span
                    sp.add_finished_child(stage, span_start, span_duration, **tags)
                buf = slot.shm.buf if used_shm else payload
                out = _materialize(metas, buf)
            self._decode_seconds.observe(time.perf_counter() - started)
            self._decode_pulses.observe(len(keys))
            return out
        finally:
            # Release *after* materializing -- the slab must not be
            # overwritten by the next job while we still read from it.
            self._release_slot(slot)

    def _acquire_slot(self) -> _Slot:
        with self._cond:
            while not self._idle and not self._closed:
                self._cond.wait()
            if self._closed:
                raise DecodeWorkerError("decode pool is closed")
            return self._slots[self._idle.pop()]

    def _release_slot(self, slot: _Slot) -> None:
        with self._cond:
            slot.job_id = None
            slot.future = None
            if not self._closed:
                self._idle.append(slot.index)
                self._cond.notify()

    # -- the dispatcher thread ------------------------------------------------

    def _dispatch_loop(self) -> None:
        """Multiplex result pipes; turn EOF into contained worker death.

        Containment of last resort: if the loop itself ever raises, a
        silently dead dispatcher would strand every waiter forever, so
        ``_abort`` fails all in-flight futures typed, wakes blocked
        slot acquirers, and tears the lanes down before re-raising.
        """
        try:
            self._dispatch()
        except BaseException:
            self._abort("decode pool dispatcher crashed; pool is closed")
            raise

    def _dispatch(self) -> None:
        while True:
            with self._cond:
                if self._closed and all(
                    slot.future is None for slot in self._slots
                ):
                    return
                by_conn = {
                    slot.result_conn: slot
                    for slot in self._slots
                    if slot.result_conn is not None
                }
            try:
                ready = connection.wait(list(by_conn), timeout=0.05)
            except OSError:
                ready = []
            if not ready:
                self._reap_dead_workers()
                continue
            for conn in ready:
                slot = by_conn[conn]
                with self._cond:
                    if slot.result_conn is not conn:
                        continue  # lane respawned since we polled
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._handle_death(slot)
                    continue
                self._handle_result(slot, message)

    def _handle_result(self, slot: _Slot, message) -> None:
        kind, job_id = message[0], message[1]
        with self._cond:
            if slot.job_id != job_id or slot.future is None:
                return  # stale result from before a respawn: drop it.
            future = slot.future
            if kind == "ok":
                _, _, metas, used_shm, payload, worker_span, lane_snap = message
            else:
                _, _, exc_name, exc_message, lane_snap = message
            slot.metrics = lane_snap
        # Job accounting follows the future's *resolution*: whoever
        # resolves it (this handler, close(), _abort(), or the death
        # path) counts it, so ``jobs_ok + jobs_failed ==
        # jobs_submitted`` holds exactly even across shutdown races --
        # the chaos invariant checker enforces that law.
        if kind == "ok":
            try:
                future.set_result((metas, used_shm, payload, worker_span))
            except InvalidStateError:
                return  # close() failed it while the result was in the pipe
            self._jobs_ok.inc()
            if used_shm:
                self._shm_jobs.inc()
            else:
                self._fallback_jobs.inc()
        else:
            exc_type = _TYPED_ERRORS.get(exc_name)
            if exc_type is None:
                exc: BaseException = DecodeWorkerError(
                    f"decode worker failed: {exc_name}: {exc_message}"
                )
            else:
                exc = exc_type(exc_message)
            if _fail(future, exc):
                self._jobs_failed.inc()

    def _handle_death(self, slot: _Slot) -> None:
        """Fail a dead worker's in-flight keys; respawn it on its slot."""
        with self._cond:
            process = slot.process
            if process is None:
                return
            self._worker_deaths.inc()
            future = slot.future
            slot.job_id = None
            slot.future = None
            # Fold the lane's last-known snapshot into the retired
            # total so pool-wide aggregation survives the death; the
            # respawned generation starts its own snapshot from zero.
            if slot.metrics is not None:
                self._retired_lane_metrics = merge_snapshots(
                    self._retired_lane_metrics, slot.metrics
                )
                slot.metrics = None
            pid = process.pid
            process.join()
            for conn in (slot.request_conn, slot.result_conn):
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
            slot.request_conn = None
            slot.result_conn = None
            if self._closed:
                # Draining: fail the job but do not replace the lane.
                slot.process = None
            else:
                self._spawn(slot)
                self._respawns.inc()
        # Resolve outside the lock: the waiter's next move is
        # reacquiring it in _release_slot.  A future already resolved
        # means the worker shipped its result and died afterwards: the
        # job *succeeded* and was counted by whoever resolved it.
        if future is not None and _fail(
            future,
            DecodeWorkerError(
                f"decode worker {slot.index} (pid {pid}) died "
                "mid-job; its in-flight keys failed and the worker "
                "was respawned"
            ),
        ):
            self._jobs_failed.inc()

    def _abort(self, reason: str) -> None:
        """Fail everything and tear down -- never leave waiters hanging."""
        with self._cond:
            self._closed = True
            self._idle.clear()
            futures = [
                slot.future for slot in self._slots if slot.future is not None
            ]
            for slot in self._slots:
                slot.job_id = None
                slot.future = None
            self._cond.notify_all()
        for future in futures:
            if _fail(future, DecodeWorkerError(reason)):
                self._jobs_failed.inc()
        for slot in self._slots:
            process = slot.process
            slot.process = None
            if process is not None:
                process.terminate()
                process.join(timeout=2.0)
            for conn in (slot.request_conn, slot.result_conn):
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
            slot.request_conn = None
            slot.result_conn = None
        self._teardown_segments()

    def _reap_dead_workers(self) -> None:
        """Liveness sweep between polls (catches death without EOF)."""
        for slot in self._slots:
            with self._cond:
                process = slot.process
                if process is None or process.is_alive():
                    continue
            self._handle_death(slot)

    # -- shutdown -------------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Graceful drain: finish in-flight jobs, stop workers, unlink shm.

        Idempotent.  Callers blocked waiting for a slot are woken with
        :class:`~repro.errors.DecodeWorkerError`; jobs already in
        flight are allowed ``timeout`` seconds to finish before their
        futures fail typed (never hang).  Every call, including one
        after an abort closed the pool, joins a live dispatcher (unless
        made from the dispatcher itself), so no dispatcher outlives it.
        """
        with self._cond:
            closed = self._closed
            self._closed = True
            self._idle.clear()
            self._cond.notify_all()
        if closed:
            if threading.current_thread() is not self._dispatcher:
                self._dispatcher.join(timeout=timeout)
            return
        pause = threading.Event()
        waited = 0.0
        step = 0.02
        while waited < timeout:
            with self._cond:
                if all(slot.future is None for slot in self._slots):
                    break
            pause.wait(step)
            waited += step
        # Fail anything still in flight (worker wedged past the drain
        # window), then stop the lanes.
        for slot in self._slots:
            with self._cond:
                future = slot.future
                slot.job_id = None
                slot.future = None
            if future is not None and _fail(
                future,
                DecodeWorkerError("decode pool closed while job in flight"),
            ):
                self._jobs_failed.inc()
        if self._dispatcher.is_alive():
            self._dispatcher.join(timeout=2.0)
        for slot in self._slots:
            if slot.request_conn is not None:
                try:
                    slot.request_conn.send(("stop",))
                except (BrokenPipeError, EOFError, OSError):
                    pass
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        for slot in self._slots:
            for conn in (slot.request_conn, slot.result_conn):
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
            slot.request_conn = None
            slot.result_conn = None
        self._teardown_segments()

    def _teardown_segments(self) -> None:
        for slot in self._slots:
            try:
                slot.shm.close()
                slot.shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "DecodePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- bookkeeping ----------------------------------------------------------

    def lane_metrics_snapshot(self) -> Dict:
        """Merged ``pool.worker.*`` metrics across all lanes, ever.

        The latest cumulative snapshot of each live lane plus the
        retired totals of every lane generation that died.  Merging is
        associative and order-independent (see
        :func:`repro.obs.merge_snapshots`), so the aggregate is exact
        no matter how deaths and respawns interleave.
        """
        with self._cond:
            live = [slot.metrics for slot in self._slots if slot.metrics is not None]
            retired = self._retired_lane_metrics
        return merge_snapshots(retired, *live)

    def metrics_snapshot(self) -> Dict:
        """Parent-side ``pool.*`` metrics merged with all worker lanes."""
        return merge_snapshots(self.metrics.snapshot(), self.lane_metrics_snapshot())

    def stats(self) -> PoolStats:
        """Frozen :class:`PoolStats` view over the registry counters."""
        with self._cond:
            return PoolStats(
                workers=self.workers,
                start_method=self.start_method,
                shm_limit=self.shm_limit,
                jobs_ok=self._jobs_ok.value,
                jobs_failed=self._jobs_failed.value,
                shm_jobs=self._shm_jobs.value,
                fallback_jobs=self._fallback_jobs.value,
                worker_deaths=self._worker_deaths.value,
                respawns=self._respawns.value,
            )
