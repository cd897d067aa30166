"""Network benchmark: the ``CQN1`` serving tier measured at the socket.

The serving bench measures ``PulseServer.fetch_batch`` in-process; this
bench puts the asyncio front end (:mod:`repro.serve_net`) between the
caller and the server and measures what a controller on the other end
of a TCP connection actually experiences.  Per device it runs three
phases against a loopback ``NetPulseServer``:

* **identity** -- every key fetched over the wire in both modes:
  ``MODE_SAMPLES`` payloads must be byte-identical to the scalar
  ``decompress_channel`` reference, ``MODE_RECORD`` payloads must be
  byte-identical to ``ShardedStore.read_record_bytes``.  This is the
  hard gate: compression that corrupts a single bit on the wire is
  worthless.
* **warm closed loop** -- N connections replaying a Zipf trace against
  a warm cache as fast as request/response allows; reports sustained
  pulses/second and p50/p95/p99 latency.  Gated at
  ``WARM_PULSES_PER_S_GATE`` and ``WARM_P99_GATE_MS``.
* **open-loop overdrive** -- a second front end over the *same*
  ``PulseServer`` with a deliberately tiny ``max_inflight``, driven by
  a Poisson arrival schedule far past capacity.  The gate is that
  backpressure is *observable and bounded*: the server must shed with
  explicit ``STATUS_OVERLOAD`` replies (``overloads > 0``) and the
  generator's outstanding-request bound must hold
  (``peak_outstanding <= max_outstanding``) -- no unbounded queue on
  either side.

Schema v3 adds the **instrumentation** section (run once, on the first
device): an overhead leg comparing warm closed-loop throughput with the
telemetry layer fully enabled (metrics registries on, default trace
sampling on client and server) against the same stack with every
registry disabled and sampling off -- gated at
:data:`INSTRUMENTATION_OVERHEAD_GATE` -- and a trace-coverage check
asserting that one sampled cold fetch yields a merged client+server
trace whose stages cover the whole path (client, admission, fill, and
pool decode when workers are attached) with a well-formed breakdown
(:func:`repro.obs.stage_breakdown`).
"""

from __future__ import annotations

import os
import pathlib
import queue
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple


from repro.analysis.report import render_table
from repro.compression.pipeline import decompress_waveform
from repro.core.compiler import CompaqtCompiler
from repro.errors import DeviceError
from repro.obs import (
    DEFAULT_TRACE_SAMPLE_RATE,
    MetricsRegistry,
    Tracer,
    default_registry,
    merge_trace_spans,
    set_default_registry,
    stage_breakdown,
)
from repro.perf.compression_bench import resolve_device
from repro.serve_net.client import PulseClient
from repro.serve_net.loadgen import run_closed_loop, run_open_loop
from repro.serve_net.server import serve_in_thread
from repro.serve_net.workers import DecodePool
from repro.store import PulseServer, save_store, synthetic_trace
from repro.version import __version__

__all__ = [
    "NETWORK_BENCH_SCHEMA",
    "DEFAULT_NETWORK_OUTPUT",
    "NETWORK_QUICK_DEVICE_SPECS",
    "NETWORK_FULL_DEVICE_SPECS",
    "WARM_PULSES_PER_S_GATE",
    "WARM_P99_GATE_MS",
    "INSTRUMENTATION_OVERHEAD_GATE",
    "TRACE_COVERAGE_STAGES",
    "SCALING_WORKER_COUNTS",
    "SCALING_EFFICIENCY_GATE",
    "SCALING_SPEEDUP_X4_GATE",
    "run_network_bench",
    "run_scaling_bench",
    "render_network_table",
    "render_scaling_table",
    "network_gates_ok",
]

NETWORK_BENCH_SCHEMA = "compaqt-bench-network/v3"

DEFAULT_NETWORK_OUTPUT = "BENCH_network.json"

#: Quick (CI smoke) profile.
NETWORK_QUICK_DEVICE_SPECS = ("bogota", "guadalupe")

#: Full profile: the quick pair plus the larger synthetic processors.
NETWORK_FULL_DEVICE_SPECS = ("bogota", "guadalupe", "google-6x9", "fluxonium-5")

#: Warm closed-loop batched fetch over the loopback socket must sustain
#: at least this many pulses/second (ISSUE acceptance floor).
WARM_PULSES_PER_S_GATE = 10_000.0

#: ...and its p99 request latency must stay under this bound.  Loopback
#: warm-cache batches complete in well under a millisecond each; the
#: bound is deliberately loose so CI-runner jitter cannot flake it.
WARM_P99_GATE_MS = 250.0

#: Warm closed-loop throughput with the telemetry layer fully enabled
#: (metrics + default trace sampling) must stay within 5% of the same
#: stack with every registry disabled and sampling off.  Low-overhead
#: is a design requirement of the metrics layer, not a hope; this gate
#: keeps it honest on every bench run.
INSTRUMENTATION_OVERHEAD_GATE = 0.95

#: Stages one sampled cold fetch must cover end to end (``pool.decode``
#: is required only when decode workers are attached).
TRACE_COVERAGE_STAGES = (
    "client.fetch",
    "server.admission",
    "server.fill",
    "pool.decode",
)

#: Worker-count ladder for the ``--scaling`` measurement mode.
SCALING_WORKER_COUNTS = (1, 2, 4, 8)

#: Per-core parallel efficiency (``speedup / min(workers, cpu_count)``)
#: the pool must reach at its best worker count on every device.
#: Core-aware on purpose -- on a 1-core CI runner a 4-worker pool
#: cannot beat one process no matter how good the handoff is, and
#: pretending otherwise would force either a fake gate or a
#: handicapped baseline.
SCALING_EFFICIENCY_GATE = 0.5

#: Absolute cold-decode speedup required at 4 workers -- evaluated only
#: when the machine actually has >= 4 cores (recorded as skipped
#: otherwise, with ``cpu_count`` committed alongside so the provenance
#: of every number is explicit).
SCALING_SPEEDUP_X4_GATE = 2.5


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _identity_ok(
    address: Tuple[str, int],
    serving: PulseServer,
    reference: Dict[Tuple[str, Tuple[int, ...]], bytes],
) -> bool:
    """Every byte served over the wire must match the local references."""
    store = serving.store
    keys = store.keys()
    with PulseClient(address) as client:
        waveforms = client.fetch_batch(keys)
        records = client.fetch_records(keys)
    for key, waveform in zip(keys, waveforms):
        if waveform.samples.tobytes() != reference[key]:
            return False
        local = serving.fetch(*key)
        if waveform.name != local.name or waveform.dt != local.dt:
            return False
    for key, record in zip(keys, records):
        if record != store.read_record_bytes(*key):
            return False
    return True


def _warm_closed_loop_pps(
    store,
    keys,
    trace,
    batch_size: int,
    connections: int,
    repeats: int,
    enabled: bool,
) -> float:
    """Best-of-``repeats`` warm throughput with telemetry on or off.

    ``enabled=False`` is the honest baseline: every registry in the
    stack (server, net tier, and the process-wide default the store
    modules write to) is a no-op registry and trace sampling is zero.
    ``enabled=True`` is production defaults: live registries plus
    default-rate trace sampling on both the client and the server.
    """
    prior = default_registry()
    set_default_registry(MetricsRegistry(enabled=enabled))
    try:
        sample_rate = DEFAULT_TRACE_SAMPLE_RATE if enabled else 0.0
        client_tracer = Tracer(sample_rate=sample_rate) if enabled else None
        with PulseServer(
            store,
            cache_capacity=len(keys),
            metrics=MetricsRegistry(enabled=enabled),
        ) as serving:
            with serve_in_thread(
                serving,
                metrics=MetricsRegistry(enabled=enabled),
                trace_sample_rate=sample_rate,
            ) as handle:
                address = handle.address
                run_closed_loop(
                    address, trace, batch_size=batch_size,
                    connections=connections,
                )  # warming pass
                best = max(
                    (
                        run_closed_loop(
                            address,
                            trace,
                            batch_size=batch_size,
                            connections=connections,
                            tracer=client_tracer,
                        )
                        for _ in range(repeats)
                    ),
                    key=lambda report: report.pulses_per_s,
                )
        return best.pulses_per_s
    finally:
        set_default_registry(prior)


def _instrumentation_overhead(
    store, keys, trace, batch_size: int, connections: int, repeats: int
) -> Dict:
    """The overhead leg: telemetry-enabled vs telemetry-disabled warm runs.

    The two configurations are measured *interleaved* (off/on pairs on
    fresh servers) and each side keeps its best, so slow box-level
    drift -- CPU frequency, a background compile -- lands on both
    sides instead of masquerading as instrumentation cost.  The
    attempt count is floored at 3 regardless of ``--quick`` because a
    single noisy run must not gate.
    """
    attempts = max(repeats, 3)
    disabled = 0.0
    enabled = 0.0
    for _ in range(attempts):
        disabled = max(
            disabled,
            _warm_closed_loop_pps(
                store, keys, trace, batch_size, connections, 1, enabled=False
            ),
        )
        enabled = max(
            enabled,
            _warm_closed_loop_pps(
                store, keys, trace, batch_size, connections, 1, enabled=True
            ),
        )
    ratio = enabled / disabled if disabled > 0 else 0.0
    return {
        "disabled_pulses_per_s": disabled,
        "enabled_pulses_per_s": enabled,
        "overhead_ratio": ratio,
        "gate": INSTRUMENTATION_OVERHEAD_GATE,
        "gate_ok": ratio >= INSTRUMENTATION_OVERHEAD_GATE,
    }


def _trace_coverage(store, keys, workers: int = 1) -> Dict:
    """One sampled cold fetch must trace the whole path, well-formed.

    The client traces at rate 1.0 and propagates its ids over the wire;
    the server (also at 1.0) buffers its half.  The two halves are
    stitched and :func:`repro.obs.stage_breakdown` must find every
    required stage with nested, non-overlapping spans whose self times
    sum to at most the end-to-end duration.
    """
    client_tracer = Tracer(sample_rate=1.0)
    with PulseServer(
        store, cache_capacity=len(keys), workers=workers
    ) as serving:
        with serve_in_thread(serving, trace_sample_rate=1.0) as handle:
            with PulseClient(handle.address, tracer=client_tracer) as client:
                client.fetch(*keys[0])  # cold: the cache starts empty
                server_traces = client.traces(limit=8)
    client_trace = client_tracer.recent(limit=1)[0]
    server_trace = next(
        (
            trace_dict
            for trace_dict in server_traces
            if trace_dict["trace_id"] == client_trace["trace_id"]
        ),
        None,
    )
    spans = merge_trace_spans(client_trace, server_trace)
    breakdown = stage_breakdown(spans)
    required = [
        stage
        for stage in TRACE_COVERAGE_STAGES
        if workers > 0 or stage != "pool.decode"
    ]
    missing = [s for s in required if s not in breakdown["stages"]]
    problems = list(breakdown["problems"])
    if server_trace is None:
        problems.append("server half of the trace never reached the ring")
    if missing:
        problems.append(f"stages missing from the trace: {missing}")
    return {
        "trace_id": client_trace["trace_id"],
        "workers": workers,
        "required_stages": required,
        "stages": breakdown["stages"],
        "self_s": breakdown["self_s"],
        "end_to_end_s": breakdown["end_to_end_s"],
        "total_self_s": breakdown["total_self_s"],
        "problems": problems,
        "ok": not problems,
    }


def run_network_bench(
    device_specs: Sequence[str] = NETWORK_QUICK_DEVICE_SPECS,
    n_requests: int = 4096,
    batch_size: int = 64,
    connections: int = 4,
    n_shards: int = 4,
    repeats: int = 3,
    seed: int = 7,
    window_size: int = 16,
    codec: str = "int-DCT-W",
    overdrive_max_inflight: int = 2,
    overdrive_rate: float = 4000.0,
    overdrive_connections: int = 12,
    overdrive_max_outstanding: int = 64,
) -> Dict:
    """Run the network benchmark; returns the JSON-serializable payload.

    One entry per device.  The warm closed loop is best-of-``repeats``
    replays after a warming pass; the overdrive phase reuses the same
    warmed :class:`PulseServer` behind a second front end whose
    ``max_inflight`` is deliberately far below the offered load.
    """
    if not device_specs:
        raise DeviceError("network bench needs at least one device spec")
    if n_requests < 1 or batch_size < 1 or connections < 1 or repeats < 1:
        raise DeviceError(
            "n_requests, batch_size, connections and repeats must be >= 1"
        )

    entries: List[Dict] = []
    instrumentation: Optional[Dict] = None
    for spec in device_specs:
        device = resolve_device(spec)
        compiled = CompaqtCompiler(
            window_size=window_size, codec=codec
        ).compile_library(device.pulse_library())
        with tempfile.TemporaryDirectory(prefix="cqn1-bench-") as tmp:
            store = save_store(
                compiled, pathlib.Path(tmp) / f"{device.name}.cqs", n_shards
            )
            keys = store.keys()
            reference = {
                key: decompress_waveform(
                    compiled.result(*key).compressed
                ).samples.tobytes()
                for key in keys
            }
            trace = synthetic_trace(keys, n_requests, seed)

            with PulseServer(store, cache_capacity=len(keys)) as serving:
                with serve_in_thread(serving) as handle:
                    address = handle.address
                    identity = _identity_ok(address, serving, reference)
                    # Warming pass, then best-of-N timed replays.
                    run_closed_loop(
                        address, trace, batch_size=batch_size,
                        connections=connections,
                    )
                    warm = max(
                        (
                            run_closed_loop(
                                address,
                                trace,
                                batch_size=batch_size,
                                connections=connections,
                            )
                            for _ in range(repeats)
                        ),
                        key=lambda report: report.pulses_per_s,
                    )

                # Overdrive: tiny admission bound, Poisson arrivals far
                # past capacity, same warmed PulseServer behind it.
                with serve_in_thread(
                    serving, max_inflight=overdrive_max_inflight
                ) as overdrive_handle:
                    overdrive = run_open_loop(
                        overdrive_handle.address,
                        trace,
                        rate=overdrive_rate,
                        batch_size=max(1, batch_size // 16),
                        connections=overdrive_connections,
                        max_outstanding=overdrive_max_outstanding,
                        seed=seed,
                    )
                    net_stats = overdrive_handle.stats()

            # The instrumentation section runs once, on the first
            # device: the overhead gate and the trace-coverage check
            # are properties of the telemetry layer, not per-device.
            if instrumentation is None:
                instrumentation = _instrumentation_overhead(
                    store, keys, trace, batch_size, connections, repeats
                )
                instrumentation["trace_coverage"] = _trace_coverage(
                    store, keys, workers=1
                )
            store.close()

        warm_latency = warm.latency_ms
        entries.append(
            {
                "device": device.name,
                "spec": spec,
                "codec": codec,
                "window_size": window_size,
                "n_pulses": len(keys),
                "n_requests": len(trace),
                "identity_ok": bool(identity),
                "warm": warm.as_dict(),
                "warm_pulses_per_s": warm.pulses_per_s,
                "warm_p50_ms": warm_latency["p50"],
                "warm_p99_ms": warm_latency["p99"],
                "overdrive": overdrive.as_dict(),
                "overdrive_overloads": overdrive.overloads,
                "overdrive_server_overloads": net_stats.overloads,
                "overdrive_peak_outstanding": overdrive.peak_outstanding,
            }
        )

    warm_pps = [e["warm_pulses_per_s"] for e in entries]
    warm_p99 = [e["warm_p99_ms"] for e in entries if e["warm_p99_ms"] is not None]
    summary = {
        "all_identity_ok": all(e["identity_ok"] for e in entries),
        "warm_pulses_per_s_min": min(warm_pps),
        "warm_pulses_per_s_max": max(warm_pps),
        "warm_pulses_per_s_gate": WARM_PULSES_PER_S_GATE,
        "warm_pulses_per_s_gate_ok": min(warm_pps) >= WARM_PULSES_PER_S_GATE,
        "warm_p99_ms_max": max(warm_p99) if warm_p99 else None,
        "warm_p99_gate_ms": WARM_P99_GATE_MS,
        "warm_p99_gate_ok": (
            bool(warm_p99) and max(warm_p99) <= WARM_P99_GATE_MS
        ),
        "overloads_total": sum(e["overdrive_overloads"] for e in entries),
        "overloads_observed": all(
            e["overdrive_overloads"] > 0 for e in entries
        ),
        "outstanding_bounded": all(
            e["overdrive_peak_outstanding"]
            <= e["overdrive"]["max_outstanding"]
            for e in entries
        ),
        "instrumentation_overhead_ratio": (
            instrumentation["overhead_ratio"] if instrumentation else None
        ),
        "instrumentation_overhead_gate": INSTRUMENTATION_OVERHEAD_GATE,
        "instrumentation_overhead_gate_ok": (
            bool(instrumentation and instrumentation["gate_ok"])
        ),
        "trace_coverage_ok": bool(
            instrumentation and instrumentation["trace_coverage"]["ok"]
        ),
        "n_entries": len(entries),
    }
    return {
        "schema": NETWORK_BENCH_SCHEMA,
        "version": __version__,
        "created_unix": time.time(),
        "config": {
            "devices": list(device_specs),
            "n_requests": n_requests,
            "batch_size": batch_size,
            "connections": connections,
            "n_shards": n_shards,
            "repeats": repeats,
            "seed": seed,
            "window_size": window_size,
            "codec": codec,
            "overdrive_max_inflight": overdrive_max_inflight,
            "overdrive_rate": overdrive_rate,
            "overdrive_connections": overdrive_connections,
            "overdrive_max_outstanding": overdrive_max_outstanding,
        },
        "entries": entries,
        "instrumentation": instrumentation,
        "summary": summary,
    }


def _timed_drive(batches, count: int, decode_fn) -> Tuple[int, float]:
    """Drain ``batches`` from ``count`` submission threads; time the drain.

    Returns ``(pulses_decoded, elapsed_s)``.  The clock starts at a
    barrier all threads wait on, so thread start-up cost is not billed
    to the decode path; the first worker exception (if any) propagates
    after the drain settles.
    """
    work: "queue.SimpleQueue" = queue.SimpleQueue()
    for batch in batches:
        work.put(batch)
    for _ in range(count):
        work.put(None)
    pulses = [0] * count
    errors: List[BaseException] = []
    barrier = threading.Barrier(count + 1)

    def run(index: int) -> None:
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            return
        while True:
            batch = work.get()
            if batch is None:
                return
            try:
                decode_fn(batch)
            except BaseException as exc:
                errors.append(exc)
                return
            pulses[index] += len(batch)

    threads = [
        threading.Thread(target=run, args=(i,), name=f"scaling-drive-{i}")
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return sum(pulses), elapsed


def _best_drive(repeats: int, batches, count: int, decode_fn) -> Tuple[int, float]:
    """Best-of-``repeats`` :func:`_timed_drive`; one noisy run can't gate."""
    results = [_timed_drive(batches, count, decode_fn) for _ in range(repeats)]
    return max(
        results, key=lambda r: r[0] / r[1] if r[1] > 0 else 0.0
    )


def run_scaling_bench(
    device_specs: Sequence[str] = NETWORK_QUICK_DEVICE_SPECS,
    worker_counts: Sequence[int] = SCALING_WORKER_COUNTS,
    batch_size: int = 64,
    rounds: int = 8,
    n_shards: int = 4,
    seed: int = 7,
    window_size: int = 16,
    codec: str = "int-DCT-W",
    start_method: Optional[str] = None,
    shm_limit: Optional[int] = None,
    repeats: int = 2,
) -> Dict:
    """Pin the single-process decode ceiling against the worker pool.

    Per device, every ``(mode, count)`` leg drains the whole catalog
    ``rounds`` times in ``batch_size`` chunks from ``count`` submission
    threads (``rounds`` is raised for small catalogs so every leg times
    at least ~256 pulses, and each timing is the best of ``repeats``
    drains -- a single noisy run must not decide a gate):

    * ``threads`` legs decode in-process (``store.decode_many``) --
      the GIL ceiling the pool exists to break; ``threads`` at count 1
      is the baseline every speedup is measured against.
    * ``pool`` legs decode through a :class:`DecodePool` with
      ``count`` worker processes, plus an untimed full-catalog
      bit-identity pass against the scalar oracle.

    Warm legs replay the same batches against a prewarmed
    :class:`PulseServer` (with and without the pool attached), proving
    the pool never taxes the cache-hit path.  The summary's gates are
    core-aware -- see :data:`SCALING_EFFICIENCY_GATE` /
    :data:`SCALING_SPEEDUP_X4_GATE`.
    """
    if not device_specs:
        raise DeviceError("scaling bench needs at least one device spec")
    counts = sorted(dict.fromkeys(int(c) for c in worker_counts))
    if not counts or counts[0] < 1:
        raise DeviceError(f"worker counts must be >= 1, got {worker_counts}")
    if batch_size < 1 or rounds < 1 or repeats < 1:
        raise DeviceError("batch_size, rounds and repeats must be >= 1")
    import multiprocessing

    cpus = _cpu_count()
    resolved_method = multiprocessing.get_context(start_method).get_start_method()
    entries: List[Dict] = []
    for spec in device_specs:
        device = resolve_device(spec)
        compiled = CompaqtCompiler(
            window_size=window_size, codec=codec
        ).compile_library(device.pulse_library())
        with tempfile.TemporaryDirectory(prefix="cqn1-scaling-") as tmp:
            store = save_store(
                compiled, pathlib.Path(tmp) / f"{device.name}.cqs", n_shards
            )
            keys = store.keys()
            reference = {
                key: decompress_waveform(
                    compiled.result(*key).compressed
                ).samples.tobytes()
                for key in keys
            }
            # Small catalogs get extra rounds: 23 pulses x 4 rounds is
            # tens of milliseconds of work, far too little to gate on.
            device_rounds = max(rounds, -(-256 // len(keys)))
            batches = [
                keys[i : i + batch_size]
                for i in range(0, len(keys), batch_size)
            ] * device_rounds

            legs: List[Dict] = []
            for mode in ("threads", "pool"):
                for count in counts:
                    identity: Optional[bool] = None
                    pool_stats: Optional[Dict] = None
                    if mode == "threads":
                        cold_pulses, cold_s = _best_drive(
                            repeats, batches, count, store.decode_many
                        )
                    else:
                        with DecodePool(
                            store.handle(),
                            workers=count,
                            **(
                                {}
                                if shm_limit is None
                                else {"shm_limit": shm_limit}
                            ),
                            start_method=start_method,
                        ) as pool:
                            cold_pulses, cold_s = _best_drive(
                                repeats, batches, count, pool.decode
                            )
                            # Untimed: every pool-served waveform must
                            # match the scalar oracle bit for bit.
                            served = pool.decode(keys)
                            identity = all(
                                waveform.samples.tobytes() == reference[key]
                                for key, waveform in zip(keys, served)
                            )
                            pool_stats = pool.stats().as_dict()
                    with PulseServer(
                        store,
                        cache_capacity=len(keys),
                        workers=0 if mode == "threads" else count,
                        start_method=start_method,
                        **(
                            {}
                            if shm_limit is None
                            else {"shm_limit": shm_limit}
                        ),
                    ) as serving:
                        serving.fetch_batch(keys)  # prewarm: all hits now
                        warm_pulses, warm_s = _best_drive(
                            repeats, batches, count, serving.fetch_batch
                        )
                    legs.append(
                        {
                            "mode": mode,
                            "count": count,
                            "cold_pulses": cold_pulses,
                            "cold_s": cold_s,
                            "cold_pulses_per_s": (
                                cold_pulses / cold_s if cold_s > 0 else 0.0
                            ),
                            "warm_pulses_per_s": (
                                warm_pulses / warm_s if warm_s > 0 else 0.0
                            ),
                            "identity_ok": identity,
                            "pool": pool_stats,
                        }
                    )
            store.close()

        baseline = next(
            leg["cold_pulses_per_s"]
            for leg in legs
            if leg["mode"] == "threads" and leg["count"] == 1
        )
        speedup = {
            str(leg["count"]): (
                leg["cold_pulses_per_s"] / baseline if baseline > 0 else 0.0
            )
            for leg in legs
            if leg["mode"] == "pool"
        }
        efficiency = {
            count: ratio / min(int(count), cpus)
            for count, ratio in speedup.items()
        }
        entries.append(
            {
                "device": device.name,
                "spec": spec,
                "n_pulses": len(keys),
                "rounds": device_rounds,
                "legs": legs,
                "baseline_cold_pulses_per_s": baseline,
                "pool_speedup": speedup,
                "pool_efficiency": efficiency,
            }
        )

    # Per device, the pool is judged at its best worker count (on a
    # multi-core box that is normally the widest one; on a starved
    # runner the best count dodges contention noise) and the gate takes
    # the worst device.
    efficiencies = [max(e["pool_efficiency"].values()) for e in entries]
    identity_legs = [
        leg["identity_ok"]
        for e in entries
        for leg in e["legs"]
        if leg["mode"] == "pool"
    ]
    x4_applicable = 4 in counts and cpus >= 4
    x4_best = (
        max(e["pool_speedup"]["4"] for e in entries) if 4 in counts else None
    )
    summary = {
        "cpu_count": cpus,
        "all_identity_ok": all(identity_legs),
        "efficiency_gate": SCALING_EFFICIENCY_GATE,
        "efficiency_best_min": min(efficiencies),
        "efficiency_gate_ok": min(efficiencies) >= SCALING_EFFICIENCY_GATE,
        "speedup_x4_gate": SCALING_SPEEDUP_X4_GATE,
        "speedup_x4_best": x4_best,
        # None (not False) when the runner lacks the cores to make the
        # absolute gate meaningful; cpu_count above says why.
        "speedup_x4_gate_ok": (
            x4_best >= SCALING_SPEEDUP_X4_GATE if x4_applicable else None
        ),
        "n_entries": len(entries),
    }
    return {
        "cpu_count": cpus,
        "start_method": resolved_method,
        "worker_counts": counts,
        "batch_size": batch_size,
        "rounds": rounds,
        "seed": seed,
        "window_size": window_size,
        "codec": codec,
        "n_shards": n_shards,
        "repeats": repeats,
        "entries": entries,
        "summary": summary,
    }


def render_scaling_table(scaling: Dict) -> str:
    """Render a scaling section as the repo's standard table."""
    rows = []
    for entry in scaling["entries"]:
        for leg in entry["legs"]:
            identity = leg["identity_ok"]
            rows.append(
                [
                    entry["device"],
                    leg["mode"],
                    leg["count"],
                    f"{leg['cold_pulses_per_s']:.0f}",
                    f"{leg['warm_pulses_per_s']:.0f}",
                    (
                        f"{entry['pool_speedup'][str(leg['count'])]:.2f}x"
                        if leg["mode"] == "pool"
                        else "-"
                    ),
                    "-" if identity is None else ("ok" if identity else "MISMATCH"),
                ]
            )
    summary = scaling["summary"]
    x4 = summary["speedup_x4_gate_ok"]
    notes = [
        f"{summary['cpu_count']} cpu(s)",
        f"identity {'ok' if summary['all_identity_ok'] else 'FAILED'}",
        f"best per-core efficiency >= "
        f"{summary['efficiency_best_min']:.2f} "
        f"(gate {summary['efficiency_gate']:.2f}: "
        f"{'ok' if summary['efficiency_gate_ok'] else 'FAILED'})",
        (
            f"4-worker speedup {summary['speedup_x4_best']:.2f}x "
            f"(gate {summary['speedup_x4_gate']:.1f}x: "
            + ("ok" if x4 else "FAILED")
            + ")"
            if x4 is not None
            else "4-worker absolute gate skipped (cpu_count < 4)"
        ),
    ]
    return render_table(
        "Decode scaling: threads vs process pool "
        f"(batch={scaling['batch_size']}, rounds={scaling['rounds']}, "
        f"start={scaling['start_method']})",
        ["device", "mode", "n", "cold p/s", "warm p/s", "speedup", "identity"],
        rows,
        note=", ".join(notes),
    )


def render_network_table(payload: Dict) -> str:
    """Render a network-bench payload as the repo's standard table."""
    rows = []
    for e in payload["entries"]:
        rows.append(
            [
                e["device"],
                e["n_pulses"],
                f"{e['warm_pulses_per_s']:.0f}",
                f"{e['warm_p50_ms']:.2f}" if e["warm_p50_ms"] else "-",
                f"{e['warm_p99_ms']:.2f}" if e["warm_p99_ms"] else "-",
                str(e["overdrive_overloads"]),
                f"{e['overdrive_peak_outstanding']}"
                f"/{e['overdrive']['max_outstanding']}",
                "ok" if e["identity_ok"] else "MISMATCH",
            ]
        )
    summary = payload["summary"]
    notes = [
        f"identity {'ok' if summary['all_identity_ok'] else 'FAILED'}",
        f"warm >= {summary['warm_pulses_per_s_min']:.0f} p/s "
        f"(gate {summary['warm_pulses_per_s_gate']:.0f}: "
        f"{'ok' if summary['warm_pulses_per_s_gate_ok'] else 'FAILED'})",
        f"overloads {'observed' if summary['overloads_observed'] else 'MISSING'}",
    ]
    ratio = summary.get("instrumentation_overhead_ratio")
    if ratio is not None:
        notes.append(
            f"telemetry overhead {ratio:.3f}x "
            f"(gate {summary['instrumentation_overhead_gate']:.2f}x: "
            f"{'ok' if summary['instrumentation_overhead_gate_ok'] else 'FAILED'}), "
            f"trace coverage "
            f"{'ok' if summary['trace_coverage_ok'] else 'FAILED'}"
        )
    return render_table(
        "Network serving: CQN1 front end over loopback TCP "
        f"(batch={payload['config']['batch_size']}, "
        f"conns={payload['config']['connections']})",
        [
            "device",
            "pulses",
            "warm p/s",
            "p50 ms",
            "p99 ms",
            "overloads",
            "peak/bound",
            "identity",
        ],
        rows,
        note=", ".join(notes),
    )


def network_gates_ok(payload: Dict) -> Tuple[bool, List[str]]:
    """CI verdict: (ok, failure messages).

    Identity is the hard gate; the throughput/latency gates hold the
    committed baseline honest; the overload gates prove backpressure is
    explicit and bounded rather than an unbounded queue.
    """
    summary = payload["summary"]
    failures: List[str] = []
    if not summary["all_identity_ok"]:
        failures.append(
            "bytes served over the socket are not bit-identical to "
            "decompress_channel"
        )
    if not summary["warm_pulses_per_s_gate_ok"]:
        failures.append(
            f"warm closed-loop throughput "
            f"{summary['warm_pulses_per_s_min']:.0f} pulses/s is below the "
            f"{summary['warm_pulses_per_s_gate']:.0f} gate"
        )
    if not summary["warm_p99_gate_ok"]:
        failures.append(
            f"warm p99 latency {summary['warm_p99_ms_max']} ms exceeds the "
            f"{summary['warm_p99_gate_ms']} ms gate"
        )
    if not summary["overloads_observed"]:
        failures.append(
            "open-loop overdrive produced no STATUS_OVERLOAD replies -- "
            "backpressure is not observable"
        )
    if not summary["outstanding_bounded"]:
        failures.append(
            "load generator exceeded its outstanding-request bound -- "
            "queue growth is unbounded"
        )
    if not summary.get("instrumentation_overhead_gate_ok", True):
        failures.append(
            f"telemetry-enabled warm throughput is "
            f"{summary['instrumentation_overhead_ratio']:.3f}x the disabled "
            f"baseline, below the "
            f"{summary['instrumentation_overhead_gate']:.2f}x gate"
        )
    if not summary.get("trace_coverage_ok", True):
        problems = (payload.get("instrumentation") or {}).get(
            "trace_coverage", {}
        ).get("problems", [])
        failures.append(
            "a sampled cold fetch did not produce a well-formed "
            f"end-to-end trace: {'; '.join(problems) or 'unknown'}"
        )
    scaling = payload.get("scaling")
    if scaling is not None:
        s = scaling["summary"]
        if not s["all_identity_ok"]:
            failures.append(
                "a pool-served waveform diverged from the scalar oracle"
            )
        if not s["efficiency_gate_ok"]:
            failures.append(
                f"pool per-core efficiency {s['efficiency_best_min']:.2f} "
                f"(worst device, best worker count) is below the "
                f"{s['efficiency_gate']:.2f} gate ({s['cpu_count']} cpu(s))"
            )
        if s["speedup_x4_gate_ok"] is False:
            failures.append(
                f"4-worker cold speedup {s['speedup_x4_best']:.2f}x is below "
                f"the {s['speedup_x4_gate']:.1f}x gate"
            )
    return (not failures, failures)
