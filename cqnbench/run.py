"""The repository benchmark: compressed store -> decode -> cache -> CQN1 -> client.

One server process (``launcher.py``) serves the ``washington`` library
(669 pulses, int-DCT-W, window 16, 4 shards) over a CQN1 socket with
the shipped defaults.  This process is the load: a closed loop of
64-pulse ``PulseClient.fetch_batch`` calls on at most two connections,
plus, on ``recal_mixed``, one writer thread that recalibrates the
library on a fixed schedule.  Every reply is compared bit for bit with
the scalar oracle ``decompress_waveform(store.read_record(key))``.

Usage::

    python3 cqnbench/run.py --workload warm_hit --seed 1 --seconds 26 --trace 0
    python3 cqnbench/run.py --workload all            # every workload, summary

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` splits the run into an untraced part (60%) and a traced
part (40%) and reports the per-layer metrics.  The last stdout line
is the JSON result; the exit code is 1 on any bit-identity mismatch or
failed health check, 2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import base64
import gc
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BATCH = 64
SETUPS = 4  # set-ups per run, half before and half after the measurement
WARMUP_S = 1.0
WRITER_PERIOD_S = 0.25
ZIPF_S = 1.0
POPULARITY_SEED = 0
BATCHES_PER_STREAM = 8192
CLIENT_TIMEOUT_S = 20.0
P99_SLICE = 1000  # batches per slice of the reported p99: >= 10 beyond it
SLICE = 200  # batches per slice of the reported throughput and p50
UNTRACED_SHARE = 0.6  # of a traced run: enough batches for the untraced p99


@dataclass(frozen=True)
class Workload:
    cache: int  # capacity passed to the launcher; 0 = the whole library
    keys: str  # "zipf" or "uniform"
    readers: int
    writer: bool


WORKLOADS: Dict[str, Workload] = {
    # Every lookup hits: the time goes to serve_net and the cache probe.
    "warm_hit": Workload(cache=0, keys="zipf", readers=2, writer=False),
    # ~10% of the keys fit: store reads, fused decode and eviction dominate.
    "cold_miss": Workload(cache=64, keys="uniform", readers=2, writer=False),
    # Reads beside a recalibration writer: commit, adoption, invalidation.
    "recal_mixed": Workload(cache=0, keys="zipf", readers=1, writer=True),
}


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer from the program)."""


# ---------------------------------------------------------------------------
# The server process.
# ---------------------------------------------------------------------------


class Child:
    """One child process (``launcher.py`` or ``writer.py``) and its JSON lines."""

    def __init__(self, script: str, *args: object, cpus: Optional[set] = None) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), "--src", str(SRC)]
            + [str(a) for a in args],
            cwd=str(ROOT),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)
        self._lock = threading.Lock()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"child process exited (code {self.proc.poll()})")
        return json.loads(line)

    def call(self, op: str) -> dict:
        with self._lock:
            self.proc.stdin.write(json.dumps({"op": op}) + "\n")
            self.proc.stdin.flush()
            return self.read()

    def stop(self) -> None:
        """Ask the child to finish and exit; kill it if it does not."""
        if self.proc.poll() is None:
            try:
                self.call("stop")
            except (BenchError, OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def start_server(store: pathlib.Path, cache: int) -> Tuple[Child, float, dict]:
    """Start one server; returns it, its set-up seconds and its ready line.

    Set-up runs from process start (compile, ``save_store``, open,
    prewarm, listen) until the server has accepted a first request.
    """
    from repro.api import PulseClient

    started = time.perf_counter()
    launcher = Child("launcher.py", "--store", store, "--cache", cache)
    try:
        ready = launcher.read()
        with PulseClient("127.0.0.1", ready["port"], timeout=CLIENT_TIMEOUT_S) as c:
            c.ping()
    except BaseException:
        launcher.stop()
        raise
    return launcher, time.perf_counter() - started, ready


def plan_cpus() -> Optional[Tuple[set, set]]:
    """The CPU the server and the load share, and the writer's CPUs.

    None with fewer than 2 CPUs: then nothing is pinned.  The server
    and the load take turns on one CPU (in a closed loop one of them is
    always busy), so that CPU never idles.  With the two on separate
    CPUs, every batch wakes an idle virtual CPU several times, and what
    a wake-up costs depends on the host: on a 2-vCPU machine the
    ten-seed spread of ``cold_miss`` throughput reached 0.21 of its
    median, against 0.04 to 0.07 with both on one CPU.  The writer is
    a separate service, so it gets the other CPUs.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        return None
    serving = {max(cpus)}
    return serving, cpus - serving


# ---------------------------------------------------------------------------
# Inputs and the oracle.
# ---------------------------------------------------------------------------


def key_batches(keys: list, kind: str, seed: int, stream: int) -> List[list]:
    """Seeded 64-key batches: Zipf over a fixed popularity order, or uniform.

    The popularity order is the same for every seed: pulses differ in
    length by more than 10x, so a seeded order would change the bytes
    per pulse from seed to seed and the seeds would measure different
    work.  The seed draws the request sequence.
    """
    import numpy as np

    rng = np.random.default_rng([seed, stream])
    n = len(keys)
    shape = (BATCHES_PER_STREAM, BATCH)
    if kind == "zipf":
        weights = 1.0 / np.arange(1, n + 1) ** ZIPF_S
        ranked = np.random.default_rng(POPULARITY_SEED).permutation(n)
        picks = ranked[rng.choice(n, size=shape, p=weights / weights.sum())]
    else:
        picks = rng.integers(0, n, size=shape)
    return [[keys[i] for i in row] for row in picks.tolist()]


class Oracle:
    """Every committed version of every key, as scalar-decoded sample bits.

    Versions the writer commits are recorded *before* the server is
    told to adopt them (the chaos harness's rule), and each is stamped
    with the time its ``refresh()`` returned.  A batch sent after
    version v of a key was adopted must return v or a newer version;
    versions recorded but not yet adopted are acceptable all along.
    """

    def __init__(self) -> None:
        # Per key, newest first: [bits, mse, adopted_at]; adopted_at is
        # inf until the server has adopted the version.
        self._versions: Dict[tuple, List[list]] = {}
        self._lock = threading.Lock()

    def record(
        self, key: tuple, samples, mse: float, adopted_at: float = math.inf
    ) -> None:
        """Add a version: its scalar-decoded samples and MSE to its source."""
        import numpy as np

        entry = [np.ascontiguousarray(samples).view(np.uint64), mse, adopted_at]
        with self._lock:
            # Copy on write: readers iterate the old list without the lock.
            self._versions[key] = [entry] + self._versions.get(key, [])

    def adopted(self, keys: List[tuple], at: float) -> None:
        """The server serves the newest recorded version of ``keys`` from ``at``."""
        with self._lock:
            for key in keys:
                self._versions[key][0][2] = at

    def check(self, key: tuple, samples, sent_at: float) -> Optional[float]:
        """The served version's MSE against its source, or None on mismatch.

        ``sent_at`` is when the batch was sent: versions superseded by
        an adoption before then are no longer acceptable.
        """
        import numpy as np

        if samples.dtype != np.complex128 or not samples.flags.c_contiguous:
            return None
        bits = samples.view(np.uint64)
        for expected, mse, adopted_at in self._versions.get(key, ()):
            if np.array_equal(bits, expected):
                return mse
            if adopted_at <= sent_at:
                return None  # everything older was superseded before the send
        return None


def build_oracle(store_path: pathlib.Path) -> Tuple[list, Oracle]:
    """The store's keys and their scalar oracle."""
    import numpy as np

    from launcher import DEVICE
    from repro.api import decompress_waveform, open_store, resolve_device

    source = {
        (w.gate, tuple(w.qubits)): w
        for w in resolve_device(DEVICE).pulse_library()
    }
    oracle = Oracle()
    with open_store(store_path) as store:
        keys = sorted(store.keys())
        for key in keys:
            samples = decompress_waveform(store.read_record(*key)).samples
            mse = float(np.mean(np.abs(samples - source[key].samples) ** 2))
            oracle.record(key, samples, mse, adopted_at=-math.inf)
    return keys, oracle


# ---------------------------------------------------------------------------
# Load.
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """What one load thread saw."""

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    max_mse: float = 0.0
    latencies: List[float] = field(default_factory=list)
    completions: List[Tuple[float, int]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


@dataclass
class Step:
    """One recalibration step of the writer."""

    due: float
    began: float
    done: float
    ok: bool
    commit_s: float = 0.0
    written: int = 0
    compact_s: Optional[float] = None
    reclaimed: int = 0


def read_loop(
    client,
    batches: List[list],
    oracle: Oracle,
    stop_at: float,
    keep_going: Callable[[], bool],
    tally: Tally,
) -> None:
    """Closed loop: the next batch is sent when the previous one returned."""
    from repro.api import ReproError

    clock = time.perf_counter
    i = 0
    while clock() < stop_at or keep_going():
        keys = batches[i % len(batches)]
        i += 1
        tally.attempted += 1
        t0 = clock()
        try:
            waveforms = client.fetch_batch(keys)
        except (ReproError, OSError) as exc:
            tally.failed += 1
            if len(tally.errors) < 5:
                tally.errors.append(repr(exc))
            continue
        t1 = clock()
        bad = 0
        for key, waveform in zip(keys, waveforms):
            mse = oracle.check(key, waveform.samples, t0)
            if mse is None:
                bad += 1
            elif mse > tally.max_mse:
                tally.max_mse = mse
        if bad:
            tally.failed += 1
            tally.mismatches += bad
            continue
        tally.latencies.append(t1 - t0)
        tally.completions.append((t1, len(keys)))


class Recalibrator:
    """The writer's schedule: one recalibration step due every period.

    The work of a step (drift, compile, put, commit, compact) runs in
    ``writer.py``; this side records the new versions in the oracle,
    has the server adopt the commit, and keeps the clock.
    """

    def __init__(self, store_path, oracle: Oracle, launcher: Child, cpus=None) -> None:
        self.child = Child("writer.py", "--store", store_path, cpus=cpus)
        self.child.read()
        self.oracle = oracle
        self.launcher = launcher

    def close(self) -> None:
        self.child.stop()

    def step(self, step: Step) -> bool:
        """One recalibration; True iff the server adopted the new generation."""
        import numpy as np

        reply = self.child.call("step")
        if "error" in reply:
            print(f"writer step failed: {reply['error']}", file=sys.stderr)
            return False
        step.commit_s = reply["commit_s"]
        step.written = reply["written"]
        step.compact_s = reply.get("compact_s")
        step.reclaimed = reply.get("reclaimed", 0)
        keys = []
        for gate, qubits, mse, blob in reply["versions"]:
            samples = np.frombuffer(base64.b64decode(blob), dtype=np.complex128)
            keys.append((gate, tuple(qubits)))
            self.oracle.record(keys[-1], samples, mse)
        if not self.launcher.call("refresh").get("adopted"):
            return False
        self.oracle.adopted(keys, time.perf_counter())
        return True

    def loop(self, dues: List[float], steps: List[Step]) -> None:
        """Run one step per due time; a late step starts at once."""
        clock = time.perf_counter
        for due in dues:
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            step = Step(due=due, began=clock(), done=0.0, ok=False)
            step.ok = self.step(step)
            step.done = clock()
            steps.append(step)


class _Thread(threading.Thread):
    """A thread whose exception is re-raised on join."""

    def __init__(self, target, *args) -> None:
        super().__init__(daemon=True)
        self._call = (target, args)
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        target, args = self._call
        try:
            target(*args)
        except BaseException as exc:  # re-raised in the main thread
            self.error = exc

    def join_checked(self) -> None:
        self.join()
        if self.error is not None:
            raise self.error


@dataclass
class Phase:
    start: float
    end: float
    tallies: List[Tally]
    steps: List[Step]
    before: dict
    after: dict

    @property
    def batches(self) -> List[Tuple[float, int, float]]:
        """Every verified batch as (completion time, pulses, latency), in time order."""
        return sorted(
            (done, n, latency)
            for t in self.tallies
            for (done, n), latency in zip(t.completions, t.latencies)
        )

    @property
    def latencies(self) -> List[float]:
        """Every verified batch's latency, in completion order."""
        return [latency for _, _, latency in self.batches]

    @property
    def pulses_per_s(self) -> float:
        pulses = sum(n for t in self.tallies for _, n in t.completions)
        return pulses / (self.end - self.start)


class Run:
    """One workload against one running server."""

    def __init__(
        self, name, seed, launcher, store_path, clients, writer_cpus=None
    ) -> None:
        self.spec = WORKLOADS[name]
        self.launcher = launcher
        self.keys, self.oracle = build_oracle(store_path)
        self.streams = [
            key_batches(self.keys, self.spec.keys, seed, stream)
            for stream in range(self.spec.readers)
        ]
        self.clients = clients
        self.recal = (
            Recalibrator(store_path, self.oracle, launcher, writer_cpus)
            if self.spec.writer
            else None
        )

    def close(self) -> None:
        if self.recal is not None:
            self.recal.close()

    def phase(self, seconds: float, writes: bool = True) -> Phase:
        from stats import due_times

        before = self.launcher.call("snapshot")
        tallies = [Tally() for _ in self.clients]
        steps: List[Step] = []
        start = time.perf_counter()
        stop_at = start + seconds
        threads = []
        keep_going = lambda: False  # noqa: E731
        if self.recal is not None and writes:
            writer = _Thread(
                self.recal.loop, due_times(start, WRITER_PERIOD_S, seconds), steps
            )
            threads.append(writer)
            keep_going = writer.is_alive
        for i in range(1, len(self.clients)):
            threads.append(
                _Thread(
                    read_loop,
                    self.clients[i],
                    self.streams[i],
                    self.oracle,
                    stop_at,
                    keep_going,
                    tallies[i],
                )
            )
        for thread in threads:
            thread.start()
        read_loop(
            self.clients[0], self.streams[0], self.oracle, stop_at, keep_going, tallies[0]
        )
        for thread in threads:
            thread.join_checked()
        end = max((c[0] for t in tallies for c in t.completions[-1:]), default=stop_at)
        return Phase(start, end, tallies, steps, before, self.launcher.call("snapshot"))


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def _counter(phase: Phase, name: str) -> int:
    return phase.after["counters"].get(name, 0) - phase.before["counters"].get(name, 0)


def _median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(phase: Phase, setups: List[float], report: dict) -> Dict[str, float]:
    """Throughput and latencies are medians over slices of the run's batches."""
    from stats import failed_share, sliced_percentile, sliced_rate

    batches = phase.batches
    latencies = [latency for _, _, latency in batches]
    attempted = sum(t.attempted for t in phase.tallies) + len(phase.steps)
    failed = sum(t.failed for t in phase.tallies) + sum(
        not s.ok for s in phase.steps
    )
    return {
        "pulses_per_s": sliced_rate(
            [done for done, _, _ in batches], [n for _, n, _ in batches],
            phase.start, SLICE,
        ),
        "batch_ms_p50": sliced_percentile(latencies, 50, SLICE) * 1e3,
        "batch_ms_p99": sliced_percentile(latencies, 99, P99_SLICE) * 1e3,
        "ok_share": 1.0 - failed_share(attempted, failed),
        "setup_s": statistics.median(setups),
        "server_rss_mb": report["rss_mb"],
        "store_bytes_per_pulse": report["store_bytes"] / report["pulses"],
        "max_mse": max(t.max_mse for t in phase.tallies),
    }


def writer_metrics(steps: List[Step], refresh_ms: List[float]) -> Dict[str, float]:
    """Publish and store.writable figures; all 0 when nothing was written."""
    from stats import lateness, percentile, since_due

    if not steps:
        return {
            "publish_ms_p50": 0.0,
            "publish_ms_p90": 0.0,
            "store.writable.commit_ms": 0.0,
            "store.writable.bytes_written_per_commit": 0.0,
            "store.writable.compact_ms": 0.0,
            "store.writable.compact_bytes_reclaimed": 0.0,
            "store.server.refresh_ms": 0.0,
            "bench.writer_late_ms": 0.0,
            "bench.writer_late_ms_max": 0.0,
        }
    publish = since_due([s.due for s in steps], [s.done for s in steps])
    late = lateness([s.due for s in steps], [s.began for s in steps])
    compacts = [s for s in steps if s.compact_s is not None]
    return {
        "publish_ms_p50": percentile(publish, 50) * 1e3,
        "publish_ms_p90": percentile(publish, 90) * 1e3,
        "store.writable.commit_ms": statistics.median(s.commit_s for s in steps) * 1e3,
        "store.writable.bytes_written_per_commit": statistics.mean(
            s.written for s in steps
        ),
        "store.writable.compact_ms": _median_or_zero(
            [s.compact_s * 1e3 for s in compacts]
        ),
        "store.writable.compact_bytes_reclaimed": _median_or_zero(
            [s.reclaimed for s in compacts]
        ),
        "store.server.refresh_ms": _median_or_zero(refresh_ms),
        "bench.writer_late_ms": statistics.median(late) * 1e3,
        "bench.writer_late_ms_max": max(late) * 1e3,
    }


def install_client_spans(recorder) -> None:
    from repro.api import PulseClient
    from repro.serve_net import protocol
    from spans import request_id

    recorder.wrap(PulseClient, "fetch_batch", "serve_net.client.fetch_batch")
    recorder.wrap(
        protocol,
        "encode_fetch",
        "serve_net.client.encode",
        extra=lambda args, frame: len(frame),
        sets_request=lambda args, frame: request_id(frame[4:]),
    )
    recorder.wrap(PulseClient, "_roundtrip", "serve_net.client.roundtrip")
    recorder.wrap(
        protocol,
        "decode_reply",
        "serve_net.client.decode",
        extra=lambda args, reply: len(args[0]) + 4,
    )
    recorder.wrap(protocol, "decode_samples_item", "serve_net.client.decode")


def per_layer(
    name: str,
    timed: Phase,
    traced: Phase,
    client_rows: Dict[int, dict],
    report: dict,
    ready: List[dict],
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Per-layer metrics of the traced phase, plus the trace's health.

    ``batch_ms_p99`` comes from the untraced phase: it is an end-to-end
    figure, reported here because it is too noisy to gate on.
    """
    from stats import percentile, sliced_percentile

    server_rows = {int(rid): row for rid, row in report["requests"].items()}
    rows = [
        (c, server_rows[rid])
        for rid, c in client_rows.items()
        if rid in server_rows and "serve_net.client.fetch_batch" in c
    ]
    if not rows:
        raise BenchError("no traced batch was seen by both processes")

    def med(values) -> float:
        return _median_or_zero([v * 1e6 for v in values])

    def client_decode(c):
        return c.get("serve_net.client.decode", 0.0)

    def server_busy(s):
        return (
            s.get("serve_net.server.request_decode", 0.0)
            + s.get("store.server.fetch_batch", 0.0)
            + s.get("serve_net.server.reply_encode", 0.0)
        )

    wait = [c["serve_net.client.roundtrip.self"] for c, _ in rows]
    residual = [c["serve_net.client.roundtrip.self"] - server_busy(s) for c, s in rows]
    parts = [
        c["serve_net.client.encode"] + c["serve_net.client.roundtrip.self"]
        + client_decode(c)
        for c, _ in rows
    ]
    all_server = list(server_rows.values())
    # CPU seconds: the shard fills of one batch decode in parallel
    # threads, and their wall spans would count each other's GIL time.
    decode_s = sum(
        s.get("compression.fastpath.decode_records.cpu", 0.0) for s in all_server
    )
    decoded_pulses = sum(s.get("store.sharded.decode_many.extra", 0.0) for s in all_server)
    decoded_samples = sum(
        s.get("compression.fastpath.decode_records.extra", 0.0) for s in all_server
    )
    batches = len(traced.latencies)
    hits = _counter(traced, "cache.hits")
    lookups = hits + _counter(traced, "cache.misses")
    refreshes = len(traced.steps)
    out = {
        "serve_net.client.encode_us": med(c["serve_net.client.encode"] for c, _ in rows),
        "serve_net.client.wait_us": med(wait),
        "serve_net.client.decode_us": med(client_decode(c) for c, _ in rows),
        "serve_net.protocol.reply_bytes_per_pulse": sum(
            c["serve_net.client.decode.extra"] for c, _ in rows
        )
        / (BATCH * len(rows)),
        "serve_net.protocol.request_bytes_per_batch": statistics.mean(
            c["serve_net.client.encode.extra"] for c, _ in rows
        ),
        "serve_net.server.request_decode_us": med(
            s["serve_net.server.request_decode"] for _, s in rows
        ),
        "serve_net.server.reply_encode_us": med(
            s.get("serve_net.server.reply_encode", 0.0) for _, s in rows
        ),
        "serve_net.server.residual_us": med(residual),
        "serve_net.server.overloads": _counter(traced, "net.overloads"),
        "store.server.fetch_batch_self_us": med(
            s.get("store.server.fetch_batch.self", 0.0) for _, s in rows
        ),
        "store.server.shard_fills": _counter(traced, "server.shard_fills") / batches,
        "store.server.coalesced_fills": _counter(traced, "server.coalesced_fills")
        / batches,
        "store.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "store.cache.lookup_us": med(s.get("store.cache.lookup", 0.0) for _, s in rows),
        "store.cache.evictions": _counter(traced, "cache.evictions") / batches,
        "store.cache.invalidations": (
            _counter(traced, "cache.invalidations") / refreshes if refreshes else 0.0
        ),
        "store.cache.resident_bytes": report["resident_bytes"],
        "store.sharded.decode_many_self_us": med(
            s.get("store.sharded.decode_many.self", 0.0) for _, s in rows
        ),
        "store.sharded.record_bytes_per_pulse": report["record_bytes"]
        / report["pulses"],
        "compression.fastpath.decode_us_per_pulse": (
            decode_s / decoded_pulses * 1e6 if decoded_pulses else 0.0
        ),
        "compression.fastpath.msamples_per_s": (
            decoded_samples / decode_s / 1e6 if decode_s else 0.0
        ),
        "core.compiler.compile_ms_per_pulse": statistics.median(
            r["compile_s"] / r["pulses"] for r in ready
        )
        * 1e3,
        "bench.trace_overhead": traced.pulses_per_s / timed.pulses_per_s,
        "batch_ms_p99": sliced_percentile(timed.latencies, 99, P99_SLICE) * 1e3,
    }
    out.update(writer_metrics(timed.steps + traced.steps, report["refresh_ms"]))

    p50_us = percentile(traced.latencies, 50) * 1e6
    health = {
        "matched_batches": len(rows),
        "traced_batches": batches,
        "residual_min_us": min(residual) * 1e6,
        "client_parts_p50_us": med(parts),
        "traced_batch_p50_us": p50_us,
    }
    checks = {
        "residual_nonnegative": health["residual_min_us"] >= 0.0,
        "client_parts_match_p50": abs(health["client_parts_p50_us"] - p50_us)
        <= bound_of("batch_ms_p50") * p50_us,
        "matched_most_batches": len(rows) >= 0.9 * batches,
    }
    if WORKLOADS[name].writer:
        # Adopting a commit must drop the recalibrated pulses it holds.
        checks["writes_invalidate"] = out["store.cache.invalidations"] > 0.0
    if name == "warm_hit":
        # Every key is resident, so the store and the decoder must idle.
        checks["warm_bypass"] = (
            out["store.cache.hit_ratio"] == 1.0
            and out["store.sharded.decode_many_self_us"] == 0.0
            and out["compression.fastpath.decode_us_per_pulse"] == 0.0
        )
    health["checks"] = checks
    return out, health


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def bound_of(metric: str) -> float:
    for entry in benchmark_spec()["end_to_end"]:
        if entry["name"] == metric:
            return entry["bound"]
    raise KeyError(metric)


def fingerprint(seed: int) -> Dict[str, object]:
    """The machine and the code a result was measured on."""
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def _git_commit() -> Optional[str]:
    """HEAD's commit read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, drive and verify one workload; returns the result record.

    Half of the set-ups run before the measurement (the last of them
    serves it) and half after it, with its server stopped, so that the
    reported median samples the machine's speed across the whole run.
    """
    spec = WORKLOADS[name]
    work = ROOT / ".bench_build" / "cqnbench" / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    launcher = None
    run = None
    clients = []
    cpus = plan_cpus()
    affinity = os.sched_getaffinity(0) if cpus else None
    setups, ready = [], []

    def set_up(i: int) -> pathlib.Path:
        nonlocal launcher
        if launcher is not None:
            launcher.stop()
            launcher = None
        store_path = work / f"setup{i}" / "washington.cqs"
        store_path.parent.mkdir(parents=True)
        launcher, took, line = start_server(store_path, spec.cache)
        setups.append(took)
        ready.append(line)
        return store_path

    try:
        if cpus:
            # The launchers inherit this process's CPU.
            os.sched_setaffinity(0, cpus[0])
        for i in range(SETUPS // 2):
            store_path = set_up(i)

        from repro.api import PulseClient

        clients = [
            PulseClient("127.0.0.1", ready[-1]["port"], timeout=CLIENT_TIMEOUT_S)
            for _ in range(spec.readers)
        ]
        run = Run(
            name, seed, launcher, store_path, clients, cpus[1] if cpus else None
        )
        # The key lists and the oracle are ~10^6 long-lived references;
        # keep the client's garbage collector from walking them.
        gc.collect()
        gc.freeze()
        warmup = run.phase(WARMUP_S, writes=False)
        if not trace:
            timed = run.phase(seconds)
            phases = [warmup, timed]
        else:
            from spans import Recorder, per_request

            timed = run.phase(seconds * UNTRACED_SHARE)
            launcher.call("trace")
            recorder = Recorder()
            install_client_spans(recorder)
            try:
                traced = run.phase(seconds * (1 - UNTRACED_SHARE))
            finally:
                recorder.unwrap()
            phases = [warmup, timed, traced]
        report = launcher.call("report")

        for client in clients:
            client.close()
        clients = []
        run.close()
        run = None
        for i in range(SETUPS // 2, SETUPS):
            set_up(i)
    finally:
        if affinity:
            os.sched_setaffinity(0, affinity)
        for client in clients:
            client.close()
        if run is not None:
            run.close()
        if launcher is not None:
            launcher.stop()
        shutil.rmtree(work, ignore_errors=True)

    if not trace:
        metrics = end_to_end(timed, setups, report)
        extra = writer_metrics(timed.steps, report["refresh_ms"]) if spec.writer else {}
        health = {}
    else:
        metrics, health = per_layer(
            name, timed, traced, per_request(recorder.spans), report, ready
        )
        extra = end_to_end(timed, setups, report)

    # The warm-up is not measured, but its failures and mismatches count.
    tallies = [t for p in phases for t in p.tallies]
    steps = [s for p in phases for s in p.steps]
    mismatches = sum(t.mismatches for t in tallies)
    return {
        "workload": name,
        "trace": trace,
        "metrics": metrics,
        "extra": extra,
        "health": health,
        "attempted": sum(t.attempted for t in tallies) + len(steps),
        "failed": sum(t.failed for t in tallies) + sum(not s.ok for s in steps),
        "mismatches": mismatches,
        "batches": len(phases[1].latencies),  # the phase p99 comes from
        "steps": len(steps),
        "errors": [e for t in tallies for e in t.errors][:5],
        "correct": mismatches == 0 and all(health.get("checks", {}).values()),
    }


def _unit_table(trace: bool) -> List[dict]:
    return benchmark_spec()["per_layer" if trace else "end_to_end"]


def print_record(record: dict, fp: dict) -> None:
    """Human-readable lines: every metric by name and unit, then context."""
    from stats import failed_share, samples_beyond

    print(f"# {record['workload']}  trace={int(record['trace'])}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    units = {e["name"]: e["unit"] for e in _unit_table(record["trace"])}
    units.update({e["name"]: e["unit"] for e in _unit_table(not record["trace"])})
    for name, value in {**record["metrics"], **record["extra"]}.items():
        print(f"  {name:44s} {value:16.6g} {units.get(name, '')}")
    print(
        f"  {'failed_share':44s} "
        f"{failed_share(record['attempted'], record['failed']):16.6g} fraction"
    )
    print(
        f"  batches={record['batches']} (beyond p99: "
        f"{samples_beyond(record['batches'], 99)})  writer steps={record['steps']} "
        f"(beyond p90: {samples_beyond(record['steps'], 90)})  "
        f"mismatches={record['mismatches']}"
    )
    if record["health"]:
        print("  health " + json.dumps(record["health"], sort_keys=True))
    for error in record["errors"]:
        print(f"  error: {error}")


def result_line(records: List[dict]) -> dict:
    """The final JSON line: exactly correct, attempted, failed and metrics."""
    trace = records[0]["trace"]
    table = _unit_table(trace)
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else record["workload"] + "."
        for entry in table:
            metrics[prefix + entry["name"]] = {
                "value": record["metrics"][entry["name"]],
                "unit": entry["unit"],
            }
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "api.py").is_file():
        print(f"error: repository sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = args.seconds or benchmark_spec()["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    fp = fingerprint(args.seed)
    records = []
    for name in names:
        record = run_workload(name, args.seed, seconds, bool(args.trace))
        print_record(record, fp)
        records.append(record)
    result = result_line(records)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
