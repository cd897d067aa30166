"""The program under test: one CQN1 server process built from the public API.

``run.py`` starts this file as a child process.  It compiles the
device library, saves it as a sharded store, opens it, starts a
:class:`PulseServer` behind :func:`serve_in_thread` with the shipped
defaults, prewarms the cache, then prints one ``ready``
JSON line carrying the port.  After that it answers one JSON command
per stdin line with one JSON reply per stdout line:

``refresh``   adopt the newest committed generation (the writer in
              the benchmark process has just committed one)
``snapshot``  the server's merged metrics-registry snapshot
``trace``     wrap the server-side layers and start recording spans
``report``    peak RSS, store footprint, cache residency and the
              per-request span rows recorded so far
``stop``      drain the server and exit

Usage: python3 cqnbench/launcher.py --src SRC --store DIR --cache N
(``--cache 0`` sizes the cache to hold the whole library.)

The library's configuration lives here only; ``writer.py`` and
``run.py`` import it, so the writer compiles recalibrations under the
codec the store was built with.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

DEVICE = "washington"
CODEC = "int-DCT-W"
WINDOW = 16
SHARDS = 4


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _install_server_spans(recorder) -> None:
    from repro.api import PulseCache, PulseServer, ShardedStore
    from repro.serve_net import protocol
    from repro.store import sharded
    from spans import request_id

    recorder.wrap(
        protocol,
        "decode_request",
        "serve_net.server.request_decode",
        sets_request=lambda args, result: request_id(bytes(args[0])),
    )
    recorder.wrap(protocol, "encode_samples_item", "serve_net.server.reply_encode")
    recorder.wrap(protocol, "encode_reply_fetch", "serve_net.server.reply_encode")
    recorder.wrap(PulseServer, "fetch_batch", "store.server.fetch_batch")
    recorder.wrap(PulseCache, "lookup", "store.cache.lookup")
    recorder.wrap(
        ShardedStore,
        "decode_many",
        "store.sharded.decode_many",
        extra=lambda args, result: len(result),
    )
    recorder.wrap(
        sharded,
        "decode_records",
        "compression.fastpath.decode_records",
        extra=lambda args, result: sum(w.samples.size for w in result),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument(
        "--cache", type=int, required=True, help="cache capacity; 0 = every pulse"
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    from repro.api import (
        PulseServer,
        compile_library,
        open_store,
        save_store,
        serve_in_thread,
    )
    from spans import Recorder, per_request

    started = time.perf_counter()
    compiled = compile_library(DEVICE, window_size=WINDOW, codec=CODEC)
    compiled_at = time.perf_counter()
    save_store(compiled, pathlib.Path(args.store), n_shards=SHARDS).close()
    saved_at = time.perf_counter()
    pulses = len(compiled)
    del compiled  # a server reads its store; it does not keep the compiler's output
    capacity = args.cache or pulses
    serving = PulseServer(open_store(args.store), cache_capacity=capacity)
    serving.cache.prewarm()
    warmed_at = time.perf_counter()
    handle = serve_in_thread(serving)
    _reply(
        {
            "ready": True,
            "port": handle.address[1],
            "pulses": pulses,
            "compile_s": compiled_at - started,
            "save_s": saved_at - compiled_at,
            "open_prewarm_s": warmed_at - saved_at,
        }
    )

    recorder = Recorder()
    refresh_ms = []
    try:
        for line in sys.stdin:
            op = json.loads(line)["op"]
            if op == "refresh":
                t0 = time.perf_counter()
                adopted = serving.refresh()
                refresh_ms.append((time.perf_counter() - t0) * 1e3)
                _reply({"adopted": adopted, "generation": serving.store.generation})
            elif op == "snapshot":
                _reply(handle.server.metrics_snapshot())
            elif op == "trace":
                _install_server_spans(recorder)
                _reply({"tracing": True})
            elif op == "report":
                store = serving.store
                keys = store.keys()
                cache = serving.cache
                resident = 0
                for key in cache.cached_keys():
                    waveform = cache.peek(*key)
                    if waveform is not None:
                        resident += waveform.samples.nbytes
                _reply(
                    {
                        # Linux reports ru_maxrss in KiB.
                        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0,
                        "generation": store.generation,
                        "store_bytes": store.total_shard_bytes,
                        "pulses": len(keys),
                        "record_bytes": sum(store.record_info(*k).length for k in keys),
                        "resident_bytes": resident,
                        "refresh_ms": refresh_ms,
                        "requests": {
                            str(rid): row
                            for rid, row in per_request(recorder.spans).items()
                        },
                    }
                )
            elif op == "stop":
                break
            else:
                _reply({"error": f"unknown op {op!r}"})
    finally:
        recorder.unwrap()
        handle.stop()
        serving.close()
    _reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
