"""The recalibration service of ``recal_mixed``: one writer process.

``run.py`` starts this file as a child process and sends one JSON
command per stdin line.  For ``step`` it drifts the next pulses of a
fixed plan (the n-th recalibration of a pulse applies ``DriftModel`` step n to its
source envelope), compiles them with ``compile_waveform``, stages them
with ``StoreWriter.put``, commits, and on every 16th commit compacts.
The reply carries the timings and each new version's samples, as
decoded by the scalar decoder inside ``compile_waveform``: they are the
oracle for that version, recorded before the server adopts it.
``stop`` exits.

The writer lives in its own process so that its compile and compaction
work does not hold the load generator's GIL: readers of a real store do
not share an interpreter with the service that recalibrates it.

The plan and the drift are the same for every benchmark seed, as the
Zipf popularity order is: pulse lengths differ by 10x, so a seeded
plan would change the compile work and the worst served MSE from seed
to seed.

Usage: python3 cqnbench/writer.py --src SRC --store DIR
"""

from __future__ import annotations

import argparse
import base64
import json
import pathlib
import sys
import time

from launcher import CODEC, DEVICE, WINDOW

COMPACT_EVERY = 16
PULSES = 8  # recalibrated per step
PLAN_STEPS = 1024
PLAN_SEED = 0


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--store", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    import numpy as np

    from repro.api import CompaqtCompiler, ReproError, resolve_device
    from repro.core import DriftModel
    from repro.store import StoreWriter

    store_path = pathlib.Path(args.store)
    source = {
        (w.gate, tuple(w.qubits)): w
        for w in resolve_device(DEVICE).pulse_library()
    }
    writer = StoreWriter(store_path)
    compiler = CompaqtCompiler(window_size=WINDOW, codec=CODEC)
    drift = DriftModel(seed=PLAN_SEED)
    keys = sorted(writer.store.keys())
    rng = np.random.default_rng(PLAN_SEED)
    plan = [
        [keys[i] for i in rng.choice(len(keys), PULSES, replace=False)]
        for _ in range(PLAN_STEPS)
    ]
    recalibrations: dict = {}
    commits = 0
    _reply({"ready": True})

    def step() -> dict:
        nonlocal commits
        versions = []
        for key in plan[commits % PLAN_STEPS]:
            recalibrations[key] = recalibrations.get(key, 0) + 1
            drifted = drift.drifted(source[key], recalibrations[key])
            result = compiler.compile_waveform(drifted)
            writer.put(key[0], key[1], result)
            samples = np.ascontiguousarray(result.reconstructed.samples)
            versions.append(
                [key[0], list(key[1]), result.mse, base64.b64encode(samples).decode()]
            )
        t0 = time.perf_counter()
        committed = writer.commit()
        out = {"commit_s": time.perf_counter() - t0, "versions": versions}
        tag = f"{committed.generation:010d}"
        out["written"] = sum(
            p.stat().st_size for p in store_path.iterdir() if tag in p.name
        )
        commits += 1
        if commits % COMPACT_EVERY == 0:
            before = committed.total_shard_bytes
            t0 = time.perf_counter()
            compacted = writer.compact()
            out["compact_s"] = time.perf_counter() - t0
            out["reclaimed"] = before - compacted.total_shard_bytes
        return out

    try:
        for line in sys.stdin:
            op = json.loads(line)["op"]
            if op == "stop":
                break
            try:
                _reply(step())
            except (ReproError, OSError) as exc:
                # Uncommitted puts must not leak into the next commit:
                # the oracle never saw them.
                writer.discard_pending()
                _reply({"error": repr(exc)})
    finally:
        writer.close()
    _reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
