"""The blessed public API: one import for the whole serving stack.

Everything a consumer of the reproduction needs lives here under one
stable namespace, end to end in read-path order::

    compile      -> compile_library / CompaqtCompiler
    persist      -> save_store / open_store / ShardedStore
    serve        -> PulseServer / PulseCache (in-process)
                    NetPulseServer / serve_in_thread (CQN1 socket tier)
                    DecodePool (multi-process cold-miss decode workers)
    consume      -> PulseClient / AsyncPulseClient
    measure      -> run_closed_loop / run_open_loop / LoadReport
    extend       -> Codec / register_codec / list_codecs / get_codec

Deep imports (``repro.compression.codecs``, ``repro.store.sharded``,
...) keep working, but they expose internals that may move between
releases; names re-exported here are the compatibility surface.

Quickstart::

    from repro.api import (
        PulseClient,
        PulseServer,
        compile_library,
        save_store,
        serve_in_thread,
    )

    compiled = compile_library("guadalupe", window_size=16)
    store = save_store(compiled, "guadalupe.cqs", n_shards=4)

    with PulseServer(store, cache_capacity=32) as serving:
        with serve_in_thread(serving) as handle:
            with PulseClient(*handle.address) as client:
                pulse = client.fetch("sx", (0,))
"""

from typing import Union

from repro.version import __version__
from repro.errors import (
    CompressionError,
    DecodeWorkerError,
    DeviceError,
    ProtocolError,
    ReproError,
    ServerOverloadedError,
    StoreError,
)
from repro.pulses import Waveform
from repro.pulses.library import PulseLibrary
from repro.devices import fluxonium_device, google_device, ibm_device
from repro.compression import (
    CompressionResult,
    compress_waveform,
    decompress_waveform,
)
from repro.compression.codecs import (
    Codec,
    get_codec,
    list_codecs,
    register_codec,
    resolve_codec,
)
from repro.core import CompaqtCompiler, CompressedPulseLibrary
from repro.perf.compression_bench import resolve_device
from repro.store import (
    PulseCache,
    PulseServer,
    ShardedStore,
    StoreHandle,
    load_trace,
    open_store,
    save_store,
    synthetic_trace,
)
from repro.serve_net import (
    AsyncPulseClient,
    DecodePool,
    LoadReport,
    NetPulseServer,
    PoolStats,
    PulseClient,
    parse_address,
    run_closed_loop,
    run_open_loop,
    serve_in_thread,
)

__all__ = [
    "__version__",
    # Errors.
    "ReproError",
    "CompressionError",
    "DeviceError",
    "StoreError",
    "DecodeWorkerError",
    "ProtocolError",
    "ServerOverloadedError",
    # Devices and waveforms.
    "Waveform",
    "PulseLibrary",
    "ibm_device",
    "google_device",
    "fluxonium_device",
    "resolve_device",
    # Compression.
    "CompressionResult",
    "compress_waveform",
    "decompress_waveform",
    "Codec",
    "register_codec",
    "list_codecs",
    "get_codec",
    "resolve_codec",
    # Compile.
    "CompaqtCompiler",
    "CompressedPulseLibrary",
    "compile_library",
    # Store + in-process serving.
    "ShardedStore",
    "StoreHandle",
    "save_store",
    "open_store",
    "PulseCache",
    "PulseServer",
    "load_trace",
    "synthetic_trace",
    # Network serving tier.
    "NetPulseServer",
    "serve_in_thread",
    "DecodePool",
    "PoolStats",
    "PulseClient",
    "AsyncPulseClient",
    "parse_address",
    "LoadReport",
    "run_closed_loop",
    "run_open_loop",
]

_LibrarySource = Union[str, PulseLibrary]


def compile_library(
    source: "_LibrarySource",
    window_size: int = 16,
    codec="int-DCT-W",
    **compiler_options,
) -> CompressedPulseLibrary:
    """Compile a pulse library in one call.

    Args:
        source: What to compile -- a device spec string accepted by
            :func:`resolve_device` (``"guadalupe"``, ``"google-6x9"``,
            ``"fluxonium-5"``), a device model (anything with a
            ``pulse_library()`` method), or a
            :class:`~repro.pulses.library.PulseLibrary`.
        window_size: Codec window size.
        codec: Codec registry name or :class:`Codec` object; defaults
            to ``"int-DCT-W"``.
        **compiler_options: Forwarded to :class:`CompaqtCompiler`
            (``threshold=``, ``fidelity_aware=``, ``target_mse=``,
            ``max_coefficients=``, ``batched=``).

    Returns:
        The compiled :class:`CompressedPulseLibrary`; pair with
        :func:`save_store` to persist it as a ``CQS1`` store.
    """
    if isinstance(source, str):
        library = resolve_device(source).pulse_library()
    elif isinstance(source, PulseLibrary):
        library = source
    elif hasattr(source, "pulse_library"):
        library = source.pulse_library()
    else:
        raise ReproError(
            "compile_library wants a device spec string, a device model, or a "
            f"PulseLibrary, got {type(source).__name__}"
        )
    compiler = CompaqtCompiler(window_size=window_size, codec=codec, **compiler_options)
    return compiler.compile_library(library)
