"""Compression pipeline, pluggable codec registry, and memory packing."""

from repro.compression.codecs import (
    Codec,
    get_codec,
    list_codecs,
    register_codec,
    resolve_codec,
)
from repro.compression.pipeline import (
    DEFAULT_THRESHOLD,
    CompressedChannel,
    CompressedWaveform,
    CompressionResult,
    compress_waveform,
    decompress_waveform,
    compress_channel,
    decompress_channel,
)
from repro.compression.batch import (
    BatchCompressionResult,
    compress_batch,
    decompress_batch,
    decompress_channels,
)
from repro.compression.bitstream import (
    LibraryBitstream,
    LibraryEntry,
    parse_library,
    parse_library_scalar,
    parse_waveform,
    parse_waveform_scalar,
    serialize_library,
    serialize_waveform,
)
from repro.compression.fastpath import (
    decode_library_bytes,
    decode_record_bytes,
    decode_records,
)
from repro.compression.window import split_windows, merge_windows, n_windows
from repro.compression.metrics import (
    mean_squared_error,
    compression_ratio,
    signal_to_noise_db,
)
from repro.compression.packing import (
    brams_per_stream_uncompressed,
    brams_per_stream_compaqt,
    idct_engines_needed,
    BankLayout,
    pack_waveform,
)
from repro.compression.overlap import (
    OverlappingChannel,
    OverlappingCompressionResult,
    compress_channel_overlapping,
    decompress_channel_overlapping,
    compress_waveform_overlapping,
)

__all__ = [
    "Codec",
    "get_codec",
    "list_codecs",
    "register_codec",
    "resolve_codec",
    "DEFAULT_THRESHOLD",
    "CompressedChannel",
    "CompressedWaveform",
    "CompressionResult",
    "compress_waveform",
    "decompress_waveform",
    "compress_channel",
    "decompress_channel",
    "BatchCompressionResult",
    "compress_batch",
    "decompress_batch",
    "decompress_channels",
    "LibraryBitstream",
    "LibraryEntry",
    "parse_library",
    "parse_library_scalar",
    "parse_waveform",
    "parse_waveform_scalar",
    "serialize_library",
    "serialize_waveform",
    "decode_library_bytes",
    "decode_record_bytes",
    "decode_records",
    "split_windows",
    "merge_windows",
    "n_windows",
    "mean_squared_error",
    "compression_ratio",
    "signal_to_noise_db",
    "brams_per_stream_uncompressed",
    "brams_per_stream_compaqt",
    "idct_engines_needed",
    "BankLayout",
    "pack_waveform",
    "OverlappingChannel",
    "OverlappingCompressionResult",
    "compress_channel_overlapping",
    "decompress_channel_overlapping",
    "compress_waveform_overlapping",
]
