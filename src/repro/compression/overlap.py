"""Overlapping-window compression (the paper's proposed WS=8 fix).

Section VII-B attributes the WS=8 fidelity losses to "distortions
introduced at the boundaries of consecutive windows" and notes they
"can be reduced by using overlapping windows to compress the waveform".
This module implements that extension:

- analysis windows advance by ``window_size / 2`` (50% overlap);
- each window is transformed / thresholded / RLE'd exactly like the
  plain pipeline;
- synthesis multiplies each reconstructed window by a triangular
  crossfade and overlap-adds.  Triangular weights at half-window stride
  sum to one, so a lossless window set reconstructs exactly; a lossy
  one blends boundary errors smoothly instead of stepping.

The cost is ~2x the stored windows, so overlap trades capacity for
boundary quality -- quantified by the ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import CompressionError
from repro.compression.codecs import ensure_registered, resolve_codec
from repro.compression.metrics import mean_squared_error
from repro.compression.pipeline import (
    CodecLike,
    forward_transform,
    inverse_transform,
)
from repro.pulses.waveform import Waveform
from repro.transforms.rle import EncodedWindow, rle_encode_window, rle_decode_window

__all__ = [
    "OverlappingChannel",
    "OverlappingCompressionResult",
    "compress_channel_overlapping",
    "decompress_channel_overlapping",
    "compress_waveform_overlapping",
]


@dataclass(frozen=True)
class OverlappingChannel:
    """One channel compressed with 50%-overlapping windows."""

    windows: Tuple[EncodedWindow, ...]
    variant: str
    window_size: int
    original_length: int

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def stored_words_variable(self) -> int:
        return sum(w.n_words for w in self.windows)

    @property
    def worst_case_words(self) -> int:
        return max(w.n_words for w in self.windows)


@dataclass(frozen=True)
class OverlappingCompressionResult:
    """Compressed waveform (both channels) with overlap-add synthesis."""

    name: str
    i_channel: OverlappingChannel
    q_channel: OverlappingChannel
    reconstructed: Waveform
    mse: float

    @property
    def stored_words(self) -> int:
        """Per-channel pair total under variable packing."""
        return (
            self.i_channel.stored_words_variable
            + self.q_channel.stored_words_variable
        )

    @property
    def compression_ratio(self) -> float:
        original = 2 * self.i_channel.original_length
        return original / max(1, self.stored_words)


def _window_starts(length: int, window_size: int) -> List[int]:
    stride = window_size // 2
    if length <= window_size:
        return [0]
    last = length - stride  # final window may extend past; it is padded
    return list(range(0, last, stride))


def _crossfade(window_size: int) -> np.ndarray:
    """Triangular synthesis weights; pairs at half-window stride sum to 1."""
    half = window_size // 2
    ramp = (np.arange(half) + 0.5) / half
    return np.concatenate([ramp, ramp[::-1]])


def compress_channel_overlapping(
    codes: np.ndarray,
    window_size: int,
    codec: CodecLike = "int-DCT-W",
    threshold: float = 128,
    max_coefficients: int = 0,
) -> OverlappingChannel:
    """Compress one integer channel with 50%-overlapping windows."""
    codec = ensure_registered(resolve_codec(codec))
    if not codec.windowed:
        raise CompressionError("overlap requires a windowed codec")
    if threshold < 0:
        raise CompressionError(f"threshold must be >= 0, got {threshold}")
    if max_coefficients < 0:
        raise CompressionError(
            f"max_coefficients must be >= 0, got {max_coefficients}"
        )
    if window_size % 2:
        raise CompressionError(f"window size must be even, got {window_size}")
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 1 or codes.size == 0:
        raise CompressionError(f"expected non-empty 1-D codes, got {codes.shape}")
    encoded: List[EncodedWindow] = []
    for start in _window_starts(codes.size, window_size):
        block = np.zeros(window_size, dtype=np.int64)
        chunk = codes[start : start + window_size]
        block[: chunk.size] = chunk
        coeffs = forward_transform(block, codec)
        kept = codec.threshold_blocks(coeffs.reshape(1, -1), threshold)
        if max_coefficients:
            kept = codec.top_k_blocks(kept, max_coefficients)
        encoded.append(rle_encode_window(kept[0]))
    return OverlappingChannel(
        windows=tuple(encoded),
        variant=codec.name,
        window_size=window_size,
        original_length=int(codes.size),
    )


def decompress_channel_overlapping(channel: OverlappingChannel) -> np.ndarray:
    """Overlap-add reconstruction with triangular crossfade."""
    window_size = channel.window_size
    starts = _window_starts(channel.original_length, window_size)
    if len(starts) != channel.n_windows:
        raise CompressionError(
            f"window count mismatch: {len(starts)} starts vs "
            f"{channel.n_windows} stored"
        )
    length = max(channel.original_length, starts[-1] + window_size)
    accum = np.zeros(length, dtype=np.float64)
    weight = np.zeros(length, dtype=np.float64)
    fade = _crossfade(window_size)
    for start, window in zip(starts, channel.windows):
        coeffs = rle_decode_window(window)
        samples = inverse_transform(coeffs, channel.variant).astype(np.float64)
        accum[start : start + window_size] += samples * fade
        weight[start : start + window_size] += fade
    weight[weight == 0] = 1.0
    merged = accum / weight
    return np.rint(merged[: channel.original_length]).astype(np.int64)


def compress_waveform_overlapping(
    waveform: Waveform,
    window_size: int = 8,
    codec: CodecLike = "int-DCT-W",
    threshold: float = 128,
    max_coefficients: int = 0,
) -> OverlappingCompressionResult:
    """Compress a waveform with overlapping windows; returns quality
    metrics against the original."""
    i_codes, q_codes = waveform.to_fixed_point()
    i_channel = compress_channel_overlapping(
        i_codes.astype(np.int64), window_size, codec, threshold, max_coefficients
    )
    q_channel = compress_channel_overlapping(
        q_codes.astype(np.int64), window_size, codec, threshold, max_coefficients
    )
    i_back = decompress_channel_overlapping(i_channel)
    q_back = decompress_channel_overlapping(q_channel)
    reconstructed = Waveform.from_fixed_point(
        np.clip(i_back, -32768, 32767).astype(np.int16),
        np.clip(q_back, -32768, 32767).astype(np.int16),
        dt=waveform.dt,
        name=f"{waveform.name}~overlap",
        gate=waveform.gate,
        qubits=waveform.qubits,
    )
    return OverlappingCompressionResult(
        name=waveform.name,
        i_channel=i_channel,
        q_channel=q_channel,
        reconstructed=reconstructed,
        mse=mean_squared_error(waveform.samples, reconstructed.samples),
    )
