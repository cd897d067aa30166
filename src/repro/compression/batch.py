"""Batched compression engine: one vectorized pass for many waveforms.

The scalar pipeline in :mod:`repro.compression.pipeline` compresses one
window at a time -- fine for a single pulse, but the compiler walks
whole device libraries (hundreds of pulses, tens of thousands of
windows) every calibration cycle.  This module stacks every window of
every channel of every pulse into a single ``(n_windows, window_size)``
matrix and runs each pipeline stage once:

1. quantize all envelopes to int16 I/Q codes;
2. one call into the codec's vectorized forward kernel (one matmul for
   the DCT family, one pass of integer arithmetic for delta/dictionary);
3. one vectorized hard-threshold (plus optional top-k cap);
4. one vectorized trailing-zero reduction feeding the RLE encoder;
5. one inverse block-kernel call to reconstruct the as-played samples.

The result is a :class:`BatchCompressionResult` whose per-pulse entries
are ordinary :class:`~repro.compression.pipeline.CompressionResult`
objects, bit-identical to what :func:`compress_waveform` produces pulse
by pulse (the scalar path remains the reference implementation; the
parity test suite holds the two paths equal window for window).

DCT-N has no fixed window -- its "window" is the full pulse -- so the
engine groups pulses by length and runs one matmul per distinct length,
which on real libraries (two or three distinct durations) is still a
handful of matmuls total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import CompressionError
from repro.compression.codecs import ensure_registered, resolve_codec
from repro.compression.metrics import mean_squared_error
from repro.compression.pipeline import (
    DEFAULT_THRESHOLD,
    CodecLike,
    CompressedChannel,
    CompressedWaveform,
    CompressionResult,
)
from repro.compression.window import merge_windows, split_windows
from repro.pulses.quantization import FULL_SCALE
from repro.pulses.waveform import Waveform
from repro.transforms.rle import rle_encode_blocks

__all__ = [
    "BatchCompressionResult",
    "compress_batch",
    "decompress_batch",
    "finish_samples",
]


@dataclass(frozen=True)
class BatchCompressionResult:
    """Results of one batched compression pass over many waveforms.

    Per-pulse provenance is preserved: ``results[i]`` is the full
    :class:`CompressionResult` for ``waveforms[i]``, so any caller that
    consumed the scalar API can consume a batch entry unchanged.
    """

    results: Tuple[CompressionResult, ...]
    variant: str
    window_size: int
    threshold: float

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> CompressionResult:
        return self.results[index]

    def result_for(self, name: str) -> CompressionResult:
        """Look up one pulse's result by waveform name."""
        for result in self.results:
            if result.compressed.name == name:
                return result
        raise CompressionError(f"no batch entry named {name!r}")

    # -- aggregate metrics ---------------------------------------------------

    @property
    def n_pulses(self) -> int:
        return len(self.results)

    @property
    def total_samples(self) -> int:
        """Original complex samples across all pulses."""
        return sum(r.compressed.original_samples for r in self.results)

    def total_stored_words(self, packing: str = "uniform") -> int:
        return sum(r.compressed.stored_words(packing) for r in self.results)

    def overall_ratio(self, packing: str = "uniform") -> float:
        """Library-level R: total old size / total new size."""
        stored = self.total_stored_words(packing)
        if stored == 0:
            raise CompressionError("empty batch compression result")
        return self.total_samples / stored

    @property
    def mean_mse(self) -> float:
        return float(np.mean([r.mse for r in self.results]))

    @property
    def max_mse(self) -> float:
        return float(np.max([r.mse for r in self.results]))


def compress_batch(
    waveforms: Sequence[Waveform],
    window_size: int = 16,
    codec: CodecLike = "int-DCT-W",
    threshold: float = DEFAULT_THRESHOLD,
    max_coefficients: int = 0,
) -> BatchCompressionResult:
    """Compress many waveforms in one vectorized pass.

    Args:
        waveforms: The pulses to compress (e.g. a whole device library).
        window_size: Codec window (8/16/32 for the DCT family); ignored
            by full-frame codecs (DCT-N), which use each pulse's length.
        codec: A registered codec name or a
            :class:`~repro.compression.codecs.Codec` object; defaults
            to ``"int-DCT-W"``.
        threshold: Hard threshold in integer coefficient units.
        max_coefficients: Optional per-window top-k cap.

    Returns:
        A :class:`BatchCompressionResult` whose entries are bit-identical
        to per-pulse :func:`~repro.compression.pipeline.compress_waveform`
        calls with the same configuration.
    """
    codec = ensure_registered(resolve_codec(codec))
    if not waveforms:
        raise CompressionError("cannot batch-compress an empty waveform list")
    if threshold < 0:
        raise CompressionError(f"threshold must be >= 0, got {threshold}")
    if max_coefficients < 0:
        raise CompressionError(
            f"max_coefficients must be >= 0, got {max_coefficients}"
        )
    if codec.windowed:
        codec.check_window_size(window_size)

    # Quantize every envelope and split each channel into windows.  A
    # "channel" here is one of the 2 * n_pulses int16 streams; channels
    # are concatenated in (pulse, I-then-Q) order so slices recover
    # per-pulse provenance.
    channels: List[np.ndarray] = []  # int64 codes, one entry per channel
    lengths: List[int] = []  # original sample count per channel
    pulse_window_sizes: List[int] = []
    for waveform in waveforms:
        ws = codec.resolve_window_size(waveform.n_samples, window_size)
        pulse_window_sizes.append(ws)
        i_codes, q_codes = waveform.to_fixed_point()
        channels.append(np.asarray(i_codes, dtype=np.int64))
        channels.append(np.asarray(q_codes, dtype=np.int64))
        lengths.extend([i_codes.size, q_codes.size])

    # Group channels by window size (one group for windowed codecs;
    # one group per distinct pulse length for full-frame codecs), then
    # run every pipeline stage once per group.
    groups: Dict[int, List[int]] = {}
    for index, codes in enumerate(channels):
        ws = pulse_window_sizes[index // 2]
        groups.setdefault(ws, []).append(index)

    encoded_by_channel: List[Tuple] = [None] * len(channels)
    recon_by_channel: List[np.ndarray] = [None] * len(channels)
    for ws, indices in groups.items():
        blocks_per_channel = [
            split_windows(channels[i], ws) for i in indices
        ]
        counts = [b.shape[0] for b in blocks_per_channel]
        stacked = np.vstack(blocks_per_channel)

        coeffs = codec.forward_blocks(stacked)
        kept = codec.threshold_blocks(coeffs, threshold)
        if max_coefficients:
            kept = codec.top_k_blocks(kept, max_coefficients)
        encoded = rle_encode_blocks(kept)
        recon = codec.inverse_blocks(kept)

        offset = 0
        for i, count in zip(indices, counts):
            encoded_by_channel[i] = tuple(encoded[offset : offset + count])
            recon_by_channel[i] = merge_windows(
                recon[offset : offset + count], lengths[i]
            )
            offset += count

    # Reassemble per-pulse results in the scalar pipeline's exact shape.
    finished = finish_samples(recon_by_channel[0::2], recon_by_channel[1::2])
    results: List[CompressionResult] = []
    for p, waveform in enumerate(waveforms):
        ws = pulse_window_sizes[p]
        i_index, q_index = 2 * p, 2 * p + 1
        compressed = CompressedWaveform(
            name=waveform.name,
            gate=waveform.gate,
            qubits=waveform.qubits,
            dt=waveform.dt,
            i_channel=CompressedChannel(
                windows=encoded_by_channel[i_index],
                variant=codec.name,
                window_size=ws,
                original_length=lengths[i_index],
            ),
            q_channel=CompressedChannel(
                windows=encoded_by_channel[q_index],
                variant=codec.name,
                window_size=ws,
                original_length=lengths[q_index],
            ),
        )
        reconstructed = Waveform(
            name=f"{waveform.name}~{codec.name}",
            samples=finished[p],
            dt=waveform.dt,
            gate=waveform.gate,
            qubits=waveform.qubits,
        )
        results.append(
            CompressionResult(
                compressed=compressed,
                reconstructed=reconstructed,
                mse=mean_squared_error(waveform.samples, reconstructed.samples),
                threshold=threshold,
            )
        )
    return BatchCompressionResult(
        results=tuple(results),
        variant=codec.name,
        window_size=window_size,
        threshold=threshold,
    )


def decompress_batch(
    compressed: "BatchCompressionResult | Sequence",
) -> Tuple[Waveform, ...]:
    """Decompress many waveforms in one vectorized pass.

    The in-memory front door of the package's one vectorized decoder
    (:func:`repro.compression.fastpath.decode_compressed`): every window
    of every channel goes through one grouped inverse kernel call per
    ``(window size, codec)`` and one batched sample finish.

    Args:
        compressed: A :class:`BatchCompressionResult`, or any sequence of
            :class:`~repro.compression.pipeline.CompressedWaveform` /
            :class:`~repro.compression.pipeline.CompressionResult`
            entries (mixed variants and window sizes are fine).

    Returns:
        One reconstructed :class:`~repro.pulses.waveform.Waveform` per
        input, bit-identical to calling
        :func:`~repro.compression.pipeline.decompress_waveform` on each
        entry individually.
    """
    # Late import: fastpath imports finish_samples from this module.
    from repro.compression.fastpath import decode_compressed

    if isinstance(compressed, BatchCompressionResult):
        entries = [r.compressed for r in compressed]
    else:
        entries = [
            e.compressed if isinstance(e, CompressionResult) else e
            for e in compressed
        ]
    if not entries:
        raise CompressionError("cannot batch-decompress an empty waveform list")
    for entry in entries:
        if not isinstance(entry, CompressedWaveform):
            raise CompressionError(
                f"expected CompressedWaveform entries, got {type(entry).__name__}"
            )
    return tuple(
        Waveform(
            name=f"{entry.name}~{entry.variant}",
            samples=samples,
            dt=entry.dt,
            gate=entry.gate,
            qubits=entry.qubits,
        )
        for entry, samples in zip(entries, decode_compressed(entries))
    )


#: Candidate cut for the magnitude clamp.  ``x**2 + y**2`` computed in
#: float64 is within a few ulp of the exact value, so every sample whose
#: ``np.abs`` exceeds 1 lies above this cut; only those few candidates
#: pay for the exact test.
_CLAMP_CANDIDATE = 1.0 - 1e-12


#: Pulses finish together in buffers of about this many samples: large
#: enough that numpy's per-call costs vanish, small enough that a
#: whole-library call holds one chunk of temporaries, not a library's.
_FINISH_CHUNK = 1 << 16


def finish_samples(
    i_parts: Sequence[np.ndarray], q_parts: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """Integer I/Q codes -> clamped complex128 samples, one per pulse.

    ``i_parts`` / ``q_parts`` are the per-pulse channel codes (pairwise
    equal lengths, else :class:`CompressionError`).  Pulses finish
    together, one pass per stage over one buffer per chunk: clipped
    codes are dequantized straight into its float64 view, and the
    magnitude clamp tests ``np.abs(z) > 1`` only on the candidates the
    cheap ``x**2 + y**2`` cut leaves.  Each returned array owns its
    samples (no pulse pins the batch's memory) and is bit-identical to
    ``Waveform.from_fixed_point(clip(i), clip(q)).samples``: the same
    clip, the same division, and the clamp divides by the same
    magnitude with the same ufunc.
    """
    i_parts = list(i_parts)
    q_parts = list(q_parts)
    for i_codes, q_codes in zip(i_parts, q_parts):
        if i_codes.size != q_codes.size:
            # The serializer always writes equal-length channels; a
            # record whose channels disagree is corrupt.
            raise CompressionError(
                f"I channel decodes {i_codes.size} samples "
                f"but Q decodes {q_codes.size}"
            )
    finished: List[np.ndarray] = []
    first, size = 0, 0
    for last, part in enumerate(i_parts, start=1):
        size += part.size
        if size >= _FINISH_CHUNK or last == len(i_parts):
            finished += _finish_chunk(i_parts[first:last], q_parts[first:last])
            first, size = last, 0
    return finished


def _finish_chunk(
    i_parts: List[np.ndarray], q_parts: List[np.ndarray]
) -> List[np.ndarray]:
    n = sum(part.size for part in i_parts)
    samples = np.empty(n, dtype=np.complex128)
    pairs = samples.view(np.float64).reshape(n, 2)
    for column, parts in enumerate((i_parts, q_parts)):
        codes = np.concatenate(parts)  # a fresh buffer: clip it in place
        np.clip(codes, -FULL_SCALE - 1, FULL_SCALE, out=codes)
        np.divide(codes, FULL_SCALE, out=pairs[:, column])
    squares = np.square(pairs)
    candidates = np.flatnonzero(
        squares[:, 0] + squares[:, 1] > _CLAMP_CANDIDATE
    )
    if candidates.size:
        near = samples[candidates]
        magnitude = np.abs(near)
        over = magnitude > 1.0
        if over.any():
            samples[candidates[over]] = near[over] / magnitude[over]
    if len(i_parts) == 1:
        return [samples]
    owned, start = [], 0
    for part in i_parts:
        owned.append(samples[start : start + part.size].copy())
        start += part.size
    return owned
