"""The COMPAQT compression pipeline over pluggable codecs.

Codec dispatch lives in :mod:`repro.compression.codecs`: any
registered codec (the DCT family of Table II, delta, dictionary, or a
third-party registration) flows through the same window / threshold /
RLE machinery below.

Compression (software, compile time -- Section IV-C):

1. quantize the float envelope to 16-bit I/Q codes (memory contents);
2. per window: the codec's forward transform, storing coefficients at
   16-bit width (the DCT family uses a ``1/sqrt(N)`` fixed-point
   convention so any window content fits);
3. hard-threshold small coefficients to zero;
4. fold the trailing zero run of each window into one RLE codeword.

Decompression (hardware, runtime -- Fig 10) is the exact reverse: RLE
expand, inverse transform, stream to the DAC.  :func:`decompress_waveform`
is bit-faithful to the cycle-level engine in :mod:`repro.microarch`.

Both channels of a window are kept at the same stored word count
(Section IV-C: "the number of samples per window after compression are
kept the same for both channels"), so per-window occupancy is the max of
the I and Q occupancies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from repro.errors import CompressionError
from repro.compression.codecs import (
    Codec,
    ensure_registered,
    resolve_codec,
)
from repro.compression.metrics import compression_ratio, mean_squared_error
from repro.compression.window import merge_windows, split_windows
from repro.pulses.waveform import Waveform
from repro.transforms.rle import EncodedWindow, rle_encode_window

__all__ = [
    "CodecLike",
    "DEFAULT_THRESHOLD",
    "CompressedChannel",
    "CompressedWaveform",
    "CompressionResult",
    "compress_waveform",
    "decompress_waveform",
    "compress_channel",
    "decompress_channel",
    "forward_transform",
    "inverse_transform",
    "forward_transform_blocks",
    "inverse_transform_blocks",
]

#: A codec argument: a registry name or a first-class Codec object.
CodecLike = Union[str, Codec]

#: Default hard threshold in integer-coefficient units (16-bit codes).
#: 128 codes (~0.4% of full scale) keeps every IBM-library window at
#: <= 3 stored words (Fig 11) with MSE in the paper's 1e-7..1e-5 band;
#: Algorithm 1 tunes it per pulse when fidelity-aware mode is on.
DEFAULT_THRESHOLD = 128


@dataclass(frozen=True, slots=True)
class CompressedChannel:
    """One compressed I or Q channel: a sequence of encoded windows."""

    windows: Tuple[EncodedWindow, ...]
    variant: str
    window_size: int
    original_length: int

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def stored_words_variable(self) -> int:
        """ASIC-style packing: every window at its true occupancy."""
        return sum(w.n_words for w in self.windows)

    @property
    def worst_case_words(self) -> int:
        """Largest per-window occupancy (sets the uniform memory width)."""
        return max(w.n_words for w in self.windows)


@dataclass(frozen=True, slots=True)
class CompressedWaveform:
    """A fully compressed waveform (both channels) plus its binding."""

    name: str
    gate: str
    qubits: Tuple[int, ...]
    dt: float
    i_channel: CompressedChannel
    q_channel: CompressedChannel

    def __post_init__(self) -> None:
        if self.i_channel.n_windows != self.q_channel.n_windows:
            raise CompressionError("I and Q channels must have equal window counts")

    @property
    def variant(self) -> str:
        return self.i_channel.variant

    @property
    def window_size(self) -> int:
        return self.i_channel.window_size

    @property
    def n_windows(self) -> int:
        return self.i_channel.n_windows

    @property
    def original_samples(self) -> int:
        return self.i_channel.original_length

    # -- storage accounting --------------------------------------------------

    @property
    def window_words(self) -> Tuple[int, ...]:
        """Per-window occupancy: max of the two channels (Section IV-C)."""
        return tuple(
            max(i.n_words, q.n_words)
            for i, q in zip(self.i_channel.windows, self.q_channel.windows)
        )

    @property
    def worst_case_window_words(self) -> int:
        """The uniform memory width for this waveform (Fig 11's max)."""
        return max(self.window_words)

    def stored_words(self, packing: str = "uniform") -> int:
        """Stored words per channel under the given packing.

        ``"uniform"`` (RFSoC, Section V-A): every window padded to the
        waveform's worst case.  ``"variable"`` (ASIC, Section VII-D):
        windows at true occupancy.
        """
        if packing == "uniform":
            return self.n_windows * self.worst_case_window_words
        if packing == "variable":
            return sum(self.window_words)
        raise CompressionError(f"unknown packing {packing!r}")

    def compression_ratio(self, packing: str = "uniform") -> float:
        """R = original samples / stored words (per channel; the I+Q
        factor of two cancels)."""
        return compression_ratio(self.original_samples, self.stored_words(packing))

    @property
    def stored_bits(self) -> int:
        """Total compressed footprint (both channels, uniform packing,
        16-bit words)."""
        return 2 * 16 * self.stored_words("uniform")


@dataclass(frozen=True, slots=True)
class CompressionResult:
    """Everything a caller needs after compressing one waveform."""

    compressed: CompressedWaveform
    reconstructed: Waveform
    mse: float
    threshold: float

    @property
    def compression_ratio(self) -> float:
        """Uniform-packing ratio (the paper's headline R)."""
        return self.compressed.compression_ratio("uniform")

    @property
    def compression_ratio_variable(self) -> float:
        return self.compressed.compression_ratio("variable")


# ---------------------------------------------------------------------------
# Channel-level codec.
# ---------------------------------------------------------------------------


def compress_channel(
    codes: np.ndarray,
    window_size: int,
    codec: CodecLike,
    threshold: float = DEFAULT_THRESHOLD,
    max_coefficients: int = 0,
) -> CompressedChannel:
    """Compress one int16 channel into encoded windows.

    Args:
        codes: Quantized samples (int16 range).
        window_size: Window length; for a full-frame codec (DCT-N) pass
            the channel length.
        codec: A registered codec name or a :class:`Codec` object.
        threshold: Hard threshold in coefficient units.
        max_coefficients: If positive, additionally keep only the k
            largest-magnitude coefficients per window.  This enforces a
            hard uniform memory width of ``k + 1`` words (Section V-A's
            fixed input-buffer design) at the cost of extra distortion
            -- the mechanism behind Fig 15's WS=8 fidelity losses.
    """
    codec = ensure_registered(resolve_codec(codec))
    if max_coefficients < 0:
        raise CompressionError(
            f"max_coefficients must be >= 0, got {max_coefficients}"
        )
    if threshold < 0:
        raise CompressionError(f"threshold must be >= 0, got {threshold}")
    codes = np.asarray(codes, dtype=np.int64)
    blocks = split_windows(codes, window_size)
    encoded: List[EncodedWindow] = []
    for block in blocks:
        coeffs = codec.forward(block)
        kept = codec.threshold_blocks(coeffs.reshape(1, -1), threshold)
        if max_coefficients:
            kept = codec.top_k_blocks(kept, max_coefficients)
        encoded.append(rle_encode_window(kept[0]))
    return CompressedChannel(
        windows=tuple(encoded),
        variant=codec.name,
        window_size=window_size,
        original_length=int(codes.size),
    )


def decompress_channel(channel: CompressedChannel) -> np.ndarray:
    """Reconstruct the int16 sample codes of one channel."""
    codec = resolve_codec(channel.variant)
    width = codec.coeff_count(channel.window_size)
    blocks = []
    for window in channel.windows:
        # _expand_window returns the full zero-padded width-length vector.
        blocks.append(codec.inverse(_expand_window(window, width)))
    return merge_windows(np.asarray(blocks), channel.original_length)


def _expand_window(window: EncodedWindow, window_size: int) -> np.ndarray:
    if window.window_size != window_size:
        raise CompressionError(
            f"window decodes to {window.window_size} samples, expected {window_size}"
        )
    from repro.transforms.rle import rle_decode_window

    return rle_decode_window(window)


# ---------------------------------------------------------------------------
# Waveform-level API.
# ---------------------------------------------------------------------------


def compress_waveform(
    waveform: Waveform,
    window_size: int = 16,
    codec: CodecLike = "int-DCT-W",
    threshold: float = DEFAULT_THRESHOLD,
    max_coefficients: int = 0,
) -> CompressionResult:
    """Compress a waveform and report reconstruction quality.

    Args:
        waveform: The pulse to compress.
        window_size: Codec window (8/16/32 for the DCT family); ignored
            by full-frame codecs (DCT-N), which use the waveform length.
        codec: A registered codec name (``"int-DCT-W"``, ``"delta"``,
            ...) or a :class:`~repro.compression.codecs.Codec` object;
            defaults to ``"int-DCT-W"``.
        threshold: Hard threshold in integer coefficient units.
        max_coefficients: Optional per-window top-k cap (see
            :func:`compress_channel`).

    Returns:
        A :class:`CompressionResult` carrying the compressed form, the
        decompressed (as-played) waveform, MSE and R.
    """
    codec = resolve_codec(codec)
    window_size = codec.resolve_window_size(waveform.n_samples, window_size)
    codec.check_window_size(window_size)
    if threshold < 0:
        raise CompressionError(f"threshold must be >= 0, got {threshold}")
    i_codes, q_codes = waveform.to_fixed_point()
    i_channel = compress_channel(
        i_codes, window_size, codec, threshold, max_coefficients
    )
    q_channel = compress_channel(
        q_codes, window_size, codec, threshold, max_coefficients
    )
    compressed = CompressedWaveform(
        name=waveform.name,
        gate=waveform.gate,
        qubits=waveform.qubits,
        dt=waveform.dt,
        i_channel=i_channel,
        q_channel=q_channel,
    )
    reconstructed = decompress_waveform(compressed)
    return CompressionResult(
        compressed=compressed,
        reconstructed=reconstructed,
        mse=mean_squared_error(waveform.samples, reconstructed.samples),
        threshold=threshold,
    )


def decompress_waveform(compressed: CompressedWaveform) -> Waveform:
    """Reconstruct the playable waveform from its compressed form.

    This is the functional model of the hardware decompression pipeline;
    :mod:`repro.microarch.pipeline_sim` produces bit-identical samples
    cycle by cycle.
    """
    i_codes = decompress_channel(compressed.i_channel)
    q_codes = decompress_channel(compressed.q_channel)
    return Waveform.from_fixed_point(
        np.clip(i_codes, -32768, 32767).astype(np.int16),
        np.clip(q_codes, -32768, 32767).astype(np.int16),
        dt=compressed.dt,
        name=f"{compressed.name}~{compressed.variant}",
        gate=compressed.gate,
        qubits=compressed.qubits,
    )


# ---------------------------------------------------------------------------
# Transform entry points, kept for API stability.
#
# All dispatch lives in :mod:`repro.compression.codecs`; these wrappers
# resolve the codec (name or object) and delegate to its kernels.  The
# cycle-level microarchitecture reuses them so the hardware model is
# bit-identical to the functional codec.
# ---------------------------------------------------------------------------


def forward_transform(block: np.ndarray, codec: CodecLike) -> np.ndarray:
    """Public forward transform in the common 16-bit convention."""
    return resolve_codec(codec).forward(np.asarray(block, dtype=np.int64))


def inverse_transform(coeffs: np.ndarray, codec: CodecLike) -> np.ndarray:
    """Public inverse transform (what the IDCT engine computes)."""
    return resolve_codec(codec).inverse(np.asarray(coeffs, dtype=np.int64))


def forward_transform_blocks(blocks: np.ndarray, codec: CodecLike) -> np.ndarray:
    """Row-wise :func:`forward_transform` of a window matrix (int64 out)."""
    return resolve_codec(codec).forward_blocks(blocks)


def inverse_transform_blocks(coeffs: np.ndarray, codec: CodecLike) -> np.ndarray:
    """Row-wise :func:`inverse_transform` of a coefficient matrix."""
    return resolve_codec(codec).inverse_blocks(coeffs)
