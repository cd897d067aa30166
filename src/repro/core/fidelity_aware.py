"""Fidelity-aware compression (the paper's Algorithm 1).

Each gate pulse is unique, so a uniform threshold can cost fidelity on
some qubits.  Algorithm 1 tunes the threshold per pulse: starting from
an aggressive threshold, halve it until the decompressed waveform's MSE
meets the target (MSE is "highly correlated to the gate fidelity", so it
serves as the compile-time proxy).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CompressionError
from repro.compression.codecs import resolve_codec
from repro.compression.pipeline import (
    CodecLike,
    CompressionResult,
    compress_waveform,
)
from repro.pulses.waveform import Waveform

__all__ = ["fidelity_aware_compress", "DEFAULT_TARGET_MSE"]

#: Paper Fig 7(c): per-waveform MSE sits between 1e-7 and 5e-6; a 1e-6
#: target keeps every gate comfortably inside the "negligible" band.
DEFAULT_TARGET_MSE = 1e-6

#: Algorithm 1 gives up below this threshold ("if threshold < 1e-6
#: return -1"); our coefficients are integers so the floor is 1 code.
_MIN_THRESHOLD = 1.0


def fidelity_aware_compress(
    waveform: Waveform,
    target_mse: float = DEFAULT_TARGET_MSE,
    window_size: int = 16,
    codec: CodecLike = "int-DCT-W",
    initial_threshold: Optional[float] = None,
) -> CompressionResult:
    """Compress ``waveform`` with the largest threshold meeting the target.

    Mirrors Algorithm 1: compress, measure MSE against the original,
    halve the threshold until ``mse <= target_mse``.  Starting from an
    aggressive threshold maximizes compression subject to the fidelity
    target.

    Args:
        waveform: Pulse to compress.
        target_mse: The ε of Algorithm 1.
        window_size: Codec window size.
        codec: Codec to search over -- a registry name or a
            :class:`~repro.compression.codecs.Codec` object
            (int-DCT-W in the paper, the default).
        initial_threshold: Starting threshold in coefficient codes;
            defaults to 1/8 of full scale.

    Returns:
        The first (most compressed) result meeting the target.

    Raises:
        CompressionError: If even the minimum threshold cannot meet the
            target (Algorithm 1's "no solution found").
    """
    if target_mse <= 0:
        raise CompressionError(f"target MSE must be positive, got {target_mse}")
    codec = resolve_codec(codec)
    threshold = float(initial_threshold) if initial_threshold else 4096.0
    while threshold >= _MIN_THRESHOLD:
        result = compress_waveform(
            waveform, window_size=window_size, codec=codec, threshold=threshold
        )
        if result.mse <= target_mse:
            return result
        threshold /= 2
    # Thresholding disabled entirely: only transform/quantization error
    # remains.  If that still misses the target, there is no solution.
    result = compress_waveform(
        waveform, window_size=window_size, codec=codec, threshold=0.0
    )
    if result.mse <= target_mse:
        return result
    raise CompressionError(
        f"no threshold meets MSE target {target_mse:g} for {waveform.name!r} "
        f"(floor is {result.mse:g}); Algorithm 1 returns -1 here"
    )
