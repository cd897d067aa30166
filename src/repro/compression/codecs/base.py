"""The :class:`Codec` interface every compression scheme implements.

A codec is the per-window transform at the heart of the COMPAQT
pipeline: samples in, integer "coefficients" out, with the shared
threshold → RLE → bitstream machinery wrapped around it.  The contract:

* ``forward`` maps one window of int16-range sample codes to
  ``coeff_count(window_size)`` int64 coefficients, every one of which
  fits a 16-bit memory word (the wire format's payload width);
* ``inverse`` maps a (possibly thresholded) coefficient window back to
  ``window_size`` sample codes;
* ``forward_blocks`` / ``inverse_blocks`` are the row-wise vectorized
  kernels over a ``(n_windows, ·)`` matrix, **bit-identical** to mapping
  the scalar kernels over the rows (the batch engine and the
  scalar/batched parity gates rely on this);
* both directions are deterministic -- same input, same bytes, on any
  BLAS and any platform.

Capability flags let the layers above dispatch without string matching:

``windowed``
    The codec compresses fixed-size windows.  Full-frame codecs
    (DCT-N) instead treat the whole waveform as one window, so
    :meth:`Codec.resolve_window_size` returns the pulse length.
``batchable``
    The block kernels are real vectorized implementations (all built-in
    codecs).  ``False`` means the codec only implemented the scalar
    pair and inherits the base class's row-by-row block kernels -- the
    batch engine still works, just without the vectorized speedup.
``exact_rational_rows``
    The forward transform has exactly-rational coefficient rows that
    must be recomputed in integer math to keep scalar and batched
    streams bit-identical on any BLAS (the float DCT family).
``lossless``
    ``inverse(forward(x)) == x`` exactly at threshold 0 (delta and
    dictionary; the DCT family has an integer-rounding floor).
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

from repro.errors import CompressionError
from repro.transforms.threshold import hard_threshold, top_k_blocks

__all__ = ["Codec", "wrap_int16"]


def wrap_int16(values: np.ndarray) -> np.ndarray:
    """Wrap integers into int16 range with two's-complement semantics.

    Modular (mod 2**16) arithmetic is what makes the delta and
    dictionary codecs exactly invertible: a residual that overflows the
    16-bit payload wraps on encode and un-wraps on decode, because
    addition mod 2**16 is associative.  In-range values pass through
    unchanged.
    """
    return ((np.asarray(values, dtype=np.int64) + 0x8000) & 0xFFFF) - 0x8000


class Codec(abc.ABC):
    """One compression scheme, pluggable into every pipeline layer.

    Subclasses set the class attributes and implement the four kernels.
    Registering an instance (:func:`repro.compression.codecs.register_codec`)
    makes it reachable from the scalar pipeline, the batch engine, the
    wire-format bitstream, the compiler, the CLI and the perf bench --
    all at once.
    """

    #: Canonical registry name (``codec=`` strings resolve to this).
    name: str = ""
    #: Stable bitstream id (u8 in the ``CQW1``/``CQL1`` header).  Ids
    #: 0..2 are the frozen v1 DCT layout and must never be reassigned.
    wire_id: int = -1
    windowed: bool = True
    batchable: bool = True
    exact_rational_rows: bool = False
    lossless: bool = False
    #: Allowed window sizes, or ``None`` for any size >= 1.
    supported_window_sizes: Optional[Tuple[int, ...]] = None

    # -- window geometry -----------------------------------------------------

    def coeff_count(self, window_size: int) -> int:
        """Coefficient slots one encoded window occupies (before RLE).

        Most codecs are length-preserving; the dictionary codec stores
        one extra slot for its per-window dictionary entry.
        """
        return window_size

    def resolve_window_size(self, n_samples: int, window_size: int) -> int:
        """The effective window for an ``n_samples``-long channel."""
        return window_size if self.windowed else n_samples

    def check_window_size(self, window_size: int) -> None:
        """Raise :class:`CompressionError` for an unusable window size."""
        if window_size < 1:
            raise CompressionError(
                f"window size must be >= 1, got {window_size}"
            )
        sizes = self.supported_window_sizes
        if self.windowed and sizes is not None and window_size not in sizes:
            raise CompressionError(
                f"{self.name} needs a window in {sizes}, got {window_size}"
            )

    # -- thresholding --------------------------------------------------------

    def threshold_blocks(
        self, coeffs: np.ndarray, threshold: float
    ) -> np.ndarray:
        """Zero the coefficients this codec deems below ``threshold``.

        The default is a plain magnitude cut (:func:`hard_threshold`),
        which is right for transform-domain codecs.  Codecs that store
        mod-2**16 *wrapped* residuals override this to threshold on the
        **un-wrapped** residual magnitude: a near-full-range jump whose
        wrapped representation happens to be tiny must survive, or the
        decoder reconstructs a full-scale error from one zeroed word.
        Returns a copy; rows are windows.
        """
        self._check_threshold(threshold)
        return hard_threshold(coeffs, threshold)

    def top_k_blocks(
        self, coeffs: np.ndarray, max_coefficients: int
    ) -> np.ndarray:
        """Keep only the k largest coefficients of each row.

        Default ranking is stored-word magnitude (right for transform
        domains); wrapped-residual codecs override to pass a rank matrix
        of un-wrapped residuals, for the same aliasing reason as
        :meth:`threshold_blocks`.  Returns a copy; rows already at or
        under the cap pass through untouched.
        """
        coeffs = self._require_2d(coeffs, "coefficients")
        return top_k_blocks(coeffs, max_coefficients)

    @staticmethod
    def _check_threshold(threshold: float) -> float:
        if threshold < 0:
            raise CompressionError(
                f"threshold must be >= 0, got {threshold}"
            )
        return threshold

    # -- kernels -------------------------------------------------------------

    @abc.abstractmethod
    def forward(self, block: np.ndarray) -> np.ndarray:
        """Transform one window of sample codes into coefficients."""

    @abc.abstractmethod
    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Reconstruct one window of sample codes from coefficients."""

    def forward_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`forward` of a ``(n_windows, ws)`` matrix.

        Default: a Python loop over the scalar kernel -- the fallback a
        ``batchable=False`` codec relies on.  Vectorized codecs override
        this with a bit-identical single-pass implementation.
        """
        blocks = self._require_2d(blocks, "blocks")
        return np.stack([np.asarray(self.forward(row)) for row in blocks])

    def inverse_blocks(self, coeffs: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`inverse` of a coefficient matrix.

        Default: a Python loop over the scalar kernel (see
        :meth:`forward_blocks`).
        """
        coeffs = self._require_2d(coeffs, "coefficients")
        return np.stack([np.asarray(self.inverse(row)) for row in coeffs])

    # -- shared validation helpers -------------------------------------------

    def _require_1d(self, values: np.ndarray, what: str) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim != 1 or values.size == 0:
            raise CompressionError(
                f"{self.name}: expected a non-empty 1-D {what}, "
                f"got shape {values.shape}"
            )
        return values.astype(np.int64, copy=False)

    def _require_2d(self, values: np.ndarray, what: str) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[1] == 0:
            raise CompressionError(
                f"{self.name}: expected (n_windows, ws) {what}, "
                f"got shape {values.shape}"
            )
        return values.astype(np.int64, copy=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} wire_id={self.wire_id}>"
