"""Transform and codec primitives used by the COMPAQT pipelines.

Public surface:

- Floating DCT: :func:`dct`, :func:`idct`, :func:`dct_matrix`,
  :func:`dct_windowed`, :func:`idct_windowed`.
- Integer DCT (HEVC-style): :func:`int_dct`, :func:`int_idct`,
  :func:`int_idct_shift_add`, :func:`integer_dct_matrix`,
  :func:`idct_op_counts`, :func:`idct_adder_depth`.
- CSD shift-add machinery: :func:`csd_digits`,
  :func:`shift_add_multiply`, :func:`multiplier_cost`,
  :func:`shared_multiplier_cost`, :class:`OpCount`.
- RLE: :class:`EncodedWindow`, :class:`MemoryWord`,
  :func:`rle_encode_window`, :func:`rle_decode_window`.
- Thresholding: :func:`hard_threshold`, :func:`trailing_zero_run`,
  :func:`kept_coefficients`.

The delta and dictionary baselines (:func:`delta_compress`,
:func:`dictionary_compress` and their inverses) live with their codecs
in :mod:`repro.compression.codecs.delta` and
:mod:`repro.compression.codecs.dictionary`.
"""

from repro.transforms.dct import (
    dct,
    idct,
    dct_matrix,
    dct_windowed,
    idct_windowed,
)
from repro.transforms.csd import (
    OpCount,
    csd_digits,
    shift_add_multiply,
    multiplier_cost,
    shared_multiplier_cost,
)
from repro.transforms.integer_dct import (
    SUPPORTED_SIZES,
    COEFF_DTYPE,
    INVERSE_SHIFT,
    LOEFFLER_OP_COUNTS,
    scale_bits,
    forward_shift,
    integer_dct_matrix,
    int_dct,
    int_idct,
    int_idct_shift_add,
    idct_op_counts,
    idct_adder_depth,
)
from repro.transforms.rle import (
    TAG_COEFF,
    TAG_ZERO_RUN,
    TAG_REPEAT,
    MemoryWord,
    EncodedWindow,
    rle_encode_window,
    rle_decode_window,
    rle_encode_blocks,
    rle_expand_blocks,
)
from repro.transforms.threshold import (
    hard_threshold,
    trailing_zero_run,
    kept_coefficients,
)

__all__ = [
    "dct",
    "idct",
    "dct_matrix",
    "dct_windowed",
    "idct_windowed",
    "OpCount",
    "csd_digits",
    "shift_add_multiply",
    "multiplier_cost",
    "shared_multiplier_cost",
    "SUPPORTED_SIZES",
    "COEFF_DTYPE",
    "INVERSE_SHIFT",
    "LOEFFLER_OP_COUNTS",
    "scale_bits",
    "forward_shift",
    "integer_dct_matrix",
    "int_dct",
    "int_idct",
    "int_idct_shift_add",
    "idct_op_counts",
    "idct_adder_depth",
    "TAG_COEFF",
    "TAG_ZERO_RUN",
    "TAG_REPEAT",
    "MemoryWord",
    "EncodedWindow",
    "rle_encode_window",
    "rle_decode_window",
    "rle_encode_blocks",
    "rle_expand_blocks",
    "hard_threshold",
    "trailing_zero_run",
    "kept_coefficients",
]
