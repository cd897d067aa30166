"""HEVC-style integer DCT / IDCT (the ``int-DCT-W`` variant).

Section IV-C of the paper adopts the HEVC core transform so that the
hardware IDCT engine needs no multipliers: every constant product becomes
a shift-and-add network (Section V-B).  The integer transform matrix is

    ``H_N = round(S_N * C_N)``,   ``S_N = 2 ** (6 + log2(N) / 2)``

with ``C_N`` the orthonormal DCT-II matrix -- exactly the paper's scaling
factor, and identical to the published HEVC matrices for N in {4, 8, 16,
32}.  Because ``H_N @ H_N.T ~= S_N**2 * I = 4096 * N * I``, a forward
shift of ``6 + log2(N)`` bits and an inverse shift of 6 bits make the
round trip unity-gain on 16-bit samples.

Two inverse paths are provided:

- :func:`int_idct` -- fast ``numpy`` evaluation (bit-exact);
- :func:`int_idct_shift_add` -- a reference that uses *only* shifts and
  adds via :func:`repro.transforms.csd.shift_add_multiply`, proving the
  multiplierless property the decompression engine relies on.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict

import numpy as np

from repro.errors import CompressionError
from repro.transforms.csd import (
    OpCount,
    csd_digits,
    multiplier_cost,
    shared_multiplier_cost,
    shift_add_multiply,
)
from repro.transforms.dct import dct_matrix

__all__ = [
    "SUPPORTED_SIZES",
    "COEFF_DTYPE",
    "scale_bits",
    "forward_shift",
    "INVERSE_SHIFT",
    "integer_dct_matrix",
    "int_dct",
    "int_idct",
    "int_dct_blocks",
    "int_idct_blocks",
    "int_idct_shift_add",
    "idct_op_counts",
    "idct_adder_depth",
    "LOEFFLER_OP_COUNTS",
]

SUPPORTED_SIZES = (4, 8, 16, 32)

#: Compressed coefficients are stored at the same width as raw samples.
COEFF_DTYPE = np.int16

#: The inverse transform always shifts by 6 bits (the ``log2(64)`` that is
#: common to every HEVC matrix row), independent of N.
INVERSE_SHIFT = 6

#: Published multiplier/adder counts for the *floating/fixed-point* DCT-W
#: engine based on Loeffler's algorithm (paper Table IV cites [42]).  The
#: 32-point entry follows the standard recursive-doubling extension
#: ``mults(2N) = 2 * mults(N) + N`` and is used only for timing shape.
LOEFFLER_OP_COUNTS: Dict[int, OpCount] = {
    8: OpCount(multipliers=11, adders=29, shifters=0),
    16: OpCount(multipliers=26, adders=81, shifters=0),
    32: OpCount(multipliers=68, adders=194, shifters=0),
}


def scale_bits(n: int) -> float:
    """Return ``log2(S_N)`` for an N-point integer transform (paper: S)."""
    _check_size(n)
    return 6 + math.log2(n) / 2


def forward_shift(n: int) -> int:
    """Bits shifted out after the forward transform to fit 16-bit storage."""
    _check_size(n)
    return 6 + int(math.log2(n))


#: Published HEVC base magnitudes a_N[m] ~ round(S_N * sqrt(2/N) *
#: cos(m*pi/2N)); even-index entries equal the next-smaller table
#: (HEVC's subsampling structure) and a handful of odd entries are the
#: standard's hand-tuned values (e.g. 83 where rounding gives 84).
_ODD_BASE = {
    2: (64,),
    4: (83, 36),
    8: (89, 75, 50, 18),
    16: (90, 87, 80, 70, 57, 43, 25, 9),
    32: (90, 90, 88, 85, 82, 78, 73, 67, 61, 54, 46, 38, 31, 22, 13, 4),
}


@lru_cache(maxsize=8)
def _base_magnitudes(n: int) -> tuple:
    """a_N[0..N-1]: magnitude of cos(m*pi/2N) at HEVC integer scale."""
    if n == 1:
        return (64,)
    smaller = _base_magnitudes(n // 2)
    odd = _ODD_BASE[n]
    out = []
    for m in range(n):
        out.append(smaller[m // 2] if m % 2 == 0 else odd[m // 2])
    return tuple(out)


@lru_cache(maxsize=8)
def _cached_matrix(n: int) -> np.ndarray:
    """Generate H_N by quadrant-folding the base magnitudes.

    ``H_N[k][j] = sign * a_N[fold((2j+1)k mod 4N)]`` -- the canonical
    construction of the HEVC core transform, reproducing the published
    matrices bit-exactly for N in {4, 8, 16, 32}.
    """
    base = _base_magnitudes(n)
    matrix = np.zeros((n, n), dtype=np.int64)
    matrix[0, :] = base[0]
    for k in range(1, n):
        for j in range(n):
            t = ((2 * j + 1) * k) % (4 * n)
            if t < n:
                value = base[t]
            elif t == n:
                value = 0
            elif t < 2 * n:
                value = -base[2 * n - t]
            elif t < 3 * n:
                value = -base[t - 2 * n]
            elif t == 3 * n:
                value = 0
            else:
                value = base[4 * n - t]
            matrix[k, j] = value
    matrix.setflags(write=False)
    return matrix


def integer_dct_matrix(n: int) -> np.ndarray:
    """Return the ``n x n`` integer transform matrix ``H_N`` (int64).

    For n in {4, 8, 16, 32} this is bit-exact with the published HEVC
    core transform, e.g. ``H_4 = [[64,64,64,64],[83,36,-36,-83],
    [64,-64,-64,64],[36,-83,83,-36]]``; entries approximate
    ``round(2**(6 + log2(n)/2) * C_n)`` (the paper's scale factor S).
    """
    _check_size(n)
    return _cached_matrix(n)


def int_dct(x: np.ndarray) -> np.ndarray:
    """Forward integer DCT of 16-bit samples (software / compile time).

    Args:
        x: 1-D array of integer samples; length selects the transform
            size and must be in :data:`SUPPORTED_SIZES`.

    Returns:
        int16 coefficient array of the same length.
    """
    x = np.asarray(x)
    _check_size(x.size)
    y = integer_dct_matrix(x.size) @ x.astype(np.int64)
    y = _rshift_round(y, forward_shift(x.size))
    return _saturate16(y)


def int_idct(y: np.ndarray) -> np.ndarray:
    """Inverse integer DCT (what the hardware engine computes).

    Bit-exact with :func:`int_idct_shift_add`; uses a matrix product for
    speed.
    """
    y = np.asarray(y)
    _check_size(y.size)
    x = integer_dct_matrix(y.size).T @ y.astype(np.int64)
    x = _rshift_round(x, INVERSE_SHIFT)
    return _saturate16(x)


def int_dct_blocks(blocks: np.ndarray) -> np.ndarray:
    """Forward integer DCT of many windows in one integer matmul.

    ``blocks`` is ``(n_windows, window_size)``; each row transforms
    exactly as :func:`int_dct` would (int64 arithmetic is exact, so the
    batched product is bit-identical to the per-window path).
    """
    blocks = np.asarray(blocks)
    if blocks.ndim != 2:
        raise CompressionError(f"expected (n_windows, ws) blocks, got {blocks.shape}")
    n = blocks.shape[1]
    _check_size(n)
    y = blocks.astype(np.int64) @ integer_dct_matrix(n).T
    y = _rshift_round(y, forward_shift(n))
    return _saturate16(y)


#: Largest coefficient magnitude for which the float64 inverse below is
#: exact.  An output is a sum of at most 32 products ``y * H[k, j]``
#: with ``|H| <= 90``, so every partial sum stays below ``2**53`` -- the
#: largest range over which float64 holds every integer -- whenever
#: ``|y| <= 2**53 // (32 * 90)``.  Stored coefficients are 16-bit
#: (``|y| <= 2**15``, partial sums ``<= 32 * 2**15 * 90 ~= 9.4e7``), so
#: the wire format never comes near the limit.
_FLOAT_EXACT_COEFF = 2**53 // (32 * 90)


def int_idct_blocks(spectra: np.ndarray) -> np.ndarray:
    """Inverse integer DCT of many coefficient windows at once.

    Bit-exact with per-row :func:`int_idct`.  The product runs through
    float64 BLAS: every partial sum is an integer below ``2**53`` (see
    :data:`_FLOAT_EXACT_COEFF`), so no rounding happens in any
    summation order, and the round-half-up ``>> 6`` and the int16
    saturation are exact in the float domain too (``/ 64`` is a power
    of two, ``floor`` and ``clip`` of integers are exact).  Spectra
    outside that bound take the int64 product.
    """
    spectra = np.asarray(spectra)
    if spectra.ndim != 2:
        raise CompressionError(
            f"expected (n_windows, ws) spectra, got {spectra.shape}"
        )
    n = spectra.shape[1]
    _check_size(n)
    if not _float_exact(spectra):
        x = spectra.astype(np.int64) @ integer_dct_matrix(n)
        x = _rshift_round(x, INVERSE_SHIFT)
        return _saturate16(x)
    x = spectra.astype(np.float64) @ _float_matrix(n)
    x += float(1 << (INVERSE_SHIFT - 1))
    x *= 1.0 / (1 << INVERSE_SHIFT)
    np.floor(x, out=x)
    info = np.iinfo(COEFF_DTYPE)
    np.clip(x, info.min, info.max, out=x)
    return x.astype(COEFF_DTYPE)


def _float_exact(spectra: np.ndarray) -> bool:
    """True iff the float64 inverse is exact for these coefficients."""
    if spectra.dtype.kind not in "iu":
        return False
    if spectra.dtype.itemsize <= 4 or not spectra.size:
        return True
    return bool(
        spectra.min() >= -_FLOAT_EXACT_COEFF
        and spectra.max() <= _FLOAT_EXACT_COEFF
    )


@lru_cache(maxsize=8)
def _float_matrix(n: int) -> np.ndarray:
    matrix = integer_dct_matrix(n).astype(np.float64)
    matrix.setflags(write=False)
    return matrix


def int_idct_shift_add(y: np.ndarray) -> np.ndarray:
    """Multiplierless inverse transform: shifts and adds only.

    This walks the CSD digits of every matrix constant, mirroring the
    hardware dataflow; it exists to *prove* bit-exactness of the fast
    path, not for speed.
    """
    y = np.asarray(y).astype(np.int64)
    _check_size(y.size)
    n = y.size
    matrix = integer_dct_matrix(n)
    accum = np.zeros(n, dtype=np.int64)
    for j in range(n):
        total = np.int64(0)
        for k in range(n):
            constant = int(matrix[k, j])
            if constant == 0:
                continue
            product = shift_add_multiply(int(y[k]), abs(constant))
            total += product if constant > 0 else -product
        accum[j] = total
    x = _rshift_round(accum, INVERSE_SHIFT)
    return _saturate16(x)


# ---------------------------------------------------------------------------
# Hardware cost models (feed Table IV / Table VIII / Fig 16 benches).
# ---------------------------------------------------------------------------


def idct_op_counts(n: int, variant: str = "int-DCT-W") -> OpCount:
    """Operation counts for an N-point IDCT engine.

    ``variant="DCT-W"`` returns the published Loeffler counts (real
    multipliers).  ``variant="int-DCT-W"`` counts adders/shifters of the
    partial-butterfly multiplierless engine, applying greedy common-
    subexpression sharing to each constant bank -- the same structure as
    the designs the paper cites [68].
    """
    _check_size(n)
    if variant == "DCT-W":
        try:
            return LOEFFLER_OP_COUNTS[n]
        except KeyError:
            raise CompressionError(f"no Loeffler op counts tabulated for N={n}")
    if variant != "int-DCT-W":
        raise CompressionError(f"unknown IDCT variant: {variant!r}")
    return _int_idct_ops(n)


@lru_cache(maxsize=8)
def _int_idct_ops(n: int) -> OpCount:
    if n == 2:
        # x0 = (y0 + y1) << 6, x1 = (y0 - y1) << 6: two adders, one
        # shared shifter position per input.
        return OpCount(adders=2, shifters=2)
    matrix = _cached_matrix(n) if n in SUPPORTED_SIZES else _generic_matrix(n)
    half = n // 2
    # Odd part: o_j = sum_{odd k} H[k, j] * y_k for j < n/2.  Every odd
    # input is multiplied by the same bank of n/2 constants.
    odd_bank = [abs(int(matrix[1, j])) for j in range(half)]
    per_input = shared_multiplier_cost(tuple(odd_bank))
    odd = OpCount(
        adders=per_input.adders * half, shifters=per_input.shifters * half
    )
    combine = OpCount(adders=half * (half - 1))
    butterfly = OpCount(adders=n)
    even = _int_idct_ops(half) if half >= 2 else OpCount()
    return odd + combine + butterfly + even


@lru_cache(maxsize=8)
def _generic_matrix(n: int) -> np.ndarray:
    scale = 2.0 ** (6 + math.log2(n) / 2)
    return np.round(scale * dct_matrix(n)).astype(np.int64)


def idct_adder_depth(n: int, variant: str = "int-DCT-W") -> int:
    """Logic depth (in adder levels) of the combinational IDCT engine.

    Used by the clock-frequency model (Fig 16).  A real multiplier is
    modeled as :data:`MULTIPLIER_DEPTH` adder levels.
    """
    _check_size(n)
    half = n // 2
    combine_depth = math.ceil(math.log2(max(half, 2)))
    if variant == "DCT-W":
        return MULTIPLIER_DEPTH + combine_depth + 1
    matrix = integer_dct_matrix(n)
    odd_bank = [abs(int(matrix[1, j])) for j in range(half)]
    csd_depth = max(
        math.ceil(math.log2(max(len(csd_digits(c)), 1))) if c else 0
        for c in odd_bank
    )
    return csd_depth + combine_depth + 1


#: Depth of a 16-bit array multiplier expressed in adder levels; this is
#: what makes the DCT-W engine's critical path ~1.5x the baseline's
#: (Fig 16's 0.67 bar).
MULTIPLIER_DEPTH = 5


def _rshift_round(values: np.ndarray, shift: int) -> np.ndarray:
    """Arithmetic right shift with round-half-up, as HEVC specifies."""
    if shift <= 0:
        return values
    offset = np.int64(1) << np.int64(shift - 1)
    return np.right_shift(values + offset, shift)


def _saturate16(values: np.ndarray) -> np.ndarray:
    info = np.iinfo(COEFF_DTYPE)
    return np.clip(values, info.min, info.max).astype(COEFF_DTYPE)


def _check_size(n: int) -> None:
    if n not in SUPPORTED_SIZES and n != 2:
        raise CompressionError(
            f"unsupported transform size {n}; expected one of {SUPPORTED_SIZES}"
        )
