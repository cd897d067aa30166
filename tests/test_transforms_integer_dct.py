"""Tests for the HEVC-style integer DCT (int-DCT-W's transform)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import CompressionError
from repro.transforms.integer_dct import _FLOAT_EXACT_COEFF, int_idct_blocks
from repro.transforms import (
    LOEFFLER_OP_COUNTS,
    SUPPORTED_SIZES,
    dct_matrix,
    idct_adder_depth,
    idct_op_counts,
    int_dct,
    int_idct,
    int_idct_shift_add,
    integer_dct_matrix,
    scale_bits,
)

_HEVC_4 = np.array(
    [
        [64, 64, 64, 64],
        [83, 36, -36, -83],
        [64, -64, -64, 64],
        [36, -83, 83, -36],
    ]
)


def int16_blocks(n):
    return hnp.arrays(
        np.int64, st.just(n), elements=st.integers(-32767, 32767)
    )


class TestMatrixConstruction:
    def test_matches_published_hevc_4x4(self):
        np.testing.assert_array_equal(integer_dct_matrix(4), _HEVC_4)

    def test_hevc_8_point_odd_row(self):
        np.testing.assert_array_equal(
            integer_dct_matrix(8)[1], [89, 75, 50, 18, -18, -50, -75, -89]
        )

    def test_hevc_16_point_leading_entries(self):
        matrix = integer_dct_matrix(16)
        assert matrix[0, 0] == 64
        assert matrix[1, 0] == 90

    def test_hevc_32_point_leading_entries(self):
        matrix = integer_dct_matrix(32)
        assert matrix[0, 0] == 64
        assert matrix[1, 0] == 90

    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_scale_formula(self, n):
        assert scale_bits(n) == 6 + np.log2(n) / 2

    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_near_orthogonality(self, n):
        matrix = integer_dct_matrix(n).astype(float)
        gram = matrix @ matrix.T / 2 ** (2 * scale_bits(n))
        np.testing.assert_allclose(gram, np.eye(n), atol=0.02)

    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_rows_subsample_double_size(self, n):
        """HEVC structure: even rows of H_2N are H_N (on half the cols)."""
        if n == 32:
            pytest.skip("largest size has no parent")
        parent = integer_dct_matrix(2 * n)
        np.testing.assert_array_equal(parent[::2, : n], integer_dct_matrix(n))

    def test_unsupported_size_rejected(self):
        with pytest.raises(CompressionError):
            integer_dct_matrix(12)


def _roundtrip_bound(x):
    """HEVC's integer matrices are *near*-orthogonal: matrix rounding
    contributes a relative error of ~1-2%, plus up to ~6 LSBs from the
    forward-shift coefficient quantization (dominant for tiny signals).
    Smooth signals (real waveforms) stay within a few LSBs because
    their energy sits in the accurate low-frequency rows."""
    return 6 + 0.02 * np.max(np.abs(x))


class TestRoundTrip:
    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_reconstruction_error_bounded(self, n):
        rng = np.random.default_rng(n)
        x = rng.integers(-20000, 20000, size=n)
        back = int_idct(int_dct(x))
        assert np.max(np.abs(back.astype(np.int64) - x)) <= _roundtrip_bound(x)

    @given(int16_blocks(16))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property_ws16(self, x):
        back = int_idct(int_dct(x))
        assert np.max(np.abs(back.astype(np.int64) - x)) <= _roundtrip_bound(x)

    @given(int16_blocks(8))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property_ws8(self, x):
        back = int_idct(int_dct(x))
        assert np.max(np.abs(back.astype(np.int64) - x)) <= _roundtrip_bound(x)

    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_smooth_signal_roundtrip_sub_percent(self, n):
        """The case that matters for waveforms: band-limited content
        reconstructs to sub-0.5% accuracy (MSE ~1e-6 in float units,
        exactly Fig 7c's int-DCT-W band)."""
        t = np.arange(n)
        x = np.rint(25000 * np.exp(-0.5 * ((t - n / 2) / (n / 5)) ** 2)).astype(
            np.int64
        )
        back = int_idct(int_dct(x))
        assert np.max(np.abs(back.astype(np.int64) - x)) <= 4 + 0.005 * 25000

    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_dc_only_input(self, n):
        x = np.full(n, 12345)
        y = int_dct(x)
        assert abs(int(y[0])) > 0
        np.testing.assert_array_equal(y[1:], 0)

    def test_forward_output_fits_int16(self):
        x = np.full(16, 32767)
        y = int_dct(x)
        assert y.dtype == np.int16

    def test_coefficients_approximate_scaled_float_dct(self):
        rng = np.random.default_rng(5)
        x = rng.integers(-30000, 30000, size=16)
        expected = dct_matrix(16) @ x / np.sqrt(16)
        # Matrix-entry rounding contributes up to ~0.5 * sum|x| / 2^10.
        np.testing.assert_allclose(int_dct(x), expected, atol=260)

    def test_wrong_size_rejected(self):
        with pytest.raises(CompressionError):
            int_dct(np.zeros(10))
        with pytest.raises(CompressionError):
            int_idct(np.zeros(10))


class TestShiftAddEquivalence:
    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_idct_matches_multiplierless_reference(self, n):
        """The hardware claim: shifts+adds compute the exact IDCT."""
        rng = np.random.default_rng(n + 1)
        for _ in range(5):
            y = rng.integers(-2000, 2000, size=n)
            np.testing.assert_array_equal(int_idct(y), int_idct_shift_add(y))


def _worst_case_spectra(n, seed):
    """Rows that drive every IDCT output to the edge of its range.

    All-max and all-min rows, both alternating-sign rows, one row per
    output column whose signs follow that column of H (the largest
    ``|sum|`` the column can reach: 32768 * sum |H[:, j]|), plus random
    16-bit rows.
    """
    rng = np.random.default_rng(seed)
    matrix = integer_dct_matrix(n)
    alternating = np.where(np.arange(n) % 2 == 0, 32768, -32768)
    rows = [
        np.full(n, 32768),
        np.full(n, -32768),
        alternating,
        -alternating,
        *(32768 * np.where(matrix[:, j] >= 0, 1, -1) for j in range(n)),
        *(-32768 * np.where(matrix[:, j] >= 0, 1, -1) for j in range(n)),
        *rng.integers(-32768, 32768, size=(4, n)),
    ]
    return np.array(rows, dtype=np.int64)


class TestBlockInverseExactness:
    """The float64-BLAS block inverse is bit-exact with the scalar oracles.

    ``int_idct_blocks`` sums in float64, which holds every integer below
    2**53.  With 16-bit coefficients a partial sum is at most
    32 * 2**15 * 90 ~= 9.4e7, so no sum is ever rounded; these spectra
    reach that worst case at every size.
    """

    @pytest.mark.parametrize("n", (2, *SUPPORTED_SIZES))
    def test_worst_case_spectra_match_scalar_and_shift_add(self, n):
        spectra = _worst_case_spectra(n, seed=n)
        blocks = int_idct_blocks(spectra)
        assert blocks.dtype == np.int16
        per_row = np.array([int_idct(row) for row in spectra])
        shift_add = np.array([int_idct_shift_add(row) for row in spectra])
        np.testing.assert_array_equal(blocks, per_row)
        np.testing.assert_array_equal(blocks, shift_add)
        # The column-aligned rows saturate: the edge is really reached.
        assert blocks.max() == 32767 and blocks.min() == -32768

    @pytest.mark.parametrize("dtype", (np.int16, np.int32, np.int64))
    def test_every_integer_width_matches(self, dtype):
        spectra = _worst_case_spectra(16, seed=3).clip(
            np.iinfo(np.int16).min, np.iinfo(np.int16).max
        )
        np.testing.assert_array_equal(
            int_idct_blocks(spectra.astype(dtype)),
            np.array([int_idct(row) for row in spectra]),
        )

    @pytest.mark.parametrize("n", (2, *SUPPORTED_SIZES))
    def test_beyond_float_bound_takes_exact_integer_path(self, n):
        rng = np.random.default_rng(n)
        spectra = rng.integers(-(2**40), 2**40, size=(6, n))
        spectra[0, 0] = _FLOAT_EXACT_COEFF + 1
        np.testing.assert_array_equal(
            int_idct_blocks(spectra),
            np.array([int_idct(row) for row in spectra]),
        )

    def test_rounding_ties_match(self):
        """Outputs landing on exact .5 after the shift round half up."""
        # 83 * 32 = 2656 = 41.5 * 64: +41.5 rounds to 42, -41.5 to -41.
        spectra = np.array([[0, 32, 0, 0], [0, -32, 0, 0], [5, 32, -7, 32]])
        products = spectra @ integer_dct_matrix(4)
        assert (products % 64 == 32).sum() >= 4
        assert int_idct_blocks(spectra)[0, 0] == 42
        assert int_idct_blocks(spectra)[1, 0] == -41
        np.testing.assert_array_equal(
            int_idct_blocks(spectra),
            np.array([int_idct(row) for row in spectra]),
        )

    def test_empty_batch(self):
        assert int_idct_blocks(np.zeros((0, 16), dtype=np.int64)).shape == (0, 16)


class TestOpCounts:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_int_variant_has_no_multipliers(self, n):
        ops = idct_op_counts(n, "int-DCT-W")
        assert ops.multipliers == 0
        assert ops.adders > 0
        assert ops.shifters > 0

    def test_loeffler_counts_published(self):
        assert LOEFFLER_OP_COUNTS[8].multipliers == 11
        assert LOEFFLER_OP_COUNTS[8].adders == 29
        assert LOEFFLER_OP_COUNTS[16].multipliers == 26
        assert LOEFFLER_OP_COUNTS[16].adders == 81

    def test_dct_w_variant_uses_loeffler(self):
        assert idct_op_counts(8, "DCT-W") == LOEFFLER_OP_COUNTS[8]

    def test_adders_grow_with_window(self):
        a8 = idct_op_counts(8).adders
        a16 = idct_op_counts(16).adders
        a32 = idct_op_counts(32).adders
        assert a8 < a16 < a32

    def test_ws16_ops_in_table_iv_band(self):
        """Table IV: 186 adders / 128 shifters for WS=16; our greedy CSE
        should land within ~40% of the hand-optimized design."""
        ops = idct_op_counts(16)
        assert 110 <= ops.adders <= 270
        assert 30 <= ops.shifters <= 190

    def test_unknown_variant_rejected(self):
        with pytest.raises(CompressionError):
            idct_op_counts(8, "DCT-XYZ")


class TestAdderDepth:
    def test_depth_grows_with_window(self):
        assert idct_adder_depth(8) <= idct_adder_depth(16) <= idct_adder_depth(32)

    def test_multiplier_variant_deeper_than_int(self):
        assert idct_adder_depth(8, "DCT-W") > idct_adder_depth(8, "int-DCT-W")
