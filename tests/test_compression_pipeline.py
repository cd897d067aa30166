"""Tests for the DCT-N / DCT-W / int-DCT-W compression pipelines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import CompressionError
from repro.compression import (
    compress_waveform,
    compress_channel,
    decompress_channel,
    merge_windows,
    n_windows,
    split_windows,
)
from repro.compression.pipeline import forward_transform, inverse_transform
from repro.pulses import Waveform, drag, gaussian_square

#: The paper's Table II DCT codecs.
DCT_CODECS = ("DCT-N", "DCT-W", "int-DCT-W")


def _drag_waveform(n=144, amp=0.18):
    return Waveform(
        "x_q0", drag(n, amp, n / 4, -0.8), dt=1 / 4.54e9, gate="x", qubits=(0,)
    )


def _flat_top_waveform(n=1360, amp=0.3):
    return Waveform(
        "cr", gaussian_square(n, amp, 64, n - 256), dt=1 / 4.54e9, gate="cx",
        qubits=(0, 1),
    )


class TestWindowHelpers:
    def test_n_windows_ceil(self):
        assert n_windows(33, 16) == 3
        assert n_windows(32, 16) == 2

    def test_split_merge_roundtrip(self):
        x = np.arange(37)
        blocks = split_windows(x, 8)
        assert blocks.shape == (5, 8)
        np.testing.assert_array_equal(merge_windows(blocks, 37), x)

    def test_split_rejects_2d(self):
        with pytest.raises(CompressionError):
            split_windows(np.zeros((2, 2)), 4)

    def test_merge_rejects_overlong(self):
        with pytest.raises(CompressionError):
            merge_windows(np.zeros((2, 4)), 100)


class TestChannelCodec:
    @pytest.mark.parametrize("variant", ["DCT-W", "int-DCT-W"])
    @pytest.mark.parametrize("ws", [8, 16])
    def test_near_lossless_at_zero_threshold(self, variant, ws):
        """Smooth (waveform-like) channels survive a zero-threshold trip
        to within a few LSBs; all loss comes from thresholding."""
        t = np.arange(100)
        codes = np.rint(28000 * np.sin(np.pi * t / 99) ** 2).astype(np.int64)
        channel = compress_channel(codes, ws, variant, threshold=0)
        back = decompress_channel(channel)
        assert np.max(np.abs(back - codes)) <= 4 + 0.005 * 28000

    @pytest.mark.parametrize("variant", ["DCT-W", "int-DCT-W"])
    def test_noise_roundtrip_bounded_relative(self, variant):
        """Full-scale noise sees the HEVC matrices' ~1-2% near-
        orthogonality error (not a waveform use case, but bounded)."""
        rng = np.random.default_rng(4)
        codes = rng.integers(-30000, 30000, size=96)
        channel = compress_channel(codes, 16, variant, threshold=0)
        back = decompress_channel(channel)
        assert np.max(np.abs(back - codes)) <= 3 + 0.02 * 30000

    def test_thresholding_monotone_in_storage(self):
        wf = _flat_top_waveform()
        i_codes, _ = wf.to_fixed_point()
        sizes = []
        for threshold in [0, 32, 128, 512]:
            channel = compress_channel(i_codes.astype(np.int64), 16, "int-DCT-W", threshold)
            sizes.append(channel.stored_words_variable)
        assert sizes == sorted(sizes, reverse=True)

    def test_original_length_preserved(self):
        codes = np.arange(-50, 53)  # length 103, pads to 112
        channel = compress_channel(codes, 16, "int-DCT-W", 0)
        assert channel.original_length == 103
        assert decompress_channel(channel).size == 103


class TestCompressWaveform:
    @pytest.mark.parametrize("variant", DCT_CODECS)
    def test_reconstruction_faithful(self, variant):
        wf = _drag_waveform()
        result = compress_waveform(wf, window_size=16, codec=variant)
        assert result.mse < 5e-5
        assert result.reconstructed.n_samples == wf.n_samples
        assert result.reconstructed.gate == "x"

    def test_sx_like_pulse_ratio_is_5_33_uniform(self):
        """The paper's floor: 144-sample DRAG at WS=16 -> R = 16/3."""
        result = compress_waveform(_drag_waveform(amp=0.09), window_size=16)
        assert result.compressed.compression_ratio("uniform") == pytest.approx(
            16 / 3, rel=1e-9
        )

    def test_flat_top_compresses_harder_than_drag(self):
        """Fig 7: measurement/CR pulses compress better than 1Q gates."""
        drag_r = compress_waveform(_drag_waveform()).compression_ratio_variable
        flat_r = compress_waveform(_flat_top_waveform()).compression_ratio_variable
        assert flat_r > drag_r

    def test_dct_n_ratio_exceeds_windowed(self):
        """Fig 7b: DCT-N achieves ~100x on long waveforms, far above
        windowed variants."""
        wf = _flat_top_waveform()
        windowed = compress_waveform(wf, window_size=16).compression_ratio
        full = compress_waveform(wf, codec="DCT-N").compression_ratio
        assert full > 4 * windowed

    def test_int_variant_mse_at_least_float(self):
        """Fig 7c: integer approximation adds (slight) extra error."""
        wf = _flat_top_waveform()
        int_mse = compress_waveform(wf, window_size=16, codec="int-DCT-W", threshold=0).mse
        float_mse = compress_waveform(wf, window_size=16, codec="DCT-W", threshold=0).mse
        assert int_mse >= float_mse * 0.5  # same order; int never much better

    def test_mse_grows_with_threshold(self):
        wf = _flat_top_waveform()
        mses = [
            compress_waveform(wf, threshold=t).mse for t in [0, 128, 1024, 4096]
        ]
        assert mses == sorted(mses)

    def test_ws8_stores_more_than_ws16(self):
        """Fig 7b: RLE is capped at WS samples, so WS=8 caps at R=4."""
        wf = _flat_top_waveform()
        r8 = compress_waveform(wf, window_size=8).compression_ratio_variable
        r16 = compress_waveform(wf, window_size=16).compression_ratio_variable
        assert r8 < r16
        assert r8 <= 4.0 + 1e-9

    def test_channels_have_same_window_count(self):
        result = compress_waveform(_drag_waveform())
        compressed = result.compressed
        assert compressed.i_channel.n_windows == compressed.q_channel.n_windows

    def test_storage_accounting_identities(self):
        compressed = compress_waveform(_drag_waveform()).compressed
        assert compressed.stored_words("uniform") == (
            compressed.n_windows * compressed.worst_case_window_words
        )
        assert compressed.stored_words("variable") == sum(compressed.window_words)
        assert compressed.stored_words("variable") <= compressed.stored_words("uniform")
        assert compressed.stored_bits == 32 * compressed.stored_words("uniform")

    def test_unknown_packing_rejected(self):
        compressed = compress_waveform(_drag_waveform()).compressed
        with pytest.raises(CompressionError):
            compressed.stored_words("diagonal")

    def test_bad_variant_rejected(self):
        with pytest.raises(CompressionError):
            compress_waveform(_drag_waveform(), codec="DCT-Z")

    def test_bad_window_size_rejected(self):
        with pytest.raises(CompressionError):
            compress_waveform(_drag_waveform(), window_size=12)

    def test_negative_threshold_rejected(self):
        with pytest.raises(CompressionError):
            compress_waveform(_drag_waveform(), threshold=-1)

    def test_decompress_name_tags_variant(self):
        result = compress_waveform(_drag_waveform(), window_size=8)
        assert "int-DCT-W" in result.reconstructed.name


class TestTransformConvention:
    @given(
        hnp.arrays(np.int64, st.just(16), elements=st.integers(-32767, 32767))
    )
    @settings(max_examples=60, deadline=None)
    def test_coefficients_fit_16_bits(self, block):
        for variant in ("DCT-W", "int-DCT-W"):
            coeffs = forward_transform(block, variant)
            assert np.max(np.abs(coeffs)) <= 32767

    @pytest.mark.parametrize("variant", ["DCT-W", "int-DCT-W"])
    def test_forward_inverse_consistency(self, variant):
        rng = np.random.default_rng(9)
        block = rng.integers(-30000, 30000, size=16)
        back = inverse_transform(forward_transform(block, variant), variant)
        assert np.max(np.abs(back - block)) <= 3 + 0.02 * 30000
