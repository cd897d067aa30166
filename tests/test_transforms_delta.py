"""Tests for the base-delta baseline (Fig 7a's delta bars)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import CompressionError
from repro.pulses import drag, lifted_gaussian, quantize
from repro.compression.codecs.delta import delta_compress, delta_decompress


def sample_arrays():
    return hnp.arrays(
        np.int64, st.integers(1, 200), elements=st.integers(-32767, 32767)
    )


class TestLossless:
    @given(sample_arrays())
    @settings(max_examples=100, deadline=None)
    def test_sign_magnitude_roundtrip(self, samples):
        encoded = delta_compress(samples, representation="sign-magnitude")
        np.testing.assert_array_equal(delta_decompress(encoded), samples)

    @given(sample_arrays())
    @settings(max_examples=100, deadline=None)
    def test_twos_complement_roundtrip(self, samples):
        encoded = delta_compress(samples, representation="twos-complement")
        np.testing.assert_array_equal(delta_decompress(encoded), samples)


class TestPaperBehaviour:
    def test_smooth_unipolar_waveform_compresses_about_2x(self):
        """No zero crossing: deltas are small, R approaches 2 (Fig 7a)."""
        codes = quantize(lifted_gaussian(160, 0.9, 40).real).astype(np.int64)
        encoded = delta_compress(codes)
        assert 1.4 <= encoded.compression_ratio <= 2.6

    def test_zero_crossing_waveform_incompressible_in_sign_magnitude(self):
        """The DRAG quadrature crosses zero: sign-magnitude deltas span
        the full bit-field, so R collapses to ~1 (the paper's point)."""
        codes = quantize(drag(160, 0.9, 40, 2.0).imag).astype(np.int64)
        encoded = delta_compress(codes, representation="sign-magnitude")
        assert encoded.compression_ratio <= 1.05

    def test_twos_complement_survives_zero_crossing(self):
        """Ablation: a different sample format would rescue delta."""
        codes = quantize(drag(160, 0.9, 40, 2.0).imag).astype(np.int64)
        encoded = delta_compress(codes, representation="twos-complement")
        assert encoded.compression_ratio > 1.5

    def test_constant_stream_max_ratio(self):
        encoded = delta_compress(np.full(100, 123))
        assert encoded.delta_bits == 1
        assert encoded.compression_ratio > 10


class TestValidation:
    def test_unknown_representation_rejected(self):
        with pytest.raises(CompressionError):
            delta_compress(np.ones(4, dtype=int), representation="gray")

    def test_empty_input_rejected(self):
        with pytest.raises(CompressionError):
            delta_compress(np.array([], dtype=int))

    def test_out_of_range_sample_rejected(self):
        with pytest.raises(CompressionError):
            delta_compress(np.array([40000]), sample_bits=16)

    def test_encoded_bits_accounting(self):
        encoded = delta_compress(np.array([0, 1, 2, 3]))
        assert encoded.encoded_bits == 16 + 3 * encoded.delta_bits
        assert encoded.original_bits == 64
