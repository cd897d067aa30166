"""Tests for overlapping-window compression (Section VII-B's extension)."""

import numpy as np
import pytest

from repro.errors import CompressionError
from repro.compression import (
    compress_waveform,
    compress_channel_overlapping,
    compress_waveform_overlapping,
    decompress_channel_overlapping,
)
from repro.compression.overlap import _crossfade, _window_starts
from repro.pulses import Waveform, drag, gaussian_square


def _drag_wf(n=144):
    return Waveform(
        "x", drag(n, 0.18, n / 4, -0.7), dt=1 / 4.54e9, gate="x", qubits=(0,)
    )


class TestCrossfade:
    @pytest.mark.parametrize("ws", [8, 16, 32])
    def test_weights_tile_to_one_at_stride(self, ws):
        """A window's falling half plus the next window's rising half
        must sum to exactly 1 everywhere (perfect overlap-add)."""
        fade = _crossfade(ws)
        half = ws // 2
        np.testing.assert_allclose(fade[half:] + fade[:half], 1.0)

    def test_window_starts_cover_signal(self):
        starts = _window_starts(100, 16)
        assert starts[0] == 0
        assert starts[-1] + 16 >= 100
        assert all(b - a == 8 for a, b in zip(starts, starts[1:]))

    def test_short_signal_single_window(self):
        assert _window_starts(10, 16) == [0]


class TestRoundTrip:
    @pytest.mark.parametrize("ws", [8, 16])
    def test_near_lossless_at_zero_threshold(self, ws):
        wf = _drag_wf()
        result = compress_waveform_overlapping(wf, window_size=ws, threshold=0)
        assert result.mse < 1e-8

    def test_channel_roundtrip_smooth(self):
        t = np.arange(200)
        codes = np.rint(20000 * np.sin(np.pi * t / 199) ** 2).astype(np.int64)
        channel = compress_channel_overlapping(codes, 16, threshold=0)
        back = decompress_channel_overlapping(channel)
        assert np.max(np.abs(back - codes)) <= 60  # sub-0.3% of peak

    def test_reconstruction_length_preserved(self):
        wf = _drag_wf(150)  # not a multiple of the stride
        result = compress_waveform_overlapping(wf, window_size=8)
        assert result.reconstructed.n_samples == 150


class TestBoundaryDistortionFix:
    def test_overlap_beats_plain_ws8_quality(self):
        """The headline claim: overlapping windows reduce the WS=8
        boundary distortion by an order of magnitude."""
        wf = _drag_wf()
        plain = compress_waveform(wf, window_size=8, max_coefficients=1)
        overlap = compress_waveform_overlapping(wf, window_size=8, max_coefficients=1)
        assert overlap.mse < plain.mse / 3

    def test_overlap_costs_storage(self):
        wf = Waveform(
            "cr", gaussian_square(320, 0.3, 16, 256), dt=1e-9, gate="cx",
            qubits=(0, 1),
        )
        plain = compress_waveform(wf, window_size=8, max_coefficients=1)
        overlap = compress_waveform_overlapping(wf, window_size=8, max_coefficients=1)
        assert overlap.compression_ratio < plain.compression_ratio_variable

    def test_gate_error_not_worsened(self):
        """Overlap slashes MSE ~10x; the coherent gate error is already
        dominated by the envelope-area change rather than boundary hash
        (the qubit's rotating-frame integral low-passes it), so we
        assert it does not regress."""
        from repro.quantum import average_gate_fidelity, gate_error_unitary

        wf = _drag_wf()
        plain = compress_waveform(wf, window_size=8, max_coefficients=1)
        overlap = compress_waveform_overlapping(wf, window_size=8, max_coefficients=1)
        e_plain = gate_error_unitary(wf, plain.reconstructed, "x")
        e_overlap = gate_error_unitary(wf, overlap.reconstructed, "x")
        inf_plain = 1 - average_gate_fidelity(e_plain, np.eye(2))
        inf_overlap = 1 - average_gate_fidelity(e_overlap, np.eye(2))
        assert inf_overlap < inf_plain * 1.5


class TestValidation:
    def test_dct_n_rejected(self):
        with pytest.raises(CompressionError):
            compress_channel_overlapping(np.ones(32, dtype=int), 32, codec="DCT-N")

    def test_odd_window_rejected(self):
        with pytest.raises(CompressionError):
            compress_channel_overlapping(np.ones(32, dtype=int), 7)

    def test_empty_rejected(self):
        with pytest.raises(CompressionError):
            compress_channel_overlapping(np.array([], dtype=int), 8)
