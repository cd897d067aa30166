"""Batched-vs-scalar parity: the batch engine must be bit-identical.

The scalar pipeline is the reference implementation; `compress_batch`
must reproduce its `EncodedWindow` streams, compression ratios, MSE and
reconstructed samples exactly -- across variants, window sizes, devices,
and the top-k coefficient cap.  These tests are what the CI bench-smoke
job's parity gate is anchored to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompressionError
from repro.compression import (
    BatchCompressionResult,
    compress_batch,
    compress_waveform,
)
from repro.compression.pipeline import (
    forward_transform,
    forward_transform_blocks,
    inverse_transform_blocks,
    inverse_transform,
)
from repro.core import CompaqtCompiler
from repro.devices import fluxonium_device, ibm_device
from repro.transforms.rle import rle_encode_blocks, rle_encode_window
from repro.transforms.threshold import (
    hard_threshold,
    top_k_blocks,
    trailing_zero_run,
    trailing_zero_runs,
)

WINDOW_SIZES = (8, 16, 32)
#: Every registered codec: the DCT family plus the promoted baselines.
CODECS = ("DCT-N", "DCT-W", "int-DCT-W", "delta", "dictionary")


@pytest.fixture(scope="module")
def bogota_waveforms():
    library = ibm_device("bogota").pulse_library()
    return [library.waveform(*key) for key in library.keys()]


@pytest.fixture(scope="module")
def fluxonium_waveforms():
    library = fluxonium_device(3).pulse_library()
    return [library.waveform(*key) for key in library.keys()]


def _assert_bit_identical(waveforms, **kwargs):
    batch = compress_batch(waveforms, **kwargs)
    for waveform, batched in zip(waveforms, batch):
        scalar = compress_waveform(waveform, **kwargs)
        # Dataclass equality covers every EncodedWindow coefficient and
        # zero-run of both channels.
        assert scalar.compressed == batched.compressed
        assert scalar.mse == batched.mse
        assert scalar.compression_ratio == batched.compression_ratio
        assert (
            scalar.compression_ratio_variable
            == batched.compression_ratio_variable
        )
        assert np.array_equal(
            scalar.reconstructed.samples, batched.reconstructed.samples
        )


class TestDeviceParity:
    @pytest.mark.parametrize("variant", CODECS)
    @pytest.mark.parametrize("window_size", WINDOW_SIZES)
    def test_bogota_streams_bit_identical(
        self, bogota_waveforms, variant, window_size
    ):
        if variant == "DCT-N" and window_size != WINDOW_SIZES[0]:
            pytest.skip("DCT-N ignores window size")
        _assert_bit_identical(
            bogota_waveforms, window_size=window_size, codec=variant
        )

    @pytest.mark.parametrize("variant", CODECS)
    def test_fluxonium_streams_bit_identical(self, fluxonium_waveforms, variant):
        _assert_bit_identical(fluxonium_waveforms, window_size=16, codec=variant)

    def test_top_k_cap_parity(self, bogota_waveforms):
        _assert_bit_identical(
            bogota_waveforms, window_size=8, codec="int-DCT-W", max_coefficients=2
        )

    def test_zero_threshold_parity(self, bogota_waveforms):
        _assert_bit_identical(
            bogota_waveforms[:4], window_size=16, codec="DCT-W", threshold=0
        )

    def test_compiler_batched_matches_scalar(self, bogota_waveforms):
        library = ibm_device("bogota").pulse_library()
        batched = CompaqtCompiler(window_size=16).compile_library(library)
        scalar = CompaqtCompiler(window_size=16, batched=False).compile_library(
            library
        )
        assert batched.overall_ratio == scalar.overall_ratio
        assert batched.mean_mse == scalar.mean_mse
        for key in library.keys():
            assert batched.result(*key).compressed == scalar.result(*key).compressed


class TestBatchResult:
    def test_provenance_and_aggregates(self, bogota_waveforms):
        batch = compress_batch(bogota_waveforms, window_size=16)
        assert isinstance(batch, BatchCompressionResult)
        assert batch.n_pulses == len(bogota_waveforms)
        assert len(batch) == len(bogota_waveforms)
        assert batch.total_samples == sum(w.n_samples for w in bogota_waveforms)
        assert batch.overall_ratio("variable") >= batch.overall_ratio("uniform") > 1
        assert 0 < batch.mean_mse <= batch.max_mse
        first = bogota_waveforms[0]
        assert batch.result_for(first.name).compressed.name == first.name
        assert batch[0].compressed.name == first.name
        with pytest.raises(CompressionError):
            batch.result_for("no-such-pulse")

    def test_input_validation(self, bogota_waveforms):
        with pytest.raises(CompressionError):
            compress_batch([])
        with pytest.raises(CompressionError):
            compress_batch(bogota_waveforms, window_size=12)
        with pytest.raises(CompressionError):
            compress_batch(bogota_waveforms, threshold=-1)
        with pytest.raises(CompressionError):
            compress_batch(bogota_waveforms, max_coefficients=-1)
        with pytest.raises(CompressionError):
            compress_batch(bogota_waveforms, codec="nope")


int16s = st.integers(min_value=-32768, max_value=32767)


class TestKernelParity:
    """Property-style checks of each vectorized kernel against its
    scalar counterpart on random int16 windows."""

    @given(st.lists(st.lists(int16s, min_size=16, max_size=16), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_forward_blocks_match_scalar(self, rows):
        blocks = np.array(rows, dtype=np.int64)
        for variant in CODECS:
            batched = forward_transform_blocks(blocks, variant)
            for row, out in zip(blocks, batched):
                assert np.array_equal(forward_transform(row, variant), out)

    @given(st.lists(st.lists(int16s, min_size=16, max_size=16), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_inverse_blocks_match_scalar(self, rows):
        coeffs = np.array(rows, dtype=np.int64)
        for variant in CODECS:
            batched = inverse_transform_blocks(coeffs, variant)
            for row, out in zip(coeffs, batched):
                assert np.array_equal(inverse_transform(row, variant), out)

    @given(
        st.lists(st.lists(int16s, min_size=8, max_size=8), min_size=1, max_size=16),
        st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=50, deadline=None)
    def test_rle_and_runs_match_scalar(self, rows, threshold):
        blocks = hard_threshold(np.array(rows, dtype=np.int64), threshold)
        encoded = rle_encode_blocks(blocks)
        assert encoded == tuple(rle_encode_window(row) for row in blocks)
        runs = trailing_zero_runs(blocks)
        assert list(runs) == [trailing_zero_run(row) for row in blocks]

    @given(
        st.lists(st.lists(int16s, min_size=8, max_size=8), min_size=1, max_size=16),
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=50, deadline=None)
    def test_top_k_matches_scalar(self, rows, k):
        blocks = np.array(rows, dtype=np.int64)
        batched = top_k_blocks(blocks, k)
        for row, out in zip(blocks, batched):
            kept = row.copy()
            if np.count_nonzero(kept) > k:
                order = np.argsort(np.abs(kept))
                kept[order[: kept.size - k]] = 0
            assert np.array_equal(kept, out)
