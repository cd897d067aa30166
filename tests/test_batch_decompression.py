"""Cross-layer decode conformance: scalar, batched, and cycle-level.

COMPAQT's guarantees only hold if every decode path plays back exactly
what the compiler stored.  These tests hold the three implementations --
the scalar reference (`decompress_channel` / `decompress_waveform`), the
vectorized batch engine (`decompress_channels` / `decompress_batch`),
and the cycle-level microarchitecture (`DecompressionPipeline`) --
bit-identical across random waveforms, thresholds, window sizes and all
pipeline variants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompressionError
from repro.compression import (
    compress_batch,
    compress_waveform,
    decompress_batch,
    decompress_channels,
)
from repro.compression import batch as batch_module
from repro.compression.batch import finish_samples
from repro.compression.pipeline import (
    decompress_channel,
    decompress_waveform,
)
from repro.core import CompaqtCompiler
from repro.devices import google_device, ibm_device
from repro.microarch import DecompressionPipeline
from repro.pulses import Waveform

WINDOW_SIZES = (8, 16, 32)
#: Every registered codec: the Table II DCT family plus the promoted
#: delta and dictionary baselines.
CODECS = ("DCT-N", "DCT-W", "int-DCT-W", "delta", "dictionary")
#: Windowed codecs (everything but the full-frame DCT-N).
WINDOWED_VARIANTS = ("DCT-W", "int-DCT-W", "delta", "dictionary")
#: Variants the cycle-level hardware model supports (its RLE decoder
#: and IDCT engine are fixed-size DCT units; DCT-N has no fixed-size
#: engine and delta/dictionary have no IDCT at all).
MICROARCH_VARIANTS = ("DCT-W", "int-DCT-W")


@st.composite
def waveforms(draw, min_size=1, max_size=96):
    """Random I/Q envelopes with |samples| <= ~0.99."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    channel = st.lists(
        st.floats(
            min_value=-0.70, max_value=0.70, allow_nan=False, allow_infinity=False
        ),
        min_size=n,
        max_size=n,
    )
    i = np.asarray(draw(channel))
    q = np.asarray(draw(channel))
    return Waveform("fuzz", i + 1j * q, dt=1e-9, gate="x", qubits=(0,))


thresholds = st.integers(min_value=0, max_value=2000)


def _assert_three_way_identical(compressed, check_microarch: bool) -> None:
    """Scalar, batched, and (optionally) cycle-level decode all agree."""
    scalar_i = decompress_channel(compressed.i_channel)
    scalar_q = decompress_channel(compressed.q_channel)
    batched_i, batched_q = decompress_channels(
        [compressed.i_channel, compressed.q_channel]
    )
    np.testing.assert_array_equal(batched_i, scalar_i)
    np.testing.assert_array_equal(batched_q, scalar_q)

    reference = decompress_waveform(compressed)
    (batched_wf,) = decompress_batch([compressed])
    assert batched_wf.name == reference.name
    np.testing.assert_array_equal(batched_wf.samples, reference.samples)

    if check_microarch:
        report = DecompressionPipeline(16).stream(compressed)
        np.testing.assert_array_equal(report.i_samples, scalar_i)
        np.testing.assert_array_equal(report.q_samples, scalar_q)


class TestRandomWaveformConformance:
    @pytest.mark.parametrize("variant", WINDOWED_VARIANTS)
    @pytest.mark.parametrize("window_size", WINDOW_SIZES)
    @given(waveform=waveforms(), threshold=thresholds)
    @settings(max_examples=25, deadline=None)
    def test_windowed_variants_all_paths(self, variant, window_size, waveform, threshold):
        compressed = compress_waveform(
            waveform, window_size=window_size, codec=variant, threshold=threshold
        ).compressed
        _assert_three_way_identical(
            compressed, check_microarch=variant in MICROARCH_VARIANTS
        )

    @pytest.mark.parametrize("variant", ("delta", "dictionary"))
    @given(waveform=waveforms())
    @settings(max_examples=25, deadline=None)
    def test_promoted_codecs_lossless_at_zero_threshold(self, variant, waveform):
        """delta and dictionary are exact at threshold 0: the decoded
        sample codes equal the quantized input codes bit for bit."""
        result = compress_waveform(
            waveform, window_size=16, codec=variant, threshold=0
        )
        i_codes, q_codes = waveform.to_fixed_point()
        out_i, out_q = result.reconstructed.to_fixed_point()
        np.testing.assert_array_equal(out_i, i_codes)
        np.testing.assert_array_equal(out_q, q_codes)

    @given(waveform=waveforms(), threshold=thresholds)
    @settings(max_examples=40, deadline=None)
    def test_dct_n_scalar_vs_batched(self, waveform, threshold):
        compressed = compress_waveform(
            waveform, codec="DCT-N", threshold=threshold
        ).compressed
        _assert_three_way_identical(compressed, check_microarch=False)

    @given(waveform=waveforms(min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_single_window_pulses(self, waveform):
        """Pulses shorter than one window exercise the padded tail alone."""
        compressed = compress_waveform(
            waveform, window_size=8, codec="int-DCT-W"
        ).compressed
        assert compressed.n_windows == 1
        _assert_three_way_identical(compressed, check_microarch=True)


class TestLibraryConformance:
    @pytest.fixture(scope="class")
    def libraries(self):
        library = ibm_device("lima").pulse_library()
        return {
            variant: CompaqtCompiler(codec=variant).compile_library(library)
            for variant in CODECS
        }

    @pytest.mark.parametrize("variant", CODECS)
    def test_batch_decode_matches_scalar_per_pulse(self, libraries, variant):
        compiled = libraries[variant]
        entries = [result.compressed for _key, result in compiled]
        batched = decompress_batch(entries)
        for entry, waveform in zip(entries, batched):
            reference = decompress_waveform(entry)
            np.testing.assert_array_equal(waveform.samples, reference.samples)
            i_codes, q_codes = waveform.to_fixed_point()
            np.testing.assert_array_equal(
                i_codes, reference.to_fixed_point()[0]
            )
            np.testing.assert_array_equal(decompress_channel(entry.i_channel),
                                          i_codes.astype(np.int64))

    @pytest.mark.parametrize("variant", MICROARCH_VARIANTS)
    def test_microarch_stream_matches_batch_decode(self, libraries, variant):
        compiled = libraries[variant]
        pipeline = DecompressionPipeline(16)
        entries = [result.compressed for _key, result in compiled]
        batched = decompress_batch(entries)
        for entry, waveform in zip(entries, batched):
            report = pipeline.stream(entry)
            i_codes, q_codes = waveform.to_fixed_point()
            np.testing.assert_array_equal(report.i_samples, i_codes.astype(np.int64))
            np.testing.assert_array_equal(report.q_samples, q_codes.astype(np.int64))

    def test_batch_result_input_roundtrip(self):
        """decompress_batch(compress_batch(...)) reproduces per-pulse
        reconstructions across a heterogeneous library."""
        library = google_device(2, 3).pulse_library()
        pulses = [library.waveform(*key) for key in library.keys()]
        batch = compress_batch(pulses, window_size=8)
        decoded = decompress_batch(batch)
        for result, waveform in zip(batch, decoded):
            np.testing.assert_array_equal(
                waveform.samples, result.reconstructed.samples
            )

    def test_mixed_variants_in_one_batch(self):
        """One decode call may mix variants and window sizes; grouping
        must route every channel through the right inverse."""
        wf = Waveform(
            "mix", 0.5 * np.hanning(50) * (1 + 0.3j), dt=1e-9, gate="x", qubits=(1,)
        )
        entries = [
            compress_waveform(wf, window_size=8, codec="int-DCT-W").compressed,
            compress_waveform(wf, window_size=32, codec="DCT-W").compressed,
            compress_waveform(wf, codec="DCT-N").compressed,
            compress_waveform(wf, window_size=16, codec="int-DCT-W").compressed,
            compress_waveform(wf, window_size=16, codec="delta").compressed,
            compress_waveform(wf, window_size=8, codec="dictionary").compressed,
        ]
        decoded = decompress_batch(entries)
        for entry, waveform in zip(entries, decoded):
            reference = decompress_waveform(entry)
            np.testing.assert_array_equal(waveform.samples, reference.samples)


class TestValidation:
    def test_empty_inputs_rejected(self):
        with pytest.raises(CompressionError):
            decompress_batch([])
        with pytest.raises(CompressionError):
            decompress_channels([])

    def test_wrong_entry_type_rejected(self):
        with pytest.raises(CompressionError):
            decompress_batch(["not-a-compressed-waveform"])


def _from_fixed_point_oracle(i_codes, q_codes):
    return Waveform.from_fixed_point(
        np.clip(i_codes, -32768, 32767).astype(np.int16),
        np.clip(q_codes, -32768, 32767).astype(np.int16),
        dt=1e-9,
    ).samples


class TestFinishSamples:
    """The batched finish is bit-identical to ``from_fixed_point``."""

    @given(
        codes=st.lists(
            st.tuples(
                st.integers(-40000, 40000), st.integers(-40000, 40000)
            ),
            min_size=1,
            max_size=64,
        ),
        cuts=st.lists(st.integers(0, 64), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_codes_match_oracle(self, codes, cuts):
        i_all = np.array([c[0] for c in codes], dtype=np.int64)
        q_all = np.array([c[1] for c in codes], dtype=np.int64)
        bounds = sorted({0, len(codes), *(c % (len(codes) + 1) for c in cuts)})
        spans = list(zip(bounds, bounds[1:]))
        got = finish_samples(
            [i_all[a:b] for a, b in spans], [q_all[a:b] for a, b in spans]
        )
        assert [part.size for part in got] == [b - a for a, b in spans]
        for part in got:
            assert part.dtype == np.complex128
            assert part.base is None or len(got) == 1  # owns its samples
        np.testing.assert_array_equal(
            np.concatenate(got), _from_fixed_point_oracle(i_all, q_all)
        )

    def test_unit_circle_edge_matches_oracle(self):
        """Codes on and around |z| = 1, where the clamp decides."""
        edge = np.arange(-400, 401)
        rail = np.full(edge.size, 32767)
        diagonal = np.arange(23100, 23250)
        i_codes = np.concatenate([rail, edge, -rail - 1, diagonal, -diagonal])
        q_codes = np.concatenate([edge, rail, edge, diagonal, diagonal + 1])
        (got,) = finish_samples([i_codes], [q_codes])
        want = _from_fixed_point_oracle(i_codes, q_codes)
        np.testing.assert_array_equal(got, want)
        # Some samples were clamped, and some sat just inside the circle.
        raw = np.hypot(np.clip(i_codes, -32768, 32767), q_codes) / 32767
        assert (raw > 1.0).any() and ((raw > 1 - 1e-4) & (raw <= 1.0)).any()

    def test_chunked_batches_match_oracle(self, monkeypatch):
        """Many pulses finish in several chunks; each pulse stays whole."""
        monkeypatch.setattr(batch_module, "_FINISH_CHUNK", 7)
        rng = np.random.default_rng(3)
        sizes = [1, 3, 7, 12, 2, 2, 2, 9, 1]
        i_parts = [rng.integers(-40000, 40000, size) for size in sizes]
        q_parts = [rng.integers(-40000, 40000, size) for size in sizes]
        got = finish_samples(i_parts, q_parts)
        assert [part.size for part in got] == sizes
        for part, i_codes, q_codes in zip(got, i_parts, q_parts):
            assert part.base is None
            np.testing.assert_array_equal(
                part, _from_fixed_point_oracle(i_codes, q_codes)
            )

    def test_mismatched_channel_lengths_rejected(self):
        with pytest.raises(CompressionError, match="I channel decodes 3"):
            finish_samples([np.zeros(3, np.int64)], [np.zeros(4, np.int64)])
